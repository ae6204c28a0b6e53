"""The three benchmark workloads and the inputs each one gives the program.

Every workload is closed-loop: one client runs one `recridge run` at a time
in a single process. The seed passed to the benchmark feeds `synth_seed`,
`rp_seed`, `fusion_seed` and the FMAT file generator; the program sees only
the config and data files written here. All workloads use
`synth_separation = 3.0`: at the default of 10 every run scores 100 %, so
accuracy could not show a regression.

Sizes are chosen so that each module a later change may optimise does most
of its work on one workload and little on another:

* repoint_files: data comes from FMAT files, phases have n >= d_rp rows so
  `auto` takes the O(d^3) direct path, and the d_rp 768 checkpoint is 15 MB.
* refu_wide: the only workload that runs fusion; d_rp 1536 is the widest
  memory, so the phase-0 inverse and peak RSS are set here. Phases have
  n << d_rp rows, so `auto` takes the Woodbury path.
* many_phases: small linear algebra (d_rp 384, 60-row phases) over 100
  phases, so per-phase fixed cost and evaluation dominate.

Every workload checkpoints and reloads its final state after the run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

SEPARATION = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str
    classes: int
    per_class: int
    test_per_class: int
    dim: int
    phases: int
    from_files: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("repoint_files", "repoint", 20, 250, 100, 64, 5, from_files=True),
        Workload("refu_wide", "refu", 20, 100, 50, 64, 10, from_files=False),
        Workload("many_phases", "repoint", 200, 30, 20, 32, 100, from_files=False),
    )
}


def write_inputs(harness, workload: Workload, seed: int, directory: str) -> str:
    """Write the workload's config (and data files) into ``directory``.

    ``harness`` is the program's `cil_harness` module; file-backed inputs
    go through its public `synth_dataset`/`save_features`/`save_labels`.
    Returns the config path. The same seed always writes the same bytes.
    """
    lines = [
        f"pipeline = {workload.pipeline}",
        f"schedule = {workload.classes}/{workload.phases}",
        f"rp_seed = {seed}",
        "out = result.txt",
    ]
    if workload.from_files:
        for split, per, stream in (
            ("train", workload.per_class, 0),
            ("test", workload.test_per_class, 1),
        ):
            feats, labels = harness.synth_dataset(
                workload.classes, per, workload.dim, SEPARATION, seed, stream=stream
            )
            harness.save_features(os.path.join(directory, f"{split}.fmat"), feats)
            harness.save_labels(os.path.join(directory, f"{split}.labl"), labels)
            lines.append(f"features_{split} = {split}.fmat")
            lines.append(f"labels_{split} = {split}.labl")
    else:
        lines += [
            f"synth_classes = {workload.classes}",
            f"synth_per_class = {workload.per_class}",
            f"synth_test_per_class = {workload.test_per_class}",
            f"synth_dim = {workload.dim}",
            f"synth_separation = {SEPARATION!r}",
            f"synth_seed = {seed}",
        ]
        if workload.pipeline == "refu":
            lines.append(f"fusion_seed = {seed}")
    path = os.path.join(directory, "experiment.cfg")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
