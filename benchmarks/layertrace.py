"""Outside-in tracing of the recridge layers.

The tracer rebinds public functions at the names their callers resolve them
through (for example `rilm.spd_solve`, the name `rilm_init` calls, or
`cil_harness.rp_forward`, the name `prepare_experiment` calls) and records
one span per call: name, layer, start, end and the index of the enclosing
span. Nothing under `src/` changes. Spans stay in memory; the caller writes
them out when the benchmark ends.

A span's layer is the module that defines the wrapped function, so the
alias `cil_harness.load_features` (which is `fmat.load_matrix`) counts as
`fmat`. Self time is a span's duration minus the time its direct children
cover; the seven layer self times partition the traced run.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

LAYERS = ("cli", "cil_harness", "fmat", "random_projection", "fusion", "rilm", "dense_linalg")


def _rows(value) -> int:
    return int(getattr(value, "shape", (len(value),))[0])


# (module, attribute, counter). The counter maps (args, result) to the
# counts recorded on the span; None records the span only.
def _targets(mods):
    cli, harness, rilm = mods["cli"], mods["cil_harness"], mods["rilm"]
    fusion, fmat, dense = mods["fusion"], mods["fmat"], mods["dense_linalg"]
    file_bytes = lambda a, r: {"bytes": os.path.getsize(a[0])}  # noqa: E731
    rows = lambda a, r: {"rows": _rows(a[1])}  # noqa: E731
    return [
        (cli, "main", None),
        (harness, "load_config", None),
        (harness, "run_pipeline", None),
        (harness, "prepare_experiment", None),
        (harness, "synth_dataset", None),
        (harness, "load_features", file_bytes),
        (harness, "load_labels", file_bytes),
        (harness, "rp_new", None),
        (harness, "rp_forward", rows),
        (harness, "run_phases", None),
        (harness, "phase_dataset", None),
        (harness, "evaluate_accuracy", None),
        (harness, "save_result", None),
        (harness, "save_result_csv", None),
        (fusion, "fusion_init", None),
        (fusion, "fused_features", rows),
        (rilm, "rilm_init", None),
        (rilm, "expand_classes", None),
        (rilm, "rilm_update", None),
        (rilm, "update_r", lambda a, r: {"n": _rows(a[1]), "d": int(a[0].r.shape[0])}),
        (rilm, "predict", rows),
        (rilm, "save_state", None),
        (rilm, "load_state", None),
        (rilm, "spd_solve", lambda a, r: {"n": _rows(a[0]), "k": int(a[1].shape[1])}),
        (rilm, "spd_inverse", lambda a, r: {"n": _rows(a[0])}),
        (fmat, "open_cursor", None),
        (fmat, "write_matrix_block", None),
        (fmat, "write_labels_block", None),
        (fmat, "read_matrix_block", None),
        (fmat, "read_labels_block", None),
        (dense, "spd_solve", lambda a, r: {"n": _rows(a[0]), "k": int(a[1].shape[1])}),
        (dense, "cholesky_lower", lambda a, r: {"n": _rows(a[0])}),
        # Private kernels: wrapped while they exist, so a change that
        # replaces them shows as substitution time moving into spd_solve.
        (dense, "_forward_substitution", None),
        (dense, "_back_substitution", None),
    ]


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "counts")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name, "layer": self.layer, "start": self.start, "end": self.end,
            "parent": self.parent, "counts": self.counts,
        }


class Tracer:
    """Wraps the recridge layer functions and collects spans in memory.

    ``mods`` maps each name in LAYERS to the imported recridge module.
    """

    def __init__(self, mods: dict):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        for owner, attr, counter in _targets(mods):
            original = getattr(owner, attr, None)
            if original is None:
                continue
            layer = original.__module__.rsplit(".", 1)[-1]
            setattr(owner, attr, self._wrap(original, f"{layer}.{original.__name__}", layer, counter))
            self._restore.append((owner, attr, original))

    def _open(self, name, layer) -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, layer, counter):
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def root(self, name: str):
        """A benchmark-side span; its self time is attributed to no layer."""
        span = self._open(name, "bench")
        try:
            yield span
        finally:
            self._close(span)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _self_times(spans) -> list[float]:
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _under(spans, i: int, ancestor: str) -> bool:
    while i >= 0:
        if spans[i].name == ancestor:
            return True
        i = spans[i].parent
    return False


def cholesky_flops(n: int) -> float:
    return n**3 / 3.0


def solve_flops(n: int, k: int) -> float:
    # Cholesky of the n x n system plus one forward/back substitution pair.
    return cholesky_flops(n) + 2.0 * n * n * k


def factor_sizes(spans) -> list[int]:
    """Sizes n of every SPD factorization the program asked for, from call shapes."""
    return [s.counts["n"] for s in _top_dense(spans)]


def _top_dense(spans):
    # dense_linalg calls made from outside dense_linalg; spd_inverse's own
    # spd_solve is part of its caller's span, not a second top-level call.
    return [
        s for s in spans
        if s.layer == "dense_linalg" and s.counts is not None
        and (s.parent < 0 or spans[s.parent].layer != "dense_linalg")
    ]


def layer_metrics(spans, run_span: Span, ckpt_bytes: int) -> dict:
    """Per-layer metrics of one traced run plus checkpoint round trip.

    ``dense_linalg.flops`` is computed from call shapes (n^3/3 per
    factorization of an n x n system, 2 n^2 k per substitution pair against
    k right-hand sides, an explicit inverse being k = n), not counted in
    hardware. ``ref_gflops`` is filled in by the caller.
    """
    selfs = _self_times(spans)
    total: dict[str, float] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration

    def dur(*names):
        return sum(total.get(n, 0.0) for n in names)

    def self_of(name):
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    def count(name, key):
        return sum(s.counts[key] for s in spans if s.name == name and s.counts)

    run_idx = spans.index(run_span)

    top = _top_dense(spans)
    top_inv = [s for s in top if s.name == "dense_linalg.spd_inverse"]
    top_solve = [s for s in top if s.name == "dense_linalg.spd_solve"]
    flops = sum(solve_flops(s.counts["n"], s.counts["n"]) for s in top_inv) + sum(
        solve_flops(s.counts["n"], s.counts["k"]) for s in top_solve
    )
    dense_s = sum(s.duration for s in top)
    updates = [s for s in spans if s.name == "rilm.update_r"]
    phases = sorted(s.duration for s in spans if s.name in ("rilm.rilm_init", "rilm.rilm_update"))

    # Block I/O of the checkpoint only, not of the FMAT data files.
    write_s = read_s = 0.0
    for i, s in enumerate(spans):
        if s.name in ("fmat.write_matrix_block", "fmat.write_labels_block"):
            write_s += s.duration if _under(spans, i, "rilm.save_state") else 0.0
        if s.name in ("fmat.open_cursor", "fmat.read_matrix_block", "fmat.read_labels_block"):
            read_s += s.duration if _under(spans, i, "rilm.load_state") else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, (s, t) in enumerate(zip(spans, selfs)):
        if s.layer in layer_self and _under(spans, i, run_span.name):
            layer_self[s.layer] += t

    m = {
        "dense_linalg.spd_inverse_s": sum(s.duration for s in top_inv),
        "dense_linalg.spd_inverse_calls": len(top_inv),
        "dense_linalg.spd_solve_s": sum(s.duration for s in top_solve),
        "dense_linalg.spd_solve_calls": len(top_solve),
        "dense_linalg.cholesky_s": dur("dense_linalg.cholesky_lower"),
        "dense_linalg.substitution_s": dur(
            "dense_linalg._forward_substitution", "dense_linalg._back_substitution"
        ),
        "dense_linalg.flops": flops,
        "dense_linalg.gflops": flops / dense_s / 1e9 if dense_s > 0 else 0.0,
        "rilm.rilm_init_s": dur("rilm.rilm_init"),
        "rilm.update_r_s": dur("rilm.update_r"),
        "rilm.update_r.calls_n_lt_d": sum(1 for s in updates if s.counts["n"] < s.counts["d"]),
        "rilm.update_r.calls_n_ge_d": sum(1 for s in updates if s.counts["n"] >= s.counts["d"]),
        "rilm.weight_update_s": self_of("rilm.rilm_update"),
        "rilm.phase_p50_s": phases[(len(phases) - 1) // 2] if phases else 0.0,
        "rilm.phase_max_s": phases[-1] if phases else 0.0,
        "rilm.predict_s": dur("rilm.predict"),
        "rilm.predict_rows": count("rilm.predict", "rows"),
        "rilm.save_state_s": dur("rilm.save_state"),
        "rilm.load_state_s": dur("rilm.load_state"),
        "fmat.write_block_s": write_s,
        "fmat.read_block_s": read_s,
        "fmat.ckpt_bytes": ckpt_bytes,
        "fmat.load_s": dur("fmat.load_matrix", "fmat.load_labels"),
        "fmat.load_bytes": count("fmat.load_matrix", "bytes") + count("fmat.load_labels", "bytes"),
        "random_projection.rp_new_s": dur("random_projection.rp_new"),
        "random_projection.rp_forward_s": dur("random_projection.rp_forward"),
        "random_projection.rows": count("random_projection.rp_forward", "rows"),
        "fusion.fused_features_s": dur("fusion.fused_features"),
        "fusion.rows": count("fusion.fused_features", "rows"),
        "cil_harness.load_config_s": dur("cil_harness.load_config"),
        "cil_harness.prepare_experiment_s": self_of("cil_harness.prepare_experiment"),
        "cil_harness.synth_dataset_s": dur("cil_harness.synth_dataset"),
        "cil_harness.phase_dataset_s": dur("cil_harness.phase_dataset"),
        "cil_harness.evaluate_accuracy_s": self_of("cil_harness.evaluate_accuracy"),
        "cil_harness.save_result_s": dur("cil_harness.save_result", "cil_harness.save_result_csv"),
        "cli.overhead_s": dur("cli.main") - dur("cil_harness.run_pipeline"),
        "unattributed_s": selfs[run_idx],
    }
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = t
    return m
