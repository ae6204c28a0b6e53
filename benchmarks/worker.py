"""One measured `recridge run` in a fresh process.

run.py starts this once per repetition, so that peak RSS belongs to one run
and import cost never lands in a timed region:

    python3 worker.py --src SRC --config CFG [--trace] [--spans FILE] [--size-probe]

The run goes through the public entry points only: in-process
`cli.main(["run", "--config", CFG])`, then `rilm.save_state` and
`rilm.load_state` on the final state. Prints one JSON line with the
measurements and the checks that failed, each tagged with the operation
("run" or "ckpt") it fails.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stdout

JOINT_FIT_RTOL = 1e-8


def _check_outputs(stdout: str, out_dir: str, failures: list) -> dict:
    """The result file and its .csv sibling must say what stdout said.

    Returns A, R and the final-phase accuracy as printed.
    """
    lines = stdout.splitlines()
    with open(os.path.join(out_dir, "result.txt"), encoding="utf-8") as fh:
        if fh.read() != stdout:
            failures.append(("run", "result.txt differs from stdout"))
    rows = []
    for line in lines[:-1]:
        fields = dict(part.split("=", 1) for part in line.split())
        rows.append(f"{fields['phase']},{fields['seen_classes']},{fields['acc']}")
    with open(os.path.join(out_dir, "result.csv"), encoding="utf-8") as fh:
        if fh.read() != "phase,seen_classes,accuracy\n" + "".join(r + "\n" for r in rows):
            failures.append(("run", "result.csv differs from stdout"))
    agg = dict(part.split("=", 1) for part in lines[-1].split())
    return {
        "acc_avg": float(agg["A"]),
        "retention_drop": float(agg["R"]),
        "acc_last": float(rows[-1].rsplit(",", 1)[1]),
    }


def _same_state(a, b) -> bool:
    return (
        a.weights.shape == b.weights.shape
        and a.r.shape == b.r.shape
        and a.weights.tobytes() == b.weights.tobytes()
        and a.r.tobytes() == b.r.tobytes()
        and a.eta == b.eta
        and a.phase == b.phase
        and a.class_ids == b.class_ids
    )


def _joint_fit_error(np, ex, state) -> float:
    """Relative gap between the recursion's weights and one joint ridge fit."""
    f = ex.train_features
    column = {cid: j for j, cid in enumerate(state.class_ids)}
    y = np.zeros((f.shape[0], len(column)))
    y[np.arange(f.shape[0]), [column[int(c)] for c in ex.train_labels]] = 1.0
    joint = np.linalg.solve(f.T @ f + state.eta * np.eye(f.shape[1]), f.T @ y)
    return float(np.linalg.norm(state.weights - joint) / np.linalg.norm(joint))


def _lapack_cholesky_seconds(np, sizes) -> float:
    """Time np.linalg.cholesky on SPD matrices of the sizes the program factored."""
    gen = np.random.default_rng(0)
    total = 0.0
    for n, calls in Counter(sizes).items():
        g = gen.standard_normal((n, n))
        a = g.T @ g / n + np.eye(n)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            np.linalg.cholesky(a)
            best = min(best, time.perf_counter() - t0)
        total += calls * best
    return total


def measure(args) -> dict:
    sys.path.insert(0, args.src)
    import numpy as np

    from recridge import cil_harness, cli, rilm

    import layertrace

    ready_at = time.monotonic()
    mods = {name: sys.modules[f"recridge.{name}"] for name in layertrace.LAYERS}
    tracer = layertrace.Tracer(mods) if args.trace else None
    root = tracer.root if tracer else (lambda name: nullcontext())

    # Keep the experiment and final state that run_pipeline does not return.
    captured = {}
    run_phases = cil_harness.run_phases

    def capture(ex, *a, **kw):
        report, state = run_phases(ex, *a, **kw)
        captured.update(ex=ex, state=state)
        return report, state

    cil_harness.run_phases = capture

    failures: list = []
    out = {"ready_at": ready_at, "failures": failures}
    buf = io.StringIO()
    with root("bench.run") as run_span:
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            code = cli.main(["run", "--config", args.config])
        out["run_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if code != 0 or "state" not in captured:
        failures.append(("run", f"recridge run exited {code}"))
        failures.append(("ckpt", "no final state to checkpoint"))
        return out
    out.update(_check_outputs(buf.getvalue(), os.path.dirname(args.config), failures))

    state = captured["state"]
    ckpt = os.path.join(os.path.dirname(args.config), "state.ckpt")
    with root("bench.ckpt"):
        t0 = time.perf_counter()
        rilm.save_state(state, ckpt)
        loaded = rilm.load_state(ckpt)
        t1 = time.perf_counter()
    out.update(ckpt_s=t1 - t0, ckpt_bytes=os.path.getsize(ckpt))
    if not _same_state(state, loaded):
        failures.append(("ckpt", "checkpoint round trip is not bit-identical"))

    # Everything below is outside every timed span.
    if tracer is not None:
        tracer.uninstall()
    if args.size_probe:
        # Same (d_rp, classes, eta, phase), different values and no samples
        # behind them: the checkpoint must have exactly the same size. Run
        # in the first traced run only, as it costs one more checkpoint write.
        probe = rilm.RilmState(
            weights=state.weights[::-1] * -1e3 + 0.5,
            r=state.r[::-1, ::-1] * 7.0,
            eta=state.eta,
            phase=state.phase,
            class_ids=state.class_ids,
        )
        probe_path = ckpt + ".probe"
        rilm.save_state(probe, probe_path)
        if os.path.getsize(probe_path) != out["ckpt_bytes"]:
            failures.append(("ckpt", "checkpoint size depends on more than (d_rp, classes)"))
        os.remove(probe_path)
    if tracer is not None:
        err = _joint_fit_error(np, captured["ex"], state)
        if not err <= JOINT_FIT_RTOL:
            failures.append(("run", f"final weights differ from the joint ridge fit by {err!r}"))
        layers = layertrace.layer_metrics(tracer.spans, run_span, out["ckpt_bytes"])
        sizes = layertrace.factor_sizes(tracer.spans)
        ref_s = _lapack_cholesky_seconds(np, sizes)
        ref_flops = sum(layertrace.cholesky_flops(n) for n in sizes)
        layers["dense_linalg.ref_gflops"] = ref_flops / ref_s / 1e9 if ref_s > 0 else 0.0
        layers["rilm.joint_fit_rel_err"] = err
        out["layers"] = layers
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump([s.as_dict() for s in tracer.spans], fh)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--size-probe", action="store_true")
    args = ap.parse_args(argv)
    try:
        out = measure(args)
    except Exception:  # report any crash as a failed run, with its traceback
        traceback.print_exc()
        out = {"failures": [("run", "worker crashed"), ("ckpt", "worker crashed")]}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
