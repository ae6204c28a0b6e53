"""recridge benchmark: three class-incremental workloads, end to end and per layer.

    python3 benchmarks/run.py --workload repoint_files --seed 1 --seconds 20 --trace 0

The program is imported from the `src/` directory next to this one; there is
nothing to build. One invocation:

1. sets up: writes the workload's inputs from the seed three times (they
   must be byte-identical) and times each write;
2. repeats, closed-loop, one `recridge run` per fresh worker process
   (worker.py) until ``--seconds`` have passed and at least three runs are
   done; with ``--trace 1`` untraced and traced runs alternate, at least
   two of each;
3. checks every output and prints one line per metric, then the result as
   one JSON object on the last line of stdout.

End-to-end metrics (``--trace 0``) are medians over the untraced runs; the
gated names, units and bounds are in BENCHMARK.json:

* run_s          wall time of `cli.main(["run", ...])`, in-process
* setup_s        median input write plus median worker start-up (imports)
* peak_rss_mb    peak RSS of the worker after the run, one process per run
* acc_avg        A from the result file (percent)
* acc_last       accuracy after the last phase (percent)

Two more are recorded and compared but not gated. ckpt_s, `rilm.save_state`
plus `rilm.load_state` of the final state, is pure-interpreter float
formatting and parsing; on a shared 2-vCPU Xeon host, whose speed for such
code drifts by up to 1.9x over minutes, the quartile distance of its
per-invocation medians over ten seeds reached 0.39 of their median, more
than any bound allows. The retention drop R is not gated
because on repoint_files the first phase (1000 rows against d_rp 768)
scores about as low as the last, so R sits near zero and changes sign
between seeds.

Accuracies must repeat exactly across the runs of an invocation. Failed
operations (runs, checkpoint round trips, input writes whose checks fail)
are ``failed`` out of ``attempted`` in the result object.

Per-layer metrics (``--trace 1``) are medians over the traced runs; see
layertrace.py. ``trace_overhead_s`` is the traced minus the untraced median
run time of the same invocation.

Each invocation also writes a record with quartiles, sample counts and the
environment to ``benchmarks/out/<workload>-trace<t>-seed<seed>.json``
(spans of the traced runs next to it); compare.py compares two sets of
records.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUPS = 3
# Fewest runs per invocation, untraced (--trace 0) and alternating (--trace 1).
MIN_RUNS = (3, 4)
WORKER_TIMEOUT_S = 90
# BLAS threads in every benchmark process: at most the CPUs this process
# may use, and never more than 2, so results from larger machines compare.
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "recridge").glob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "src_recridge_lines": src_lines,
    }


def setup(harness, workload, seed: int, workdir: Path, failures: list) -> tuple[str, list]:
    """Write the inputs SETUPS times; returns the config of the first and the times."""
    times = []
    for i in range(SETUPS):
        d = workdir / f"inputs{i}"
        d.mkdir()
        t0 = time.perf_counter()
        write_inputs(harness, workload, seed, str(d))
        times.append(time.perf_counter() - t0)
        if i:
            names = sorted(os.listdir(workdir / "inputs0"))
            _, mismatch, errors = filecmp.cmpfiles(workdir / "inputs0", d, names, shallow=False)
            if mismatch or errors or sorted(os.listdir(d)) != names:
                failures.append(("setup", f"inputs for seed {seed} are not reproducible"))
            shutil.rmtree(d)
    return str(workdir / "inputs0" / "experiment.cfg"), times


def run_worker(config: str, traced: bool, spans: str | None, size_probe: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--config", config]
    if traced:
        cmd += ["--trace", "--spans", spans]
    if size_probe:
        cmd.append("--size-probe")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        out = {"failures": [("run", "worker printed no result"), ("ckpt", "no result")]}
    if proc.returncode != 0:
        out["failures"].append(("run", f"worker exited {proc.returncode}"))
    if "ready_at" in out:
        out["ready_s"] = out["ready_at"] - started
    out["traced"] = traced
    return out


def summarize(samples: dict) -> dict:
    out = {}
    for name, values in samples.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        out[name] = {"value": med, "q1": q1, "q3": q3, "n": len(values)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "recridge" / "__init__.py").is_file():
        print(f"error: recridge sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    # Before numpy loads here, and inherited by every worker.
    os.environ.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    sys.path.insert(0, str(SRC))
    from recridge import cil_harness

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-trace{args.trace}-seed{args.seed}"
    workdir = Path(tempfile.mkdtemp(prefix=stem + "-", dir=OUT))
    failures: list = []
    try:
        config, setup_times = setup(cil_harness, workload, args.seed, workdir, failures)
        runs, lengths = [], []
        deadline = time.monotonic() + args.seconds
        # Start another run only while it is expected to end in time.
        while len(runs) < MIN_RUNS[args.trace] or (
            time.monotonic() + statistics.median(lengths) < deadline
        ):
            traced = bool(args.trace) and len(runs) % 2 == 1
            spans = str(workdir / f"spans{len(runs)}.json")
            t0 = time.monotonic()
            runs.append(run_worker(config, traced, spans, size_probe=traced and len(runs) == 1))
            lengths.append(time.monotonic() - t0)
        spans_out = [
            json.loads((workdir / f"spans{i}.json").read_text())
            for i, r in enumerate(runs)
            if r["traced"] and (workdir / f"spans{i}.json").is_file()
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ops = {("setup", i) for i, (op, _) in enumerate(failures)}
    for i, r in enumerate(runs):
        for op, message in r["failures"]:
            failed_ops.add((op, i))
            failures.append((op, f"run {i}: {message}"))
    good = [r for i, r in enumerate(runs) if ("run", i) not in failed_ops]
    # The result file is deterministic: every run of one invocation must agree.
    outcomes = {(r["acc_avg"], r["acc_last"], r["retention_drop"]) for r in good}
    if len(outcomes) > 1:
        failed_ops.update(("run", i) for i in range(len(runs)))
        failures.append(("run", f"accuracies differ between runs: {sorted(outcomes)}"))
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (args.trace and not traced):
        for op, message in failures:
            print(f"FAILED ({op}): {message}", file=sys.stderr)
        print("error: no run completed", file=sys.stderr)
        return 1

    samples = {
        "run_s": [r["run_s"] for r in untraced],
        "ckpt_s": [r["ckpt_s"] for r in untraced if "ckpt_s" in r],
        "setup_s": [
            statistics.median(setup_times)
            + statistics.median(r["ready_s"] for r in runs if "ready_s" in r)
        ],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    for name in ("acc_avg", "acc_last", "retention_drop"):
        samples[name] = [untraced[0][name]]
    if traced:
        for name in traced[0]["layers"]:
            samples[name] = [r["layers"][name] for r in traced]
        samples["trace_overhead_s"] = [
            statistics.median(r["run_s"] for r in traced) - statistics.median(samples["run_s"])
        ]
    attempted = SETUPS + 2 * len(runs)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failed_ops),
        "ops_failed": len(failed_ops) / attempted,
        "failures": failures,
        "setup_write_s": setup_times,
        "metrics": summarize(samples),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans_out) + "\n")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shown = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in shown if m["name"] not in record["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("environment " + " ".join(f"{k}={v}" for k, v in record["environment"].items()))
    for op, message in failures:
        print(f"FAILED ({op}): {message}")
    print(f"ops_failed {record['failed']}/{attempted}")
    for m in shown:
        v = record["metrics"][m["name"]]
        print(
            f"{m['name']:36s} {v['value']:.6g} {m['unit']} "
            f"(q1 {v['q1']:.6g}, q3 {v['q3']:.6g}, n={v['n']})"
        )
    result = {
        "correct": record["correct"],
        "attempted": attempted,
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in shown
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
