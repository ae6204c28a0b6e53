"""Compare two sets of benchmark records, one row per workload and metric.

    python3 benchmarks/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py writes (``benchmarks/out`` of a
checkout), one per untraced invocation. For every workload present in both
sets and every end-to-end metric in BENCHMARK.json, prints each side's
median over its invocations with quartiles and count, the ratio new/base
together with the base value, and a verdict against the metric's bound
(metrics the records hold but BENCHMARK.json does not gate follow, marked
"not gated"):

* unresolved  the spread (quartile distance over median) of either side
              exceeds the bound, and not every new run beats every base run
* regressed   the new median is worse than the base median by more than the bound
* better      the new median is better by more than the base spread
* same        otherwise

Failed operations are summed per workload and side. Exits 1 if any metric
regressed or any operation failed, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import ROOT, quartiles


def load(directory: str) -> dict:
    """Untraced records of one set, grouped by workload."""
    by_workload: dict[str, list] = {}
    for path in sorted(Path(directory).glob("*-trace0-seed*.json")):
        record = json.loads(path.read_text())
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def verdict(metric: dict, base: list, new: list) -> str:
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (nmed - bmed) / abs(bmed)
    spread = max((bq3 - bq1) / abs(bmed), (nq3 - nq1) / abs(nmed))
    if spread > metric["bound"] and not all(sign * (n - b) < 0 for n in new for b in base):
        return "unresolved"
    if worse > metric["bound"]:
        return "regressed"
    if -worse > (bq3 - bq1) / abs(bmed):
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    bad = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            print(f"{workload}: missing from {'base' if workload not in base else 'new'} set")
            continue
        for side, records in (("base", base[workload]), ("new", new[workload])):
            failed = sum(r["failed"] for r in records)
            attempted = sum(r["attempted"] for r in records)
            print(f"{workload} {side}: {len(records)} runs, ops_failed {failed}/{attempted}")
            bad |= failed > 0
        gated = {m["name"]: m for m in spec["end_to_end"]}
        recorded = [n for n in base[workload][0]["metrics"] if n not in gated]
        for name in list(gated) + recorded:
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            if name in gated:
                v = verdict(gated[name], b, n)
                bad |= v == "regressed"
                v = f"bound {gated[name]['bound']}) {v}"
            else:
                v = "not gated)"
            ratio = f"{nmed / bmed:.3f}" if bmed else "n/a"
            print(
                f"  {name:14s} new/base = {ratio} "
                f"(base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}] n={len(b)}; "
                f"new {nmed:.6g} [{nq1:.6g}, {nq3:.6g}] n={len(n)}; {v}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
