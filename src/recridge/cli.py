"""Command-line front door.

Verbs:

* ``gen``       write synthetic FMAT/LABL feature files
* ``run``       execute an experiment config (recursive pipeline or naive baseline)
* ``verify``    check that a config's phase loop reproduces the joint closed-form fit
* ``gradcheck`` compare fusion gradients against central finite differences
* ``metrics``   parse a result file and print its aggregates

Exit codes: 0 success, 1 for validation/parse/usage errors, 2 for numerical
failures (tolerance exceeded, non-positive-definite matrix).
Diagnostics go to stderr; machine-readable output goes to stdout or files.
This module only dispatches; the numerical work lives in the library.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import cil_harness as harness
from . import fusion, rilm
from .errors import NumericalError, RecridgeError, ValidationError
from .random_projection import seeded_generator

VERIFY_TOL = 1e-8
GRADCHECK_TOL = 1e-4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1, not argparse's default 2.
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="recridge", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    gen = sub.add_parser("gen", help="write synthetic FMAT/LABL feature files")
    gen.add_argument("--classes", type=int, default=6)
    gen.add_argument("--per-class", type=int, default=40)
    gen.add_argument("--test-per-class", type=int, default=20)
    gen.add_argument("--dim", type=int, default=16)
    gen.add_argument("--separation", type=float, default=10.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--modality", choices=("point", "mesh"), default="point")
    gen.add_argument("--out", required=True, help="path prefix for the four files")

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("--config", required=True)
    run.add_argument("--eta", type=float)
    run.add_argument("--d-rp-mult", type=int)
    run.add_argument("--seed", type=int, help="override rp_seed (and synth_seed in synthetic mode)")
    run.add_argument("--phases", type=int, help="re-split the schedule into this many phases")
    run.add_argument("--pipeline", choices=harness.PIPELINES)
    run.add_argument("--out")
    run.add_argument("--naive", action="store_true", help="run the naive sequential baseline")

    verify = sub.add_parser(
        "verify",
        help="recursion vs joint fit equivalence check on a config's data",
        description="Run the config's phase loop on the woodbury and on the direct path and "
        "compare the final weights with the joint ridge fit over every phase. The joint fit "
        "projects a whole phase at a time and keeps its own d x d Gram matrix, so this is a "
        "check, not a production run; it writes no file.",
    )
    verify.add_argument("--config", required=True)

    grad = sub.add_parser("gradcheck", help="fusion finite-difference gradient check")
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--dim", type=int, default=5)
    grad.add_argument("--classes", type=int, default=3)
    grad.add_argument("--samples", type=int, default=8)
    grad.add_argument("--step", type=float, default=1e-5)

    metrics = sub.add_parser("metrics", help="print aggregates from a result file")
    metrics.add_argument("result_file")

    return parser


def _cmd_gen(ns: argparse.Namespace) -> int:
    streams = (0, 1) if ns.modality == "point" else (2, 3)
    for split, stream in zip(("train", "test"), streams):
        per = ns.per_class if split == "train" else ns.test_per_class
        features, labels = harness.synth_dataset(
            ns.classes, per, ns.dim, ns.separation, ns.seed, stream=stream
        )
        fpath = f"{ns.out}_{split}.fmat"
        lpath = f"{ns.out}_{split}.labl"
        harness.save_features(fpath, features)
        harness.save_labels(lpath, labels)
        print(fpath)
        print(lpath)
    return 0


def _cmd_run(ns: argparse.Namespace) -> int:
    # Flags become config keys, so build_config validates them like the
    # file's own values; synth_seed is ignored outside synthetic mode.
    flags = {
        "eta": ns.eta,
        "d_rp_multiplier": ns.d_rp_mult,
        "rp_seed": ns.seed,
        "synth_seed": ns.seed,
        "pipeline": ns.pipeline,
        "out": None if ns.out is None else os.path.abspath(ns.out),
    }
    overrides = {key: value for key, value in flags.items() if value is not None}
    config = harness.load_config(ns.config, overrides=overrides)
    if ns.phases is not None:
        # Re-split the configured classes as "<classes>/<phases>", so that
        # build_config applies schedule_shuffle_seed to the new split too.
        overrides["schedule"] = f"{config.schedule.total_classes}/{ns.phases}"
        config = harness.load_config(ns.config, overrides=overrides)
    report = harness.run_pipeline(config, naive=ns.naive)
    counts = harness.seen_class_counts(config.schedule)
    print("\n".join(harness.result_lines(report, counts)))
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    ex = harness.prepare_experiment(harness.load_config(ns.config))
    phases = [harness.phase_dataset(ex, k) for k in range(ex.schedule.num_phases)]
    reference = rilm.batch_oracle(phases, ex.config.eta)
    denom = max(float(np.linalg.norm(reference)), 1e-300)
    # Each path is checked against the joint fit, so each is the other's check.
    errs = {}
    for p in ("woodbury", "direct"):
        _, state = harness.run_phases(ex, path=p, score=False)
        errs[p] = float(np.linalg.norm(state.weights - reference)) / denom
    err = max(errs.values())
    print(f"max_rel_error={err!r} " + " ".join(f"{p}={e!r}" for p, e in errs.items()))
    if err > VERIFY_TOL:
        print(f"equivalence check failed: {err!r} > {VERIFY_TOL!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_gradcheck(ns: argparse.Namespace) -> int:
    d, classes, k = ns.dim, ns.classes, ns.samples
    if k < 1:
        raise ValidationError(f"--samples must be >= 1, got {k}")
    gen = seeded_generator(ns.seed)
    params = fusion.fusion_init(d, classes, seed=ns.seed)
    f_p = gen.standard_normal((k, d))
    f_m = gen.standard_normal((k, d))
    labels = np.zeros((k, classes))
    labels[np.arange(k), gen.integers(0, classes, size=k)] = 1.0
    err = fusion.gradient_check(params, f_p, f_m, labels, step=ns.step)
    print(f"max_rel_error={err!r}")
    if err > GRADCHECK_TOL:
        print(f"gradient check failed: {err!r} > {GRADCHECK_TOL!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_metrics(ns: argparse.Namespace) -> int:
    report, seen = harness.load_result(ns.result_file)
    print(harness.result_lines(report, seen)[-1])
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "verify": _cmd_verify,
    "gradcheck": _cmd_gradcheck,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[ns.verb](ns)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except RecridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
