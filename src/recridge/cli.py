"""Command-line front door.

Verbs:

* ``gen``       write synthetic FMAT/LABL feature files
* ``run``       execute an experiment config (recursive pipeline or naive baseline)
* ``verify``    check that the recursion reproduces the joint closed-form fit
* ``gradcheck`` compare fusion gradients against central finite differences
* ``metrics``   parse a result file and print its aggregates

Exit codes: 0 success, 1 for validation/parse/usage errors, 2 for numerical
failures (tolerance exceeded, non-positive-definite matrix, divergence).
Diagnostics go to stderr; machine-readable output goes to stdout or files.
This module only dispatches; the numerical work lives in the library.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import cil_harness as harness
from . import fmat, fusion, rilm
from .errors import NumericalError, RecridgeError

VERIFY_TOL = 1e-8
GRADCHECK_TOL = 1e-4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1, not argparse's default 2.
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class Command:
    """Parsed invocation: verb plus whatever that verb needs."""

    verb: str
    config_path: str | None
    overrides: dict
    options: dict


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
    _add_path_flags(run)
    run.add_argument("--naive", action="store_true", help="run the naive sequential baseline")

    verify = sub.add_parser("verify", help="recursion vs joint fit equivalence check")
    verify.add_argument("--phases", type=int, default=4)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--eta", type=float, default=rilm.DEFAULT_ETA)
    verify.add_argument("--d-rp", type=int, default=64)
    verify.add_argument("--min-samples", type=int, default=30)
    verify.add_argument("--max-samples", type=int, default=80)
    _add_path_flags(verify)

    grad = sub.add_parser("gradcheck", help="fusion finite-difference gradient check")
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--dim", type=int, default=5)
    grad.add_argument("--classes", type=int, default=3)
    grad.add_argument("--samples", type=int, default=8)
    grad.add_argument("--step", type=float, default=1e-5)

    metrics = sub.add_parser("metrics", help="print aggregates from a result file")
    metrics.add_argument("result_file")

    return parser


def _add_path_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--force-woodbury", action="store_true")
    group.add_argument("--force-direct", action="store_true")


def _forced_path(opt: dict) -> str | None:
    if opt.get("force_woodbury"):
        return "woodbury"
    if opt.get("force_direct"):
        return "direct"
    return None


def _command_from_args(ns: argparse.Namespace) -> Command:
    overrides = {}
    options = dict(vars(ns))
    options.pop("verb")
    if ns.verb == "run":
        if ns.eta is not None:
            overrides["eta"] = repr(ns.eta)
        if ns.d_rp_mult is not None:
            overrides["d_rp_multiplier"] = str(ns.d_rp_mult)
        if ns.pipeline is not None:
            overrides["pipeline"] = ns.pipeline
        if ns.out is not None:
            overrides["out"] = os.path.abspath(ns.out)
        forced = _forced_path(options)
        if forced is not None:
            overrides["rilm_path"] = forced
    return Command(
        verb=ns.verb,
        config_path=getattr(ns, "config", None),
        overrides=overrides,
        options=options,
    )


def _cmd_gen(cmd: Command) -> int:
    opt = cmd.options
    streams = (0, 1) if opt["modality"] == "point" else (2, 3)
    prefix = opt["out"]
    for split, stream in zip(("train", "test"), streams):
        per = opt["per_class"] if split == "train" else opt["test_per_class"]
        features, labels = harness.synth_dataset(
            opt["classes"], per, opt["dim"], opt["separation"], opt["seed"], stream=stream
        )
        fpath = f"{prefix}_{split}.fmat"
        lpath = f"{prefix}_{split}.labl"
        harness.save_features(fpath, features)
        harness.save_labels(lpath, labels)
        print(fpath)
        print(lpath)
    return 0


def _cmd_run(cmd: Command) -> int:
    config = harness.load_config(cmd.config_path, overrides=cmd.overrides)
    opt = cmd.options
    if opt.get("seed") is not None:
        seed = int(opt["seed"])
        synth = replace(config.synth, seed=seed) if config.synth is not None else None
        config = replace(config, rp_seed=seed, synth=synth)
    if opt.get("phases") is not None:
        config = replace(
            config,
            schedule=harness.even_schedule(config.schedule.total_classes, int(opt["phases"])),
        )
    report = harness.run_pipeline(config, naive=opt["naive"])
    # Echo the effective config only once the run has succeeded, so a failed
    # run leaves no output behind.
    if config.out is not None:
        root, _ = os.path.splitext(config.out)
        with fmat.atomic_writer(root + ".cfg") as fh:
            fh.write(harness.config_to_text(config))
    counts = harness.seen_class_counts(config.schedule)
    print("\n".join(harness.result_lines(report, counts)))
    return 0


def _cmd_verify(cmd: Command) -> int:
    opt = cmd.options
    phases = rilm.random_phase_problem(
        seed=opt["seed"],
        n_phases=opt["phases"],
        d_rp=opt["d_rp"],
        samples_range=(opt["min_samples"], opt["max_samples"]),
    )
    forced = _forced_path(opt)
    paths = (forced,) if forced else ("woodbury", "direct")
    errs = {path: rilm.recursive_vs_batch_error(phases, opt["eta"], path) for path in paths}
    err = max(errs.values())
    print(f"max_rel_error={err!r} " + " ".join(f"{p}={e!r}" for p, e in errs.items()))
    if err > VERIFY_TOL:
        print(f"equivalence check failed: {err!r} > {VERIFY_TOL!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_gradcheck(cmd: Command) -> int:
    opt = cmd.options
    gen = np.random.Generator(np.random.PCG64(opt["seed"]))
    d, classes, k = opt["dim"], opt["classes"], opt["samples"]
    params = fusion.fusion_init(d, classes, seed=opt["seed"])
    f_p = gen.standard_normal((k, d))
    f_m = gen.standard_normal((k, d))
    labels = np.zeros((k, classes))
    labels[np.arange(k), gen.integers(0, classes, size=k)] = 1.0
    err = fusion.gradient_check(params, f_p, f_m, labels, step=opt["step"])
    print(f"max_rel_error={err!r}")
    if err > GRADCHECK_TOL:
        print(f"gradient check failed: {err!r} > {GRADCHECK_TOL!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_metrics(cmd: Command) -> int:
    report, seen = harness.load_result(cmd.options["result_file"])
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
    cmd = _command_from_args(ns)
    try:
        return _HANDLERS[cmd.verb](cmd)
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
