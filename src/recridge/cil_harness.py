"""Experiment layer: schedules, data, pipelines, metrics and persistence.

A run is described by a line-oriented ``key = value`` config file. Features
come either from FMAT/LABL files on disk (standing in for a frozen feature
extractor) or from a seeded synthetic generator producing Gaussian class
clusters. The harness expands features through the frozen projection
layer, feeds phases to the recursive learner, evaluates after each phase
on the test rows of every class seen so far, and reports:

* per-phase cumulative accuracies (percent),
* their mean over all phases,
* the retention drop, first-phase accuracy minus final-phase accuracy.

Every phase, the first included, is one recursive update on the path
that ``rilm_update``'s ``auto`` picks from the phase's shape and eta. The
naive sequential baseline runs the same loop but restarts each phase from
the empty state, keeping only the seen classes, so each fit sees the
current phase's rows alone and the old classes' weights are overwritten:
it exhibits catastrophic forgetting next to the recursive learner. Runs
are single-threaded and deterministic: the same config and seeds produce
byte-identical result files. Once a run succeeds, ``out`` names its
result file, and its ``.csv`` mirror and ``.cfg`` config echo beside it.

The fields of ``ExperimentConfig`` are the config key reference: each
key's kind, default and meaning. Exactly one data source (synthetic or
files) must be configured. Relative paths are resolved against the config
file's directory.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import fmat, fusion, rilm
from .dense_linalg import Matrix, as_matrix
from .errors import ParseError, ShapeError, ValidationError
from .random_projection import ACTIVATIONS, RpLayer, rp_forward, rp_new, seeded_generator

# File ingestion stands in for frozen feature extractors.
load_features = fmat.load_matrix
save_features = fmat.save_matrix
load_labels = fmat.load_labels
save_labels = fmat.save_labels

PIPELINES = ("repoint", "remesh", "refu")

# Noise stream offsets for the synthetic generator, per (modality, split).
_STREAMS = {
    ("repoint", "train"): 0,
    ("repoint", "test"): 1,
    ("remesh", "train"): 2,
    ("remesh", "test"): 3,
}


# ---------------------------------------------------------------------------
# Phase schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseSchedule:
    """Disjoint class-id groups, one per phase, covering 0..total_classes-1."""

    total_classes: int
    phases: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        phases = tuple(tuple(int(c) for c in ph) for ph in self.phases)
        seen: set[int] = set()
        for ph in phases:
            if any(b <= a for a, b in zip(ph, ph[1:])):
                raise ValidationError(f"phase class ids must be strictly increasing: {ph}")
            overlap = seen & set(ph)
            if overlap:
                raise ValidationError(f"class ids assigned to multiple phases: {sorted(overlap)}")
            seen.update(ph)
        if seen != set(range(self.total_classes)):
            raise ValidationError(
                f"schedule must cover exactly classes 0..{self.total_classes - 1}"
            )
        object.__setattr__(self, "phases", phases)

    @property
    def num_phases(self) -> int:
        return len(self.phases)


def even_schedule(total_classes: int, n_phases: int) -> PhaseSchedule:
    """Split 0..total-1 into n_phases consecutive groups, as even as possible."""
    if total_classes < 1 or n_phases < 1:
        raise ValidationError("even_schedule needs total_classes >= 1 and n_phases >= 1")
    if n_phases > total_classes:
        raise ValidationError(
            f"cannot split {total_classes} classes into {n_phases} non-empty phases"
        )
    base, extra = divmod(total_classes, n_phases)
    phases = []
    start = 0
    for i in range(n_phases):
        size = base + (1 if i < extra else 0)
        phases.append(tuple(range(start, start + size)))
        start += size
    return PhaseSchedule(total_classes=total_classes, phases=tuple(phases))


def shuffled_schedule(schedule: PhaseSchedule, seed: int) -> PhaseSchedule:
    """A seeded permutation of the class ids, cut at ``schedule``'s phase
    sizes (ids sorted per phase)."""
    perm = seeded_generator(seed).permutation(schedule.total_classes)
    cuts = np.cumsum([len(ph) for ph in schedule.phases[:-1]])
    phases = tuple(tuple(sorted(int(c) for c in chunk)) for chunk in np.split(perm, cuts))
    return PhaseSchedule(total_classes=schedule.total_classes, phases=phases)


def parse_schedule(text: str) -> PhaseSchedule:
    """Parse "<classes>/<phases>" or an explicit "0,1|2,3" schedule string."""
    text = text.strip()
    if "/" in text and "|" not in text and "," not in text:
        left, _, right = text.partition("/")
        try:
            total, n_phases = int(left), int(right)
        except ValueError:
            raise ValidationError(f"malformed schedule {text!r}") from None
        return even_schedule(total, n_phases)
    phases = []
    for segment in text.split("|"):
        segment = segment.strip()
        if not segment:
            raise ValidationError(f"empty phase in schedule {text!r}")
        try:
            phases.append(tuple(int(c) for c in segment.split(",")))
        except ValueError:
            raise ValidationError(f"malformed schedule {text!r}") from None
    total = sum(len(ph) for ph in phases)
    return PhaseSchedule(total_classes=total, phases=tuple(phases))


def schedule_to_text(schedule: PhaseSchedule) -> str:
    return "|".join(",".join(str(c) for c in ph) for ph in schedule.phases)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    """Per-phase cumulative accuracies with their mean and the retention drop."""

    per_phase_acc: tuple[float, ...]
    avg_incremental_acc: float
    retention_drop: float


def compute_metrics(per_phase_acc) -> MetricsReport:
    """Aggregate a non-empty list of per-phase accuracies (percent, 0..100)."""
    accs = tuple(float(a) for a in per_phase_acc)
    if not accs:
        raise ValidationError("per_phase_acc must not be empty")
    for a in accs:
        if not np.isfinite(a) or a < 0.0 or a > 100.0:
            raise ValidationError(f"accuracy out of range [0, 100]: {a}")
    return MetricsReport(
        per_phase_acc=accs,
        avg_incremental_acc=sum(accs) / len(accs),
        retention_drop=accs[0] - accs[-1],
    )


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def synth_dataset(
    classes: int,
    per_class: int,
    dim: int,
    separation: float,
    seed: int,
    stream: int = 0,
):
    """Gaussian class clusters: class c is centered at separation * u_c.

    The unit directions u_c depend only on (classes, dim, seed); the noise
    comes from a separate stream so that disjoint train/test splits share
    the same class geometry. Returns (features, labels) with rows grouped
    by class.
    """
    if classes < 1 or per_class < 1 or dim < 1:
        raise ValidationError(
            f"counts must be >= 1: classes={classes}, per_class={per_class}, dim={dim}"
        )
    separation = float(separation)
    if not np.isfinite(separation) or separation < 0.0:
        raise ValidationError(f"separation must be finite and >= 0, got {separation}")
    dirs = seeded_generator(seed, 0).standard_normal((classes, dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    if not (norms > 0.0).all():
        raise ValidationError("degenerate class direction draw")
    means = separation * dirs / norms
    features = seeded_generator(seed, 1 + int(stream)).standard_normal((classes * per_class, dim))
    by_class = features.reshape(classes, per_class, dim)
    by_class += means[:, None, :]
    return features, np.repeat(np.arange(classes), per_class).tolist()


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _key(meaning: str, kind, default=None):
    """A config key's field. ``kind`` is the tuple of its allowed values, "path"
    (resolved against the config file's directory) or its parser: int, float
    or parse_schedule."""
    return field(default=default, metadata={"kind": kind, "meaning": meaning})


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """The config key reference: one field per key, in the order of the echo.

    Each field's metadata holds the key's kind and meaning; a key left out
    takes the field's default, and None means unset.
    """

    pipeline: str = _key("one source (repoint, remesh) or two fused (refu)", PIPELINES, "repoint")
    eta: float = _key("ridge strength, > 0", float, 1.0)
    d_rp_multiplier: int = _key("expansion factor when d_rp is unset", int, 12)
    rp_seed: int = _key("projection layer seed", int, 0)
    activation: str = _key("projection nonlinearity", ACTIVATIONS, "relu")
    schedule: PhaseSchedule = _key('"<classes>/<phases>" or "0,1|2,3"', parse_schedule, MISSING)
    schedule_shuffle_seed: int | None = _key("shuffles classes between phases", int)
    d_rp: int | None = _key("explicit expanded width", int)
    synth_classes: int | None = _key("synthetic mode: number of classes", int)
    synth_per_class: int | None = _key("training rows per class", int)
    synth_test_per_class: int | None = _key("test rows per class (default synth_per_class)", int)
    synth_dim: int | None = _key("raw feature width", int)
    synth_separation: float | None = _key("distance of class means from the origin", float, 10.0)
    synth_seed: int | None = _key("generator seed", int, 0)
    features_test: str | None = _key("file mode (repoint, remesh): test rows, FMAT", "path")
    features_train: str | None = _key("file mode (repoint, remesh): training rows, FMAT", "path")
    labels_test: str | None = _key("file mode: test labels, LABL", "path")
    labels_train: str | None = _key("file mode: training labels, LABL", "path")
    mesh_features_test: str | None = _key("file mode (refu): mesh test rows, FMAT", "path")
    mesh_features_train: str | None = _key("file mode (refu): mesh training rows, FMAT", "path")
    point_features_test: str | None = _key("file mode (refu): point test rows, FMAT", "path")
    point_features_train: str | None = _key("file mode (refu): point training rows, FMAT", "path")
    fusion_seed: int | None = _key("refu: seed of the frozen random fusion backbone", int, 0)
    out: str | None = _key("result file; .csv and .cfg siblings are written too", "path")


_SINGLE_FILE_KEYS = ("features_train", "labels_train", "features_test", "labels_test")
_REFU_FILE_KEYS = ("point_features_train", "point_features_test", "mesh_features_train",
                   "mesh_features_test", "labels_train", "labels_test")

_KEYS = frozenset(key.name for key in fields(ExperimentConfig))


def _parse_kv_lines(path, text: str) -> dict:
    raw = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(path, lineno, f"expected 'key = value', got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        raw[key] = value
    return raw


def _parse_key(key, raw: dict, base_dir: str):
    kind, text = key.metadata["kind"], raw.get(key.name)
    if text is None:
        if key.default is MISSING:
            raise ValidationError(f"config is missing required key {key.name!r}")
        return key.default
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValidationError(f"{key.name} must be one of {kind}, got {text!r}")
        return text
    if kind == "path":
        if "\0" in text:
            raise ValidationError(f"config key {key.name} must not contain a NUL character")
        return os.path.join(base_dir, text)
    if kind is parse_schedule:
        return parse_schedule(text)
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"config key {key.name} must be {what}, got {text!r}") from None


def build_config(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    """Typed, validated config from a raw key->string mapping.

    Every key is parsed in table order, a path refused if it holds a NUL;
    then come the rules between keys: each seed in 0..2**64-1, eta by
    ``rilm``'s own rule, an ``out`` that is not named like its own ``.csv``
    or ``.cfg`` sibling, one data source and what it needs, the class
    count. No data is read.
    """
    unknown = set(raw) - _KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    values = {key.name: _parse_key(key, raw, base_dir) for key in fields(ExperimentConfig)}
    for key, seed in values.items():
        if key.endswith("_seed") and seed is not None and not 0 <= seed < 2**64:
            raise ValidationError(f"seed must fit in an unsigned 64-bit integer, got {key} = {seed}")
    rilm._check_eta(values["eta"])
    out = values["out"]
    if out is not None and os.path.splitext(out)[1].lower() in (".csv", ".cfg"):
        raise ValidationError(f"out must not end in .csv or .cfg, its siblings' names: {out}")
    # Folded into the schedule, so the echo does not shuffle it again.
    shuffle_seed = values.pop("schedule_shuffle_seed")
    if shuffle_seed is not None:
        values["schedule"] = shuffled_schedule(values["schedule"], shuffle_seed)
    schedule = values["schedule"]

    all_files = _SINGLE_FILE_KEYS + _REFU_FILE_KEYS
    synth_mode = values["synth_classes"] is not None
    file_keys_present = [k for k in all_files if values[k] is not None]
    if synth_mode and file_keys_present:
        raise ValidationError("configure either synthetic data or data files, not both")
    if not synth_mode and not file_keys_present:
        raise ValidationError("no data source configured (synth_classes or data files)")

    pipeline = values["pipeline"]
    if synth_mode:
        for key in ("synth_per_class", "synth_dim"):
            if values[key] is None:
                raise ValidationError(f"synthetic mode requires {key}")
        if values["synth_test_per_class"] is None:
            values["synth_test_per_class"] = values["synth_per_class"]
        if values["synth_classes"] != schedule.total_classes:
            raise ValidationError(
                f"schedule covers {schedule.total_classes} classes but "
                f"synth_classes is {values['synth_classes']}"
            )
    else:
        needed = _REFU_FILE_KEYS if pipeline == "refu" else _SINGLE_FILE_KEYS
        missing = [k for k in needed if values[k] is None]
        if missing:
            raise ValidationError(f"file mode for {pipeline} requires keys: {missing}")
        for key in needed:
            if not os.path.exists(values[key]):
                raise ValidationError(f"config key {key}: file not found: {values[key]}")
        # Keys this data source does not read are unset, so the echo omits them.
        for key in values:
            if key.startswith("synth_") or (key in all_files and key not in needed):
                values[key] = None
    if pipeline != "refu":
        values["fusion_seed"] = None
    return ExperimentConfig(**values)


def load_config(path, overrides=None) -> ExperimentConfig:
    """Read a config file, apply key=value overrides (last wins), validate."""
    try:
        with open(path, "rb") as fh:
            # text mode's newlines; no UTF-8 sequence holds a CR or LF byte
            data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        text = data.decode("utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, lineno, f"not UTF-8: byte {data[exc.start]:#04x}") from None
    raw = _parse_kv_lines(path, text)
    for key, value in (overrides or {}).items():
        if key not in _KEYS:
            raise ValidationError(f"unknown config key {key!r}")
        raw[key] = str(value)
    return build_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def config_to_text(config: ExperimentConfig) -> str:
    """Canonical echo of the effective config, each set key in table order;
    ``load_config`` reads it back to an equal config."""
    lines = []
    for key in fields(config):
        value = getattr(config, key.name)
        if value is not None:
            text = schedule_to_text(value) if key.name == "schedule" else value
            lines.append(f"{key.name} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Experiment assembly and execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """Run inputs: raw training rows, projected test rows and label arrays.

    Train and test rows are stably ordered by the schedule phase that
    introduces their class: phase k's rows are ``[bounds[k]:bounds[k+1]]``
    of each split, so one phase's training data and the test rows of the
    classes seen after it are slices, not gathers.

    Training rows are kept at input width, since each is used in exactly
    one phase, and a run projects them one Woodbury block at a time (see
    ``phase_dataset``; the README lists what a run holds).
    """

    config: ExperimentConfig
    schedule: PhaseSchedule
    layer: RpLayer
    train_raw: Matrix
    train_labels: np.ndarray
    test_features: Matrix
    test_labels: np.ndarray
    train_bounds: tuple[int, ...]
    test_bounds: tuple[int, ...]

    @property
    def train_features(self) -> Matrix:
        """All projected training rows, built anew on each access."""
        return rp_forward(self.layer, self.train_raw)


def _check_label_array(labels, total_classes: int, what: str) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.int64)
    if arr.ndim != 1:
        raise ShapeError(f"{what} must be a flat id list")
    if arr.size and (arr.min() < 0 or arr.max() >= total_classes):
        raise ValidationError(
            f"{what} contains ids outside 0..{total_classes - 1}"
        )
    return arr


def _order_by_phase(schedule: PhaseSchedule, features, labels):
    """Rows stably sorted by the phase that introduces their class.

    Returns (features, labels, bounds) with phase k's rows at
    ``bounds[k]:bounds[k+1]``. Rows already in that order, as with class-
    grouped data under an even schedule, are returned without a copy.
    """
    phase_of = np.empty(schedule.total_classes, dtype=np.int64)
    for k, ph in enumerate(schedule.phases):
        phase_of[list(ph)] = k
    rank = phase_of[labels]
    if (rank[1:] < rank[:-1]).any():
        order = np.argsort(rank, kind="stable")
        features, labels, rank = features[order], labels[order], rank[order]
    bounds = np.searchsorted(rank, np.arange(schedule.num_phases + 1))
    return features, labels, tuple(int(b) for b in bounds)


def _raw_split(config: ExperimentConfig, split: str):
    """One split's feature blocks, one per modality the pipeline reads
    (point, then mesh), and the labels the modalities share."""
    c = config
    if c.synth_classes is not None:
        modalities = ("repoint", "remesh") if c.pipeline == "refu" else (c.pipeline,)
        per = c.synth_per_class if split == "train" else c.synth_test_per_class
        args = (c.synth_classes, per, c.synth_dim, c.synth_separation, c.synth_seed)
        draws = [synth_dataset(*args, stream=_STREAMS[(m, split)]) for m in modalities]
        return [features for features, _ in draws], draws[0][1]
    prefixes = ("point_", "mesh_") if c.pipeline == "refu" else ("",)
    blocks = [load_features(getattr(c, f"{p}features_{split}")) for p in prefixes]
    return blocks, load_labels(getattr(c, f"labels_{split}"))


def prepare_experiment(config: ExperimentConfig) -> Experiment:
    """Load or generate features, fuse if requested, and bundle.

    Test rows are projected here; training rows stay raw until their phase.
    """
    schedule = config.schedule
    train_blocks, labels_train = _raw_split(config, "train")
    test_blocks, labels_test = _raw_split(config, "test")
    if config.pipeline == "refu":
        (fp_train, fm_train), (fp_test, fm_test) = train_blocks, test_blocks
        if fp_train.shape != fm_train.shape or fp_test.shape != fm_test.shape:
            raise ShapeError("point and mesh feature blocks must have matching shapes")
        params = fusion.fusion_init(
            fp_train.shape[1], schedule.total_classes, seed=config.fusion_seed
        )
        train_raw = fusion.fused_features(params, fp_train, fm_train)
        test_raw = fusion.fused_features(params, fp_test, fm_test)
    else:
        (train_raw,), (test_raw,) = train_blocks, test_blocks

    train_raw = as_matrix(train_raw, "train features")
    test_raw = as_matrix(test_raw, "test features")
    train_labels = _check_label_array(labels_train, schedule.total_classes, "train labels")
    test_labels = _check_label_array(labels_test, schedule.total_classes, "test labels")
    if train_raw.shape[0] != train_labels.size or test_raw.shape[0] != test_labels.size:
        raise ShapeError("feature row counts do not match label counts")
    if train_raw.shape[1] != test_raw.shape[1]:
        raise ShapeError("train and test features must have the same width")

    # Sorted while rows are narrow; the projection acts row by row, so each
    # row's projected values do not depend on the order.
    train_raw, train_labels, train_bounds = _order_by_phase(schedule, train_raw, train_labels)
    test_raw, test_labels, test_bounds = _order_by_phase(schedule, test_raw, test_labels)
    d = train_raw.shape[1]
    d_rp = config.d_rp if config.d_rp is not None else config.d_rp_multiplier * d
    layer = rp_new(d, d_rp, config.rp_seed, config.activation)
    return Experiment(
        config=config,
        schedule=schedule,
        layer=layer,
        train_raw=train_raw,
        train_labels=train_labels,
        test_features=rp_forward(layer, test_raw),
        test_labels=test_labels,
        train_bounds=train_bounds,
        test_bounds=test_bounds,
    )


def phase_dataset(ex: Experiment, k: int) -> rilm.PhaseDataset:
    """Training rows and class ids of schedule phase ``k``, unprojected.

    The rows are a slice, in input order, of the phase-ordered training
    rows, the labels a view of it. ``expand`` projects any block of them
    row by row, so projected rows match ``ex.train_features`` bit for bit
    but for a single row (a one-row phase or block), which numpy projects
    by a matrix-vector product that may differ in the last bit.
    """
    rows = slice(ex.train_bounds[k], ex.train_bounds[k + 1])
    return rilm.PhaseDataset(
        features=ex.train_raw[rows],
        labels=ex.train_labels[rows],
        class_ids=ex.schedule.phases[k],
        expand=lambda block: rp_forward(ex.layer, block),
    )


def evaluate_accuracy(state: rilm.RilmState, ex: Experiment, k: int) -> float:
    """Percent accuracy on the test rows of the classes of phases 0..k.

    Those rows lead the phase-ordered test set, so they are scored as one
    prefix view, without a copy, and compared with the truth as an id array.
    ``rp_forward`` checked them when the experiment was prepared, so they
    are not scanned for non-finite entries again.
    """
    rows = slice(0, ex.test_bounds[k + 1])
    feats, truth = ex.test_features[rows], ex.test_labels[rows]
    if not truth.size:
        seen = tuple(c for ids in ex.schedule.phases[: k + 1] for c in ids)
        raise ValidationError(f"no test rows for seen classes {seen}")
    return 100.0 * float(np.mean(rilm.predict_finite_ids(state, feats) == truth))


def run_phases(ex: Experiment, naive: bool = False, path: str = "auto", score: bool = True):
    """Fit the schedule's phases in order, scoring each on the seen classes.

    Every phase is one ``rilm_update`` on ``path``, which registers its
    classes; ``naive`` restarts as the module docstring says. ``run``
    always takes ``auto``; ``verify`` checks each fixed path in turn,
    unscored (``score=False``: the report is None). Returns
    (MetricsReport, final state).
    """
    d = ex.layer.output_dim
    state = rilm.empty_state(d, ex.config.eta)
    accs = []
    for k in range(ex.schedule.num_phases):
        if naive and k:
            # the old r is released before the new one is made
            eta, seen, state = state.eta, state.class_ids, None
            state = rilm.empty_state(d, eta, seen)
        # The update projects the phase's rows block by block, and r is
        # updated in place: the run holds one d x d memory matrix.
        state = rilm.rilm_update(state, phase_dataset(ex, k), path=path, out=state.r)
        if score:
            accs.append(evaluate_accuracy(state, ex, k))
    return (compute_metrics(accs) if score else None), state


def run_pipeline(config: ExperimentConfig, naive: bool = False) -> MetricsReport:
    """End-to-end run of one learner; persists results when configured.

    ``naive`` runs the sequential baseline and tags its result files so.
    An ``out`` whose directory does not exist is refused before any work.
    """
    if config.out is not None:
        folder = os.path.dirname(config.out) or "."
        if not os.path.isdir(folder):
            raise ValidationError(f"out {config.out}: directory {folder} does not exist")
    ex = prepare_experiment(config)
    report, _ = run_phases(ex, naive=naive)
    _persist(config, ex, report, naive)
    return report


# ---------------------------------------------------------------------------
# Result persistence
# ---------------------------------------------------------------------------


def seen_class_counts(schedule: PhaseSchedule) -> list[int]:
    """Number of classes seen after each phase."""
    return list(itertools.accumulate(len(ph) for ph in schedule.phases))


def result_lines(report: MetricsReport, seen_counts) -> list[str]:
    """The result file's lines, one per phase, then the aggregates::

        phase=<n> seen_classes=<k> acc=<float>
        A=<float> R=<float>
    """
    seen_counts = list(seen_counts)
    if len(seen_counts) != len(report.per_phase_acc):
        raise ShapeError("seen_counts length must match per-phase accuracies")
    lines = [
        f"phase={i} seen_classes={k} acc={acc!r}"
        for i, (k, acc) in enumerate(zip(seen_counts, report.per_phase_acc))
    ]
    lines.append(f"A={report.avg_incremental_acc!r} R={report.retention_drop!r}")
    return lines


def save_result(fh, report: MetricsReport, seen_counts) -> None:
    """Write ``result_lines`` to the text handle ``fh``, each ended by a newline."""
    fh.write("".join(line + "\n" for line in result_lines(report, seen_counts)))


def load_result(path):
    """Parse a result file back into (MetricsReport, seen_counts).

    Values are returned exactly as stored; no aggregate is recomputed.
    """
    cursor = fmat.open_cursor(path)
    accs = []
    seen = []
    while True:
        line = cursor.next_line("result line")
        parts = line.split()
        fields = {}
        for part in parts:
            key, eq, value = part.partition("=")
            if not eq:
                raise cursor.error(f"malformed result line: {line!r}")
            fields[key] = value
        try:
            if "A" in fields:
                if set(fields) != {"A", "R"}:
                    raise cursor.error(f"malformed aggregate line: {line!r}")
                report = MetricsReport(
                    per_phase_acc=tuple(accs),
                    avg_incremental_acc=float(fields["A"]),
                    retention_drop=float(fields["R"]),
                )
                break
            if set(fields) != {"phase", "seen_classes", "acc"}:
                raise cursor.error(f"malformed result line: {line!r}")
            if int(fields["phase"]) != len(accs):
                raise cursor.error(f"phases out of order at line: {line!r}")
            seen.append(int(fields["seen_classes"]))
            accs.append(float(fields["acc"]))
        except ValueError:
            raise cursor.error(f"malformed result line: {line!r}") from None
    fmat.check_consumed(cursor)
    if not accs:
        raise ParseError(path, 1, "result file has no phase lines")
    return report, seen


def save_result_csv(fh, report: MetricsReport, seen_counts) -> None:
    """Write the plot-ready CSV mirror of the result file to the text handle ``fh``."""
    fh.write("phase,seen_classes,accuracy\n")
    for i, (k, acc) in enumerate(zip(seen_counts, report.per_phase_acc)):
        fh.write(f"{i},{k},{acc!r}\n")


def _persist(config: ExperimentConfig, ex: Experiment, report: MetricsReport, naive=False) -> None:
    """Write the result file ``out``, ``<root>.csv`` and ``<root>.cfg``; a
    naive run tags all three ``.naive`` before the extension, and its echo
    opens with how to rerun it. Each is an ``fmat.atomic_writer`` block
    nested in the next: no target is replaced unless every one is written
    and none is a directory, and the result file is replaced last."""
    if config.out is None:
        return
    root, ext = os.path.splitext(config.out)
    if naive:
        root += ".naive"
    counts = seen_class_counts(ex.schedule)
    comment = "# naive baseline: rerun with --naive\n" if naive else ""
    targets = (root + ".csv", root + ".cfg", root + ext)
    with (
        fmat.atomic_writer(root + ext) as result,
        fmat.atomic_writer(root + ".cfg") as cfg,
        fmat.atomic_writer(root + ".csv") as csv,
    ):
        save_result_csv(csv, report, counts)
        cfg.write(comment + config_to_text(config))
        save_result(result, report, counts)
        for target in targets:
            if os.path.isdir(target):
                raise ValidationError(f"output path is a directory: {target}")
