"""Harness tests: file formats, schedules, synthetic data, pipelines, metrics.

Core claims:
    - FMAT/LABL files round-trip bit-exactly and fail with line numbers
    - schedules partition the class range and parse from both text forms;
      a shuffle keeps the phase sizes
    - ExperimentConfig's fields are the key table: every key has a meaning,
      and the echo keeps their order and round-trips in every data mode
    - the synthetic generator is seed-deterministic with shared class means
      across splits
    - metrics reproduce hand values and their defining invariants
    - the recursive pipeline matches the joint fit while the naive baseline
      forgets; runs are byte-deterministic and states stay sample-size-free
    - training rows are projected one phase at a time, bit-equal to one
      projection of them all, so a run never holds the projected matrix;
      a phase's labels are a view of the training labels
    - a run projects each Woodbury block just before its update and lands
      on the bits of updating on whole projected phases, so its memory
      does not grow with phase height
    - a run, naive or not, holds one d x d memory matrix, updated in place
    - evaluation scores the projected test rows without checking them again
    - a run's three output files are replaced all or none, each renamed
      once and the result file last, through the module's writers; each
      labels file is read once
"""

import dataclasses
import io
import os
import tracemalloc

import numpy as np
import pytest

from recridge import cil_harness as ch
from recridge import dense_linalg, fmat, rilm
from recridge.errors import ParseError, ShapeError, ValidationError
from recridge.random_projection import rp_forward, rp_new

from oracles import gen_experiment, recursive_states


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _write_config(tmp_path, name="exp.cfg", **overrides):
    defaults = {
        "pipeline": "repoint",
        "schedule": "6/3",
        "synth_classes": 6,
        "synth_per_class": 60,
        "synth_test_per_class": 40,
        "synth_dim": 16,
        "synth_separation": 10.0,
        "synth_seed": 7,
    }
    defaults.update(overrides)
    path = tmp_path / name
    lines = [f"{k} = {v}" for k, v in defaults.items() if v is not None]
    path.write_text("\n".join(lines) + "\n")
    return path


# -- FMAT / LABL ----------------------------------------------------------------


def test_fmat_minimal_example(tmp_path):
    path = tmp_path / "m.fmat"
    path.write_text("FMAT 1 2\n1.0 2.0\n")
    assert np.array_equal(ch.load_features(path), [[1.0, 2.0]])


def test_fmat_row_count_mismatch(tmp_path):
    path = tmp_path / "m.fmat"
    path.write_text("FMAT 2 1\n1.0\n")
    with pytest.raises(ParseError) as info:
        ch.load_features(path)
    assert info.value.lineno == 3


def test_fmat_column_count_mismatch(tmp_path):
    path = tmp_path / "m.fmat"
    path.write_text("FMAT 1 3\n1.0 2.0\n")
    with pytest.raises(ParseError) as info:
        ch.load_features(path)
    assert info.value.lineno == 2


def test_fmat_malformed_header(tmp_path):
    path = tmp_path / "m.fmat"
    path.write_text("FMAT two 2\n")
    with pytest.raises(ParseError) as info:
        ch.load_features(path)
    assert info.value.lineno == 1


def test_fmat_non_finite_value(tmp_path):
    path = tmp_path / "m.fmat"
    path.write_text("FMAT 1 2\n1.0 nan\n")
    with pytest.raises(ParseError):
        ch.load_features(path)


def test_fmat_trailing_garbage(tmp_path):
    path = tmp_path / "m.fmat"
    path.write_text("FMAT 1 1\n1.0\nextra\n")
    with pytest.raises(ParseError):
        ch.load_features(path)


@pytest.mark.parametrize("seed", range(3))
def test_fmat_roundtrip_bit_exact(tmp_path, seed):
    m = _rng(seed).standard_normal((5, 7)) * 10.0 ** _rng(seed + 50).integers(-8, 8)
    path = tmp_path / "m.fmat"
    ch.save_features(path, m)
    assert np.array_equal(ch.load_features(path), m)


def test_labl_roundtrip_and_errors(tmp_path):
    path = tmp_path / "l.labl"
    ch.save_labels(path, [3, 1, 4, 1])
    assert ch.load_labels(path) == [3, 1, 4, 1]
    path.write_text("LABL 2\n1\n")
    with pytest.raises(ParseError):
        ch.load_labels(path)
    path.write_text("LABL 1\nx\n")
    with pytest.raises(ParseError) as info:
        ch.load_labels(path)
    assert info.value.lineno == 2


def _partial_block(fh, *args):
    # writes the start of a block, then fails like a full disk
    fh.write("FMAT 9 9\n")
    raise OSError("disk full")


@pytest.mark.parametrize(
    "save, block, value",
    [
        (ch.save_features, "write_matrix_block", np.ones((2, 3))),
        (ch.save_labels, "write_labels_block", [3, 1, 4]),
    ],
    ids=["fmat", "labl"],
)
def test_failed_data_file_write_keeps_previous_file(tmp_path, monkeypatch, save, block, value):
    path = tmp_path / "data.txt"
    save(path, value)
    before = path.read_bytes()
    monkeypatch.setattr(fmat, block, _partial_block)
    with pytest.raises(OSError, match="disk full"):
        save(path, value)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["data.txt"]


def test_missing_file_raises_parse_error():
    with pytest.raises(ParseError):
        ch.load_features("/nonexistent/never.fmat")


# -- schedules ------------------------------------------------------------------


def test_even_schedule_exact_split():
    s = ch.even_schedule(6, 3)
    assert s.phases == ((0, 1), (2, 3), (4, 5))
    assert s.num_phases == 3 and s.total_classes == 6


def test_even_schedule_remainder_goes_first():
    assert ch.even_schedule(7, 3).phases == ((0, 1, 2), (3, 4), (5, 6))


def test_even_schedule_rejects_empty_phases():
    with pytest.raises(ValidationError):
        ch.even_schedule(2, 3)


def test_shuffled_schedule_valid_and_deterministic():
    even = ch.even_schedule(10, 4)
    a = ch.shuffled_schedule(even, seed=3)
    b = ch.shuffled_schedule(even, seed=3)
    assert a == b
    assert sorted(c for ph in a.phases for c in ph) == list(range(10))
    assert a != ch.shuffled_schedule(even, seed=4)


def test_schedule_shuffle_keeps_explicit_phase_sizes():
    raw = {"schedule": "0,1|2,3,4,5", "schedule_shuffle_seed": "3", "synth_classes": "6",
           "synth_per_class": "5", "synth_dim": "3"}
    perm = [int(c) for c in np.random.Generator(np.random.PCG64(3)).permutation(6)]
    assert ch.build_config(raw).schedule.phases == (
        tuple(sorted(perm[:2])), tuple(sorted(perm[2:]))
    )


def test_parse_schedule_forms():
    assert ch.parse_schedule("6/3") == ch.even_schedule(6, 3)
    explicit = ch.parse_schedule("0,2|1,3")
    assert explicit.phases == ((0, 2), (1, 3))
    assert ch.parse_schedule(ch.schedule_to_text(explicit)) == explicit


def test_parse_schedule_rejects_bad_input():
    for text in ("", "0,1||2", "6/0", "a,b", "0,1|1,2", "0,2|3"):
        with pytest.raises(ValidationError):
            ch.parse_schedule(text)


def test_schedule_type_rejects_gaps_and_overlap():
    with pytest.raises(ValidationError):
        ch.PhaseSchedule(4, ((0, 1), (3,)))
    with pytest.raises(ValidationError):
        ch.PhaseSchedule(3, ((0, 1), (1, 2)))


# -- synthetic data ---------------------------------------------------------------


def test_synth_deterministic():
    a = ch.synth_dataset(4, 10, 8, 5.0, seed=9)
    b = ch.synth_dataset(4, 10, 8, 5.0, seed=9)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_synth_streams_differ_but_share_means():
    train, _ = ch.synth_dataset(3, 400, 6, 50.0, seed=1, stream=0)
    test, _ = ch.synth_dataset(3, 400, 6, 50.0, seed=1, stream=1)
    assert not np.array_equal(train[:10], test[:10])
    for c in range(3):
        mu_train = train[c * 400 : (c + 1) * 400].mean(axis=0)
        mu_test = test[c * 400 : (c + 1) * 400].mean(axis=0)
        # empirical means agree to sampling noise, far below the 50.0 scale
        assert np.linalg.norm(mu_train - mu_test) < 1.0


def test_synth_rejects_zero_counts():
    for bad in ((0, 5, 3), (5, 0, 3), (5, 5, 0)):
        with pytest.raises(ValidationError):
            ch.synth_dataset(*bad, separation=1.0, seed=0)


def test_synth_labels_grouped_by_class():
    _, labels = ch.synth_dataset(3, 4, 2, 1.0, seed=0)
    assert labels == [0] * 4 + [1] * 4 + [2] * 4


def _joint_accuracy(separation, seed):
    # joint one-phase ridge fit on projected features, evaluated on the test split
    from recridge.random_projection import rp_forward, rp_new

    ftr, ltr = ch.synth_dataset(6, 60, 16, separation, seed, stream=0)
    fte, lte = ch.synth_dataset(6, 40, 16, separation, seed, stream=1)
    layer = rp_new(16, 192, seed, "relu")
    phase = rilm.PhaseDataset(rp_forward(layer, ftr), np.asarray(ltr), tuple(range(6)))
    state = recursive_states([phase], eta=1.0)[0]
    preds = rilm.predict_ids(state, rp_forward(layer, fte))
    return float(np.mean(preds == np.asarray(lte)))


def test_zero_separation_is_chance_level():
    # all classes identically distributed; frozen bound from calibration runs
    assert _joint_accuracy(0.0, seed=0) <= 0.30


def test_wide_separation_is_trivially_learnable():
    assert _joint_accuracy(10.0, seed=0) >= 0.99


# -- metrics ----------------------------------------------------------------------


def test_metrics_hand_values():
    report = ch.compute_metrics([100.0, 50.0])
    assert report.avg_incremental_acc == 75.0
    assert report.retention_drop == 50.0


def test_metrics_constant_sequence():
    report = ch.compute_metrics([90.0] * 5)
    assert report.avg_incremental_acc == 90.0
    assert report.retention_drop == 0.0


def test_metrics_rejects_empty_and_out_of_range():
    with pytest.raises(ValidationError):
        ch.compute_metrics([])
    with pytest.raises(ValidationError):
        ch.compute_metrics([50.0, 101.0])
    with pytest.raises(ValidationError):
        ch.compute_metrics([-0.5])


@pytest.mark.parametrize("seed", range(5))
def test_metrics_invariants_random(seed):
    accs = _rng(seed).uniform(0.0, 100.0, size=int(_rng(seed).integers(1, 12)))
    report = ch.compute_metrics(accs)
    assert abs(report.avg_incremental_acc - float(np.mean(accs))) <= 1e-12
    assert report.retention_drop == accs[0] - accs[-1]


# -- config -----------------------------------------------------------------------


def test_config_defaults_and_parse(tmp_path):
    cfg = ch.load_config(_write_config(tmp_path))
    assert cfg.pipeline == "repoint" and cfg.eta == 1.0
    assert cfg.d_rp_multiplier == 12 and cfg.activation == "relu"
    assert cfg.schedule.num_phases == 3
    assert cfg.synth_classes == 6 and cfg.synth_test_per_class == 40


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("schedule = 2/1\nsynth_classes = 2\nbogus_key = 1\n")
    with pytest.raises(ValidationError) as info:
        ch.load_config(path)
    assert "bogus_key" in str(info.value)


def test_config_syntax_error_has_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("schedule = 2/1\nnot a kv line\n")
    with pytest.raises(ParseError) as info:
        ch.load_config(path)
    assert info.value.lineno == 2


def test_config_overrides_last_wins(tmp_path):
    path = _write_config(tmp_path)
    cfg = ch.load_config(path, overrides={"eta": "2.5", "d_rp_multiplier": "4"})
    assert cfg.eta == 2.5 and cfg.d_rp_multiplier == 4
    with pytest.raises(ValidationError):
        ch.load_config(path, overrides={"nope": "1"})


def test_config_requires_exactly_one_data_source(tmp_path):
    path = tmp_path / "none.cfg"
    path.write_text("schedule = 2/1\n")
    with pytest.raises(ValidationError):
        ch.load_config(path)
    path.write_text(
        "schedule = 2/1\nsynth_classes = 2\nsynth_per_class = 3\nsynth_dim = 2\n"
        "features_train = x.fmat\n"
    )
    with pytest.raises(ValidationError):
        ch.load_config(path)


def test_config_missing_data_file_rejected(tmp_path):
    path = tmp_path / "f.cfg"
    path.write_text(
        "schedule = 2/1\nfeatures_train = absent.fmat\nlabels_train = absent.labl\n"
        "features_test = absent.fmat\nlabels_test = absent.labl\n"
    )
    with pytest.raises(ValidationError) as info:
        ch.load_config(path)
    assert "absent" in str(info.value)


def test_config_schedule_class_count_mismatch(tmp_path):
    with pytest.raises(ValidationError):
        ch.load_config(_write_config(tmp_path, schedule="4/2"))


def test_config_explicit_width_and_activation(tmp_path):
    cfg = ch.load_config(
        _write_config(tmp_path, d_rp=50, activation="tanh", synth_per_class=5)
    )
    ex = ch.prepare_experiment(cfg)
    assert ex.layer.output_dim == 50
    assert ex.layer.activation == "tanh"
    assert ex.train_features.shape == (30, 50)


def _write_modality_files(tmp_path):
    # point and mesh rows of 4 classes; both modalities share the label files
    for modality, streams in (("point", (0, 1)), ("mesh", (2, 3))):
        for split, stream in zip(("train", "test"), streams):
            feats, labels = ch.synth_dataset(4, 5, 3, 10.0, seed=4, stream=stream)
            ch.save_features(tmp_path / f"{modality}_{split}.fmat", feats)
            ch.save_labels(tmp_path / f"{split}.labl", labels)


_FILE_KEYS = (
    "features_train = point_train.fmat\nlabels_train = train.labl\n"
    "features_test = point_test.fmat\nlabels_test = test.labl\n"
)
_REFU_FILE_KEYS = (
    "point_features_train = point_train.fmat\npoint_features_test = point_test.fmat\n"
    "mesh_features_train = mesh_train.fmat\nmesh_features_test = mesh_test.fmat\n"
    "labels_train = train.labl\nlabels_test = test.labl\n"
)
_ECHO_CONFIGS = {
    "synth-refu": "pipeline = refu\nschedule = 6/3\nsynth_classes = 6\nsynth_per_class = 5\n"
    "synth_dim = 3\nd_rp = 40\nschedule_shuffle_seed = 3\n",
    "file-repoint": "schedule = 4/2\n" + _FILE_KEYS,
    "file-repoint-unused-key": "schedule = 4/2\n" + _FILE_KEYS + "point_features_train = x\n",
    "file-refu": "pipeline = refu\nschedule = 4/2\n" + _REFU_FILE_KEYS,
}


def test_config_echo_roundtrip(tmp_path):
    _write_modality_files(tmp_path)
    paths = {"synth": _write_config(tmp_path, out="res.txt")}
    for name, text in _ECHO_CONFIGS.items():
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text + "out = res.txt\n")
    for name, path in paths.items():
        cfg = ch.load_config(path)
        text = ch.config_to_text(cfg)
        (tmp_path / "echo.cfg").write_text(text)
        assert ch.load_config(tmp_path / "echo.cfg") == cfg, name
        # a key the data source does not read is not kept, so it is not echoed
        assert ("point_features_train" in text) == (name == "file-refu"), name


def test_config_echo_golden_bytes(tmp_path):
    # pins the table's key order: moving a field changes these bytes
    _write_modality_files(tmp_path)
    synth = _write_config(tmp_path, d_rp=40, schedule_shuffle_seed=3, out="res.txt")
    assert ch.config_to_text(ch.load_config(synth)) == (
        "pipeline = repoint\neta = 1.0\nd_rp_multiplier = 12\nrp_seed = 0\n"
        "activation = relu\nschedule = 2,5|1,4|0,3\nd_rp = 40\n"
        "synth_classes = 6\nsynth_per_class = 60\nsynth_test_per_class = 40\n"
        f"synth_dim = 16\nsynth_separation = 10.0\nsynth_seed = 7\nout = {tmp_path}/res.txt\n"
    )
    refu = tmp_path / "refu.cfg"
    refu.write_text("pipeline = refu\nschedule = 4/2\neta = 1e-3\n" + _REFU_FILE_KEYS)
    assert ch.config_to_text(ch.load_config(refu)) == (
        "pipeline = refu\neta = 0.001\nd_rp_multiplier = 12\nrp_seed = 0\n"
        "activation = relu\nschedule = 0,1|2,3\n"
        f"labels_test = {tmp_path}/test.labl\nlabels_train = {tmp_path}/train.labl\n"
        f"mesh_features_test = {tmp_path}/mesh_test.fmat\n"
        f"mesh_features_train = {tmp_path}/mesh_train.fmat\n"
        f"point_features_test = {tmp_path}/point_test.fmat\n"
        f"point_features_train = {tmp_path}/point_train.fmat\nfusion_seed = 0\n"
    )


def test_every_config_key_has_a_meaning():
    keys = dataclasses.fields(ch.ExperimentConfig)
    assert len(keys) == 24
    assert all(key.metadata["meaning"].strip() for key in keys)


# -- pipelines ---------------------------------------------------------------------


def test_run_pipeline_with_injected_evaluator(tmp_path, monkeypatch):
    cfg = ch.load_config(_write_config(tmp_path, schedule="6/2"))
    fake = [100.0, 50.0]
    monkeypatch.setattr(ch, "evaluate_accuracy", lambda state, ex, k: fake[k])
    report = ch.run_pipeline(cfg)
    assert report.avg_incremental_acc == 75.0
    assert report.retention_drop == 50.0


def test_run_pipeline_single_phase_has_zero_drop(tmp_path):
    cfg = ch.load_config(_write_config(tmp_path, schedule="6/1", synth_per_class=30))
    report = ch.run_pipeline(cfg)
    assert report.retention_drop == 0.0
    assert len(report.per_phase_acc) == 1


def test_run_pipeline_refuses_a_missing_out_directory_before_any_work(tmp_path, monkeypatch):
    # the config still loads, as verify, which writes nothing, reads it
    missing = tmp_path / "missing"
    cfg = ch.load_config(_write_config(tmp_path, out=missing / "res.txt"))
    prepared = []
    monkeypatch.setattr(ch, "prepare_experiment", prepared.append)
    with pytest.raises(ValidationError, match=f"directory {missing} does not exist"):
        ch.run_pipeline(cfg)
    assert prepared == []


def test_final_phase_matches_joint_model(tmp_path):
    cfg = ch.load_config(_write_config(tmp_path))
    ex = ch.prepare_experiment(cfg)
    _, state = ch.run_phases(ex)
    phases = [ch.phase_dataset(ex, k) for k in range(ex.schedule.num_phases)]
    joint = rilm.batch_oracle(phases, cfg.eta)
    joint_state = rilm.RilmState(
        weights=joint,
        r=np.eye(ex.layer.output_dim),
        eta=cfg.eta,
        phase=0,
        class_ids=tuple(c for ids in ex.schedule.phases for c in ids),
    )
    ours = rilm.predict_ids(state, ex.test_features)
    theirs = rilm.predict_ids(joint_state, ex.test_features)
    assert np.mean(ours == theirs) >= 0.999


def test_naive_single_phase_matches_pipeline(tmp_path):
    cfg = ch.load_config(_write_config(tmp_path, schedule="6/1", synth_per_class=30))
    assert ch.run_pipeline(cfg, naive=True) == ch.run_pipeline(cfg)


def test_naive_baseline_forgets(tmp_path):
    cfg = ch.load_config(_write_config(tmp_path))
    rec = ch.run_pipeline(cfg)
    naive = ch.run_pipeline(cfg, naive=True)
    # margin frozen from calibration runs (observed ~66.7 vs ~0.0)
    assert naive.retention_drop >= rec.retention_drop + 30.0


def test_naive_old_class_accuracy_collapses(tmp_path):
    # after phase 2 the naive fit scores phase-1 classes at or below chance
    cfg = ch.load_config(_write_config(tmp_path, schedule="6/2"))
    ex = ch.prepare_experiment(cfg)
    report, state = ch.run_phases(ex, naive=True)
    mask = np.isin(ex.test_labels, ex.schedule.phases[0])
    preds = rilm.predict_ids(state, ex.test_features[mask])
    assert report.per_phase_acc[0] >= 99.0  # phase 1 on its own classes
    assert np.mean(preds == ex.test_labels[mask]) <= 1.0 / 6.0  # forgotten after the overwrite


def test_run_phases_updates_every_phase_on_auto(tmp_path):
    # phase 0 is an update on the auto path like every later phase, and
    # the final state counts every update applied
    cfg = ch.load_config(_write_config(tmp_path, d_rp=40))
    ex = ch.prepare_experiment(cfg)
    _, state = ch.run_phases(ex)
    phases = [ch.phase_dataset(ex, k) for k in range(ex.schedule.num_phases)]
    reference = recursive_states(phases, cfg.eta, "auto")[-1]
    assert np.array_equal(state.weights, reference.weights)
    assert np.array_equal(state.r, reference.r)
    assert state.class_ids == reference.class_ids
    assert state.phase == ex.schedule.num_phases == 3


def test_naive_final_state_is_ridge_fit_of_last_phase(tmp_path):
    # the naive baseline refits the seen classes to the last phase's rows
    # only: ridge weights solving (FᵀF + eta I) W = FᵀY, with Y zero in the
    # columns of the classes the phase does not contain
    cfg = ch.load_config(_write_config(tmp_path, eta=0.5, d_rp=40))
    ex = ch.prepare_experiment(cfg)
    _, state = ch.run_phases(ex, naive=True)
    last = ch.phase_dataset(ex, ex.schedule.num_phases - 1)
    column = {cid: j for j, cid in enumerate(state.class_ids)}
    f = last.expanded_rows(ex.layer.output_dim)
    y = np.zeros((f.shape[0], len(column)))
    y[np.arange(f.shape[0]), [column[int(c)] for c in last.labels]] = 1.0
    expected = np.linalg.solve(f.T @ f + cfg.eta * np.eye(f.shape[1]), f.T @ y)
    assert state.class_ids == tuple(range(6))
    assert np.linalg.norm(state.weights - expected) <= 1e-8 * np.linalg.norm(expected)
    assert state.phase == 1


def _gathered_phase(f, labels, ids):
    mask = np.isin(labels, ids)
    return rilm.PhaseDataset(f[mask], labels[mask], ids)


def _mask_gather_run(cfg, train, test):
    # reference loop over rows in their input order: each phase's training
    # rows and the seen classes' test rows are masked out and gathered
    (xtr, ltr), (xte, lte) = train, test
    ltr, lte = np.asarray(ltr), np.asarray(lte)
    dim = xtr.shape[1]
    layer = rp_new(dim, cfg.d_rp_multiplier * dim, cfg.rp_seed, cfg.activation)
    ftr, fte = rp_forward(layer, xtr), rp_forward(layer, xte)
    state = rilm.empty_state(layer.output_dim, cfg.eta)
    seen, accs = [], []
    for ids in cfg.schedule.phases:
        phase = _gathered_phase(ftr, ltr, ids)
        state = rilm.rilm_update(state, phase)
        seen.extend(ids)
        rows = np.isin(lte, seen)
        preds = rilm.predict_ids(state, fte[rows])
        accs.append(100.0 * float(np.mean(preds == lte[rows])))
    return accs, state, (ftr, ltr), (fte, lte)


@pytest.mark.parametrize("case", ["shuffled_schedule", "interleaved_rows"])
def test_phase_ordered_rows_match_mask_gather_oracle(tmp_path, case):
    train = ch.synth_dataset(6, 40, 16, 10.0, seed=7, stream=0)
    test = ch.synth_dataset(6, 25, 16, 10.0, seed=7, stream=1)
    if case == "shuffled_schedule":
        cfg = ch.load_config(
            _write_config(
                tmp_path, synth_per_class=40, synth_test_per_class=25, schedule_shuffle_seed=3
            )
        )
    else:
        # file rows in random order, so classes interleave under an even schedule
        gen = _rng(5)
        lines, shuffled = ["pipeline = repoint", "schedule = 6/3"], []
        for split, (x, labels) in (("train", train), ("test", test)):
            perm = gen.permutation(len(labels))
            shuffled.append((x[perm], [labels[i] for i in perm]))
            ch.save_features(tmp_path / f"{split}.fmat", shuffled[-1][0])
            ch.save_labels(tmp_path / f"{split}.labl", shuffled[-1][1])
            lines += [f"features_{split} = {split}.fmat", f"labels_{split} = {split}.labl"]
        train, test = shuffled
        cfg_path = tmp_path / "files.cfg"
        cfg_path.write_text("\n".join(lines) + "\n")
        cfg = ch.load_config(cfg_path)
    accs, oracle_state, (ftr, ltr), (fte, lte) = _mask_gather_run(cfg, train, test)

    ex = ch.prepare_experiment(cfg)
    report, state = ch.run_phases(ex)
    assert report.per_phase_acc == tuple(accs)
    assert np.array_equal(state.weights, oracle_state.weights)
    assert not np.array_equal(ex.test_labels, lte)  # the rows really were reordered
    # rows moved together with their labels, stably, by introducing phase
    phase_of = {c: k for k, ids in enumerate(cfg.schedule.phases) for c in ids}
    train_order = np.argsort([phase_of[int(c)] for c in ltr], kind="stable")
    test_order = np.argsort([phase_of[int(c)] for c in lte], kind="stable")
    assert np.array_equal(ex.train_features, ftr[train_order])
    assert np.array_equal(ex.train_labels, ltr[train_order])
    assert np.array_equal(ex.test_features, fte[test_order])
    assert np.array_equal(ex.test_labels, lte[test_order])
    # a phase keeps its rows' input order
    for k, ids in enumerate(cfg.schedule.phases):
        ours, theirs = ch.phase_dataset(ex, k), _gathered_phase(ftr, ltr, ids)
        assert np.array_equal(ours.expanded_rows(ex.layer.output_dim), theirs.features)
        assert np.array_equal(ours.labels, theirs.labels)


@pytest.mark.parametrize(
    "overrides",
    [
        {"schedule_shuffle_seed": 3},
        {"schedule": "0,3|1,4,5|2", "activation": "tanh"},
        {"pipeline": "refu", "synth_dim": 6, "d_rp": 40},
    ],
    ids=["shuffled", "uneven_tanh", "refu"],
)
def test_phase_projection_matches_one_full_projection(tmp_path, overrides):
    cfg = ch.load_config(_write_config(tmp_path, **overrides))
    ex = ch.prepare_experiment(cfg)
    full = rp_forward(ex.layer, ex.train_raw)
    assert np.array_equal(ex.train_features, full)
    assert ex.train_features is not ex.train_features  # projected on access
    for k in range(ex.schedule.num_phases):
        rows = slice(ex.train_bounds[k], ex.train_bounds[k + 1])
        assert rows.stop - rows.start >= 2
        phase = ch.phase_dataset(ex, k)
        assert np.array_equal(phase.expanded_rows(ex.layer.output_dim), full[rows])
        # the labels are the phase's slice of the training labels, not a copy
        assert np.shares_memory(phase.labels, ex.train_labels)
        assert np.array_equal(phase.labels, ex.train_labels[rows])


def test_run_memory_stays_below_projected_training_matrix(tmp_path):
    # 4000 training rows at d_rp 192: projected at once they take 5.9 MiB,
    # which prepare_experiment plus run_phases must never hold
    cfg = ch.load_config(
        _write_config(
            tmp_path,
            schedule="10/5",
            synth_classes=10,
            synth_per_class=400,
            synth_test_per_class=40,
            d_rp=192,
        )
    )
    tracemalloc.start()
    try:
        report, _ = ch.run_phases(ch.prepare_experiment(cfg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.per_phase_acc) == 5
    assert peak < 4000 * 192 * 8


@pytest.mark.parametrize("naive", [False, True], ids=["recursive", "naive"])
def test_run_phases_holds_one_memory_matrix(tmp_path, monkeypatch, naive):
    # d_rp 512, 200-row phases: r is updated in place, so the peak is r plus
    # one phase's rows and Woodbury blocks; a second d x d r would read 3.2.
    # A naive restart makes its I/eta after the old r is released.
    cfg = ch.load_config(
        _write_config(
            tmp_path, schedule="10/5", synth_classes=10, synth_per_class=100,
            synth_test_per_class=20, d_rp=512,
        )
    )
    ex = ch.prepare_experiment(cfg)
    held = []
    empty_state = rilm.empty_state

    def spy(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return empty_state(*args)

    monkeypatch.setattr(rilm, "empty_state", spy)
    tracemalloc.start()
    try:
        ch.run_phases(ex, naive=naive)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held) == (5 if naive else 1)
    assert max(held) < 0.5 * 512 * 512 * 8
    assert peak < 2.5 * 512 * 512 * 8


def _projected_block_rows(monkeypatch):
    # rows of every rp_forward call through the name the harness uses
    rows = []
    project = ch.rp_forward

    def spy(layer, features):
        rows.append(features.shape[0])
        return project(layer, features)

    monkeypatch.setattr(ch, "rp_forward", spy)
    return rows


@pytest.mark.parametrize("path", ["woodbury", "direct"])
@pytest.mark.parametrize(
    "per_class", [8, 24, 25], ids=["one_block", "full_blocks", "two_row_tail"]
)
def test_streamed_run_matches_whole_phase_updates(tmp_path, monkeypatch, path, per_class):
    # d_rp 64, blocks of 16 rows on both paths; two classes a phase give
    # phases of 16, 48 and 50 rows. Projecting each block just before its
    # update lands on the bits of updating on the phase projected whole.
    cfg = ch.load_config(
        _write_config(
            tmp_path, schedule="4/2", synth_classes=4, synth_per_class=per_class, d_rp=64
        )
    )
    ex = ch.prepare_experiment(cfg)
    rows = _projected_block_rows(monkeypatch)
    _, streamed = ch.run_phases(ex, path=path)
    n = 2 * per_class
    assert rows == 2 * [min(16, n - s) for s in range(0, n, 16)]
    state = rilm.empty_state(64, cfg.eta)
    for k in range(cfg.schedule.num_phases):
        ph = ch.phase_dataset(ex, k)
        whole = rilm.PhaseDataset(ph.expanded_rows(64), ph.labels, ph.class_ids)
        state = rilm.rilm_update(state, whole, path=path)
    assert np.array_equal(streamed.weights, state.weights)
    assert np.array_equal(streamed.r, state.r)


@pytest.mark.parametrize("seed", range(5))
def test_one_row_last_block_holds_joint_fit(monkeypatch, seed):
    # recridge gen data, 80-row phases at d_rp 318 (mult 53): Woodbury
    # blocks of 79 rows leave a one-row last block, which numpy projects by
    # a matrix-vector product, so its bits may differ from a whole-phase
    # projection; the run still holds the joint fit
    ex = gen_experiment(seed, 1e-2, 53)
    rows = _projected_block_rows(monkeypatch)
    _, state = ch.run_phases(ex)
    assert rows[:6] == [79, 1] * 3
    reference = rilm.batch_oracle([ch.phase_dataset(ex, k) for k in range(3)], 1e-2)
    assert np.linalg.norm(state.weights - reference) <= 1e-8 * np.linalg.norm(reference)


@pytest.mark.parametrize(
    ("path", "eta", "heights"),
    [("auto", None, (64, 256)), ("direct", 1e-5, (128, 512))],
    ids=["woodbury", "direct"],
)
def test_run_memory_does_not_grow_with_phase_height(tmp_path, path, eta, heights):
    # d_rp 256, two classes a phase. Woodbury, phases of 128 and of 512
    # rows: a run that projected whole phases would peak 384 rows
    # (0.75 MiB) higher on the taller ones. Direct, phases of 256 and of
    # 1024 rows: projecting the whole phase and holding f L beside it would
    # peak 2 x 768 rows (3 MiB) higher. One projected block of 64 rows is
    # all a run holds of them, and the direct path at most 256 rows of f L
    peaks = []
    for per_class in heights:
        cfg = ch.load_config(
            _write_config(
                tmp_path, schedule="4/2", synth_classes=4, synth_per_class=per_class,
                synth_test_per_class=16, synth_dim=8, d_rp=256, eta=eta,
            )
        )
        ex = ch.prepare_experiment(cfg)
        tracemalloc.start()
        try:
            ch.run_phases(ex, path=path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 64 * 256 * 8


def test_evaluation_does_not_rescan_test_rows(tmp_path, monkeypatch):
    # rp_forward checked the projected test rows once; scoring them each
    # phase allocates less than one boolean mask of them and scans none
    # of them for non-finite entries again
    cfg = ch.load_config(
        _write_config(
            tmp_path, schedule="4/1", synth_classes=4, synth_per_class=20,
            synth_test_per_class=2048, d_rp=256,
        )
    )
    ex = ch.prepare_experiment(cfg)
    state = recursive_states([ch.phase_dataset(ex, 0)], cfg.eta)[0]
    n, d = ex.test_features.shape
    expected = 100.0 * np.mean(rilm.predict_ids(state, ex.test_features) == ex.test_labels)
    scanned = []
    scan = dense_linalg._all_finite

    def spy(m):
        scanned.append(m.shape)
        return scan(m)

    monkeypatch.setattr(dense_linalg, "_all_finite", spy)
    tracemalloc.start()
    try:
        acc = ch.evaluate_accuracy(state, ex, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert acc == expected
    assert scanned == []
    assert peak < n * d


def test_pipeline_writes_and_roundtrips_results(tmp_path):
    out = tmp_path / "res.txt"
    cfg = ch.load_config(_write_config(tmp_path, out=out))
    report = ch.run_pipeline(cfg)
    loaded, seen = ch.load_result(out)
    assert loaded == report
    assert seen == [2, 4, 6]
    csv = (tmp_path / "res.csv").read_text().splitlines()
    assert csv[0] == "phase,seen_classes,accuracy"
    assert len(csv) == 4


def test_runs_are_byte_deterministic(tmp_path):
    blobs = []
    for name in ("a", "b"):
        sub = tmp_path / name
        sub.mkdir()
        out = sub / "res.txt"
        cfg = ch.load_config(_write_config(sub, out=out))
        ch.run_pipeline(cfg)
        blobs.append((out.read_bytes(), (sub / "res.csv").read_bytes()))
    assert blobs[0] == blobs[1]


def test_refu_pipeline_runs_and_separates(tmp_path):
    cfg = ch.load_config(
        _write_config(tmp_path, pipeline="refu", synth_per_class=30, d_rp_multiplier=6)
    )
    report = ch.run_pipeline(cfg)
    assert report.per_phase_acc[-1] >= 99.0


def test_file_mode_pipeline(tmp_path):
    ftr, ltr = ch.synth_dataset(4, 20, 6, 10.0, seed=2, stream=0)
    fte, lte = ch.synth_dataset(4, 10, 6, 10.0, seed=2, stream=1)
    ch.save_features(tmp_path / "tr.fmat", ftr)
    ch.save_labels(tmp_path / "tr.labl", ltr)
    ch.save_features(tmp_path / "te.fmat", fte)
    ch.save_labels(tmp_path / "te.labl", lte)
    path = tmp_path / "file.cfg"
    path.write_text(
        "pipeline = remesh\nschedule = 4/2\nfeatures_train = tr.fmat\n"
        "labels_train = tr.labl\nfeatures_test = te.fmat\nlabels_test = te.labl\n"
    )
    report = ch.run_pipeline(ch.load_config(path))
    assert report.per_phase_acc[-1] >= 99.0


def _write_refu_files(tmp_path, dim, classes):
    for modality, streams in (("point", (0, 1)), ("mesh", (2, 3))):
        for split, stream in zip(("train", "test"), streams):
            per = 20 if split == "train" else 10
            feats, labels = ch.synth_dataset(classes, per, dim, 10.0, seed=4, stream=stream)
            ch.save_features(tmp_path / f"{modality}_{split}.fmat", feats)
            if modality == "point":
                ch.save_labels(tmp_path / f"{split}.labl", labels)
    path = tmp_path / "refu.cfg"
    path.write_text(
        "pipeline = refu\nschedule = 4/2\nfusion_seed = 11\n"
        "point_features_train = point_train.fmat\npoint_features_test = point_test.fmat\n"
        "mesh_features_train = mesh_train.fmat\nmesh_features_test = mesh_test.fmat\n"
        "labels_train = train.labl\nlabels_test = test.labl\n"
    )
    return ch.load_config(path)


def test_refu_file_mode_pipeline(tmp_path):
    dim, classes = 6, 4
    cfg = _write_refu_files(tmp_path, dim, classes)
    ex = ch.prepare_experiment(cfg)
    # fused width is 2*dim, expanded by the default multiplier
    assert ex.train_features.shape[1] == 12 * 2 * dim
    report = ch.run_pipeline(cfg)
    assert report.per_phase_acc[-1] >= 99.0


def test_refu_file_mode_reads_each_labels_file_once(tmp_path, monkeypatch):
    # the point and mesh blocks of a split share one labels file
    cfg = _write_refu_files(tmp_path, dim=6, classes=4)
    loaded = []

    def load_labels(path):
        loaded.append(path)
        return fmat.load_labels(path)

    monkeypatch.setattr(ch, "load_labels", load_labels)
    ch.prepare_experiment(cfg)
    assert [os.path.basename(path) for path in loaded] == ["train.labl", "test.labl"]


def test_exemplar_free_state_size(tmp_path):
    sizes = []
    for per_class in (20, 200):
        cfg = ch.load_config(
            _write_config(tmp_path, name=f"s{per_class}.cfg", synth_per_class=per_class)
        )
        ex = ch.prepare_experiment(cfg)
        _, state = ch.run_phases(ex)
        path = tmp_path / f"state{per_class}.rilm"
        rilm.save_state(state, path)
        sizes.append(path.stat().st_size)
    assert sizes[0] == sizes[1]


# -- result files -----------------------------------------------------------------


def test_result_file_stores_values_as_data(tmp_path):
    # format-level parse: aggregates are returned exactly as written
    path = tmp_path / "golden.txt"
    lines = [f"phase={i} seen_classes={4 * (i + 1)} acc=96.51" for i in range(10)]
    lines.append("A=96.51 R=7.65")
    path.write_text("\n".join(lines) + "\n")
    report, seen = ch.load_result(path)
    assert report.avg_incremental_acc == 96.51
    assert report.retention_drop == 7.65
    assert seen == [4 * (i + 1) for i in range(10)]


def test_result_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("phase=0 acc=10.0\n")
    with pytest.raises(ParseError):
        ch.load_result(path)
    path.write_text("A=1.0 R=0.0\n")
    with pytest.raises(ParseError):
        ch.load_result(path)
    path.write_text("phase=1 seen_classes=2 acc=5.0\nA=5.0 R=0.0\n")
    with pytest.raises(ParseError):
        ch.load_result(path)


def test_save_result_mismatched_counts():
    report = ch.compute_metrics([10.0, 20.0])
    fh = io.StringIO()
    with pytest.raises(ShapeError):
        ch.save_result(fh, report, [1])
    assert fh.getvalue() == ""


def test_run_renames_each_output_once_result_last(tmp_path, monkeypatch):
    # a reader that finds the new result file finds its new siblings too
    renamed = []
    real_replace = os.replace

    def replace(src, dst):
        renamed.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    ch.run_pipeline(ch.load_config(_write_config(tmp_path, out="res.txt")))
    assert renamed == ["res.csv", "res.cfg", "res.txt"]


@pytest.mark.parametrize("name", ["res.cfg", "res.txt"])
def test_directory_at_a_later_output_replaces_nothing(tmp_path, name):
    # os.replace would refuse the directory only after the files renamed
    # before it, so the targets are checked before any rename
    config = ch.load_config(_write_config(tmp_path, out="res.txt"))
    ch.run_pipeline(config)
    (tmp_path / name).unlink()
    (tmp_path / name).mkdir()
    names = sorted(os.listdir(tmp_path))
    others = [n for n in ("res.txt", "res.csv", "res.cfg") if n != name]
    before = {n: (tmp_path / n).read_bytes() for n in others}
    with pytest.raises(ValidationError, match="directory"):
        ch.run_pipeline(dataclasses.replace(config, eta=2.0))
    assert {n: (tmp_path / n).read_bytes() for n in before} == before
    assert sorted(os.listdir(tmp_path)) == names
    assert not os.listdir(tmp_path / name)


@pytest.mark.parametrize("writer", ["save_result", "save_result_csv"], ids=["result", "csv"])
def test_failed_result_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    # a writer stopped part-way replaces none of a run's three files, and
    # its call goes through the module, where a trace would wrap it
    config = ch.load_config(_write_config(tmp_path, out="res.txt"))
    ch.run_pipeline(config)
    names = ("res.txt", "res.csv", "res.cfg")
    before = [(tmp_path / name).read_bytes() for name in names]

    def fail(fh, report, seen_counts):
        fh.write("phase=0")
        raise OSError("disk full")

    monkeypatch.setattr(ch, writer, fail)
    with pytest.raises(OSError, match="disk full"):
        ch.run_pipeline(dataclasses.replace(config, eta=2.0))
    assert [(tmp_path / name).read_bytes() for name in names] == before
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "res.cfg", "res.csv", "res.txt"]
