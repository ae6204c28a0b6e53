"""CLI tests.

Core claims:
    - exit codes follow the contract: 0 ok, 1 input problems, 2 numerical
    - verify/gradcheck print their measured error and gate on tolerance;
      verify checks the run's own phase loop and writes no file; gradcheck
      refuses a batch without rows, a negative row count and a zero step
    - every seed, config key or flag, outside 0..2**64-1 exits 1 with an
      ``error:`` line, not a traceback
    - gen/run/metrics wire files end to end, with override echo; --phases
      re-splits the classes under the config's schedule shuffle
    - a failed run or echo leaves no partial or replaced output behind, and
      an ``out`` named like its own .csv or .cfg sibling is refused
    - a phase whose classes have no training rows runs to the joint fit
    - unknown flags or verbs fail before any work happens
"""

import os

import numpy as np
import pytest

from recridge import cil_harness as ch
from recridge import cli, rilm
from recridge.errors import ValidationError


def _write_synth_config(tmp_path, **overrides):
    defaults = {
        "pipeline": "repoint",
        "schedule": "6/3",
        "synth_classes": 6,
        "synth_per_class": 40,
        "synth_test_per_class": 20,
        "synth_dim": 12,
        "synth_separation": 10.0,
        "synth_seed": 5,
    }
    defaults.update(overrides)
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in defaults.items()))
    return path


# -- verify / gradcheck -------------------------------------------------------


def _verify_fields(out):
    assert out.endswith("\n") and out.count("\n") == 1
    return {key: float(value) for key, value in (p.split("=", 1) for p in out.split())}


def test_verify_passes_and_prints_error(tmp_path, capsys):
    cfg = _write_synth_config(tmp_path, eta=1.0)
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("max_rel_error=")
    fields = _verify_fields(out)
    assert list(fields) == ["max_rel_error", "woodbury", "direct"]
    assert fields["max_rel_error"] == max(fields["woodbury"], fields["direct"])
    assert fields["max_rel_error"] <= 1e-8


def test_verify_over_tolerance_exits_2(tmp_path, capsys):
    # at eta = 1e-8 Woodbury is about 2e-5 and direct about 2e-7 off the
    # joint fit here
    cfg = _write_synth_config(tmp_path, eta=1e-8, d_rp_multiplier=12)
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    err = _verify_fields(captured.out)["max_rel_error"]
    assert err > 1e-8
    assert captured.err == f"equivalence check failed: {err!r} > 1e-08\n"


def test_verify_passes_on_gen_data_at_small_eta(tmp_path, capsys):
    # ``recridge gen --dim 6 --seed 9`` data at eta 1e-4, mult 12: stepping
    # the direct path's weights by r_new fᵀ(y − f w) put them 2.3e-8 off
    # and verify exited 2; both paths now hold 1e-8
    cfg = _write_synth_config(
        tmp_path, synth_dim=6, synth_seed=9, eta=1e-4, d_rp_multiplier=12
    )
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    fields = _verify_fields(capsys.readouterr().out)
    assert fields["woodbury"] <= 1e-8 and fields["direct"] <= 1e-8


@pytest.mark.parametrize("eta, code", [(1.0, 0), (1e-8, 2)])
def test_verify_scores_no_phase(tmp_path, monkeypatch, capsys, eta, code):
    # verify throws accuracies away, so its runs never evaluate; it prints
    # the line and exits with the code of the scored runs' final weights
    cfg = _write_synth_config(tmp_path, eta=eta, d_rp_multiplier=12)
    ex = ch.prepare_experiment(ch.load_config(cfg))
    reference = rilm.batch_oracle([ch.phase_dataset(ex, k) for k in range(3)], eta)
    errs = {}
    for p in ("woodbury", "direct"):
        _, state = ch.run_phases(ex, path=p)
        errs[p] = float(np.linalg.norm(state.weights - reference) / np.linalg.norm(reference))
    expected = " ".join(
        [f"max_rel_error={max(errs.values())!r}"] + [f"{p}={e!r}" for p, e in errs.items()]
    )

    def refuse(*args):
        raise AssertionError("verify scored a phase")

    monkeypatch.setattr(ch, "evaluate_accuracy", refuse)
    assert cli.main(["verify", "--config", str(cfg)]) == code
    assert capsys.readouterr().out == expected + "\n"


def test_verify_writes_no_file(tmp_path, capsys):
    cfg = _write_synth_config(tmp_path, out="res.txt")
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_verify_checks_the_run_phase_loop(tmp_path, monkeypatch, capsys):
    # with the Woodbury downdate gone, r stays I/eta on that path; verify
    # runs the program's own loop, so it sees the broken path
    monkeypatch.setattr(rilm, "_downdate", lambda r, v, panel: None)
    cfg = _write_synth_config(tmp_path)
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    fields = _verify_fields(capsys.readouterr().out)
    assert fields["woodbury"] > 1e-8 >= fields["direct"]


def test_verify_numerical_failure_exits_2(tmp_path, capsys):
    # the recridge gen --dim 6 --seed 9 data at eta 1e-8: a Woodbury block
    # system comes out asymmetric beyond tolerance and raises NumericalError
    cfg = _write_synth_config(
        tmp_path, synth_dim=6, synth_seed=9, eta=1e-8, d_rp_multiplier=12, out="res.txt"
    )
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: ") and not captured.out
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_verify_help_lists_only_config(capsys):
    assert cli.main(["verify", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--config" in out and "not a production run" in out
    flags = {word.strip("[],") for word in out.split() if word.startswith(("--", "[--"))}
    assert flags == {"--config", "--help"}


def test_gradcheck_passes(capsys):
    assert cli.main(["gradcheck", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("=", 1)[1]) <= 1e-4


@pytest.mark.parametrize(
    ("flag", "value"),
    [("--samples", "0"), ("--step", "0"), ("--samples", "-1")],
    ids=["no_rows", "no_step", "negative_rows"],
)
def test_gradcheck_rejects_degenerate_input(capsys, flag, value):
    # no rows make the loss NaN, which max() passes over; a zero step divides
    # by zero; a negative row count is refused before anything is drawn
    assert cli.main(["gradcheck", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


# -- seeds ------------------------------------------------------------------------


def _assert_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seed must fit") and "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("value", [-1, 2**64], ids=["negative", "too_large"])
@pytest.mark.parametrize("key", ["synth_seed", "fusion_seed", "schedule_shuffle_seed"])
def test_run_refuses_a_seed_key_out_of_range(tmp_path, capsys, key, value):
    cfg = _write_synth_config(tmp_path, pipeline="refu", **{key: value})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "res.txt")]) == 1
    _assert_error_line(capsys)
    assert os.listdir(tmp_path) == ["exp.cfg"]


@pytest.mark.parametrize("verb", ["run", "gen", "gradcheck"])
def test_negative_seed_flag_exits_1(tmp_path, capsys, verb):
    # on synthetic data run's flag reaches synth_seed, drawn before rp_seed
    args = {
        "run": ["--config", str(_write_synth_config(tmp_path))],
        "gen": ["--out", str(tmp_path / "data")],
        "gradcheck": [],
    }[verb]
    assert cli.main([verb, "--seed", "-1", *args]) == 1
    _assert_error_line(capsys)
    assert not [name for name in os.listdir(tmp_path) if name != "exp.cfg"]


def test_run_refuses_rp_seed_before_reading_data(tmp_path, monkeypatch, capsys):
    # file mode draws rp_seed only once every file is loaded; the config
    # check refuses it first, and names the key
    assert cli.main(["gen", "--out", str(tmp_path / "data"), "--classes", "4"]) == 0
    cfg = _file_mode_config(tmp_path)
    cfg.write_text(cfg.read_text() + "rp_seed = -1\n")
    loaded = []
    monkeypatch.setattr(ch, "load_features", loaded.append)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "res.txt")]) == 1
    assert "rp_seed = -1" in _assert_error_line(capsys)
    assert loaded == []


# -- argument handling --------------------------------------------------------


def test_missing_config_exits_1_with_path(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert cli.main(["run", "--config", str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_unknown_flag_exits_1(tmp_path, capsys):
    cfg = _write_synth_config(tmp_path)
    assert cli.main(["verify", "--config", str(cfg), "--bogus"]) == 1
    assert "--bogus" in capsys.readouterr().err


def test_unknown_verb_exits_1():
    assert cli.main(["frobnicate"]) == 1


def test_help_exits_0_and_lists_verbs(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    for verb in ("gen", "run", "verify", "gradcheck", "metrics"):
        assert verb in out


def test_subcommand_help_lists_flags(capsys):
    assert cli.main(["run", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--eta", "--d-rp-mult", "--seed", "--phases",
                 "--pipeline", "--out"):
        assert flag in out


# -- gen ------------------------------------------------------------------------


def test_gen_writes_loadable_files(tmp_path, capsys):
    prefix = tmp_path / "toy"
    assert cli.main([
        "gen", "--out", str(prefix), "--classes", "3", "--per-class", "8",
        "--test-per-class", "4", "--dim", "5", "--seed", "2",
    ]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4
    feats = ch.load_features(f"{prefix}_train.fmat")
    labels = ch.load_labels(f"{prefix}_train.labl")
    assert feats.shape == (24, 5)
    assert sorted(set(labels)) == [0, 1, 2]
    assert ch.load_features(f"{prefix}_test.fmat").shape == (12, 5)


def test_gen_deterministic_bytes(tmp_path):
    args = ["gen", "--classes", "2", "--per-class", "5", "--dim", "3", "--seed", "9"]
    blobs = []
    for name in ("a", "b"):
        prefix = tmp_path / name
        assert cli.main(args + ["--out", str(prefix)]) == 0
        blobs.append((tmp_path / f"{name}_train.fmat").read_bytes())
    assert blobs[0] == blobs[1]


def test_gen_modalities_share_labels(tmp_path):
    for modality in ("point", "mesh"):
        assert cli.main([
            "gen", "--out", str(tmp_path / modality), "--classes", "3",
            "--per-class", "4", "--dim", "5", "--seed", "2", "--modality", modality,
        ]) == 0
    assert ch.load_labels(tmp_path / "point_train.labl") == ch.load_labels(
        tmp_path / "mesh_train.labl"
    )
    a = ch.load_features(tmp_path / "point_train.fmat")
    b = ch.load_features(tmp_path / "mesh_train.fmat")
    assert not np.array_equal(a, b)


# -- run --------------------------------------------------------------------------


def _file_mode_config(tmp_path):
    cfg = tmp_path / "file.cfg"
    cfg.write_text(
        "pipeline = repoint\nschedule = 4/2\n"
        "features_train = data_train.fmat\nlabels_train = data_train.labl\n"
        "features_test = data_test.fmat\nlabels_test = data_test.labl\n"
    )
    return cfg


def test_run_prints_result_lines(tmp_path, capsys):
    cfg = _write_synth_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("phase=0 seen_classes=2 acc=")
    assert lines[-1].startswith("A=")


def test_run_writes_outputs_and_effective_config(tmp_path, capsys):
    cfg = _write_synth_config(tmp_path)
    out = tmp_path / "res.txt"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--eta", "2.0"]) == 0
    report, seen = ch.load_result(out)
    assert seen == [2, 4, 6]
    assert (tmp_path / "res.csv").exists()
    echoed = ch.load_config(tmp_path / "res.cfg")
    assert echoed.eta == 2.0
    assert echoed.out == str(out)


def test_run_seed_and_phases_overrides(tmp_path, capsys):
    cfg = _write_synth_config(tmp_path)
    out = tmp_path / "res.txt"
    assert cli.main([
        "run", "--config", str(cfg), "--out", str(out), "--seed", "11", "--phases", "2",
    ]) == 0
    echoed = ch.load_config(tmp_path / "res.cfg")
    assert echoed.rp_seed == 11 and echoed.synth_seed == 11
    assert echoed.schedule.num_phases == 2


def test_run_phases_override_keeps_schedule_shuffle(tmp_path, capsys):
    cfg = _write_synth_config(tmp_path, schedule_shuffle_seed=5)
    out = tmp_path / "res.txt"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "schedule = 1,4|2,3|0,5\n" in (tmp_path / "res.cfg").read_text()
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--phases", "2"]) == 0
    echoed = ch.load_config(tmp_path / "res.cfg")
    assert echoed.schedule == ch.shuffled_schedule(ch.even_schedule(6, 2), 5)
    assert echoed.schedule != ch.even_schedule(6, 2)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg), "--phases", "9"]) == 1
    assert "cannot split 6 classes into 9 non-empty phases" in capsys.readouterr().err


def test_run_naive_flag(tmp_path, capsys):
    cfg = _write_synth_config(tmp_path)
    out = tmp_path / "res.txt"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--naive"]) == 0
    final = capsys.readouterr().out.splitlines()[-1]
    # the naive baseline forgets, so its retention drop is large
    assert float(final.split("R=")[1]) > 30.0
    # every output file carries the tag, the config echo included
    names = ["exp.cfg", "res.naive.cfg", "res.naive.csv", "res.naive.txt"]
    assert sorted(os.listdir(tmp_path)) == names
    # the echo is the run's config, headed by how to rerun the baseline
    echo = tmp_path / "res.naive.cfg"
    assert echo.read_text().startswith("# naive baseline: rerun with --naive\n")
    assert ch.load_config(echo) == ch.load_config(cfg, {"out": str(out)})


def test_run_file_mode_from_gen(tmp_path, capsys):
    prefix = tmp_path / "data"
    assert cli.main([
        "gen", "--out", str(prefix), "--classes", "4", "--per-class", "20",
        "--test-per-class", "10", "--dim", "6", "--seed", "3",
    ]) == 0
    capsys.readouterr()
    cfg = _file_mode_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg)]) == 0
    final = capsys.readouterr().out.splitlines()[-1]
    assert float(final.split("R=")[1]) <= 1.0


@pytest.mark.parametrize("key", ["bogus_key", "fusion_params", "rilm_path"])
def test_run_unknown_config_key_exits_1(tmp_path, capsys, key):
    cfg = _write_synth_config(tmp_path, **{key: "backbone.fuse"})
    out = tmp_path / "res.txt"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg"]


def test_run_failure_leaves_no_effective_config(tmp_path, capsys):
    prefix = tmp_path / "data"
    assert cli.main(["gen", "--out", str(prefix), "--classes", "4", "--dim", "6"]) == 0
    (tmp_path / "data_train.fmat").write_text("FMAT 2 not-a-number\n")
    cfg = _file_mode_config(tmp_path)
    out = tmp_path / "res.txt"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "data_train.fmat" in capsys.readouterr().err
    assert not (tmp_path / "res.cfg").exists()
    assert not out.exists() and not (tmp_path / "res.csv").exists()


def _rewrite_row(path, index, edit):
    # apply ``edit`` to FMAT row ``index`` (line index + 2) of a data file
    lines = path.read_text().split("\n")
    lines[index + 1] = edit(lines[index + 1])
    path.write_text("\n".join(lines))


def _truncate_after_row(path, index):
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[: index + 2]) + "\n")


@pytest.mark.parametrize(
    "corrupt,expected",
    [
        (lambda p: _rewrite_row(p, 2, lambda r: "x" + r[1:]), "{}:4: row 2 contains a non-numeric"),
        (lambda p: _rewrite_row(p, 4, lambda r: r.rsplit(" ", 1)[0]), "{}:6: row 4 has 5 values"),
        (lambda p: _truncate_after_row(p, 2), "{}:5: row 3 has 0 values"),
        # non-finite values are found once the block is read: at its last line
        (
            lambda p: _rewrite_row(p, 1, lambda r: "nan" + r[r.index(" ") :]),
            "{}:161: matrix contains non-finite",
        ),
        (lambda p: p.write_bytes(p.read_bytes()[:40] + b"\xff"), "{}:0: cannot read file"),
        # a missing file is caught with the config, before any data is read
        (lambda p: p.unlink(), "config key features_train: file not found: {}"),
    ],
    ids=["non_numeric", "short_row", "truncated", "nan", "not_utf8", "missing"],
)
def test_run_bad_data_file_exits_1_naming_it(tmp_path, capsys, corrupt, expected):
    prefix = tmp_path / "data"
    assert cli.main(["gen", "--out", str(prefix), "--classes", "4", "--dim", "6"]) == 0
    data = tmp_path / "data_train.fmat"
    assert data.read_text().startswith("FMAT 160 6\n")
    corrupt(data)
    cfg = _file_mode_config(tmp_path)
    out = tmp_path / "res.txt"
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert expected.format(data) in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "res.csv").exists()
    assert not (tmp_path / "res.cfg").exists()


def test_run_header_larger_than_its_file_exits_1(tmp_path, capsys):
    # 10**16 values (71 PiB) promised by a file of a few kilobytes: read
    # without an array of the header's size, it fails at its first row
    assert cli.main(["gen", "--out", str(tmp_path / "data"), "--classes", "4", "--dim", "6"]) == 0
    data = tmp_path / "data_train.fmat"
    data.write_text(data.read_text().replace("FMAT 160 6", "FMAT 1000000000000000 10", 1))
    out = tmp_path / "res.txt"
    capsys.readouterr()
    cfg = _file_mode_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:2: row 0 has 6 values") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_run_config_not_utf8_exits_1_naming_its_line(tmp_path, capsys, newline):
    # the config's eight lines, in any text-mode newline, then a line whose
    # last byte is not UTF-8
    cfg = _write_synth_config(tmp_path)
    cfg.write_bytes(cfg.read_bytes().replace(b"\n", newline) + b"d_rp = 8 \xff" + newline)
    assert cli.main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"error: {cfg}:9: not UTF-8: byte 0xff\n"


@pytest.mark.parametrize("where", ["config", "flag"])
def test_run_refuses_a_nul_in_out(tmp_path, capsys, where):
    # refused with the config, before any data is read: the open of the
    # first output file, after every phase, would raise a ValueError
    cfg = _write_synth_config(tmp_path, **({"out": "res\0.txt"} if where == "config" else {}))
    flag = ["--out", str(tmp_path / "res\0.txt")] if where == "flag" else []
    assert cli.main(["run", "--config", str(cfg), *flag]) == 1
    err = capsys.readouterr().err
    assert err == "error: config key out must not contain a NUL character\n"
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_run_projection_overflow_in_last_phase_exits_1(tmp_path, capsys, monkeypatch):
    # training rows are projected when their phase runs, so a row of the
    # last phase that overflows fails only after the first phase is scored
    prefix = tmp_path / "data"
    assert cli.main(["gen", "--out", str(prefix), "--classes", "4", "--dim", "6"]) == 0
    feats = ch.load_features(tmp_path / "data_train.fmat")
    labels = ch.load_labels(tmp_path / "data_train.labl")
    feats[labels.index(3)] = 1e308
    ch.save_features(tmp_path / "data_train.fmat", feats)
    cfg = _file_mode_config(tmp_path)
    out = tmp_path / "res.txt"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "rp_forward produced non-finite entries" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "res.csv").exists()
    assert not (tmp_path / "res.cfg").exists()
    scored = []
    monkeypatch.setattr(ch, "evaluate_accuracy", lambda state, ex, k: scored.append(k) or 0.0)
    with pytest.raises(ValidationError):
        ch.run_pipeline(ch.load_config(cfg))
    assert scored == [0]


def test_run_woodbury_block_asymmetry_exits_2(tmp_path, capsys):
    # at eta 1e-6 the block system g fᵀ + I of gen's seed 9 data (d_rp 84,
    # 80-row phases) is asymmetric beyond SYMMETRY_RTOL by rounding alone:
    # a numerical failure, not bad input, and the run writes nothing
    prefix = tmp_path / "h"
    assert cli.main(["gen", "--dim", "6", "--seed", "9", "--out", str(prefix)]) == 0
    cfg = tmp_path / "h.cfg"
    cfg.write_text(
        "pipeline = repoint\nschedule = 6/3\neta = 1e-6\nout = res.txt\n"
        "features_train = h_train.fmat\nlabels_train = h_train.labl\n"
        "features_test = h_test.fmat\nlabels_test = h_test.labl\n"
    )
    inputs = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg), "--d-rp-mult", "14"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: ") and not captured.out
    assert sorted(os.listdir(tmp_path)) == inputs


@pytest.mark.parametrize("path", ["woodbury", "direct"])
@pytest.mark.parametrize("eta", [1.0, 1e-4])
def test_run_phase_without_training_rows(tmp_path, monkeypatch, capsys, eta, path):
    # classes 2 and 3, phase 1 of 3, keep their test rows but lose every
    # training row: the run scores them, and its state is still the joint
    # fit. Separation 3 is the benchmark workloads'; at gen's default of 10
    # the recursion is 3e-8 to 2e-7 off the joint fit at eta = 1e-4, with
    # or without an empty phase. No option picks a run's update path, so
    # the run's rilm_update is wrapped to override the path run_phases
    # passes, taking each path in turn.
    update = rilm.rilm_update
    calls = []

    def forced(state, phase, **kwargs):
        calls.append(phase.features.shape[0])
        kwargs["path"] = path
        return update(state, phase, **kwargs)

    monkeypatch.setattr(rilm, "rilm_update", forced)
    prefix = tmp_path / "data"
    gen = ["gen", "--out", str(prefix), "--classes", "6", "--dim", "6", "--separation", "3"]
    assert cli.main(gen) == 0
    feats = ch.load_features(tmp_path / "data_train.fmat")
    labels = np.asarray(ch.load_labels(tmp_path / "data_train.labl"))
    keep = ~np.isin(labels, (2, 3))
    ch.save_features(tmp_path / "data_train.fmat", feats[keep])
    ch.save_labels(tmp_path / "data_train.labl", labels[keep])
    cfg = tmp_path / "file.cfg"
    cfg.write_text(
        f"pipeline = repoint\nschedule = 6/3\neta = {eta!r}\n"
        "features_train = data_train.fmat\nlabels_train = data_train.labl\n"
        "features_test = data_test.fmat\nlabels_test = data_test.labl\n"
    )
    out = tmp_path / "res.txt"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report, seen = ch.load_result(out)
    assert seen == [2, 4, 6] and len(report.per_phase_acc) == 3
    ex = ch.prepare_experiment(ch.load_config(cfg))
    _, state = ch.run_phases(ex)
    phases = [ch.phase_dataset(ex, k) for k in range(3)]
    assert phases[1].features.shape[0] == 0
    reference = rilm.batch_oracle(phases, eta)
    assert np.linalg.norm(state.weights - reference) <= 1e-8 * np.linalg.norm(reference)
    assert not state.weights[:, [2, 3]].any()
    assert len(calls) == 6 and calls[1] == calls[4] == 0


def test_failed_config_echo_keeps_previous_file(tmp_path, monkeypatch, capsys):
    cfg = _write_synth_config(tmp_path)
    out = tmp_path / "res.txt"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    before = (tmp_path / "res.cfg").read_bytes()

    def fail(config):
        raise OSError("disk full")

    monkeypatch.setattr(ch, "config_to_text", fail)
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--eta", "2.0"]) == 1
    assert "disk full" in capsys.readouterr().err
    assert (tmp_path / "res.cfg").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "res.cfg", "res.csv", "res.txt"]


@pytest.mark.parametrize("name", ["res.csv", "exp.cfg"])
def test_run_out_named_like_its_sibling_writes_nothing(tmp_path, capsys, name):
    # res.csv would be its own .csv sibling and exp.cfg its own echo, here
    # also the input config: refused before any data is read
    cfg = _write_synth_config(tmp_path)
    before = cfg.read_bytes()
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 1
    assert os.listdir(tmp_path) == ["exp.cfg"]
    assert cfg.read_bytes() == before
    assert "must not end in .csv or .cfg" in capsys.readouterr().err


def test_run_with_a_directory_in_place_of_an_output_replaces_nothing(tmp_path, capsys):
    # the csv target is a directory: the run fails before any target is
    # replaced, so the older result file is not left beside newer siblings
    cfg = _write_synth_config(tmp_path)
    out = tmp_path / "res.txt"
    out.write_text("phase=0 seen_classes=2 acc=50.0\nA=50.0 R=0.0\n")
    before = out.read_bytes()
    (tmp_path / "res.csv").mkdir()
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "directory" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "res.csv", "res.txt"]
    assert not os.listdir(tmp_path / "res.csv")


# -- metrics ----------------------------------------------------------------------


def test_metrics_verb_prints_stored_values(tmp_path, capsys):
    path = tmp_path / "res.txt"
    path.write_text(
        "phase=0 seen_classes=4 acc=100.0\nphase=1 seen_classes=8 acc=93.02\n"
        "A=96.51 R=7.65\n"
    )
    assert cli.main(["metrics", str(path)]) == 0
    assert capsys.readouterr().out == "A=96.51 R=7.65\n"


def test_metrics_on_malformed_file(tmp_path, capsys):
    path = tmp_path / "res.txt"
    path.write_text("gibberish\n")
    assert cli.main(["metrics", str(path)]) == 1


# -- module entry point -------------------------------------------------------


def test_subprocess_module_invocation(tmp_path):
    import subprocess
    import sys

    cfg = _write_synth_config(tmp_path)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "recridge", "verify", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("max_rel_error=")
