"""Seeded mutation tests of the CLI's exit-code contract.

File edits: each case makes one one-byte edit (a replacement, an insertion
or a deletion) to one of the config, FMAT and LABL files of a tiny
file-mode run, then runs it in process. Whatever the edit, ``cli.main``
returns 0, 1 or 2, raises nothing and prints no traceback; a run that fails
leaves no output file, and one that exits 0 writes all three. A one-byte
edit can raise a header at most tenfold, so no case asks for a large
allocation. A seeded fifth of the cases also runs ``verify`` on the edited
files: 0, 1 or 2, nothing raised and no traceback.

Argv edits: each case takes a small valid command line of one verb and
sets, adds or deletes one or two of its arguments, with values drawn only
from a fixed list, then runs it in process: again 0, 1 or 2, nothing raised
and no traceback. No listed value sizes an array beyond a few rows.
"""

import random

import numpy as np
import pytest

from recridge import cil_harness as ch
from recridge import cli

CASES = 500
VERIFY_CASES = 100  # of the CASES file edits, also run through verify
ARGV_CASES = 300
OUTPUTS = ["res.cfg", "res.csv", "res.txt"]

# A valid command line per verb, run in a copy of the files of _run_files
# plus the result file res0.txt, and the options each verb takes (None:
# metrics' positional result file).
BASE_ARGV = {
    "gen": ["--classes", "2", "--per-class", "2", "--test-per-class", "1", "--dim", "2",
            "--out", "g"],
    "run": ["--config", "run.cfg", "--out", "res.txt"],
    "verify": ["--config", "run.cfg"],
    "gradcheck": ["--dim", "2", "--classes", "2", "--samples", "2"],
    "metrics": ["res0.txt"],
}
OPTIONS = {
    "gen": ["--classes", "--per-class", "--test-per-class", "--dim", "--separation", "--seed",
            "--modality", "--out"],
    "run": ["--config", "--eta", "--d-rp-mult", "--seed", "--phases", "--pipeline", "--out",
            "--naive"],
    "verify": ["--config"],
    "gradcheck": ["--seed", "--dim", "--classes", "--samples", "--step"],
    "metrics": [None],
}
# the only values an argv edit writes: "sub" is a directory, "a\0b" a path
# holding a NUL
VALUES = ["-1", "0", "1", "2", "1e-320", "nan", "inf", "", "a\0b", "sub"]


def _run_files(directory):
    # four classes over two phases, three input columns, d_rp 8
    gen = np.random.default_rng(0)
    for split, per_class in (("train", 3), ("test", 2)):
        labels = np.repeat(np.arange(4), per_class)
        rows = gen.standard_normal((labels.size, 3)) + labels[:, None]
        ch.save_features(directory / f"{split}.fmat", rows)
        ch.save_labels(directory / f"{split}.labl", labels.tolist())
    (directory / "run.cfg").write_text(
        "pipeline = repoint\nschedule = 4/2\nd_rp = 8\nrp_seed = 3\n"
        "features_train = train.fmat\nlabels_train = train.labl\n"
        "features_test = test.fmat\nlabels_test = test.labl\n"
    )
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _edit(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    op = rng.choice(["replace", "insert", "delete"])
    pos = rng.randrange(len(data) + (op == "insert"))
    byte = bytes([rng.randrange(256)])
    tail = data[pos:] if op == "insert" else data[pos + 1 :]
    kept = b"" if op == "delete" else byte
    return data[:pos] + kept + tail, f"{op} {byte!r} at {pos}"


def test_one_byte_edits_keep_the_exit_code_contract(tmp_path, capsys):
    files = _run_files(tmp_path)
    verified = set(random.Random(CASES).sample(range(CASES), VERIFY_CASES))
    for k in range(CASES):
        rng = random.Random(k)
        name = rng.choice(sorted(files))
        case = tmp_path / f"case{k}"
        case.mkdir()
        for other, data in files.items():
            (case / other).write_bytes(data)
        data, edit = _edit(files[name], rng)
        (case / name).write_bytes(data)
        what = f"case {k}: {name}, {edit}"
        try:
            code = cli.main(["run", "--config", str(case / "run.cfg"), "--out", str(case / "res.txt")])
        except Exception as exc:
            pytest.fail(f"{what}: {exc!r} escaped cli.main")
        written = sorted(path.name for path in case.iterdir() if path.name.startswith("res."))
        assert (code, written) in [(0, OUTPUTS), (1, []), (2, [])], what
        assert "Traceback" not in capsys.readouterr().err, what
        if k in verified:
            try:
                code = cli.main(["verify", "--config", str(case / "run.cfg")])
            except Exception as exc:
                pytest.fail(f"{what}: {exc!r} escaped cli.main verify")
            assert code in (0, 1, 2), f"{what}, verify"
            assert "Traceback" not in capsys.readouterr().err, f"{what}, verify"


def _edit_argv(argv: list[str], options: list, rng: random.Random) -> list[str]:
    argv = list(argv)
    op = rng.choice(["set", "delete"] if argv else ["set"])
    if op == "delete":
        del argv[rng.randrange(len(argv))]
        return argv
    option, value = rng.choice(options), rng.choice(VALUES)
    if option is None:
        return [value]
    if option in argv and argv.index(option) + 1 < len(argv):
        argv[argv.index(option) + 1] = value
    else:
        argv += [option, value]
    return argv


def test_argv_edits_keep_the_exit_code_contract(tmp_path, monkeypatch, capsys):
    files = _run_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", "run.cfg", "--out", "res0.txt"]) == 0
    files["res0.txt"] = (tmp_path / "res0.txt").read_bytes()
    for k in range(ARGV_CASES):
        rng = random.Random(k)
        verb = rng.choice(sorted(BASE_ARGV))
        argv = BASE_ARGV[verb]
        for _ in range(rng.choice([1, 2])):
            argv = _edit_argv(argv, OPTIONS[verb], rng)
        case = tmp_path / f"argv{k}"
        (case / "sub").mkdir(parents=True)
        for name, data in files.items():
            (case / name).write_bytes(data)
        monkeypatch.chdir(case)
        what = f"case {k}: {[verb, *argv]}"
        try:
            code = cli.main([verb, *argv])
        except Exception as exc:
            pytest.fail(f"{what}: {exc!r} escaped cli.main")
        assert code in (0, 1, 2), what
        assert "Traceback" not in capsys.readouterr().err, what
