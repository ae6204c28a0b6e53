"""Seeded mutation test of the CLI's exit-code contract.

Each case makes one one-byte edit (a replacement, an insertion or a
deletion) to one of the config, FMAT and LABL files of a tiny file-mode
run, then runs it in process. Whatever the edit, ``cli.main`` returns 0, 1
or 2, raises nothing and prints no traceback; a run that fails leaves no
output file, and one that exits 0 writes all three. A one-byte edit can raise a header at most
tenfold, so no case asks for a large allocation.
"""

import random

import numpy as np
import pytest

from recridge import cil_harness as ch
from recridge import cli

CASES = 500
OUTPUTS = ["res.cfg", "res.csv", "res.txt"]


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
