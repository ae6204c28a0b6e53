"""FMAT block I/O tests: the one-call parse and the per-line loop behind it.

Core claims:
    - the writer's bytes are those of one ``%+.17e`` per value
    - the numpy parse accepts only what the per-line loop accepts, and
      returns it bit for bit; everything else falls back to the loop
    - a corrupted checkpoint or data file raises the ParseError, line
      included, that the per-line loop raises
"""

import io
import warnings

import numpy as np
import pytest

from recridge import fmat, rilm
from recridge.errors import ParseError


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _cursor(text):
    return fmat.LineCursor("m.fmat", text)


def _outcome(read, *args):
    # ("ok", shape, raw bytes) or ("error", line, message) of one read
    try:
        value = read(*args)
    except ParseError as exc:
        return ("error", exc.lineno, str(exc))
    return ("ok", value.shape, value.tobytes())


def _loop_only(monkeypatch, read, *args):
    # the outcome with the numpy parse switched off
    with monkeypatch.context() as m:
        m.setattr(fmat, "_parse_rows", lambda lines, rows, cols: None)
        return _outcome(read, *args)


def _read_text(text):
    return fmat.read_matrix_block(_cursor(text))


# -- writer -----------------------------------------------------------------


def test_writer_bytes_are_one_format_per_value():
    gen = _rng(0)
    m = np.concatenate([
        gen.standard_normal((3, 5)) * 10.0 ** gen.integers(-300, 300, size=(3, 5)),
        [[5e-324, -0.0, 0.0, 2.2250738585072009e-308, -1.7976931348623157e308]],
    ])
    expected = f"FMAT {m.shape[0]} {m.shape[1]}\n" + "".join(
        " ".join(f"{float(v):+.17e}" for v in row) + "\n" for row in m
    )
    fh = io.StringIO()
    fmat.write_matrix_block(fh, m)
    assert fh.getvalue() == expected


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (0, 7), (7, 0), (0, 0), (40, 9)])
def test_random_matrices_round_trip_bit_for_bit(tmp_path, shape):
    m = _rng(shape[0] * 10 + shape[1]).standard_normal(shape)
    path = tmp_path / "m.fmat"
    fmat.save_matrix(path, m)
    text = path.read_text()
    assert text.count("\n") == shape[0] + 1
    loaded = fmat.load_matrix(path)
    assert loaded.shape == m.shape and loaded.tobytes() == m.tobytes()
    assert loaded.flags.c_contiguous
    lines = text.split("\n")[1 : shape[0] + 1]
    fast = fmat._parse_rows(lines, *shape)
    if m.size:
        assert fast is not None and fast.tobytes() == m.tobytes()
    else:
        assert fast is None


# -- numpy parse against the per-line loop -------------------------------------

# One row of a two-column block each: rows both parsers read, rows only
# float() reads, and rows neither reads. The loop is the reference.
ODD_ROWS = [
    "1.5 -2",
    "+4.9406564584124654e-324 2.2250738585072009e-308",  # subnormals
    "-0 0",
    "-0.0 +0.0",
    "1E5 .5",
    "1. -.5",
    "1.0e+5 +2",
    "1e-400 1",  # underflows to 0.0
    "1\t2",
    "\t1\t2\t",
    "1 2   ",
    "   1 2",
    "1\xa02",  # NO-BREAK SPACE separator
    "1\u30002",  # IDEOGRAPHIC SPACE separator
    "1\u2003 2",  # EM SPACE
    "1\x0b2",
    "1\x0c2",
    "1\x1c2",
    "1\x852",
    "1 2\r",
    "1\r2",
    "1\u20282",  # LINE SEPARATOR
    "1_0 2",  # float() reads underscores, loadtxt does not
    "\u0661 2",  # ARABIC-INDIC DIGIT ONE: float() reads it, loadtxt does not
    "infinity 1",
    "-Infinity 1",
    "+nan 1",
    "nan nan",
    "1e400 1",
    "1 nan(123)",
    "1 infinit",
    "1 2 3",
    "1",
    "",
    "   ",
    "\t",
    "a 1",
    "0x1p3 1",
    "1,2",
    "1d0 2",
    "--1 2",
    "1e 2",
    "1 2#c",
    "1\x002",
]


@pytest.mark.parametrize("row", ODD_ROWS, ids=[ascii(r) for r in ODD_ROWS])
@pytest.mark.parametrize("place", ["alone", "middle"])
def test_numpy_parse_accepts_only_what_the_loop_accepts(monkeypatch, row, place):
    lines = [row] if place == "alone" else ["3 4", row, "-5e-1 6"]
    text = f"FMAT {len(lines)} 2\n" + "\n".join(lines) + "\n"
    reference = _loop_only(monkeypatch, _read_text, text)
    assert _outcome(_read_text, text) == reference
    fast = fmat._parse_rows(lines, len(lines), 2)
    if fast is not None:
        assert reference == ("ok", fast.shape, fast.tobytes())


@pytest.mark.parametrize("row", ["1_0 2", "\u0661 2"])
def test_literals_only_float_reads_take_the_loop(row):
    assert fmat._parse_rows([row], 1, 2) is None
    assert np.array_equal(_read_text(f"FMAT 1 2\n{row}\n"), [[float(p) for p in row.split()]])


def test_written_rows_take_the_numpy_parse():
    m = _rng(1).standard_normal((6, 3))
    fh = io.StringIO()
    fmat.write_matrix_block(fh, m)
    lines = fh.getvalue().splitlines()[1:]
    assert fmat._parse_rows(lines, 6, 3).tobytes() == m.tobytes()


@pytest.mark.parametrize("rows,cols", [(3, 0), (2, 2)])
def test_all_blank_block_emits_no_warning(rows, cols):
    # loadtxt warns on input with no data; the warning must not escape
    text = f"FMAT {rows} {cols}\n" + "\n" * rows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if cols == 0:
            assert _read_text(text).shape == (rows, 0)
        else:
            assert fmat._parse_rows([""] * rows, rows, cols) is None
            with pytest.raises(ParseError) as info:
                _read_text(text)
            assert info.value.lineno == 2
    assert caught == []



# -- corrupted files ----------------------------------------------------------


def _checkpoint(tmp_path):
    phases = rilm.random_phase_problem(seed=5, n_phases=2, d_rp=8, samples_range=(20, 30))
    path = tmp_path / "state.rilm"
    rilm.save_state(rilm.recursive_states(phases)[-1], path)
    return path, rilm.load_state


def _data_file(tmp_path):
    path = tmp_path / "train.fmat"
    fmat.save_matrix(path, _rng(2).standard_normal((12, 6)))
    return path, fmat.load_matrix


FILES = {"checkpoint": _checkpoint, "data": _data_file}


def _rows(lines):
    # indices of the lines that hold FMAT rows
    out, left = [], 0
    for i, line in enumerate(lines):
        if left:
            out.append(i)
            left -= 1
        elif line.startswith("FMAT "):
            left = int(line.split()[1])
    return out


def _blocks(lines):
    # [header index, first row, middle row, last row] per block
    starts = [i for i, line in enumerate(lines) if line.split()[:1] in (["FMAT"], ["LABL"])]
    out = []
    for start in starts:
        n = int(lines[start].split()[1])
        out.append((start, start + 1, start + 1 + n // 2, start + n))
    return out


def _check_same_error(monkeypatch, path, load, text, line=None):
    path.write_text(text)
    reference = _loop_only(monkeypatch, load, path)
    assert reference[0] == "error", "the corruption went unnoticed"
    assert _outcome(load, path) == reference
    if line is not None:
        assert reference[1] == line


@pytest.mark.parametrize("kind", FILES)
def test_truncated_file_names_the_loops_line(tmp_path, monkeypatch, kind):
    path, load = FILES[kind](tmp_path)
    text = path.read_text()
    lines = text.split("\n")
    offsets = np.cumsum([0] + [len(line) + 1 for line in lines]).tolist()
    cuts = set()
    for start, *_ in _blocks(lines):
        cuts.update((offsets[start], offsets[start + 1]))  # before and after the header
    for i in _rows(lines):
        cuts.add(offsets[i] + len(lines[i]) // 2)  # in the middle of a row
    cuts.discard(len(text))
    assert len(cuts) > 10
    for cut in sorted(cuts):
        _check_same_error(monkeypatch, path, load, text[:cut])


@pytest.mark.parametrize("kind", FILES)
def test_non_numeric_byte_names_its_line(tmp_path, monkeypatch, kind):
    path, load = FILES[kind](tmp_path)
    lines = path.read_text().split("\n")
    for block in _blocks(lines):
        for i in block:
            bad = list(lines)
            mid = len(bad[i]) // 2
            bad[i] = bad[i][:mid] + "x" + bad[i][mid + 1 :]
            _check_same_error(monkeypatch, path, load, "\n".join(bad), line=i + 1)
    # A digit changed into another digit still reads as a valid number:
    # FMAT v1 has no checksum, so that corruption cannot be caught.


@pytest.mark.parametrize("kind", FILES)
def test_dropped_separator_names_its_line(tmp_path, monkeypatch, kind):
    path, load = FILES[kind](tmp_path)
    lines = path.read_text().split("\n")
    rows = _rows(lines)
    for i in rows:
        bad = list(lines)
        bad[i] = bad[i].replace(" ", "", 1)
        _check_same_error(monkeypatch, path, load, "\n".join(bad), line=i + 1)
    for i in rows[:-1]:
        if i + 1 in rows:  # join two rows of one block
            bad = lines[:i] + [lines[i] + lines[i + 1]] + lines[i + 2 :]
            _check_same_error(monkeypatch, path, load, "\n".join(bad), line=i + 1)
