"""FMAT/LABL block I/O tests: the token codec and the per-line loop behind
it.

Core claims:
    - the writer's bytes are those of one ``%+.17e`` per value, and the
      token reader's values those of one ``float()`` per literal, bit for
      bit over the whole exponent range; exact decimal ties between 1e-5
      and 1e18 are rounded to even in the tokens, not sent to ``%``
    - the token reader accepts only what the per-line loop accepts, and
      returns it bit for bit; everything else falls back to the loop
    - the token reader takes a whole block or none of it: a block it turns
      down, even in its last pass, leaves the cursor where it was
    - every block the program writes, bar one holding a three-digit
      exponent, reads through the tokens
    - a corrupted checkpoint or data file raises the ParseError, line
      included, that the per-line loop raises
    - block I/O holds no more than the file's bytes, the matrix and about
      1 MB of chunk temporaries
"""

import io
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from recridge import cli, fmat, rilm
from recridge.errors import ParseError

from oracles import random_phase_problem, recursive_states


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _cursor(text):
    return fmat.LineCursor("m.fmat", text.encode())


def _outcome(read, *args):
    # ("ok", shape, raw bytes) or ("error", line, message) of one read
    try:
        value = read(*args)
    except ParseError as exc:
        return ("error", exc.lineno, str(exc))
    return ("ok", value.shape, value.tobytes())


def _loop_only(monkeypatch, read, *args):
    # the outcome with the token reader switched off
    with monkeypatch.context() as m:
        m.setattr(fmat, "_read_tokens", lambda cursor, rows, cols: None)
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


# -- fast path against the per-line loop ---------------------------------------

# One row of a two-column block each: rows float() reads, some only it
# reads, and rows it does not read. The loop is the reference.
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
    "1_0 2",  # float() reads underscores
    "\u0661 2",  # ARABIC-INDIC DIGIT ONE: float() reads it
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


@pytest.mark.parametrize("row", ["1_0 2", "\u0661 2"])
def test_literals_only_float_reads_take_the_loop(row):
    assert np.array_equal(_read_text(f"FMAT 1 2\n{row}\n"), [[float(p) for p in row.split()]])


@pytest.mark.parametrize("rows,cols", [(3, 0), (2, 2)])
def test_all_blank_block_emits_no_warning(rows, cols):
    text = f"FMAT {rows} {cols}\n" + "\n" * rows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if cols == 0:
            assert _read_text(text).shape == (rows, 0)
        else:
            with pytest.raises(ParseError) as info:
                _read_text(text)
            assert info.value.lineno == 2
    assert caught == []



# -- token codec --------------------------------------------------------------


def _expected_text(m):
    return f"FMAT {m.shape[0]} {m.shape[1]}\n" + "".join(
        " ".join("%+.17e" % v for v in row) + "\n" for row in m.tolist()
    )


def _written(m):
    fh = io.StringIO()
    fmat.write_matrix_block(fh, m)
    return fh.getvalue()


def _neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


def _ties(gen):
    # a / 2**b with a odd and a * 5**b of 19 digits: 19 significant digits
    # ending in 5, so exactly halfway between two 18-digit mantissas
    out = []
    for b in range(3, 28):
        lo, hi = -(-(10**18) // 5**b) // 2, min(10**19 // 5**b, 2**53) // 2
        if lo < hi:
            a = 2 * gen.integers(lo, hi, size=40) + 1
            out.append(np.ldexp(a.astype(np.float64), -b))
    ties = np.concatenate(out + [[1 + 2.0**-18, 2.0**-27]])
    exact = [x.as_integer_ratio() for x in ties.tolist()]
    assert all(len(str(n * 5 ** (d.bit_length() - 1))) == 19 for n, d in exact)
    return ties


def _corpus():
    # Over 10**6 values in two blocks of 8 columns, signs mixed: random
    # mantissas over every two-digit decimal exponent with the in-range
    # edge cases, then every edge case of the binary and decimal grids.
    gen = _rng(11)
    n = 1_000_000
    spread = gen.uniform(1.0, 10.0, n) * 10.0 ** gen.integers(-99, 100, n)
    bits = gen.integers(0, 2**63 - 1, 20_000, dtype=np.int64).view(np.float64)
    edges = np.concatenate([
        [0.0, 5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308, 1.7976931348623157e308],
        np.ldexp(gen.integers(1, 2**52, 1000), -1074).astype(np.float64),  # subnormals
        _neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
        _neighbours([float(f"1e{k}") for k in range(-323, 309)]),
        _ties(gen),
        bits[np.isfinite(bits)],
    ])
    in_range = (np.abs(edges) >= 1e-99) & (np.abs(edges) < 1e99)
    for values in (np.concatenate([spread, edges[in_range]]), edges):
        values = values * np.where(gen.random(values.size) < 0.5, -1.0, 1.0)
        yield values[: values.size // 8 * 8].reshape(-1, 8)


def test_codec_matches_printf_and_float_bit_for_bit():
    in_range, edges = _corpus()
    assert in_range.size + edges.size > 10**6
    for m in (in_range, edges):
        text = _written(m)
        assert text == _expected_text(m)
        read = fmat.read_matrix_block(_cursor(text))
        assert read.tobytes() == np.array([float(t) for t in text.split()[3:]]).tobytes()
    # the in-range block takes the token reader, and the token writer for
    # all rows but a few holding a near-tie or an edge case
    cursor = _cursor(_written(in_range))
    read = fmat._read_tokens(cursor, *fmat._parse_header(cursor, "FMAT", 2))
    assert read.tobytes() == in_range.tobytes()
    fallback = [fmat._format_tokens(in_range[i : i + 512])[1] for i in range(0, len(in_range), 512)]
    assert sum(map(len, fallback)) < len(in_range) // 20
    # Between 1e-5 and 1e18 the scaled mantissa is exact, so a tie (an
    # eighth of all values near 1e14) is rounded: of the random mantissas
    # there, no row falls back.
    spread = in_range[: 10**6 // 8].ravel()
    mid = spread[(np.abs(spread) >= 1e-5) & (np.abs(spread) < 1e18)]
    assert fmat._format_tokens(mid[: mid.size // 8 * 8].reshape(-1, 8))[1].size == 0


def test_exact_ties_round_to_even_or_take_the_row_format():
    # a / 2**b has the exponent E = 18 - b; a tie is rounded half to even
    # where 10**(17 - E) is a double, and written by ``%`` elsewhere
    ties = _ties(_rng(12))[:, None]
    text, fallback = fmat._format_tokens(ties)
    exponent = np.floor(np.log10(ties[:, 0]))
    assert fallback.tolist() == np.flatnonzero(exponent < -5).tolist()
    assert 0 < len(fallback) < len(ties)
    assert _written(ties) == _expected_text(ties)


@pytest.mark.parametrize("bias", [-1e-12, 1e-12])
def test_writer_stays_exact_when_log10_rounds_across_a_power_of_ten(monkeypatch, bias):
    # log10 is not correctly rounded on every platform; an exponent off by
    # one must send its row to the row format, never write a wrong token
    m = _neighbours(10.0 ** np.arange(-98, 99)).reshape(-1, 3)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + bias)
    assert _written(m) == _expected_text(m)
    assert len(fmat._format_tokens(m)[1]) > len(m) // 3


def test_only_rows_the_tokens_cannot_write_take_the_row_format():
    m = _rng(13).standard_normal((6, 3))
    m[1, 2] = 1e200  # three-digit exponent
    m[2, 1] = 1 + 2.0**-18  # an exact tie, rounded to even
    m[4, 0] = 2.0**-27  # an exact tie where 10**26 is no double
    m[5] = [0.0, -0.0, 1e-99]
    text, fallback = fmat._format_tokens(m)
    assert fallback.tolist() == [1, 4]
    assert _written(m) == _expected_text(m)
    for empty in (np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((0, 0))):
        assert _written(empty) == _expected_text(empty)
        assert fmat.read_matrix_block(_cursor(_written(empty))).shape == empty.shape


def _no_loop(cursor, rows, cols):
    raise AssertionError(f"{cursor.path}: a block reached the per-line loop")


def test_program_written_files_read_through_the_tokens(tmp_path, monkeypatch):
    # gen's data files, a block with a row the writer sends to ``%`` and a
    # d 768 checkpoint all read through the tokens, bit for bit; only a
    # value the writer gives a three-digit exponent sends its block to the
    # loop
    assert cli.main(["gen", "--out", str(tmp_path / "syn")]) == 0
    generated = sorted(tmp_path.glob("syn_*.fmat"))
    reference = [_loop_only(monkeypatch, fmat.load_matrix, path) for path in generated]
    assert len(generated) == 2 and all(ref[0] == "ok" for ref in reference)
    m = _rng(18).standard_normal((6, 3))
    m[2, 1] = 1 + 2.0**-18  # an exact tie, rounded to even in the tokens
    m[4, 0] = 2.0**-27  # an exact tie, written with ``%``
    assert fmat._format_tokens(m)[1].tolist() == [4]
    fmat.save_matrix(tmp_path / "ties.fmat", m)
    phases = random_phase_problem(seed=3, n_phases=2, d_rp=768, samples_range=(300, 400))
    state = recursive_states(phases)[-1]
    rilm.save_state(state, tmp_path / "state.rilm")
    far = m.copy()
    far[1, 2], far[3, 1] = 1e200, -1e-120
    fmat.save_matrix(tmp_path / "far.fmat", far)
    with monkeypatch.context() as patched:
        patched.setattr(fmat, "_read_rows", _no_loop)
        assert [_outcome(fmat.load_matrix, path) for path in generated] == reference
        assert fmat.load_matrix(tmp_path / "ties.fmat").tobytes() == m.tobytes()
        loaded = rilm.load_state(tmp_path / "state.rilm")
        with pytest.raises(AssertionError, match="per-line loop"):
            fmat.load_matrix(tmp_path / "far.fmat")
    assert loaded.weights.tobytes() == state.weights.tobytes()
    assert loaded.r.tobytes() == state.r.tobytes()
    assert loaded.class_ids == state.class_ids
    assert fmat.load_matrix(tmp_path / "far.fmat").tobytes() == far.tobytes()


def _is_midpoint(literal):
    # exactly halfway between float(literal) and one of its neighbours
    x = float(literal)
    return any(
        Fraction(literal) == (Fraction(x) + Fraction(y)) / 2
        for y in (np.nextafter(x, np.inf), np.nextafter(x, -np.inf))
    )


def test_token_reader_matches_float_on_any_canonical_literal():
    gen = _rng(14)
    n = 20_000
    mant = gen.integers(0, 10**18, n)
    mant[:50] = 0
    mant[50:100] //= 10 ** gen.integers(1, 18, 50)  # leading zeros
    digits = [f"{x:018d}" for x in mant.tolist()]
    exps = gen.integers(-99, 100, n).tolist()
    signs = gen.choice(["+", "-"], n)
    literals = [f"{s}{d[0]}.{d[1:]}e{e:+03d}" for s, d, e in zip(signs, digits, exps)]
    # integers halfway between two doubles, as 18-digit literals
    halves = [str(2**j + (2 * k + 1) * 2 ** (j - 53)) for j in range(53, 57) for k in (0, 7, 12345)]
    literals += [f"+{d[0]}.{d[1:]:0<17}e{len(d) - 1:+03d}" for d in halves]
    rows = [literals[i : i + 4] for i in range(0, len(literals), 4)]
    text = f"FMAT {len(rows)} 4\n" + "".join(" ".join(row) + "\n" for row in rows)
    expected = np.array([float(t) for t in literals])
    assert _read_text(text).tobytes() == expected.tobytes()
    # Row by row, the token reader reads every row as float() does, except
    # that its bound turns down exactly the rows holding a midpoint.
    turned_down = []
    for i, row in enumerate(rows):
        cursor = _cursor(" ".join(row) + "\n")
        fast = fmat._read_tokens(cursor, 1, 4)
        if fast is None:
            turned_down.append(i)
        else:
            assert fast.tobytes() == expected[4 * i : 4 * i + 4].tobytes()
    assert turned_down == [i for i, row in enumerate(rows) if any(map(_is_midpoint, row))]
    assert len(rows) - 3 > len(turned_down) >= 3


# One character of a written token replaced: a digit, a space, a LF, an
# underscore (float() reads it between digits), a non-ASCII digit, a NUL,
# and the neighbours of the layout's other bytes.
TOKEN_EDITS = ["7", " ", "\n", "_", "\u0661", "\x00", ",", "-", "E"]


@pytest.mark.parametrize("col", [0, 1], ids=["mid-row", "row-end"])
def test_edited_token_reads_as_the_loop_reads_it(monkeypatch, col):
    text = _written(_rng(15).standard_normal((3, 2)))
    start = text.index("\n") + 1 + (2 + col) * 25  # a 25-byte token on row 1
    for pos in range(25):
        for edit in TOKEN_EDITS:
            bad = text[: start + pos] + edit + text[start + pos + 1 :]
            assert _outcome(_read_text, bad) == _loop_only(monkeypatch, _read_text, bad)
        cut = text[: start + pos]  # truncated mid-token
        assert _outcome(_read_text, cut) == _loop_only(monkeypatch, _read_text, cut)


def test_token_reader_takes_a_whole_block_or_leaves_the_cursor():
    # 2500 x 2 values take three passes; an edit in the last row fails only
    # the last, and the cursor still stands at the block's first row
    m = _rng(16).standard_normal((2500, 2))
    text = _written(m)
    bad = text[: text.rindex("e")] + "E" + text[text.rindex("e") + 1 :]
    cursor = _cursor(bad)
    rows, cols = fmat._parse_header(cursor, "FMAT", 2)
    before = cursor.lineno, len(cursor.rest())
    assert fmat._read_tokens(cursor, rows, cols) is None
    assert (cursor.lineno, len(cursor.rest())) == before
    cursor = _cursor(text)
    rows, cols = fmat._parse_header(cursor, "FMAT", 2)
    lineno, left = cursor.lineno, len(cursor.rest())
    assert fmat._read_tokens(cursor, rows, cols).tobytes() == m.tobytes()
    assert cursor.lineno == lineno + 2500 and len(cursor.rest()) == left - 2500 * 2 * 25


LABEL_LINES = ["0", "-0", "007", "-12", "123456789012345678", "1234567890123456789",
               "+5", " 7 ", "7\r", "1_0", "\u0661", "", "-", "--1", "1-", "x", "1 2"]


@pytest.mark.parametrize("line", LABEL_LINES, ids=[ascii(x) for x in LABEL_LINES])
def test_label_lines_read_as_the_loop_reads_them(monkeypatch, line):
    text = f"LABL 3\n4\n{line}\n-5\n"
    def read(t):
        return fmat.read_labels_block(_cursor(t))
    with monkeypatch.context() as m:
        m.setattr(fmat, "_LABEL_LINE", rb"(?!)")  # never matches
        reference = _label_outcome(read, text)
    assert _label_outcome(read, text) == reference
    assert _label_outcome(read, text[:-1]) == reference  # no final LF


def _label_outcome(read, text):
    try:
        return ("ok", read(text))
    except ParseError as exc:
        return ("error", str(exc))


def test_files_read_with_text_mode_newlines(tmp_path):
    # a CR LF or a lone CR ends a line, as in a file opened in text mode
    m = _rng(17).standard_normal((3, 2))
    path = tmp_path / "m.fmat"
    path.write_bytes(_written(m).replace("\n", "\r\n").encode())
    assert fmat.load_matrix(path).tobytes() == m.tobytes()
    path.write_bytes(b"FMAT 2 2\r\n1 2\r3 4\r\n")
    assert fmat.load_matrix(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    path.write_bytes(b"LABL 2\r\n1\r2\r\n")
    assert fmat.load_labels(path) == [1, 2]


def test_block_io_holds_the_file_the_matrix_and_one_chunk(tmp_path):
    m = _rng(16).standard_normal((5000, 64))
    path = tmp_path / "m.fmat"
    tracemalloc.start()
    try:
        fmat.save_matrix(path, m)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = fmat.load_matrix(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.tobytes() == m.tobytes()
    bound = path.stat().st_size + m.nbytes + 2**20
    assert save_peak <= bound and load_peak <= bound


# -- corrupted files ----------------------------------------------------------


def _checkpoint(tmp_path):
    phases = random_phase_problem(seed=5, n_phases=2, d_rp=8, samples_range=(20, 30))
    path = tmp_path / "state.rilm"
    rilm.save_state(recursive_states(phases)[-1], path)
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


def test_header_larger_than_its_file_allocates_nothing(tmp_path):
    # 10**16 values (71 PiB) over two bytes: neither reader allocates the
    # block, and the loop names the row it cannot read
    path = tmp_path / "m.fmat"
    path.write_text("FMAT 1000000000000000 10\n1\n")
    with pytest.raises(ParseError) as info:
        fmat.load_matrix(path)
    assert (info.value.lineno, str(info.value)) == (2, f"{path}:2: row 0 has 1 values, expected 10")


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
