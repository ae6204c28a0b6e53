"""Plain-text matrix and label formats (FMAT / LABL).

An FMAT block is a ``FMAT <rows> <cols>`` line, then one line per row of
cols space-separated floats; a LABL block is a ``LABL <count>`` line, then
one integer class id per line. Files are UTF-8 with LF newlines. The writer
emits every float as a sign-prefixed literal of 18 significant digits, one
before the point and 17 after (``%+.17e``), which round-trips float64
exactly and keeps the byte length of a block a pure function of its
dimensions; consumers rely on that to audit that serialized state never
grows with sample count. The reader accepts any literal Python's
``float()`` accepts. Parse failures raise ParseError carrying the path and
1-based line number. Blocks can be stacked in one file (checkpoints do
this), so the block readers share a cursor over the file's bytes.

Both directions convert a few thousand values per numpy pass in the one
layout the writer produces: 25-byte tokens (sign, digit, point, 17 digits,
``e``, sign, two digits, then a space or the row's LF). Each forms x * 10**k
as a double-double p + q (Dekker's exact product with a table of 10**k as
hi + lo pairs) to within 2**-100 |x * 10**k|, and keeps a result only where
that error cannot change it. The writer rounds the mantissa p + q, scaled
into [1e17, 1e18) and so off by under 1e-12, to the nearest integer; where
10**k is a double (0 <= k <= 22) p + q is exact and a tie rounds to even,
as ``%`` does. A row holding a fraction within 1e-9 of 0.5 at any other k,
an exponent of three digits or a log10 off by one is written with one
``%`` instead. The reader takes a block only if its bytes have exactly that
layout, and keeps r = fl(p + q) only if p + q lies further than the error
bound from both midpoints between r and its neighbours; this holds for
zero and rules out exact ties, and two-digit exponents keep r normal.
Any other block (of the writer's own, only one holding a three-digit
exponent) goes to a loop of one ``float()`` per value. That loop is the
reference: it raises the ParseError, with the path and line, for whatever
the token reader turned down, and reads every literal ``float()`` takes;
the token reader accepts nothing it rejects, so a file reads the same
either way, bit for bit. LABL blocks of lines ``-?[0-9]{1,18}``
are read by one regular expression and one numpy call, any other by an
``int()`` loop.
"""

from __future__ import annotations

import functools
import os
import re
from contextlib import contextmanager

import numpy as np

from .dense_linalg import Matrix, as_matrix
from .errors import ParseError

# The float spec of the format (see the module docstring).
_FLOAT_SPEC = "%+.17e"
# Values per numpy pass, in whole rows. A read pass holds about 200 bytes
# of temporaries per value, so reads take the smaller passes; a write
# pass holds far less.
_WRITE_CHUNK = 8192
_READ_CHUNK = 2048
# A token: "+1.2", the mantissa's last 16 digits, "e-05" and the separator.
_TOKEN = np.dtype([("head", "S4"), ("digits", "S4", 4), ("tail", "S5")])
# The token of 0.0, and how far above it each of a token's bytes may lie.
_ZERO = np.frombuffer(b"+0.00000000000000000e+00", np.uint8)
_SPAN = np.select([_ZERO == 48, _ZERO == 43], [9, 2], 0).astype(np.uint8)  # digits, signs
_KMAX = 116  # the powers 10**k both directions use have |k| <= _KMAX
_LABEL_LINE = rb"-?[0-9]{1,18}\n"


def _split(a):
    # Dekker: a == hi + lo, hi holding the upper 26 bits
    hi = a * 134217729.0
    hi -= hi - a
    return hi, a - hi


@functools.cache
def _tables():
    # Built on first use, not at import: 10**k as hi + lo, each correctly
    # rounded, hi split, and the token pieces.
    pairs = []
    for k in range(-_KMAX, _KMAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        a, b = (num / den).as_integer_ratio()
        pairs.append((a / b, (num * b - a * den) / (den * b)))
    hi, lo = np.array(pairs).T.copy()
    quads = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48)
    heads = [f"{s}{t // 10}.{t % 10}" for s in "+-" for t in range(100)]
    tails = [f"e{e:+03d}{sep}" for e in range(-99, 100) for sep in " \n"]
    quads, heads, tails = quads.view("S4").ravel(), np.array(heads, "S4"), np.array(tails, "S5")
    return hi, lo, *_split(hi), quads, heads, tails


def _times_power(xh, xl, k):
    # (p, q): p + q = (xh + xl) * 10**k within 2**-100, xl below an ulp of xh
    hi, lo, sh, sl = (t[k + _KMAX] for t in _tables()[:4])
    p = xh * hi
    ah, al = _split(xh)
    err = ((ah * sh - p) + ah * sl + al * sh) + al * sl
    return p, err + (xh * lo + xl * hi)


class LineCursor:
    """Sequential reader over the lines of a file's bytes, tracking line numbers.

    Lines are the bytes split at LF and decoded as UTF-8, cut from them as
    they are read, so a file is never held both whole and as its lines.
    """

    def __init__(self, path, data: bytes):
        self.path = path
        self._data = data
        self._start = 0  # offset of the next line; past the end once all are read
        self._pos = 0

    @property
    def lineno(self) -> int:
        return self._pos

    def next_line(self, expect: str) -> str:
        if self._start > len(self._data):
            raise ParseError(self.path, self._pos + 1, f"unexpected end of file, expected {expect}")
        end = self._data.find(b"\n", self._start)
        if end < 0:
            end = len(self._data)
        line = self._data[self._start : end]
        self._start = end + 1
        self._pos += 1
        return line.decode("utf-8")

    def rest(self) -> memoryview:
        # The bytes not read yet, for a caller that then skips what it used.
        return memoryview(self._data)[self._start :]

    def skip(self, size: int, lines: int) -> None:
        self._start += size
        self._pos += lines

    def mark(self) -> tuple[int, int]:
        return self._start, self._pos

    def reset(self, mark: tuple[int, int]) -> None:
        self._start, self._pos = mark

    def at_end(self) -> bool:
        # Trailing blank lines (from the final LF) do not count as content.
        return not self._data[self._start :].decode("utf-8").strip()

    def error(self, message: str) -> ParseError:
        return ParseError(self.path, self._pos, message)


def _parse_header(cursor: LineCursor, tag: str, nfields: int) -> list[int]:
    line = cursor.next_line(f"{tag} header")
    parts = line.split()
    if len(parts) != nfields + 1 or parts[0] != tag:
        raise cursor.error(f"malformed {tag} header: {line!r}")
    try:
        dims = [int(p) for p in parts[1:]]
    except ValueError:
        raise cursor.error(f"malformed {tag} header: {line!r}") from None
    if any(d < 0 for d in dims):
        raise cursor.error(f"negative dimension in {tag} header: {line!r}")
    return dims


def write_matrix_block(fh, m: Matrix) -> None:
    m = as_matrix(m, "matrix")
    rows, cols = m.shape
    fh.write(f"FMAT {rows} {cols}\n")
    row_format = " ".join([_FLOAT_SPEC] * cols) + "\n"
    step = max(1, _WRITE_CHUNK // max(cols, 1))
    for i in range(0, rows, step):
        chunk = m[i : i + step]
        text, fallback = _format_tokens(chunk) if cols else ("\n" * len(chunk), [])
        width, done = cols * _TOKEN.itemsize, 0
        for row in fallback:
            fh.write(text[done * width : row * width] + row_format % tuple(chunk[row].tolist()))
            done = row + 1
        fh.write(text[done * width :])


def _format_tokens(chunk: Matrix) -> tuple[str, np.ndarray]:
    # The rows of ``chunk`` as tokens, and the rows to write with ``%``
    # instead (their tokens are garbage).
    *_, quads, heads, tails = _tables()
    a = np.abs(chunk.ravel())
    zero, live = a == 0, (a >= 1e-99) & (a < 1e100)
    a[~live] = 1.0  # zeros are patched in below, the rest written by ``%``
    e = np.clip(np.floor(np.log10(a)), -99, 99).astype(np.intp)
    p, q = _times_power(a, 0.0, 17 - e)
    floor = np.floor(q)
    frac = q - floor
    m = np.minimum(p, 2e18).astype(np.int64) + floor.astype(np.int64)
    # The certificate: a clear rounding to 18 digits under a two-digit
    # exponent (log10 may round across a power of 10, the clip cut it).
    # Where 10**(17 - e) is a double, p + q is the exact product, so even
    # a tie is clear: it rounds half to even, as ``%`` does.
    exact = (e >= -5) & (e <= 17)
    bad = ~(live | zero) | (m < 10**17) | (~exact & (np.abs(frac - 0.5) < 1e-9))
    m += (frac > 0.5) | ((frac == 0.5) & ((m & 1) == 1))
    bad |= m >= 10**18
    m[zero | bad] = 0  # keeps the table indices below in range
    top, rest = np.divmod(m, 10**16)
    tokens = np.empty(a.size, _TOKEN)
    tokens["head"] = heads[np.signbit(chunk.ravel()) * 100 + top]
    groups = np.divmod(np.stack(np.divmod(rest, 10**8), 1), 10**4)
    tokens["digits"] = quads[np.stack(groups, 2).reshape(-1, 4)]
    last = np.arange(chunk.shape[1]) == chunk.shape[1] - 1
    tokens["tail"] = tails[((e.reshape(chunk.shape) + 99) * 2 + last).ravel()]
    return str(tokens, "ascii"), np.flatnonzero(bad.reshape(chunk.shape).any(1))


def _read_tokens(cursor: LineCursor, rows: int, cols: int) -> Matrix | None:
    # The block if each chunk has the writer's layout and passes the
    # bound; None otherwise, the cursor then moved by an unknown amount.
    if not (rows and cols) or rows * cols * _TOKEN.itemsize > len(cursor.rest()):
        return None
    data = np.empty((rows, cols), dtype=np.float64)
    step = max(1, _READ_CHUNK // cols)
    for out in (data[i : i + step] for i in range(0, rows, step)):
        size = out.size * _TOKEN.itemsize
        if size > len(cursor.rest()):
            return None
        tok = np.frombuffer(cursor.rest(), np.uint8, size).reshape(*out.shape, -1)
        cursor.skip(size, len(out))
        u = tok.reshape(out.size, -1)[:, :-1] - _ZERO  # digit values at digits
        seps = (tok[:, :-1, -1] == 32).all() and (tok[:, -1, -1] == 10).all()
        if not (seps and (u <= _SPAN).all() and (u[:, [0, 21]] != 1).all()):  # 1 is ','
            return None
        # Digits 2-17 as two little-endian words of 8 digits, combined
        # (SWAR) into 2-digit, then 4-digit, then 8-digit lanes.
        w = np.ascontiguousarray(u[:, 4:20]).view("<u8")
        w = (w * 10 + (w >> 8)) & 0x00FF00FF00FF00FF
        w = (w * 100 + (w >> 16)) & 0x0000FFFF0000FFFF
        w = ((w * 10000 + (w >> 32)) & 0xFFFFFFFF).astype(np.int64)
        m = (u[:, 1] * 10 + u[:, 3]).astype(np.int64) * 10**16 + w[:, 0] * 10**8 + w[:, 1]
        mh, e = m.astype(np.float64), u[:, 22].astype(np.intp) * 10 + u[:, 23]
        ml = (m - mh.astype(np.int64)).astype(np.float64)
        p, q = _times_power(mh, ml, np.where(u[:, 21], -e, e) - 17)
        r = p + q
        # p + q - r is exact, the gap below |r| the smaller one, 2**-100 the error
        a = np.abs(r)
        if not (np.abs(q - (r - p)) <= (a - np.nextafter(a, 0)) * 0.5 - a * 2.0**-100).all():
            return None
        out[...] = np.where(u[:, 0], -r, r).reshape(out.shape)
    return data


def read_matrix_block(cursor: LineCursor) -> Matrix:
    rows, cols = _parse_header(cursor, "FMAT", 2)
    start = cursor.mark()
    data = _read_tokens(cursor, rows, cols)
    if data is None:
        cursor.reset(start)
        data = _read_rows(cursor, rows, cols)
    return data


def _read_rows(cursor: LineCursor, rows: int, cols: int) -> Matrix:
    # One float() per value; slow, but it names the line that fails. Each
    # value takes a byte and a space or LF after it, bar the file's last,
    # so a block whose values cannot fit in the bytes left fails at some
    # row: its rows go to one scratch row, not to an array its header's size.
    fits = 2 * rows * cols - 1 <= len(cursor.rest())
    data = np.empty((rows if fits else 1, cols), dtype=np.float64)
    for i in range(rows):
        line = cursor.next_line(f"matrix row {i}")
        parts = line.split()
        if len(parts) != cols:
            raise cursor.error(f"row {i} has {len(parts)} values, expected {cols}")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise cursor.error(f"row {i} contains a non-numeric value") from None
        data[i if fits else 0] = values
    if rows and cols and not np.isfinite(data).all():
        raise cursor.error("matrix contains non-finite values")
    return data


def write_labels_block(fh, ids) -> None:
    ids = [int(i) for i in ids]
    fh.write(f"LABL {len(ids)}\n" + "".join(f"{i}\n" for i in ids))


def read_labels_block(cursor: LineCursor) -> list[int]:
    (count,) = _parse_header(cursor, "LABL", 1)
    # Each line takes a byte at least, which bounds the repeat count.
    pattern = b"(?:%s){%d}" % (_LABEL_LINE, count)
    found = count <= len(cursor.rest()) and re.compile(pattern).match(cursor.rest())
    if found:
        cursor.skip(found.end(), count)
        return np.fromstring(found[0], np.int64, sep="\n").tolist()
    ids = []
    for i in range(count):
        line = cursor.next_line(f"label {i}")
        try:
            ids.append(int(line.strip()))
        except ValueError:
            raise cursor.error(f"label {i} is not an integer: {line!r}") from None
    return ids


def open_cursor(path) -> LineCursor:
    # Bytes, read in place by the fast paths, with text mode's newlines
    # (one scan for a CR spares the two full replace passes most files
    # need none of) and UTF-8 check.
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not data.isascii():
            data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from exc
    return LineCursor(path, data)


def check_consumed(cursor: LineCursor) -> None:
    if not cursor.at_end():
        raise ParseError(cursor.path, cursor.lineno + 1, "trailing content after block")


@contextmanager
def atomic_writer(path):
    """Text file handle whose content replaces ``path`` only once complete.

    Writes go to a new temporary file in the same directory, which
    ``os.replace`` moves over ``path`` when the block exits normally and
    which is deleted when it raises, so ``path`` holds either its previous
    content or the full new one, also when the writer is killed (its
    temporary file then stays behind). Nested writers replace a set of files
    all or none, innermost first: a raise inside the innermost block deletes
    every temporary file and replaces no target. Nothing is fsynced, so this
    does not guard against power loss.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_matrix(path, m: Matrix) -> None:
    with atomic_writer(path) as fh:
        write_matrix_block(fh, m)


def load_matrix(path) -> Matrix:
    cursor = open_cursor(path)
    m = read_matrix_block(cursor)
    check_consumed(cursor)
    return m


def save_labels(path, ids) -> None:
    with atomic_writer(path) as fh:
        write_labels_block(fh, ids)


def load_labels(path) -> list[int]:
    cursor = open_cursor(path)
    ids = read_labels_block(cursor)
    check_consumed(cursor)
    return ids
