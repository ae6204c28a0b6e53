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
state never grows with sample count. The reader accepts any valid float
literal. Parse failures raise ParseError carrying the path and 1-based line
number.

Blocks can be stacked in one file (checkpoints do this); the block readers
therefore operate on a shared line cursor.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from .dense_linalg import Matrix, as_matrix
from .errors import ParseError


def format_float(v: float) -> str:
    return f"{float(v):+.17e}"


class LineCursor:
    """Sequential reader over the lines of a text file, tracking line numbers."""

    def __init__(self, path, text: str):
        self.path = path
        self._lines = text.split("\n")
        self._pos = 0

    @property
    def lineno(self) -> int:
        return self._pos

    def next_line(self, expect: str) -> str:
        if self._pos >= len(self._lines):
            raise ParseError(self.path, self._pos + 1, f"unexpected end of file, expected {expect}")
        line = self._lines[self._pos]
        self._pos += 1
        return line

    def at_end(self) -> bool:
        # Trailing blank lines (from the final LF) do not count as content.
        return all(not ln.strip() for ln in self._lines[self._pos :])

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
    fh.write(f"FMAT {m.shape[0]} {m.shape[1]}\n")
    for row in m:
        fh.write(" ".join(format_float(v) for v in row))
        fh.write("\n")


def read_matrix_block(cursor: LineCursor) -> Matrix:
    rows, cols = _parse_header(cursor, "FMAT", 2)
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
    except OSError as exc:
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
