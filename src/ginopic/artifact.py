"""The one place this package writes files.

`atomic_write` writes through a temp file in the same directory and
`os.replace`s it, so a failed write leaves any previous file intact, and
turns every OSError into a `DataError`; every text output goes through it,
tables through `write_tsv`.

`write_artifact`/`read_artifact` are the binary container shared by the
corpus cache, graph cache, embedding cache, checkpoint and classifier
files: magic line, u64 little-endian header length, JSON header (sorted
keys, compact), then the format's payload.  `read_artifact` turns every
unreadable, truncated or malformed file into a `DataError`: each header
field is checked by the caller's validator before any code reads it, and
every read length is checked against the bytes left in the file.
"""
from __future__ import annotations

import contextlib
import json
import os
import struct

from .errors import DataError


def is_int(value) -> bool:
    return type(value) is int


def is_count(value) -> bool:
    return is_int(value) and value >= 0


def is_number(value) -> bool:
    return type(value) in (int, float)


def has_fields(value, fields: dict) -> bool:
    """`value` is a dict with exactly the keys of `fields`, each valid."""
    return type(value) is dict and value.keys() == fields.keys() and all(
        valid(value[key]) for key, valid in fields.items())


@contextlib.contextmanager
def atomic_write(path, what: str, binary: bool = False):
    """Yield a file (UTF-8 text unless `binary`) that replaces `path` only
    once the block completes."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    done = False
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
        done = True
    except OSError as e:
        raise DataError(f"cannot write {what}: {e}", path=path) from e
    finally:
        if not done:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def write_tsv(path, rows, what: str) -> None:
    """Write `rows` (iterables of cells, each formatted with `str`) atomically,
    one tab-separated line per row."""
    with atomic_write(path, what) as fh:
        fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)


@contextlib.contextmanager
def write_artifact(path, magic: bytes, header: dict, what: str):
    """Yield a binary file positioned after the header, for the payload."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, what, binary=True) as fh:
        fh.write(magic)
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        yield fh


def _parse_header(raw: bytes, fields: dict, what: str, path) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError alike
        raise DataError(f"{what} header is not UTF-8 JSON: {e}", path=path) from e
    if type(header) is not dict:
        raise DataError(f"{what} header is not a JSON object", path=path)
    if header.get("version") != 1:
        raise DataError(f"unsupported {what} version {header.get('version')!r}", path=path)
    for key, valid in fields.items():
        if key not in header or not valid(header[key]):
            raise DataError(f"{what} header field {key!r} missing or malformed", path=path)
    return header


@contextlib.contextmanager
def read_artifact(path, magic: bytes, fields: dict, what: str):
    """Yield (header, read): the validated header and `read(n)`, which returns
    exactly n payload bytes (`read()`: all bytes left).  Leaving the block
    checks that nothing trails the payload."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot read {what}: {e}", path=path) from e
    with fh:
        left = os.fstat(fh.fileno()).st_size

        def read(n: int | None = None) -> bytes:
            # checked against the bytes left in the file first, so a corrupt
            # length cannot make read() allocate more than the file holds
            nonlocal left
            n = left if n is None else n
            if n > left:
                raise DataError(f"truncated {what}", path=path)
            left -= n
            return fh.read(n)

        if fh.read(len(magic)) != magic:
            raise DataError(f"bad magic: not the expected {what}", path=path)
        left -= len(magic)
        (head_len,) = struct.unpack("<Q", read(8))
        yield _parse_header(read(head_len), fields, what, path), read
        if fh.read(1):
            raise DataError(f"trailing bytes after {what} payload", path=path)
