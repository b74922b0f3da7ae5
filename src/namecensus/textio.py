"""Open, read and write every file the CLI takes or writes. A text file is
UTF-8, a leading byte-order mark dropped, records ending only at LF, CRLF
or CR. A fault is raised as a NamecensusError with one line, `FILE:LINE:
message`, or `FILE: message` for a path that cannot be opened or written."""

from __future__ import annotations

import csv
import errno
import io
import itertools
import os
import stat
from collections.abc import Iterator
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import BinaryIO

from namecensus.errors import NamecensusError

_CHUNK = 1 << 16


def open_bytes(path: str | Path) -> BinaryIO:
    """`path` opened for reading bytes. A missing path is raised as
    `FILE: file not found`, a directory as `FILE: is a directory`."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise NamecensusError(f"{path}: file not found") from None
    except IsADirectoryError:
        raise NamecensusError(f"{path}: is a directory") from None


class _Output(io.FileIO):
    """The file `replace_file` writes. A write fault is raised where it happens,
    naming the user's `path`, so a fault inside a block nested in another
    file's names its own file."""

    def write(self, data) -> int:
        try:
            return super().write(data)
        except BrokenPipeError:
            raise  # the reader closed the pipe: not a fault of this file
        except OSError as exc:
            raise NamecensusError(f"{self.path}: {exc.strerror or exc}") from None


def _descriptor(path: str | Path) -> int | None:
    """The open descriptor that `path` names, as /dev/stdout, /dev/fd/N and
    /proc/self/fd/N do, or None: its links are followed, one at a time, to
    the process's descriptor directory."""
    fd_dirs = (os.path.realpath("/proc/self/fd"), "/dev/fd")
    path = os.path.abspath(path)
    for _ in range(40):  # the kernel's limit on links in one lookup
        head, name = os.path.split(path)
        head = os.path.realpath(head)
        if head in fd_dirs and name.isdigit():
            return int(name)
        path = os.path.join(head, name)
        if not os.path.islink(path):
            return None
        path = os.path.join(head, os.readlink(path))
    return None


def names_stdout(path: str | Path) -> bool:
    """Whether `path` names the file or pipe behind this process's stdout,
    as /dev/stdout does, or /dev/fd/3 after `3>&1`."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except (OSError, ValueError):  # a missing or malformed path, a stdout not open
        return False


def regular_file(path: str | Path) -> bool:
    """Whether `path` names a regular file by a path of its own, not through
    an open descriptor as /dev/stdout does."""
    return os.path.isfile(path) and _descriptor(path) is None


@contextmanager
def replace_file(path: str | Path) -> Iterator[BinaryIO]:
    """`path` opened for writing bytes, for use in a `with` block. The bytes
    go to a temp file beside `path`, which replaces `path` when the block
    ends cleanly; on any fault the temp file is removed and `path` is left
    as it was. The temp file is created exclusively, under a fresh name if
    one is taken, so no file or link already there is written through or
    removed; it has the permission bits of the file it replaces from its
    creation on, and a new file has the umask's. A symlink is kept, even
    one whose target does not exist yet: the temp file goes beside the file
    it names and replaces that file. A path naming an open descriptor, such
    as /dev/stdout, is written through a copy of that descriptor: renaming
    over it would replace the file behind it, and reopening it would
    truncate that file. A pipe or a device is written in place. A missing
    parent directory is raised as `FILE: directory not found`, a directory
    as `FILE: is a directory`, a write fault as `FILE: message`."""
    tmp = None
    fd = _descriptor(path)
    if fd is not None:
        try:
            raw = _Output(os.dup(fd), "w")
        except OSError as exc:
            raise NamecensusError(f"{path}: {exc.strerror or exc}") from None
    else:
        target = Path(os.path.realpath(path))  # a symlink stays: the file it names is replaced
        try:
            mode = os.stat(target).st_mode
        except OSError:
            mode = None
        try:
            if mode is None or stat.S_ISREG(mode):  # a pipe or a device cannot be renamed over
                raw, tmp = _create_beside(target, mode)
            else:
                raw = _Output(target, "w")
        except IsADirectoryError:
            raise NamecensusError(f"{path}: is a directory") from None
        except (FileNotFoundError, NotADirectoryError):
            raise NamecensusError(f"{path}: directory not found") from None
    raw.path = path
    try:
        with io.BufferedWriter(raw) as fh:
            yield fh
        if tmp:
            os.replace(tmp, target)
    except BaseException:
        if tmp:
            tmp.unlink(missing_ok=True)
        raise


def _create_beside(target: Path, mode: int | None) -> tuple[_Output, Path]:
    """A new temp file in `target`'s directory, opened for writing, and its
    path. It is created exclusively, so an existing file or link of the
    same name is never opened; a taken name is passed over for a random
    one. With the `mode` of the file it will replace, it gets that file's
    permission bits before a byte is written; otherwise the umask's."""
    bits = 0o666 if mode is None else stat.S_IMODE(mode)
    name = f".{target.name}.{os.getpid()}.tmp"
    for _ in range(100):
        tmp = target.with_name(name)
        try:
            # Created with the bits the umask lets through, so it is never
            # open to more readers than the file it replaces.
            raw = _Output(tmp, "x", opener=partial(os.open, mode=bits))
            break
        except FileExistsError:
            name = f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    else:
        raise FileExistsError(errno.EEXIST, "no free temp file name", str(tmp))
    if mode is not None:
        try:
            os.fchmod(raw.fileno(), bits)  # the bits the umask took away
        except BaseException:
            raw.close()
            tmp.unlink()
            raise
    return raw, tmp


def text_blocks(path: str | Path) -> Iterator[str]:
    """The file's text, decoded one block of whole lines at a time.

    Each block but the last ends at LF, CRLF or CR, and never between the
    CR and LF of a pair; UTF-8 never puts those bytes inside a character,
    so every block decodes on its own. An invalid byte is raised as
    `FILE:LINE: invalid UTF-8 at byte offset N`, N counted from the start
    of the file, BOM included.
    """
    with open_bytes(path) as fh:
        offset, line = 0, 1  # file offset and line number of `pending`
        pending = b""
        # The read size grows with a line longer than a chunk, so reading it stays linear.
        while chunk := fh.read(max(_CHUNK, len(pending))):
            pending += chunk
            # A CR in the last byte may start a CRLF, so it waits for the next chunk.
            cut = max(pending.rfind(b"\n"), pending.rfind(b"\r", 0, len(pending) - 1)) + 1
            if cut:
                block, pending = pending[:cut], pending[cut:]
                text = _decode(block, offset, line, path)
                offset, line = offset + cut, line + _line_ends(block)
                yield text
        if pending:
            yield _decode(pending, offset, line, path)


def _decode(block: bytes, offset: int, line: int, path: str | Path) -> str:
    """`block`, read at file `offset` and `line`, decoded as "utf-8-sig" would
    decode it, but a fault names its file offset and line."""
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as exc:
        line += _line_ends(block[: exc.start])
        raise NamecensusError(
            f"{path}:{line}: invalid UTF-8 at byte offset {offset + exc.start}"
        ) from None
    return text.removeprefix("\ufeff") if offset == 0 else text


def _line_ends(data: bytes) -> int:
    lf, cr = data.count(b"\n"), data.count(b"\r")
    # Most files hold no CR, and counting CRLF pairs costs more than LF and CR together.
    return lf + cr - data.count(b"\r\n") if cr else lf


def split_lines(block: str) -> list[str]:
    """The lines of a block, split at LF, CRLF and CR only; the last item
    is the text after the last line end, often empty."""
    return block.replace("\r\n", "\n").replace("\r", "\n").split("\n")


@contextmanager
def csv_rows(path: str | Path) -> Iterator[Iterator[list[str]]]:
    """A csv.reader over the file's rows, for use in a `with` block. A row
    ends only at LF, CRLF or CR, and a quoted field may span lines. A
    malformed row raises `FILE:LINE: <csv message>` from the block; the
    reader's `line_num` is the last line of the row last read."""
    # newline="" splits lines at LF, CRLF and CR only, and keeps their ends;
    # the lines are handed on in C, with no Python frame resumed per line.
    reader = csv.reader(
        itertools.chain.from_iterable(map(partial(io.StringIO, newline=""), text_blocks(path)))
    )
    try:
        yield reader
    except csv.Error as exc:
        raise NamecensusError(f"{path}:{reader.line_num}: {exc}") from None


def column(path: str | Path, header: list[str], name: str) -> int:
    """The index of column `name` in the header, the file's first row; it
    must appear there exactly once."""
    if name not in header:
        raise NamecensusError(f"{path}:1: no column {name!r} in header {header}")
    if header.count(name) > 1:
        raise NamecensusError(f"{path}:1: column {name!r} appears more than once in the header")
    return header.index(name)
