"""Open, read and write every file the CLI takes or writes. A text file is
UTF-8, a leading byte-order mark dropped, records ending only at LF, CRLF
or CR, and decoded by the stdlib's `io.TextIOWrapper` over a reader that
counts its bytes and line ends to place an invalid byte. A fault is
raised as a NamecensusError with one line, `FILE:LINE: message`, or
`FILE: message` for a path that cannot be opened or written."""

from __future__ import annotations

import csv
import errno
import io
import os
import stat
from codecs import BOM_UTF8 as BOM
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


class _Counted(io.BufferedReader):
    """A file's bytes as `io.TextIOWrapper` reads them, counted, so a fault the
    decoder finds in the latest read is placed without a second read, which
    a pipe would not allow."""

    # (bytes, line ends, whether the last is a CR) before the latest read, and through it
    before = through = (0, 0, False)
    head = b""  # the file's first bytes

    def read(self, size=-1):
        return self._count(super().read(size), end=size is None or size < 0)

    def read1(self, size=-1):
        data = super().read1(size)
        return self._count(data, end=not data)

    def _count(self, data: bytes, end: bool) -> bytes:
        self.before = count, ends, cr = self.through
        if data:
            self.through = (count + len(data), ends + _line_ends(data) - (cr and data[0] == 10),
                            data[-1] == 13)
            if count < 3:
                self.head += data[:3]
        if end and 0 < len(self.head) < 3 and self.head[0] == 0xEF:
            # Invalid, but utf-8-sig decodes the start of a BOM at the end to no text.
            raise UnicodeDecodeError("utf-8", self.head, 0, 1, "unexpected end of data")
        return data


def _line_ends(data: bytes) -> int:
    lf = data.count(b"\n")
    # Most files hold no CR, and counting CRLF pairs costs more than LF and CR together.
    return lf + data.count(b"\r") - data.count(b"\r\n") if b"\r" in data else lf


@contextmanager
def _text(path: str | Path, newline: str | None = None) -> Iterator[io.TextIOWrapper]:
    """`path` opened as UTF-8 text, a leading BOM dropped, lines ending at LF,
    CRLF and CR, for a `with` block. The first invalid byte read in the block
    is raised as `FILE:LINE: invalid UTF-8 at byte offset N`, N counted from
    the file's start: the decoder was given bytes ending where the latest
    read ends, and starting at most a BOM or a cut sequence before it."""
    read = _Counted(open_bytes(path).detach())
    with io.TextIOWrapper(read, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            _, ends, cr = read.before
            head = exc.object[: exc.start]
            line = 1 + ends + _line_ends(head) - (cr and head[:1] == b"\n")
            offset = read.through[0] - len(exc.object) + exc.start
            raise NamecensusError(f"{path}:{line}: invalid UTF-8 at byte offset {offset}") from None


def read_text(path: str | Path) -> str:
    """The file's whole text, its line ends read as LF."""
    with _text(path) as fh:
        return fh.read()


def line_lists(path: str | Path) -> Iterator[list[str]]:
    """The file's lines, ends dropped, a list per read of about `_CHUNK`
    characters; neither a list nor its read's text outlives the next read."""
    pending = ""
    with _text(path) as fh:
        # The read size grows with a line longer than a chunk, so reading it stays linear.
        while text := fh.read(max(_CHUNK, len(pending))):
            lines = text.split("\n")
            del text
            lines[0] = pending + lines[0]
            pending = lines.pop()
            yield lines
            del lines
    if pending:
        yield [pending]


@contextmanager
def csv_rows(path: str | Path) -> Iterator[Iterator[list[str]]]:
    """A csv.reader over the file's rows, for use in a `with` block. A row
    ends only at LF, CRLF or CR, and a quoted field may span lines. A
    malformed row raises `FILE:LINE: <csv message>` from the block; the
    reader's `line_num` is the last line of the row last read."""
    with _text(path, newline="") as fh:
        reader = csv.reader(fh)
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
