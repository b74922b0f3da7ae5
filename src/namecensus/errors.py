"""Exception classes shared across the package, and the message for a
file that is not UTF-8."""

from pathlib import Path


class NamecensusError(Exception):
    """Base class for all errors raised by this package."""


class CorpusError(NamecensusError):
    """A training-corpus file is missing or malformed."""


class CacheError(NamecensusError):
    """Base class for model-cache problems."""


class CacheFormatError(CacheError):
    """File is not a well-formed model cache, or a model cannot be written as one."""


class CacheVersionError(CacheError):
    """Cache was written with an unsupported format version."""


class CacheDigestError(CacheError):
    """Cache payload does not match its recorded digest."""


class CacheTruncatedError(CacheError):
    """Cache file ends before the recorded payload length."""


class InputError(NamecensusError):
    """A batch input file cannot be read as requested."""


class EmptyInputError(InputError):
    """Input file yielded zero name records."""


class GoldLabelError(NamecensusError):
    """Gold-label file is empty, malformed, or conflicting."""


def invalid_utf8(path: str | Path) -> str:
    """`FILE:LINE: invalid UTF-8 at byte offset N` for the first invalid
    byte of `path`. Lines end at LF, CRLF or CR, as in the text-mode
    readers, whose own decode errors count from an unknown buffer start."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return f"{path}:{line}: invalid UTF-8 at byte offset {exc.start}"
    return f"{path}: invalid UTF-8"  # the file changed since the failed read
