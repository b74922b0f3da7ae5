"""Exception classes shared across the package."""


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
