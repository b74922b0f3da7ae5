"""Exception classes shared across the package."""


class NamecensusError(Exception):
    """A fault in a file or an option, reported as one line; the CLI exits 1."""


class CacheError(NamecensusError):
    """A model cache that cannot be read or written; build-cache rebuilds an
    unreadable one."""
