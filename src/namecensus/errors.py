"""Exception classes shared across the package."""


class NamecensusError(Exception):
    """A fault in a file or an option, reported as one line; the CLI exits 1."""


class CacheError(NamecensusError):
    """A model cache that this build cannot read, such as an older format or
    a cut or corrupt file; build-cache rebuilds one. A file that does not
    begin with the cache magic is no cache: build-cache leaves it as it is."""
