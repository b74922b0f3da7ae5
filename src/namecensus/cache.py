"""Versioned binary cache for the two trained models (.ncm files).

Layout: magic, format version, source-corpus digest, payload digest and
payload length (`_HEADER`), then the payload. The payload digest catches
corruption; the source digest catches staleness.

The payload is two columnar model sections, english then chinese. Each
section is a fixed `_SECTION` header (entry count, key-bytes length,
pair count, total_female, total_male); then the keys in sorted order as
UTF-8 joined by "\n"; then each distinct (female, male) pair once, as
little-endian int64, numbered in the order it is first seen along the
sorted keys; then one 4-byte little-endian pair index per key, in key
order. Sorting and first-seen numbering make the file a function of the
model alone. Loading checks every section whole and reads its two arrays
instead of a JSON parse, and keys with equal counts share one tuple.
Both sections' key text is cut into chunks of whole keys in one pass.
The chinese keys are split into a dict at load. The english keys, ~95k
of them, are split a chunk at a time as lookups reach them, so a batch
that looks up a few names decodes a few chunks.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from bisect import bisect_right
from collections.abc import Iterator, Mapping
from pathlib import Path
from typing import NamedTuple

from namecensus.corpus import CountModel
from namecensus.errors import CacheError, NamecensusError
from namecensus.textio import open_bytes, replace_file

MAGIC = b"NCMC"
FORMAT_VERSION = 4
_HEADER = struct.Struct("<4sI32s32sQ")
_SECTION = struct.Struct("<QQQqq")
# The array typecode of a 4-byte unsigned int: "I" on every common ABI,
# but C promises it only 2 bytes.
_INDEX = next(code for code in "IL" if array(code).itemsize == 4)
# Characters of key text per chunk of a lazily decoded section: about a
# thousand chunks of some ninety keys for a 95k-name English corpus.
_CHUNK_CHARS = 1024


class ModelCache(NamedTuple):
    english: CountModel
    chinese: CountModel


def digest_corpus_files(paths: list[Path]) -> str:
    """Order-independent content hash of the input corpus files."""
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        h.update(path.name.encode("utf-8"))
        h.update(b"\x00")
        with open_bytes(path) as fh:
            h.update(fh.read())
        h.update(b"\x00")
    return h.hexdigest()


def _encode(model: CountModel) -> bytes:
    keys = sorted(model.entries)
    key_text = "\n".join(keys)
    # Joined keys hold one newline fewer than there are keys, unless a key has its own.
    if keys and key_text.count("\n") != len(keys) - 1:
        bad = next(k for k in keys if "\n" in k)
        raise CacheError(f"cannot cache model key {bad!r}: it contains a newline")
    key_bytes = key_text.encode("utf-8")
    pairs = list(map(model.entries.__getitem__, keys))
    # Each distinct pair numbered in first-seen order.
    numbers = {pair: i for i, pair in enumerate(dict.fromkeys(pairs))}
    index = array(_INDEX, map(numbers.__getitem__, pairs))
    try:
        counts = array("q", [c for pair in numbers for c in pair])
        header = _SECTION.pack(len(keys), len(key_bytes), len(numbers),
                               model.total_female, model.total_male)
    except (OverflowError, struct.error):
        raise CacheError("cannot cache model: a count is outside the int64 range") from None
    if sys.byteorder == "big":
        counts.byteswap()
        index.byteswap()
    return header + key_bytes + counts.tobytes() + index.tobytes()


def _chunks(text: str, size: int) -> tuple[list[str], dict[int, tuple[int, int, int]], int]:
    """The key text of a model with at least one key, cut into runs of
    whole keys: each run ends at the first newline `size` or more
    characters past its start, or at the end. Returns the runs' first
    keys, a (start, stop, lo) per run numbered from 0 (`text[start:stop]`
    holds the keys from key lo on) and the number of keys."""
    firsts, spans = [], {}
    start = lo = 0
    while start <= len(text):
        cut = text.find("\n", start + size)
        stop = len(text) if cut < 0 else cut
        end = text.find("\n", start, stop)
        firsts.append(text[start : stop if end < 0 else end])
        spans[len(spans)] = (start, stop, lo)
        start, lo = stop + 1, lo + text.count("\n", start, stop) + 1
    return firsts, spans, lo


class _LazyEntries(Mapping):
    """The entries of a decoded model section, read only, whose keys are
    turned into a dict a chunk at a time. A chunk is a run of consecutive
    sorted keys, about `_CHUNK_CHARS` characters of key text, decoded on
    the first lookup of a key that sorts into it. A lookup that hits is one
    dict read; one that misses bisects the chunks' first keys. So a decoded
    chunk must hold strictly increasing keys, below the next chunk's first
    key; a key stored in a chunk that its own lookup never reaches reads as
    absent. `len` and iteration decode every chunk."""

    __slots__ = ("_found", "_text", "_pairs", "_index", "_firsts", "_pending", "_path")

    def __init__(self, text: str, firsts: list[str], pending: dict[int, tuple[int, int, int]],
                 pairs: list[tuple[int, int]], index: array, path: str | Path) -> None:
        self._found: dict[str, tuple[int, int]] = {}
        self._text, self._pairs, self._index = text, pairs, index
        # `pending` maps each chunk not yet decoded, by number, to its (start, stop, lo).
        self._firsts, self._pending, self._path = firsts, pending, path

    def _decode_chunk(self, i: int) -> None:
        start, stop, lo = self._pending[i]
        keys = self._text[start:stop].split("\n")
        found = self._found
        size = len(found)
        if keys == sorted(keys) and (i + 1 == len(self._firsts) or keys[-1] < self._firsts[i + 1]):
            found.update(zip(keys, map(self._pairs.__getitem__, self._index[lo : lo + len(keys)])))
        # A chunk out of order adds no key, and one with a repeated key adds
        # too few: either way its keys are taken back out and it stays
        # pending, so every lookup into it fails the same way.
        if len(found) != size + len(keys):
            while len(found) > size:
                found.popitem()
            raise CacheError(f"{self._path}: model section keys are out of order")
        del self._pending[i]
        if not self._pending:  # every key is in the dict: free the section's arrays
            self._text = self._pairs = self._index = None

    def get(self, key, default=None):
        pair = self._found.get(key)
        if pair is None and self._pending:
            i = bisect_right(self._firsts, key) - 1
            if i in self._pending:
                self._decode_chunk(i)
                pair = self._found.get(key)
        return default if pair is None else pair

    def _all(self) -> dict[str, tuple[int, int]]:
        for i in list(self._pending):
            self._decode_chunk(i)
        return self._found

    def __getitem__(self, key: str) -> tuple[int, int]:
        pair = self.get(key)
        if pair is None:
            raise KeyError(key)
        return pair

    def __len__(self) -> int:
        return len(self._all())

    def __iter__(self) -> Iterator[str]:
        return iter(self._all())


def _decode(payload: bytes, pos: int, path: str | Path) -> tuple[CountModel, int]:
    """Check the section at `pos` whole; return its model, whose entries
    are a `_LazyEntries`, and its end. Every fault begins `FILE: `."""
    if len(payload) - pos < _SECTION.size:
        raise CacheError(f"{path}: model section ends inside its header")
    count, keys_len, pair_count, total_female, total_male = _SECTION.unpack_from(payload, pos)
    keys_start = pos + _SECTION.size
    pairs_start = keys_start + keys_len
    index_start = pairs_start + 16 * pair_count
    end = index_start + 4 * count
    if end > len(payload):
        raise CacheError(
            f"{path}: model section promises {count} entries and {pair_count} pairs "
            f"in {end - pos} bytes, {len(payload) - pos} remain"
        )
    try:
        key_text = payload[keys_start:pairs_start].decode("utf-8")
    except UnicodeDecodeError:
        raise CacheError(f"{path}: model section keys are not valid UTF-8") from None
    # An empty model has no key bytes, and neither has a lone empty key.
    firsts, spans, keys = _chunks(key_text, _CHUNK_CHARS) if count or key_text else ([], {}, 0)
    if keys != count:
        raise CacheError(f"{path}: model section header promises {count} keys, found {keys}")
    if sorted(set(firsts)) != firsts:
        raise CacheError(f"{path}: model section keys are out of order")
    counts, index = array("q"), array(_INDEX)
    counts.frombytes(payload[pairs_start:index_start])
    index.frombytes(payload[index_start:end])
    if sys.byteorder == "big":
        counts.byteswap()
        index.byteswap()
    if index and max(index) >= pair_count:
        raise CacheError(f"{path}: model section has a pair index past its {pair_count} pairs")
    # A count is 8 little-endian bytes, so its last byte holds its sign
    # bit: one C pass over those bytes, with no int made per count.
    if not payload[pairs_start + 7:index_start:8].isascii() or min(total_female, total_male) < 0:
        raise CacheError(f"{path}: model section has a negative count")
    it = iter(counts)
    entries = _LazyEntries(key_text, firsts, spans, list(zip(it, it)), index, path)
    return CountModel(entries, total_female, total_male), end


def save_cache(
    english: CountModel,
    chinese: CountModel,
    path: str | Path,
    source_digest: str = "",
) -> None:
    """Write through `textio.replace_file`, so a failed write leaves `path` as it was."""
    try:
        payload = _encode(english) + _encode(chinese)
    except CacheError as exc:
        raise CacheError(f"{path}: {exc}") from None
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        bytes.fromhex(source_digest) if source_digest else b"\x00" * 32,
        hashlib.sha256(payload).digest(),
        len(payload),
    )
    with replace_file(path) as fh:
        fh.write(header + payload)


def _read(path: str | Path) -> tuple[bytes, bytes]:
    """The source digest and the payload of the cache at `path`, checked
    whole but not decoded. A file that does not begin with the magic is no
    cache at all: it is raised as a NamecensusError, not a CacheError, so
    build-cache never replaces it. Every fault begins `FILE: `."""
    with open_bytes(path) as fh:
        header = fh.read(_HEADER.size)
        if header[: len(MAGIC)] != MAGIC:
            raise NamecensusError(f"{path}: not a model cache (magic {header[: len(MAGIC)]!r})")
        if len(header) < _HEADER.size:
            raise CacheError(f"{path}: cache file shorter than its header")
        payload = fh.read()
    _, version, source_digest, payload_digest, payload_len = _HEADER.unpack(header)
    if version != FORMAT_VERSION:
        raise CacheError(
            f"{path}: cache format version {version}, this build supports {FORMAT_VERSION}"
        )
    if len(payload) != payload_len:
        raise CacheError(f"{path}: payload is {len(payload)} bytes, header promised {payload_len}")
    if hashlib.sha256(payload).digest() != payload_digest:
        raise CacheError(f"{path}: cache payload digest mismatch (corrupted file)")
    return source_digest, payload


def read_source_digest(path: str | Path) -> str:
    """Source digest of a cache that passes every check but the decode, for
    staleness checks."""
    return _read(path)[0].hex()


def load_cache(path: str | Path) -> ModelCache:
    """The two models of the cache at `path`, after `_read`'s checks and a
    check of each section: its lengths, its keys' UTF-8, its key count, its
    chunks' key order, its pair indexes' range and its counts' sign. Any
    fault is a CacheError. The chinese keys become a dict here; the english
    keys are decoded as lookups reach them."""
    _, payload = _read(path)
    english, pos = _decode(payload, 0, path)
    chinese, pos = _decode(payload, pos, path)
    if pos != len(payload):
        raise CacheError(f"{path}: {len(payload) - pos} bytes follow the model sections")
    return ModelCache(english, chinese._replace(entries=dict(chinese.entries)))
