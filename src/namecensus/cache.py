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
model alone. Decoding is one split and two array reads instead of a JSON
parse, and keys with equal counts share one tuple.
"""

from __future__ import annotations

import gc
import hashlib
import struct
import sys
from array import array
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


def _decode(payload: bytes, pos: int) -> tuple[CountModel, int]:
    """Decode the section at `pos`; return the model and the section's end."""
    if len(payload) - pos < _SECTION.size:
        raise CacheError("model section ends inside its header")
    count, keys_len, pair_count, total_female, total_male = _SECTION.unpack_from(payload, pos)
    keys_start = pos + _SECTION.size
    pairs_start = keys_start + keys_len
    index_start = pairs_start + 16 * pair_count
    end = index_start + 4 * count
    if end > len(payload):
        raise CacheError(
            f"model section promises {count} entries and {pair_count} pairs "
            f"in {end - pos} bytes, {len(payload) - pos} remain"
        )
    try:
        key_text = payload[keys_start:pairs_start].decode("utf-8")
    except UnicodeDecodeError:
        raise CacheError("model section keys are not valid UTF-8") from None
    # An empty model has no key bytes, and neither has a lone empty key.
    keys = key_text.split("\n") if count or key_text else []
    if len(keys) != count:
        raise CacheError(
            f"model section header promises {count} keys, found {len(keys)}"
        )
    counts, index = array("q"), array(_INDEX)
    counts.frombytes(payload[pairs_start:index_start])
    index.frombytes(payload[index_start:end])
    if sys.byteorder == "big":
        counts.byteswap()
        index.byteswap()
    it = iter(counts)
    pairs = list(zip(it, it))
    try:
        entries = dict(zip(keys, map(pairs.__getitem__, index)))
    except IndexError:
        raise CacheError(
            f"model section has a pair index past its {pair_count} pairs"
        ) from None
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
    _, payload = _read(path)
    # The pair tuples set off collections that find no garbage.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        english, pos = _decode(payload, 0)
        chinese, pos = _decode(payload, pos)
        if pos != len(payload):
            raise CacheError(f"{len(payload) - pos} bytes follow the model sections")
    except CacheError as exc:
        raise CacheError(f"{path}: {exc}") from None
    finally:
        if gc_was_enabled:
            gc.enable()
    return ModelCache(english=english, chinese=chinese)
