"""Versioned binary cache for the two trained models (.ncm files).

Layout: magic, format version, source-corpus digest, payload digest,
then two length-prefixed JSON sections (english, chinese). The payload
digest catches corruption; the source digest catches staleness.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

from namecensus.corpus import ChineseCharModel, EnglishNameModel
from namecensus.errors import (
    CacheDigestError,
    CacheFormatError,
    CacheTruncatedError,
    CacheVersionError,
)

MAGIC = b"NCMC"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sI32s32s")


@dataclass(frozen=True)
class ModelCache:
    format_version: int
    english: EnglishNameModel
    chinese: ChineseCharModel
    source_digest: str


def digest_corpus_files(paths: list[Path]) -> str:
    """Order-independent content hash of the input corpus files."""
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        h.update(path.name.encode("utf-8"))
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    return h.hexdigest()


def _encode(model: EnglishNameModel | ChineseCharModel) -> bytes:
    doc = {
        "entries": {k: list(v) for k, v in sorted(model.entries.items())},
        "total_female": model.total_female,
        "total_male": model.total_male,
    }
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def _decode(model_type: type, section: bytes):
    doc = json.loads(section.decode("utf-8"))
    return model_type(
        entries={k: (v[0], v[1]) for k, v in doc["entries"].items()},
        total_female=doc["total_female"],
        total_male=doc["total_male"],
    )


def save_cache(
    english: EnglishNameModel,
    chinese: ChineseCharModel,
    path: str | Path,
    source_digest: str = "",
) -> None:
    """Write atomically (temp file beside `path`, then os.replace)."""
    sections = [_encode(english), _encode(chinese)]
    payload = b"".join(struct.pack("<Q", len(s)) + s for s in sections)
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        bytes.fromhex(source_digest) if source_digest else b"\x00" * 32,
        hashlib.sha256(payload).digest(),
    )
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(header + struct.pack("<Q", len(payload)) + payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_source_digest(path: str | Path) -> str:
    """Source digest from the header alone, for staleness checks."""
    header = _read_header(Path(path).read_bytes()[: _HEADER.size])
    return header[2].hex()


def _read_header(blob: bytes) -> tuple:
    if len(blob) < _HEADER.size:
        raise CacheTruncatedError("cache file shorter than its header")
    magic, version, source_digest, payload_digest = _HEADER.unpack(blob[: _HEADER.size])
    if magic != MAGIC:
        raise CacheFormatError(f"not a model cache (magic {magic!r})")
    if version != FORMAT_VERSION:
        raise CacheVersionError(
            f"cache format version {version}, this build supports {FORMAT_VERSION}"
        )
    return magic, version, source_digest, payload_digest


def load_cache(path: str | Path) -> ModelCache:
    blob = Path(path).read_bytes()
    _, version, source_digest, payload_digest = _read_header(blob)
    offset = _HEADER.size
    if len(blob) < offset + 8:
        raise CacheTruncatedError("cache file ends before payload length")
    (payload_len,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    payload = blob[offset : offset + payload_len]
    if len(payload) != payload_len:
        raise CacheTruncatedError(
            f"payload is {len(payload)} bytes, header promised {payload_len}"
        )
    if hashlib.sha256(payload).digest() != payload_digest:
        raise CacheDigestError("cache payload digest mismatch (corrupted file)")
    sections = []
    pos = 0
    for _ in range(2):
        (length,) = struct.unpack_from("<Q", payload, pos)
        pos += 8
        sections.append(payload[pos : pos + length])
        pos += length
    return ModelCache(
        format_version=version,
        english=_decode(EnglishNameModel, sections[0]),
        chinese=_decode(ChineseCharModel, sections[1]),
        source_digest=source_digest.hex(),
    )
