import pathlib
import random
import struct

import pytest

from namecensus.cache import (
    FORMAT_VERSION,
    MAGIC,
    digest_corpus_files,
    load_cache,
    read_source_digest,
    save_cache,
)
from namecensus.corpus import ChineseCharModel, EnglishNameModel
from namecensus.errors import (
    CacheDigestError,
    CacheFormatError,
    CacheTruncatedError,
    CacheVersionError,
)

HAN_POOL = "娟刚青金标骅明丽伟芳"


def small_models(rng=None):
    rng = rng or random.Random(0)
    eng_entries = {
        f"name{chr(97 + i)}": (rng.randint(0, 50), rng.randint(0, 50))
        for i in range(rng.randint(1, 12))
    }
    chi_entries = {
        ch: (rng.randint(0, 50), rng.randint(0, 50))
        for ch in rng.sample(HAN_POOL, rng.randint(1, 6))
    }
    english = EnglishNameModel(
        entries=eng_entries,
        total_female=sum(v[0] for v in eng_entries.values()),
        total_male=sum(v[1] for v in eng_entries.values()),
    )
    chinese = ChineseCharModel(
        entries=chi_entries,
        total_female=sum(v[0] for v in chi_entries.values()),
        total_male=sum(v[1] for v in chi_entries.values()),
    )
    return english, chinese


def test_round_trip_identity(tmp_path):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path, source_digest="ab" * 32)
    cache = load_cache(path)
    assert cache.english == english
    assert cache.chinese == chinese
    assert cache.format_version == FORMAT_VERSION
    assert cache.source_digest == "ab" * 32


def test_round_trip_randomized_corpora(tmp_path):
    rng = random.Random(31337)
    for i in range(50):
        english, chinese = small_models(rng)
        path = tmp_path / f"m{i}.ncm"
        save_cache(english, chinese, path)
        cache = load_cache(path)
        assert cache.english == english
        assert cache.chinese == chinese


def test_version_mismatch(tmp_path):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(MAGIC), FORMAT_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheVersionError):
        load_cache(path)


def test_format_v1_rejected(tmp_path):
    assert FORMAT_VERSION == 2
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(MAGIC), 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheVersionError):
        load_cache(path)


def test_failed_write_keeps_old_cache(tmp_path, monkeypatch):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path, source_digest="ab" * 32)
    before = path.read_bytes()
    real_write_bytes = pathlib.Path.write_bytes

    def write_half_then_fail(self, data):
        real_write_bytes(self, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(pathlib.Path, "write_bytes", write_half_then_fail)
    other_english, other_chinese = small_models(random.Random(1))
    with pytest.raises(OSError, match="disk full"):
        save_cache(other_english, other_chinese, path, source_digest="cd" * 32)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ncm"]


def test_bad_magic(tmp_path):
    path = tmp_path / "m.ncm"
    path.write_bytes(b"JUNK" + b"\x00" * 100)
    with pytest.raises(CacheFormatError):
        load_cache(path)


def test_corrupted_payload(tmp_path):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheDigestError):
        load_cache(path)


def test_truncated_file(tmp_path):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path)
    blob = path.read_bytes()
    for cut in (10, 70, len(blob) - 5):
        path.write_bytes(blob[:cut])
        with pytest.raises(CacheTruncatedError):
            load_cache(path)


def test_source_digest_detects_staleness(tmp_path):
    a = tmp_path / "yob2014.txt"
    b = tmp_path / "yob2015.txt"
    a.write_text("Mary,F,10\n")
    b.write_text("John,M,4\n")
    first = digest_corpus_files([a, b])
    assert digest_corpus_files([b, a]) == first  # order-independent
    b.write_text("John,M,5\n")
    assert digest_corpus_files([a, b]) != first


def test_read_source_digest_header_only(tmp_path):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path, source_digest="cd" * 32)
    assert read_source_digest(path) == "cd" * 32
