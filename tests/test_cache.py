import gc
import hashlib
import random
import re
import struct

import pytest

from namecensus import textio
from namecensus.cache import (
    FORMAT_VERSION,
    MAGIC,
    ModelCache,
    digest_corpus_files,
    load_cache,
    read_source_digest,
    save_cache,
)
from namecensus.corpus import CountModel
from namecensus.errors import CacheError, NamecensusError

HAN_POOL = "娟刚青金标骅明丽伟芳"
HEADER_SIZE = len(MAGIC) + 4 + 32 + 32 + 8  # magic, version, both digests, payload length
SECTION = struct.Struct("<QQqq")  # entries, key bytes, total_female, total_male


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
    english = CountModel.from_entries(eng_entries)
    chinese = CountModel.from_entries(chi_entries)
    return english, chinese


def test_round_trip_identity(tmp_path):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path, source_digest="ab" * 32)
    cache = load_cache(path)
    assert cache.english == english
    assert cache.chinese == chinese
    assert FORMAT_VERSION == 3
    assert read_source_digest(path) == "ab" * 32


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
    with pytest.raises(CacheError, match=f"^{re.escape(str(path))}: cache format version "
                                         f"{FORMAT_VERSION + 1}, this build supports "
                                         f"{FORMAT_VERSION}$"):
        load_cache(path)


@pytest.mark.parametrize("old_version", [1, 2])
def test_old_format_rejected(tmp_path, old_version):
    assert FORMAT_VERSION == 3
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(MAGIC), old_version)
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError, match=f"^{re.escape(str(path))}: cache format version "
                                         f"{old_version}, this build supports {FORMAT_VERSION}$"):
        load_cache(path)


def test_failed_write_keeps_old_cache(tmp_path, monkeypatch):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path, source_digest="ab" * 32)
    before = path.read_bytes()
    real_write = textio._Output.write

    def write_half_then_fail(self, data):
        real_write(self, bytes(data)[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(textio._Output, "write", write_half_then_fail)
    other_english, other_chinese = small_models(random.Random(1))
    with pytest.raises(OSError, match="disk full"):
        save_cache(other_english, other_chinese, path, source_digest="cd" * 32)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ncm"]


def test_bad_magic(tmp_path):
    path = tmp_path / "m.ncm"
    path.write_bytes(b"JUNK" + b"\x00" * 100)
    for read in (load_cache, read_source_digest):
        with pytest.raises(NamecensusError,
                           match=rf"^{re.escape(str(path))}: not a model cache \(magic b'JUNK'\)$"
                           ) as info:
            read(path)
        assert not isinstance(info.value, CacheError)  # build-cache must not replace it


def test_corrupted_payload(tmp_path):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    for read in (load_cache, read_source_digest):
        with pytest.raises(CacheError, match=rf"^{re.escape(str(path))}: cache payload digest "
                                             r"mismatch \(corrupted file\)$"):
            read(path)


def test_truncated_file(tmp_path):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path)
    blob = path.read_bytes()
    promised = len(blob) - HEADER_SIZE
    for damaged, message in [
        (blob[:10], "cache file shorter than its header"),
        (blob[:70], "cache file shorter than its header"),
        (blob[: HEADER_SIZE - 5], "cache file shorter than its header"),  # in the payload length
        (blob[:HEADER_SIZE], f"payload is 0 bytes, header promised {promised}"),
        (blob[:-5], f"payload is {promised - 5} bytes, header promised {promised}"),
        (blob + b"\x00", f"payload is {promised + 1} bytes, header promised {promised}"),
    ]:
        path.write_bytes(damaged)
        for read in (load_cache, read_source_digest):
            with pytest.raises(CacheError, match=f"^{re.escape(str(path))}: {message}$"):
                read(path)


def test_source_digest_detects_staleness(tmp_path):
    a = tmp_path / "yob2014.txt"
    b = tmp_path / "yob2015.txt"
    a.write_text("Mary,F,10\n")
    b.write_text("John,M,4\n")
    first = digest_corpus_files([a, b])
    assert digest_corpus_files([b, a]) == first  # order-independent
    b.write_text("John,M,5\n")
    assert digest_corpus_files([a, b]) != first


@pytest.mark.parametrize("entries", [
    {},
    {"": (1, 2)},
    {"zoë": (3, 0), "chloé": (7, 1), "zoe": (2, 2)},
    {"娟": (30, 1), "刚": (1, 30), "𠀀": (0, 4)},
    {"big": (2**32, 2**63 - 1), "zero": (0, 0)},
], ids=["empty", "empty-key", "latin-diacritics", "han", "int64"])
def test_round_trip_edge_models(tmp_path, entries):
    model = CountModel.from_entries(entries)
    path = tmp_path / "m.ncm"
    save_cache(model, model, path)
    cache = load_cache(path)
    assert cache.english == model
    assert cache.chinese == model


# A fixed model's v3 file, byte for byte: any change to it needs a new FORMAT_VERSION.
V3_BYTES = bytes.fromhex(
    "4e434d43" "03000000"  # magic, version 3
    + "ab" * 32  # source digest
    + "1a29c00abcb747a6dc1786b279f32e589338b0680462cf477041019e7eee3306"  # payload digest
    + "7b00000000000000"  # payload length 123
    # english: 2 entries, 8 key bytes, totals 10 and 1; "ann\nzoë"; (7, 1), (3, 0)
    + "0200000000000000" "0800000000000000" "0a00000000000000" "0100000000000000"
    + "616e6e0a7a6fc3ab"
    + "0700000000000000" "0100000000000000" "0300000000000000" "0000000000000000"
    # chinese: 1 entry, 3 key bytes, totals 30 and 1; "娟"; (30, 1)
    + "0100000000000000" "0300000000000000" "1e00000000000000" "0100000000000000"
    + "e5a89f"
    + "1e00000000000000" "0100000000000000"
)


def test_v3_bytes_are_pinned(tmp_path):
    english = CountModel.from_entries({"zoë": (3, 0), "ann": (7, 1)})
    chinese = CountModel.from_entries({"娟": (30, 1)})
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path, source_digest="ab" * 32)
    assert path.read_bytes() == V3_BYTES
    assert load_cache(path) == ModelCache(english, chinese)


def test_insertion_order_does_not_change_bytes(tmp_path):
    english, chinese = small_models()
    reordered = [
        CountModel(dict(reversed(m.entries.items())), m.total_female, m.total_male)
        for m in (english, chinese)
    ]
    save_cache(english, chinese, tmp_path / "a.ncm")
    save_cache(*reordered, tmp_path / "b.ncm")
    assert (tmp_path / "a.ncm").read_bytes() == (tmp_path / "b.ncm").read_bytes()


def rewrite_payload(path, edit):
    """Apply `edit` to the payload and record its new length and digest."""
    blob = path.read_bytes()
    payload = edit(bytearray(blob[HEADER_SIZE:]))
    header = blob[: HEADER_SIZE - 40] + hashlib.sha256(payload).digest()
    path.write_bytes(header + struct.pack("<Q", len(payload)) + bytes(payload))


def bump_entry_count(payload):
    count, *rest = SECTION.unpack_from(payload, 0)
    SECTION.pack_into(payload, 0, count + 1, *rest)
    return payload


def grow_last_key_bytes(payload):
    count, keys_len, *_ = SECTION.unpack_from(payload, 0)
    last = SECTION.size + keys_len + 16 * count
    count, keys_len, *rest = SECTION.unpack_from(payload, last)
    SECTION.pack_into(payload, last, count, keys_len + 1, *rest)
    return payload


def split_first_key(payload):
    payload[SECTION.size] = ord("\n")
    return payload


def bad_utf8_key(payload):
    payload[SECTION.size] = 0xFF
    return payload


@pytest.mark.parametrize("edit, message", [
    (bump_entry_count, r"model section header promises \d+ keys, found \d+"),
    (grow_last_key_bytes, r"model section promises \d+ entries in \d+ bytes, \d+ remain"),
    (split_first_key, r"model section header promises \d+ keys, found \d+"),
    (bad_utf8_key, "model section keys are not valid UTF-8"),
    (lambda p: p[:-16], r"model section promises \d+ entries in \d+ bytes, \d+ remain"),
    (lambda p: p + b"\x00" * 16, "16 bytes follow the model sections"),
    (lambda p: p[: SECTION.size - 1], "model section ends inside its header"),
], ids=["count", "key-bytes", "split-key", "utf8", "cut", "trailing", "short-header"])
def test_inconsistent_section_is_format_error(tmp_path, edit, message):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path)
    rewrite_payload(path, edit)
    with pytest.raises(CacheError, match=f"^{re.escape(str(path))}: {message}$"):
        load_cache(path)


def test_load_restores_gc_state(tmp_path):
    english, chinese = small_models()
    good, bad = tmp_path / "good.ncm", tmp_path / "bad.ncm"
    save_cache(english, chinese, good)
    save_cache(english, chinese, bad)
    rewrite_payload(bad, bump_entry_count)
    was_enabled = gc.isenabled()
    try:
        for enabled in (False, True):
            (gc.enable if enabled else gc.disable)()
            assert load_cache(good) == ModelCache(english, chinese)
            assert gc.isenabled() is enabled
            with pytest.raises(CacheError,
                               match=f"^{re.escape(str(bad))}: model section header promises"):
                load_cache(bad)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("entries, named", [
    ({"a\nb": (1, 1)}, "newline"),
    ({"big": (2**63, 0)}, "int64"),
    ({"neg": (-(2**63) - 1, 0)}, "int64"),
], ids=["newline-key", "count-too-big", "count-too-small"])
def test_unencodable_model_is_one_line_error(tmp_path, entries, named):
    model = CountModel.from_entries(entries)
    path = tmp_path / "m.ncm"
    with pytest.raises(CacheError, match=named) as info:
        save_cache(model, model, path)
    assert "\n" not in str(info.value)
    assert list(tmp_path.iterdir()) == []
