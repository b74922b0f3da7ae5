import itertools
import random
import re
import struct
import zlib

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
from namecensus.cli import main
from namecensus.corpus import CountModel
from namecensus.errors import CacheError, NamecensusError

HAN_POOL = "娟刚青金标骅明丽伟芳"
HEADER_SIZE = len(MAGIC) + 4 + 32 + 4 + 8  # magic, version, source digest, payload CRC-32, length
SECTION = struct.Struct("<QQQqq")  # entries, key bytes, pairs, total_female, total_male


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
    assert FORMAT_VERSION == 5
    assert read_source_digest(path) == "ab" * 32


@pytest.mark.parametrize("digest", ["ab", "ab" * 40, "xy" * 32, "ab " * 21 + "a"],
                         ids=["short", "long", "not-hex", "spaced"])
def test_source_digest_not_64_hex_digits_is_one_line_error(tmp_path, digest):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    with pytest.raises(CacheError, match=f"^{re.escape(str(path))}: "
                                         "source digest is not 64 hex digits$"):
        save_cache(english, chinese, path, source_digest=digest)
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("old_version", [1, 2, 3, 4])
def test_old_format_rejected(tmp_path, old_version):
    assert FORMAT_VERSION == 5
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
    """CRC-32 catches every error burst of up to 32 bits, so each changed
    payload byte, and each changed byte of the stored CRC, must fail."""
    path = tmp_path / "m.ncm"
    crc = HEADER_SIZE - 12  # the CRC-32, between the source digest and the payload length
    message = rf"^{re.escape(str(path))}: cache payload digest mismatch \(corrupted file\)$"
    for at in [*range(crc, crc + 4), *range(HEADER_SIZE, len(V5_BYTES))]:
        for mask in (0x01, 0xFF):
            blob = bytearray(V5_BYTES)
            blob[at] ^= mask
            path.write_bytes(bytes(blob))
            for read in (load_cache, read_source_digest):
                with pytest.raises(CacheError, match=message):
                    read(path)


def test_truncated_file(tmp_path):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path)
    blob = path.read_bytes()
    promised = len(blob) - HEADER_SIZE
    for damaged, message in [
        (blob[:10], "cache file shorter than its header"),
        (blob[:42], "cache file shorter than its header"),  # in the CRC-32
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
    a.write_text("Mary,F,10\n", encoding="utf-8")
    b.write_text("John,M,4\n", encoding="utf-8")
    first = digest_corpus_files([a, b])
    assert digest_corpus_files([b, a]) == first  # order-independent
    b.write_text("John,M,5\n", encoding="utf-8")
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


# A fixed model's v4 file, byte for byte, as v4 builds wrote it with a
# SHA-256 of the payload. This build must refuse it as an old version.
V4_BYTES = bytes.fromhex(
    "4e434d43" "04000000"  # magic, version 4
    + "ab" * 32  # source digest
    + "92a4610e307a79a00a687ff756e68b3947f3009022ae267f61ae613bdd2458d8"  # payload digest
    + "9700000000000000"  # payload length 151
    # english: 2 entries, 8 key bytes, 2 pairs, totals 10 and 1; "ann\nzoë";
    # pairs (7, 1), (3, 0); pair indexes 0, 1
    + "0200000000000000" "0800000000000000" "0200000000000000"
    + "0a00000000000000" "0100000000000000"
    + "616e6e0a7a6fc3ab"
    + "0700000000000000" "0100000000000000" "0300000000000000" "0000000000000000"
    + "00000000" "01000000"
    # chinese: 1 entry, 3 key bytes, 1 pair, totals 30 and 1; "娟"; pair (30, 1); index 0
    + "0100000000000000" "0300000000000000" "0100000000000000"
    + "1e00000000000000" "0100000000000000"
    + "e5a89f"
    + "1e00000000000000" "0100000000000000"
    + "00000000"
)


# The same model's v5 file, byte for byte: any change to it needs a new
# FORMAT_VERSION. Its header holds the payload's CRC-32 where v4 held a SHA-256.
V5_BYTES = (
    bytes.fromhex("4e434d43" "05000000")  # magic, version 5
    + bytes.fromhex("ab" * 32)  # source digest
    + bytes.fromhex("57d9059b")  # payload CRC-32
    + V4_BYTES[-159:]  # payload length 151, then the payload as in v4
)


def test_v5_bytes_are_pinned(tmp_path):
    english = CountModel.from_entries({"zoë": (3, 0), "ann": (7, 1)})
    chinese = CountModel.from_entries({"娟": (30, 1)})
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path, source_digest="ab" * 32)
    assert path.read_bytes() == V5_BYTES
    assert load_cache(path) == ModelCache(english, chinese)


def test_v4_file_is_refused_and_rebuilt(tmp_path, capsys, english_dir, chinese_csv):
    path = tmp_path / "m.ncm"
    path.write_bytes(V4_BYTES)
    version = f"{path}: cache format version 4, this build supports {FORMAT_VERSION}"
    for read in (load_cache, read_source_digest):
        with pytest.raises(CacheError, match=f"^{re.escape(version)}$"):
            read(path)
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\n", encoding="utf-8")
    gold = tmp_path / "gold.csv"
    gold.write_text("name,gender\nHua Zhao,Female\n", encoding="utf-8")
    for argv in (["predict", "--cache", str(path), "--in", str(names),
                  "--out", str(tmp_path / "results.csv")],
                 ["eval", "--cache", str(path), "--gold", str(gold)]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {version}\n")
    assert path.read_bytes() == V4_BYTES
    assert main(["build-cache", "--english-dir", str(english_dir),
                 "--chinese-csv", str(chinese_csv), "--out", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote cache: {path}\n")
    load_cache(path)


def test_equal_counts_share_one_pair(tmp_path):
    rng = random.Random(4)
    for i in range(20):
        # Many keys, few distinct counts: most pairs are shared.
        entries = {f"k{j}": (rng.randint(0, 3), rng.randint(0, 3))
                   for j in range(rng.randint(0, 300))}
        model = CountModel.from_entries(entries)
        path = tmp_path / f"m{i}.ncm"
        save_cache(model, model, path)
        section = path.read_bytes()[HEADER_SIZE:]
        count, _, pairs, *_ = SECTION.unpack_from(section, 0)
        assert (count, pairs) == (len(entries), len(set(entries.values())))
        loaded = load_cache(path).english
        assert loaded == model
        assert len({id(pair) for pair in loaded.entries.values()}) == pairs


def test_full_english_model_holds_one_tuple_per_distinct_pair(cache_path, full_models):
    english = load_cache(cache_path).english
    assert english == full_models[0]
    pairs = set(english.entries.values())
    assert len(pairs) < len(english.entries)
    assert len({id(pair) for pair in english.entries.values()}) == len(pairs)


KEY_ALPHABET = "abzéß娟\U00020000"  # ASCII, Latin-1, BMP and astral


def random_key(rng):
    return "".join(rng.choice(KEY_ALPHABET) for _ in range(rng.randint(0, 6)))


def decoded_chunks(entries):
    return len(entries._firsts) - len(entries._pending)


@pytest.mark.parametrize("chunk_chars", [1, 5, 16, 1024])
def test_lazy_english_entries_equal_a_dict(tmp_path, monkeypatch, chunk_chars):
    """Random models, from the empty one and the lone "" key up, looked up
    key by key against the dict they were saved from: present keys, each
    chunk's first key, and absent keys before the first key, after the
    last and between chunks. A lookup decodes at most one chunk."""
    monkeypatch.setattr("namecensus.cache._CHUNK_CHARS", chunk_chars)
    rng = random.Random(chunk_chars)
    chinese = CountModel.from_entries({"娟": (30, 1)})
    models = [{}, {"": (1, 2)}, {"": (0, 0), "a": (0, 0)}]
    models += [{random_key(rng): (rng.randint(0, 3), rng.randint(0, 3))
                for _ in range(rng.randint(1, 80))} for _ in range(40)]
    for i, entries in enumerate(models):
        path = tmp_path / f"m{i}.ncm"
        save_cache(CountModel.from_entries(entries), chinese, path)
        lazy = load_cache(path).english.entries
        assert decoded_chunks(lazy) == 0
        firsts = list(lazy._firsts)
        probes = list(entries) + firsts + ["", "\U0010ffff" * 3]
        # key + NUL sorts after key and before the next: between chunks at each chunk's end.
        probes += [key + "\x00" for key in entries] + [random_key(rng) for _ in range(30)]
        rng.shuffle(probes)
        for key in probes:
            before = decoded_chunks(lazy)
            assert lazy.get(key) == entries.get(key)
            assert lazy.get(key, "absent") == entries.get(key, "absent")
            assert (key in lazy) is (key in entries)
            if key in entries:
                assert lazy[key] == entries[key]
            else:
                with pytest.raises(KeyError):
                    lazy[key]
            assert decoded_chunks(lazy) - before <= 1
        assert lazy == entries
        assert len(lazy) == len(entries)
        assert sorted(lazy) == sorted(entries)


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
    """Apply `edit` to the payload and record its new CRC-32 and length."""
    blob = path.read_bytes()
    payload = edit(bytearray(blob[HEADER_SIZE:]))
    header = blob[: HEADER_SIZE - 12] + struct.pack("<IQ", zlib.crc32(payload), len(payload))
    path.write_bytes(header + bytes(payload))


def bump_entry_count(payload):
    count, *rest = SECTION.unpack_from(payload, 0)
    SECTION.pack_into(payload, 0, count + 1, *rest)
    return payload


def second_section(payload):
    count, keys_len, pairs, *_ = SECTION.unpack_from(payload, 0)
    return SECTION.size + keys_len + 16 * pairs + 4 * count


def grow_last_key_bytes(payload):
    last = second_section(payload)
    count, keys_len, *rest = SECTION.unpack_from(payload, last)
    SECTION.pack_into(payload, last, count, keys_len + 1, *rest)
    return payload


def index_past_the_pairs(payload):
    pairs = SECTION.unpack_from(payload, second_section(payload))[2]
    struct.pack_into("<I", payload, len(payload) - 4, pairs)  # the last key's index
    return payload


def split_first_key(payload):
    payload[SECTION.size] = ord("\n")
    return payload


def bad_utf8_key(payload):
    payload[SECTION.size] = 0xFF
    return payload


PROMISES = r"model section promises \d+ entries and \d+ pairs in \d+ bytes, \d+ remain"


@pytest.mark.parametrize("edit, message", [
    (bump_entry_count, r"model section header promises \d+ keys, found \d+"),
    (grow_last_key_bytes, PROMISES),
    (split_first_key, r"model section header promises \d+ keys, found \d+"),
    (bad_utf8_key, "model section keys are not valid UTF-8"),
    (lambda p: p[:-20], PROMISES),
    (lambda p: p[:-4], PROMISES),
    (index_past_the_pairs, r"model section has a pair index past its \d+ pairs"),
    (lambda p: p + b"\x00" * 16, "16 bytes follow the model sections"),
    (lambda p: p[: SECTION.size - 1], "model section ends inside its header"),
], ids=["count", "key-bytes", "split-key", "utf8", "cut", "short-index",
        "index-range", "trailing", "short-header"])
def test_inconsistent_section_is_format_error(tmp_path, edit, message):
    english, chinese = small_models()
    path = tmp_path / "m.ncm"
    save_cache(english, chinese, path)
    rewrite_payload(path, edit)
    with pytest.raises(CacheError, match=f"^{re.escape(str(path))}: {message}$"):
        load_cache(path)


def edit_keys(change, section=lambda payload: 0):
    """An edit that stores `change(keys)` as the keys of the section at
    `section(payload)`: `keys` lists each stored key's bytes with its pair
    index, in stored order. The key text must keep its length."""
    def edit(payload):
        start = section(payload)
        count, keys_len, pairs, *_ = SECTION.unpack_from(payload, start)
        keys_start = start + SECTION.size
        index_start = keys_start + keys_len + 16 * pairs
        keys = bytes(payload[keys_start : keys_start + keys_len]).split(b"\n")
        index = struct.unpack_from(f"<{count}I", payload, index_start)
        keys, index = zip(*change(list(zip(keys, index))))
        payload[keys_start : keys_start + keys_len] = b"\n".join(keys)
        struct.pack_into(f"<{count}I", payload, index_start, *index)
        return payload
    return edit


def swap(i, j):
    def change(keys):
        keys[i], keys[j] = keys[j], keys[i]
        return keys
    return change


def repeat(i, j):
    """Key j becomes a second copy of key i, keeping its own pair index."""
    def change(keys):
        keys[j] = (keys[i][0], keys[j][1])
        return keys
    return change


def shuffle(keys):
    random.Random(5).shuffle(keys)
    return keys


def save_many_chunk_cache(path):
    """2,000 four-letter English keys, some ten chunks, and three Han characters."""
    keys = ["".join(p) for p in itertools.product("abcdefgh", repeat=4)][:2000]
    english = CountModel.from_entries({key: (i % 7, i % 5) for i, key in enumerate(keys)})
    chinese = CountModel.from_entries({"娟": (30, 1), "刚": (1, 30), "青": (55, 45)})
    save_cache(english, chinese, path)


# A section whose keys are out of the sorted order lookups bisect on, with
# a valid digest. English keys in insertion order put the chunks' first
# keys out of order; the chinese section is decoded whole at load.
@pytest.mark.parametrize("edit", [edit_keys(shuffle), edit_keys(swap(0, 1), second_section)],
                         ids=["english-insertion-order", "chinese-swap"])
def test_keys_out_of_order_fail_at_load(tmp_path, edit):
    path = tmp_path / "m.ncm"
    save_many_chunk_cache(path)
    rewrite_payload(path, edit)
    with pytest.raises(CacheError, match=f"^{re.escape(str(path))}: "
                                         "model section keys are out of order$"):
        load_cache(path)


# Keys out of order, or repeated, inside one English chunk pass load. The
# first lookup that decodes that chunk fails the run before any row is written.
@pytest.mark.parametrize("change", [swap(5, 6), repeat(5, 6)], ids=["swap", "repeat"])
def test_disordered_english_chunk_fails_the_predict_that_reads_it(tmp_path, capsys, change):
    bad = tmp_path / "bad.ncm"
    save_many_chunk_cache(bad)
    rewrite_payload(bad, edit_keys(change))
    load_cache(bad)
    names = tmp_path / "names.txt"
    names.write_text("Aaab Smith\n", encoding="utf-8")  # key 1, in the first chunk
    out = tmp_path / "results.csv"
    assert main(["predict", "--cache", str(bad), "--in", str(names), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: model section keys are out of order\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ncm", "names.txt"]


# A chunk that fails its check is left undecoded, so a caller that catches
# the fault and looks up again into that chunk gets the fault again.
@pytest.mark.parametrize("change", [swap(5, 6), repeat(5, 6)], ids=["swap", "repeat"])
def test_disordered_english_chunk_fails_every_lookup_into_it(tmp_path, change):
    path = tmp_path / "m.ncm"
    save_many_chunk_cache(path)
    rewrite_payload(path, edit_keys(change))
    entries = load_cache(path).english.entries
    for key in ("aaab", "aaab", "aaac"):  # keys 1, 1 and 2, in the first chunk
        with pytest.raises(CacheError, match=f"^{re.escape(str(path))}: "
                                             "model section keys are out of order$"):
            entries.get(key)
    assert entries.get("hhhh") is None and entries.get("dhbh") == (1999 % 7, 1999 % 5)


@pytest.mark.parametrize("entries, named", [
    ({"a\nb": (1, 1)}, "newline"),
    ({"a": (1, 1), "b\nc": (2, 0), "d": (1, 1)}, r"key 'b\\nc': it contains a newline"),
    ({"big": (2**63, 0)}, "int64"),
    ({"neg": (-(2**63) - 1, 0)}, "int64"),
], ids=["newline-key", "newline-in-a-later-key", "count-too-big", "count-too-small"])
def test_unencodable_model_is_one_line_error(tmp_path, entries, named):
    model = CountModel.from_entries(entries)
    path = tmp_path / "m.ncm"
    with pytest.raises(CacheError, match=named) as info:
        save_cache(model, model, path)
    assert str(info.value).startswith(f"{path}: cannot cache model")
    assert "\n" not in str(info.value)
    assert list(tmp_path.iterdir()) == []
