import random
import subprocess
import sys

import pytest

from namecensus.scriptdetect import (
    _HAN_RANGES,
    Script,
    common_script,
    detect_script,
    han_substring,
    is_han,
    script_and_han,
)
from oracles import script_oracle


@pytest.mark.parametrize(
    "name,expected",
    [
        ("赵金标", Script.HAN),
        ("", Script.EMPTY),
        ("   ", Script.EMPTY),
        ("123 .,!", Script.EMPTY),
        ("王 Qing", Script.MIXED),
        ("Hua Zhao", Script.LATIN),
        ("José García", Script.LATIN),
        ("Алексей", Script.OTHER),
        (" Αλέξης", Script.OTHER),
        ("王青", Script.HAN),
        ("Zhao骅", Script.MIXED),
        ("O'Brien-Smith Jr.", Script.LATIN),
    ],
)
def test_detect_script(name, expected):
    assert detect_script(name) is expected


def test_digits_and_punctuation_never_affect_verdict():
    for name, expected in [("赵骅", Script.HAN), ("Mary", Script.LATIN)]:
        assert detect_script(f"12. {name}!?") is expected


def test_han_plus_latin_is_always_mixed():
    han_names = ["赵骅", "王青", "欧阳娜"]
    latin_names = ["Mary", "Ado", "Phil Barker"]
    for han in han_names:
        for latin in latin_names:
            assert detect_script(han + latin) is Script.MIXED
            assert detect_script(latin + " " + han) is Script.MIXED


def test_pinyin_romanization_is_latin():
    assert detect_script("Qing Wang") is Script.LATIN
    assert detect_script("Zhao Hua") is Script.LATIN


def test_deterministic_pure_function():
    rng = random.Random(7)
    pool = "王青abcXYZ 12,.Ж赵α"
    for _ in range(200):
        name = "".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
        assert detect_script(name) is detect_script(name)


def test_han_substring_preserves_order():
    assert han_substring("王青 (Qing Wang)") == "王青"
    assert han_substring("abc") == ""


def test_is_han_covers_extension_blocks():
    assert is_han("㐀")  # extension A
    assert is_han("\U00020000")  # extension B
    assert not is_han("a")
    assert not is_han("ナ")  # katakana is not Han
    assert not is_han("王青")  # one character, not a run
    assert not is_han("")


# Reference: the range loop that the compiled Han class replaced.
def reference_is_han(ch):
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _HAN_RANGES)


def test_is_han_equals_range_loop_on_every_code_point():
    for cp in range(0x323B1):
        if 0xD800 <= cp <= 0xDFFF:
            continue  # surrogates are not valid text
        ch = chr(cp)
        assert is_han(ch) == reference_is_han(ch), hex(cp)


def _span(lo, hi):
    return "".join(chr(cp) for cp in range(lo, hi + 1))


# Character pools the random names are drawn from, one pool per name part.
EQUIVALENCE_POOLS = [
    "ABCXYZabcxyz",  # ASCII letters
    "0123456789",
    " .,'-!?()",
    _span(0xC0, 0xFF) + _span(0x100, 0x24F),  # Latin-1 and Latin Extended letters
    _span(0x410, 0x44F),  # Cyrillic
    _span(0x3041, 0x3096) + _span(0x30A1, 0x30FA),  # kana
    _span(0xAC00, 0xAC40),  # Hangul
    _span(0xFF21, 0xFF3A) + _span(0xFF41, 0xFF5A),  # fullwidth Latin
    "\u200b\u200c\u200d\ufeff",  # zero-width
    _span(0x4E00, 0x4E80) + _span(0x9F80, 0x9FFF),  # BMP Han, both block ends
    _span(0x20000, 0x20040) + _span(0x2A6A0, 0x2A6DF),  # extension-B Han
]


@pytest.mark.parametrize("name,expected", [
    ("Mary Smith", Script.LATIN),
    ("12 .-", Script.EMPTY),
    ("", Script.EMPTY),
    ("欧阳青", Script.HAN),
    ("\U00020000王", Script.HAN),
    ("王 青", None),  # a space is not Han
    ("王青 (Qing Wang)", None),
    ("José", None),  # non-ASCII Latin needs detect_script
])
def test_common_script_knows_ascii_and_all_han_names_only(name, expected):
    assert common_script(name) is expected


def test_detect_script_and_han_substring_equal_range_loop():
    rng = random.Random(20240)
    for _ in range(20_000):
        pools = rng.sample(EQUIVALENCE_POOLS, rng.randint(1, 3))
        name = "".join(
            rng.choice(rng.choice(pools)) for _ in range(rng.randint(0, 10))
        )
        script, han = script_oracle(name)
        assert detect_script(name) is script, repr(name)
        assert common_script(name) in (None, script), repr(name)
        assert han_substring(name) == han, repr(name)
        if common_script(name) is None:
            assert script_and_han(name) == (script, han), repr(name)


def test_han_pattern_compiled_on_first_use():
    # Every CLI call imports this module; an up-to-date build-cache never detects a script.
    code = ("import namecensus.cli, namecensus.scriptdetect as s; "
            "print(s._han_re.cache_info().currsize)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            encoding="utf-8", check=True)
    assert result.stdout == "0\n"


def test_script_aliases_are_the_script_members():
    from namecensus import batchio, classifier, scriptdetect

    aliases = {"_HAN": Script.HAN, "_LATIN": Script.LATIN,
               "_MIXED": Script.MIXED, "_EMPTY": Script.EMPTY}
    for name, member in aliases.items():
        assert getattr(scriptdetect, name) is member
        for module in (classifier, batchio):
            assert getattr(module, name, member) is member, (module.__name__, name)
