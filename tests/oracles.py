"""Independent reference computations the classifier tests check against."""

from __future__ import annotations

import csv
import io
import unicodedata
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterable
    from pathlib import Path

    from namecensus.classifier import ClassifierConfig
    from namecensus.corpus import CountModel
    from namecensus.scriptdetect import Script


def bayes_product_oracle(
    entries: dict[str, tuple[int, int]],
    given: str,
    alpha: float = 1.0,
    priors_mode: str = "empirical",
) -> tuple[float, float] | None:
    """Direct product-form naive Bayes, no logs; None when no evidence."""
    if not any(ch in entries for ch in given):
        return None
    n_female = sum(v[0] for v in entries.values())
    n_male = sum(v[1] for v in entries.values())
    if n_female + n_male == 0:
        return None
    vocab = len(entries)
    if priors_mode == "uniform":
        w_female, w_male = 0.5, 0.5
    else:
        w_female = n_female / (n_female + n_male)
        w_male = n_male / (n_female + n_male)
    for ch in given:
        female, male = entries.get(ch, (0, 0))
        w_female *= (female + alpha) / (n_female + alpha * vocab)
        w_male *= (male + alpha) / (n_male + alpha * vocab)
    total = w_female + w_male
    return w_female / total, w_male / total


def english_ratio_oracle(
    entries: dict[str, tuple[int, int]],
    key: str,
    priors_mode: str = "empirical",
) -> tuple[float, float] | None:
    """Exact-fraction count ratio for one name key; None when absent or
    counted (0, 0), as no evidence.

    Uniform priors divide each count by its class total over all entries;
    a class whose total is 0 contributes nothing.
    """
    p_female = _english_fraction(entries, key, priors_mode)
    if p_female is None:
        return None
    return float(p_female), float(1 - p_female)


def _english_fraction(
    entries: dict[str, tuple[int, int]], key: str, priors_mode: str
) -> Fraction | None:
    if entries.get(key, (0, 0)) == (0, 0):
        return None
    female, male = map(Fraction, entries[key])
    if priors_mode == "uniform":
        n_female = sum(v[0] for v in entries.values())
        n_male = sum(v[1] for v in entries.values())
        female = female / n_female if n_female else Fraction(0)
        male = male / n_male if n_male else Fraction(0)
    return female / (female + male)


def _chinese_fraction(
    entries: dict[str, tuple[int, int]], given: str, alpha: float, priors_mode: str
) -> Fraction | None:
    """The product form of bayes_product_oracle, in Fractions."""
    if not any(ch in entries for ch in given):
        return None
    n_female = sum(v[0] for v in entries.values())
    n_male = sum(v[1] for v in entries.values())
    if n_female + n_male == 0:
        return None
    alpha_q, vocab = Fraction(alpha), len(entries)
    if priors_mode == "uniform":
        w_female = w_male = Fraction(1, 2)
    else:
        w_female = Fraction(n_female, n_female + n_male)
        w_male = Fraction(n_male, n_female + n_male)
    for ch in given:
        female, male = entries.get(ch, (0, 0))
        w_female *= (female + alpha_q) / (n_female + alpha_q * vocab)
        w_male *= (male + alpha_q) / (n_male + alpha_q * vocab)
    return w_female / (w_female + w_male)


def script_oracle(name: str) -> tuple[Script, str]:
    """`scriptdetect.detect_script` of a name and its Han characters, by a
    loop over its characters and the Han code point ranges: Han and a Latin
    letter make Mixed, Han alone Han, a Latin letter alone Latin, another
    letter alone Other, and no letter Empty."""
    from namecensus.scriptdetect import _HAN_RANGES, Script

    han, latin, other = [], False, False
    for ch in name:
        if any(lo <= ord(ch) <= hi for lo, hi in _HAN_RANGES):
            han.append(ch)
        elif ch.isalpha():
            if unicodedata.name(ch, "").startswith("LATIN"):
                latin = True
            else:
                other = True
    if han:
        return (Script.MIXED if latin else Script.HAN), "".join(han)
    if latin:
        return Script.LATIN, ""
    return (Script.OTHER if other else Script.EMPTY), ""


def latin_given_oracle(name: str) -> str:
    """The given name of a Latin name, by the rule as stated: the first of
    the tokens before the last that is not an initial, else the first
    token. An initial is one Latin letter, bare or with a full stop."""

    def initial(token: str) -> bool:
        letter = token.removesuffix(".")
        return (len(letter) == 1 and letter.isalpha()
                and unicodedata.name(letter, "").startswith("LATIN"))

    tokens = name.split()
    return next((token for token in tokens[:-1] if not initial(token)), tokens[0])


def han_given_oracle(han: str, compound_surnames: frozenset[str]) -> str:
    """The Han characters after the surname: a listed two-character
    surname when at least one character follows it, else the first
    character, unless it is the only one."""
    if len(han) >= 3 and han[:2] in compound_surnames:
        return han[2:]
    return han[1:] or han


def route_oracle(name: str) -> tuple[Script, str]:
    """`classifier.route` of a stripped name by `script_oracle` and the
    two split rules above, for every name: Latin takes latin_given_oracle,
    Han and Mixed han_given_oracle of their Han substring, and Empty and
    Other have no given name."""
    # Imported here: the benchmark's checks import this module without
    # the package on the path.
    from namecensus.classifier import default_compound_surnames
    from namecensus.scriptdetect import Script

    script, han = script_oracle(name)
    if script is Script.LATIN:
        return script, latin_given_oracle(name)
    if script is Script.HAN or script is Script.MIXED:
        return script, han_given_oracle(han, default_compound_surnames())
    return script, ""


def english_model_oracle(directory: Path) -> CountModel:
    """`corpus.load_english_year_files` line by line: each file read whole,
    each line checked and its name normalised on its own."""
    from namecensus.corpus import (
        CountModel,
        _parse_year_line,
        find_year_files,
        normalize_name_key,
    )

    entries: dict[str, list[int]] = {}
    for path in find_year_files(directory):
        text = path.read_bytes().decode("utf-8-sig")
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        for lineno, line in enumerate(lines, 1):
            if not line:
                continue
            name, sex, count = _parse_year_line(line, path, lineno)
            pair = entries.setdefault(normalize_name_key(name), [0, 0])
            pair[0 if sex == "F" else 1] += count
    return CountModel.from_entries({k: (f, m) for k, (f, m) in entries.items()})


def decision_oracle(
    english: dict[str, tuple[int, int]],
    chinese: dict[str, tuple[int, int]],
    script: str,
    given: str,
    alpha: float = 1.0,
    priors_mode: str = "empirical",
    threshold: float = 0.60,
) -> tuple[str, str]:
    """The (gender, probability) fields of a results row, in exact
    arithmetic only, from the row's script and given name.

    Decisive means strictly above the threshold's shortest decimal
    (0.6 is 3/5, not the float below it); the probability is the larger
    exact posterior rounded half-even to 4 decimals. Without evidence
    the row is Unknown with a blank probability.
    """
    if script == "Latin":
        key = unicodedata.normalize("NFC", given).casefold()
        p_female = _english_fraction(english, key, priors_mode)
    elif script in ("Han", "Mixed"):
        p_female = _chinese_fraction(chinese, given, alpha, priors_mode)
    else:
        p_female = None
    if p_female is None:
        return "Unknown", ""
    decisive = Fraction(repr(threshold))
    if p_female > decisive:
        label = "Female"
    elif 1 - p_female > decisive:
        label = "Male"
    else:
        label = "Unisex"
    digits = round(max(p_female, 1 - p_female) * 10**4)  # half-even
    return label, str(Decimal(digits).scaleb(-4))


def result_rows_oracle(
    english: CountModel, chinese: CountModel, config: ClassifierConfig, names: Iterable[str]
) -> list[list[object]]:
    """The results rows `batchio.predict_to_results` writes for `names`,
    each name stripped, by `route_oracle` and `decision_oracle` alone."""
    rows: list[list[object]] = []
    for item, name in enumerate(map(str.strip, names), 1):
        script, given = route_oracle(name)
        gender, prob = decision_oracle(
            english.entries, chinese.entries, script.value, given,
            config.smoothing_alpha, config.priors_mode, config.decisive_threshold)
        rows.append([item, name, gender, prob, script.value, given])
    return rows


def results_csv_oracle(rows: list[list[object]]) -> bytes:
    """A results CSV, each row exactly as csv.writer's default dialect
    writes it, with that row's final CRLF written as LF."""

    def line(row: list[object]) -> str:
        out = io.StringIO(newline="")
        csv.writer(out).writerow(row)
        return out.getvalue().removesuffix("\r\n") + "\n"

    header = ["item", "name", "gender", "probability", "script", "given_name"]
    return "".join(map(line, [header, *rows])).encode("utf-8")
