"""Independent reference computations the classifier tests check against."""

from __future__ import annotations

import csv
import io
from fractions import Fraction


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
    """Exact-fraction count ratio for one name key; None when absent.

    Uniform priors divide each count by its class total over all entries;
    a class whose total is 0 contributes nothing.
    """
    if key not in entries:
        return None
    female, male = map(Fraction, entries[key])
    if priors_mode == "uniform":
        n_female = sum(v[0] for v in entries.values())
        n_male = sum(v[1] for v in entries.values())
        female = female / n_female if n_female else Fraction(0)
        male = male / n_male if n_male else Fraction(0)
    return float(female / (female + male)), float(male / (female + male))


def results_csv_oracle(rows: list[list[object]]) -> bytes:
    """A results CSV, each row exactly as csv.writer's default dialect
    writes it, with that row's final CRLF written as LF."""

    def line(row: list[object]) -> str:
        out = io.StringIO(newline="")
        csv.writer(out).writerow(row)
        return out.getvalue().removesuffix("\r\n") + "\n"

    header = ["item", "name", "gender", "probability", "script", "given_name"]
    return "".join(map(line, [header, *rows])).encode("utf-8")
