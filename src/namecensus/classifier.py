"""Naive Bayes gender posteriors and the four-way label mapping."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from namecensus.corpus import CountModel, normalize_name_key
from namecensus.namesplit import (
    default_compound_surnames,
    split_chinese,
    split_english,
)
from namecensus.scriptdetect import Script, detect_script, han_substring

if TYPE_CHECKING:
    from fractions import Fraction


class GenderLabel(enum.Enum):
    """Declaration order is the row order of summaries, charts and eval."""

    FEMALE = "Female"
    MALE = "Male"
    UNISEX = "Unisex"
    UNKNOWN = "Unknown"


@dataclass(frozen=True, slots=True)
class Posterior:
    evidence_found: bool
    p_female: float = 0.0
    p_male: float = 0.0
    # The exact p_female, set only when the larger posterior is near a
    # printed boundary of the config it was computed under (see
    # _near_boundary); it then decides the label and the printed probability.
    exact: Fraction | None = None


_NO_EVIDENCE = Posterior(evidence_found=False)  # shared by every no-evidence path


@dataclass(frozen=True)
class ClassifierConfig:
    decisive_threshold: float = 0.60
    smoothing_alpha: float = 1.0
    priors_mode: str = "empirical"  # or "uniform"

    def __post_init__(self) -> None:
        if not (0.5 <= self.decisive_threshold < 1.0):
            raise ValueError(
                f"need 0.5 <= decisive_threshold < 1, got {self.decisive_threshold}"
            )
        if not (math.isfinite(self.smoothing_alpha) and self.smoothing_alpha > 0):
            raise ValueError(
                f"smoothing alpha must be a finite positive number: {self.smoothing_alpha}"
            )
        if self.priors_mode not in ("empirical", "uniform"):
            raise ValueError(f"priors_mode must be empirical or uniform: {self.priors_mode}")


@dataclass(frozen=True, slots=True)
class Prediction:
    raw_name: str
    script: Script
    given: str
    posterior: Posterior
    label: GenderLabel


def posterior_english(
    model: CountModel, given: str, config: ClassifierConfig = ClassifierConfig()
) -> Posterior:
    """Exact-key count ratio; absent names yield no evidence (no smoothing).
    Uniform priors first divide each count by its class total (0 if empty)."""
    pair = model.entries.get(normalize_name_key(given))
    if pair is None:
        return _NO_EVIDENCE
    female, male = pair
    if config.priors_mode == "uniform":
        female = female / model.total_female if model.total_female else 0.0
        male = male / model.total_male if model.total_male else 0.0
    total = female + male
    p_female, p_male = female / total, male / total
    if _near_boundary(p_female if p_female >= p_male else p_male, config):
        return Posterior(True, p_female, p_male, _exact_english(model, pair, config))
    return Posterior(True, p_female, p_male)


@dataclass(frozen=True, slots=True)
class _HanTable:
    """Two-class naive Bayes as a sum of log-odds, female over male."""

    llr: dict[str, float]  # per corpus character
    unseen: float  # any character missing from the corpus
    prior: float
    error: str | None = None  # raised for a name with a corpus character


_han_cache: tuple[CountModel, ClassifierConfig, _HanTable] | None = None


def _han_table(model: CountModel, config: ClassifierConfig) -> _HanTable:
    """The log-odds table of (model, config). The last one built is kept
    with its model and config; holding the model keeps its identity from
    passing to another object, so `is` finds no stale table."""
    global _han_cache
    cached = _han_cache
    if cached is not None and cached[0] is model and (
            cached[1] is config or cached[1] == config):
        return cached[2]
    n_female, n_male = model.total_female, model.total_male
    alpha = config.smoothing_alpha
    vocab = len(model.entries)
    if n_female + n_male == 0:
        table = _HanTable({}, 0.0, 0.0)  # all-zero corpus: no character is evidence
    elif not alpha / (max(n_female, n_male) + alpha * vocab) > 0:
        # The smallest factor, an unseen character against the larger class,
        # must stay a positive finite float, or its log fails.
        table = _HanTable(dict.fromkeys(model.entries, 0.0), 0.0, 0.0,
                          f"smoothing alpha {alpha} is out of range "
                          f"for {vocab} corpus characters")
    else:
        den_female, den_male = n_female + alpha * vocab, n_male + alpha * vocab

        def llr(female: int, male: int) -> float:
            return (math.log((female + alpha) / den_female)
                    - math.log((male + alpha) / den_male))

        if config.priors_mode == "uniform":
            prior = 0.0
        else:
            prior = (math.log(n_female / n_male) if n_female and n_male
                     else math.inf if n_female else -math.inf)
        table = _HanTable({ch: llr(*pair) for ch, pair in model.entries.items()},
                          llr(0, 0), prior)
    _han_cache = (model, config, table)
    return table


def posterior_chinese(model: CountModel, given: str, config: ClassifierConfig) -> Posterior:
    """Per-character naive Bayes with add-alpha smoothing: the prior
    log-odds plus each character's log-odds, through the logistic.

    Characters absent from the corpus still contribute their smoothing
    term, but a name with no known character at all is no evidence.
    """
    table = _han_table(model, config)
    llr, unseen = table.llr, table.unseen
    z = table.prior
    known = False
    for ch in given:
        w = llr.get(ch)
        if w is None:
            z += unseen
        else:
            z += w
            known = True
    if not known:
        return _NO_EVIDENCE
    if table.error:
        raise ValueError(table.error)
    if z >= 0:
        e = math.exp(-z)
        p_female = top = 1 / (1 + e)
        p_male = e / (1 + e)
    else:
        e = math.exp(z)
        p_female = e / (1 + e)
        p_male = top = 1 / (1 + e)
    if _near_boundary(top, config):
        return Posterior(True, p_female, p_male, _exact_chinese(model, given, config))
    return Posterior(True, p_female, p_male)


# A float posterior is within ~1e-15 of the exact one, so outside this
# margin of a boundary it decides and rounds as the exact value does.
_MARGIN = 1e-9
_HALF_LOW, _HALF_HIGH = 0.5 - _MARGIN * 10_000, 0.5 + _MARGIN * 10_000


def _near_boundary(p: float, config: ClassifierConfig) -> bool:
    """Whether `p`, the larger posterior, is within _MARGIN of the
    threshold or of a half-way point between two 4-decimal values."""
    return (-_MARGIN <= p - config.decisive_threshold <= _MARGIN
            or _HALF_LOW <= p * 10_000 % 1 <= _HALF_HIGH)


def _exact_english(
    model: CountModel, pair: tuple[int, int], config: ClassifierConfig
) -> Fraction:
    """p_female of posterior_english for the counts `pair`, exactly."""
    from fractions import Fraction

    female, male = map(Fraction, pair)
    if config.priors_mode == "uniform":
        female = female / model.total_female if model.total_female else Fraction(0)
        male = male / model.total_male if model.total_male else Fraction(0)
    return female / (female + male)


def _exact_chinese(model: CountModel, given: str, config: ClassifierConfig) -> Fraction:
    """p_female of posterior_chinese, exactly: the product form of the
    smoothed likelihoods, with the alpha float's exact value."""
    from fractions import Fraction

    alpha = Fraction(config.smoothing_alpha)
    vocab = len(model.entries)
    n_female, n_male = model.total_female, model.total_male
    if config.priors_mode == "uniform":
        w_female = w_male = Fraction(1)
    else:  # the priors' common denominator cancels
        w_female, w_male = Fraction(n_female), Fraction(n_male)
    for ch in given:
        female, male = model.entries.get(ch, (0, 0))
        w_female *= (female + alpha) / (n_female + alpha * vocab)
        w_male *= (male + alpha) / (n_male + alpha * vocab)
    return w_female / (w_female + w_male)


def classify(post: Posterior, config: ClassifierConfig) -> GenderLabel:
    """Strictly-above-threshold posteriors are decisive; evidence at or
    below the threshold is Unisex; no evidence is Unknown. An exact
    posterior is compared with the threshold's decimal value."""
    if not post.evidence_found:
        return GenderLabel.UNKNOWN
    if post.exact is not None:
        from fractions import Fraction

        threshold = Fraction(repr(config.decisive_threshold))
        p_female, p_male = post.exact, 1 - post.exact
    else:
        threshold = config.decisive_threshold
        p_female, p_male = post.p_female, post.p_male
    if p_female > threshold:
        return GenderLabel.FEMALE
    if p_male > threshold:
        return GenderLabel.MALE
    return GenderLabel.UNISEX


def printed_probability(post: Posterior) -> str:
    """The larger posterior to 4 decimals, blank without evidence; an
    exact posterior is rounded half-even."""
    if not post.evidence_found:
        return ""
    if post.exact is None:
        return f"{max(post.p_female, post.p_male):.4f}"
    digits = round(max(post.exact, 1 - post.exact) * 10_000)
    return f"{digits // 10_000}.{digits % 10_000:04d}"


def predict(
    english: CountModel,
    chinese: CountModel,
    config: ClassifierConfig,
    raw_name: str,
) -> Prediction:
    """Full pipeline: script detection, name splitting, posterior, label.

    Mixed-script entries are routed through the Chinese pipeline on their
    Han substring; Other/Empty scripts short-circuit to Unknown.
    """
    name = raw_name.strip()
    script = detect_script(name)
    if script in (Script.EMPTY, Script.OTHER):
        return Prediction(name, script, "", _NO_EVIDENCE, GenderLabel.UNKNOWN)
    if script in (Script.HAN, Script.MIXED):
        split = split_chinese(han_substring(name), default_compound_surnames())
        post = posterior_chinese(chinese, split.given, config)
    else:
        split = split_english(name)
        post = posterior_english(english, split.given, config)
    return Prediction(name, script, split.given, post, classify(post, config))
