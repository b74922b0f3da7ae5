"""Naive Bayes gender posteriors and the four-way label mapping."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from namecensus.corpus import CountModel, normalize_name_key
from namecensus.namesplit import (
    default_compound_surnames,
    split_chinese,
    split_english,
)
from namecensus.scriptdetect import Script, detect_script, han_substring


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
    return Posterior(evidence_found=True, p_female=female / total, p_male=male / total)


def posterior_chinese(model: CountModel, given: str, config: ClassifierConfig) -> Posterior:
    """Per-character naive Bayes with add-alpha smoothing, in log space.

    Characters absent from the corpus still contribute their smoothing
    term, but a name with no known character at all is no evidence.
    """
    if not any(ch in model.entries for ch in given):
        return _NO_EVIDENCE
    if model.total_female + model.total_male == 0:
        return _NO_EVIDENCE  # all-zero corpus carries no signal
    alpha = config.smoothing_alpha
    vocab = len(model.entries)
    n_female, n_male = model.total_female, model.total_male
    # The smallest factor, an unseen character against the larger class, must
    # stay a positive finite float, or its log fails.
    if not alpha / (max(n_female, n_male) + alpha * vocab) > 0:
        raise ValueError(
            f"smoothing alpha {alpha} is out of range for {vocab} corpus characters"
        )
    if config.priors_mode == "uniform":
        prior_female = prior_male = 0.5
    else:
        prior_female = n_female / (n_female + n_male)
        prior_male = n_male / (n_female + n_male)

    def score(prior: float, n_gender: int, idx: int) -> float:
        if prior == 0.0:
            return -math.inf
        s = math.log(prior)
        denom = n_gender + alpha * vocab
        for ch in given:
            count = model.entries.get(ch, (0, 0))[idx]
            s += math.log((count + alpha) / denom)
        return s

    s_female = score(prior_female, n_female, 0)
    s_male = score(prior_male, n_male, 1)
    top = max(s_female, s_male)
    w_female = math.exp(s_female - top)
    w_male = math.exp(s_male - top)
    total = w_female + w_male
    return Posterior(
        evidence_found=True, p_female=w_female / total, p_male=w_male / total
    )


def classify(post: Posterior, config: ClassifierConfig) -> GenderLabel:
    """Strictly-above-threshold posteriors are decisive; evidence at or
    below the threshold is Unisex; no evidence is Unknown."""
    if not post.evidence_found:
        return GenderLabel.UNKNOWN
    if post.p_female > config.decisive_threshold:
        return GenderLabel.FEMALE
    if post.p_male > config.decisive_threshold:
        return GenderLabel.MALE
    return GenderLabel.UNISEX


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
