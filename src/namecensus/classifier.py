"""Naive Bayes gender posteriors and the four-way label mapping."""

from __future__ import annotations

import enum
import functools
import math
import re
from typing import NamedTuple

from namecensus.corpus import CountModel, normalize_name_key
from namecensus.namesplit import default_compound_surnames, split_english
from namecensus.scriptdetect import _HAN, _LATIN, _MIXED, Script, common_script, script_and_han


class GenderLabel(enum.Enum):
    """Declaration order is the row order of summaries, charts and eval."""

    FEMALE = "Female"
    MALE = "Male"
    UNISEX = "Unisex"
    UNKNOWN = "Unknown"


# As the Script aliases: a `GenderLabel.X` read runs Python code.
_FEMALE, _MALE, _UNISEX, _UNKNOWN = (
    GenderLabel.FEMALE, GenderLabel.MALE, GenderLabel.UNISEX, GenderLabel.UNKNOWN)


class Posterior(NamedTuple):
    """Exact integer class weights; p_female is female / (female + male).
    Labels and printed probabilities are decided from the integers."""

    evidence_found: bool
    female: int = 0
    male: int = 0

    @property
    def p_female(self) -> float:
        """The correctly rounded float share; 0.0 without evidence."""
        total = self.female + self.male
        return self.female / total if total else 0.0

    @property
    def p_male(self) -> float:
        total = self.female + self.male
        return self.male / total if total else 0.0


_NO_EVIDENCE = Posterior(evidence_found=False)  # shared by every no-evidence path


class _ConfigFields(NamedTuple):
    decisive_threshold: float = 0.60
    smoothing_alpha: float = 1.0
    priors_mode: str = "empirical"  # or "uniform"


class ClassifierConfig(_ConfigFields):
    """The classifier's knobs, and the one check of each knob's type and
    range: the CLI builds a config from each flag or --config value alone
    to check it. Checked however the config is built: a NamedTuple's
    `_make` and `_replace` would skip a checking `__new__`, so `_make`
    goes through it too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ClassifierConfig:
        self = super().__new__(cls, *args, **kwargs)
        # `_decimal` reads the threshold's repr as a float's: a Fraction, a
        # Decimal or a float subclass would pass the range check and fail there.
        if type(self.decisive_threshold) is not float:
            raise ValueError(
                f"decisive_threshold must be a float, got {self.decisive_threshold!r}"
            )
        if not (0.5 <= self.decisive_threshold < 1.0):
            raise ValueError(
                f"need 0.5 <= decisive_threshold < 1, got {self.decisive_threshold}"
            )
        # Exactly an int or a float: a bool is an int. An int is finite at any
        # size; math.isfinite would overflow turning it into a float.
        alpha = self.smoothing_alpha
        if not (alpha > 0 if type(alpha) is int else
                type(alpha) is float and alpha > 0 and math.isfinite(alpha)):
            raise ValueError(f"smoothing alpha must be a finite positive int or float: {alpha!r}")
        if self.priors_mode not in ("empirical", "uniform"):
            raise ValueError(f"priors_mode must be empirical or uniform: {self.priors_mode}")
        return self

    @classmethod
    def _make(cls, iterable) -> ClassifierConfig:
        return cls(*iterable)


def posterior_english(
    model: CountModel, given: str, config: ClassifierConfig = ClassifierConfig()
) -> Posterior:
    """Exact-key count ratio; an absent name, or one counted (0, 0), yields
    no evidence (no smoothing).
    Uniform priors weigh each count by its class total, f/N_F against
    m/N_M; a class whose total is 0 weighs 0."""
    pair = model.entries.get(normalize_name_key(given))
    if pair is None or pair == (0, 0):
        return _NO_EVIDENCE
    female, male = pair
    if config.priors_mode == "uniform":  # both weights times N_F * N_M
        return Posterior(True, female * (model.total_male or 1),
                         male * (model.total_female or 1))
    return Posterior(True, female, male)


def posterior_chinese(model: CountModel, given: str, config: ClassifierConfig) -> Posterior:
    """Per-character naive Bayes with add-alpha smoothing, in integers.

    With alpha = a/b exactly, a character's likelihood (f+alpha)/(N_F+alpha*V)
    is (b*f+a)/(b*N_F+a*V). Both weights are multiplied by the k-th power
    of both classes' denominators, so the female weight is
    prior_F * prod(b*f_i+a) * (b*N_M+a*V)**k, the male one likewise.
    Characters absent from the corpus still contribute their smoothing
    term, but a name with no known character at all is no evidence.
    """
    entries = model.entries
    n_female, n_male = model.total_female, model.total_male
    if n_female + n_male == 0 or entries.keys().isdisjoint(given):
        return _NO_EVIDENCE
    a, b = config.smoothing_alpha.as_integer_ratio()
    if config.priors_mode == "uniform":
        female = male = 1
    else:  # the priors' common denominator cancels
        female, male = n_female, n_male
    for ch in given:
        f, m = entries.get(ch, (0, 0))
        female *= b * f + a
        male *= b * m + a
    a_vocab, k = a * len(entries), len(given)
    return Posterior(True, female * (b * n_male + a_vocab) ** k,
                     male * (b * n_female + a_vocab) ** k)


@functools.lru_cache
def _decimal(threshold: float) -> tuple[int, int]:
    """The threshold's shortest decimal as (digits, 10**len(digits)):
    0.6 is (6, 10), not the float just below 3/5. A threshold lies in
    [0.5, 1), so its repr is "0." and its digits."""
    digits = repr(threshold)[2:]
    return int(digits), 10 ** len(digits)


def classify(post: Posterior, config: ClassifierConfig) -> GenderLabel:
    """Strictly-above-threshold posteriors are decisive; evidence at or
    below the threshold is Unisex; no evidence is Unknown. Each weight's
    share is compared with the threshold's decimal value, exactly."""
    if not post.evidence_found:
        return _UNKNOWN
    female, male = post.female, post.male
    digits, scale = _decimal(config.decisive_threshold)
    cut = digits * (female + male)
    if female * scale > cut:
        return _FEMALE
    if male * scale > cut:
        return _MALE
    return _UNISEX


def printed_probability(post: Posterior) -> str:
    """The larger posterior, exactly rounded half-even to 4 decimals;
    blank without evidence."""
    if not post.evidence_found:
        return ""
    female, male = post.female, post.male
    total = female + male
    # q = floor(larger / total * 10**4 + 1/2); r == 0 is a tie, which goes to even.
    q, r = divmod((female if female > male else male) * 20_000 + total, 2 * total)
    if not r and q & 1:
        q -= 1
    # The larger share is at least 1/2, so q is 5000 to 10000.
    return f"0.{q}" if q < 10_000 else "1.0000"


# split_english's rule on an ASCII name, in one match: skip the leading
# initials ("J", "J.") and take the next token, unless it is the last.
# No match means every token before the last is an initial, or there is
# one token: the first token is then the given name.
_ASCII_GIVEN_RE = re.compile(r"(?:[A-Za-z]\.?\s+)*(?![A-Za-z]\.?\s)(\S+)\s+\S")


def route(name: str) -> tuple[Script, str]:
    """The script of a stripped name and the given name its pipeline
    scores. Mixed-script entries go through the Chinese pipeline on their
    Han substring; Empty and Other have no given name.

    ASCII and all-Han names, the common shapes, are routed by one regex
    match each; every other name takes `script_and_han`, the slow path of
    `detect_script`, then `split_english` or the Han split of its Han
    substring. Both ways give the same (script, given).
    """
    script = common_script(name)
    han = name
    if script is _LATIN:  # an ASCII name
        match = _ASCII_GIVEN_RE.match(name)
        return script, match[1] if match else name.split(None, 1)[0]
    if script is None:
        script, han = script_and_han(name)
        if script is _LATIN:
            return script, split_english(name).given
    if script is not _HAN and script is not _MIXED:
        return script, ""
    # split_chinese's rule, without building a SplitName: a listed compound
    # surname when a given name follows it, else one surname character; a
    # lone character is all given name.
    if len(han) == 1:
        return script, han
    if len(han) > 2 and han[:2] in default_compound_surnames():
        return script, han[2:]
    return script, han[1:]


def decide(
    english: CountModel,
    chinese: CountModel,
    config: ClassifierConfig,
    script: Script,
    given: str,
) -> tuple[Posterior, GenderLabel]:
    """The posterior and label of a routed given name; Empty and Other
    short-circuit to Unknown."""
    if script is _LATIN:
        post = posterior_english(english, given, config)
    elif script is _HAN or script is _MIXED:
        post = posterior_chinese(chinese, given, config)
    else:
        return _NO_EVIDENCE, _UNKNOWN
    return post, classify(post, config)

