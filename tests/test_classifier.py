import copy
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from importlib import resources

import pytest

from namecensus.batchio import NameRecord, run_batch
from namecensus.classifier import (
    ClassifierConfig,
    GenderLabel,
    Posterior,
    classify,
    decide,
    default_compound_surnames,
    han_given,
    latin_given,
    posterior_chinese,
    posterior_english,
    route,
)
from namecensus.corpus import CountModel
from namecensus.scriptdetect import Script
from oracles import bayes_product_oracle, english_ratio_oracle, route_oracle

CFG = ClassifierConfig()

HAN_POOL = "娟刚青金标骅明丽伟芳"


def random_chinese_model(rng, max_chars=3, max_count=20):
    chars = rng.sample(HAN_POOL, rng.randint(1, max_chars))
    return CountModel.from_entries(
        {ch: (rng.randint(0, max_count), rng.randint(0, max_count)) for ch in chars}
    )


class TestPosteriorEnglish:
    def test_hand_ratio_female(self):
        post = posterior_english(CountModel.from_entries({"hua": (80, 20)}), "Hua")
        assert post.evidence_found
        assert post.p_female == pytest.approx(0.8)

    def test_hand_ratio_male(self):
        post = posterior_english(CountModel.from_entries({"jordan": (3, 7)}), "jordan")
        assert post.p_female == pytest.approx(0.3)
        assert post.p_male == pytest.approx(0.7)

    def test_absent_key_is_no_evidence(self):
        model = CountModel.from_entries({"hua": (80, 20)})
        assert not posterior_english(model, "zxqv").evidence_found

    def test_lookup_is_case_and_normalization_insensitive(self):
        model = CountModel.from_entries({"josé": (50, 2)})
        # decomposed input must hit the composed key
        assert posterior_english(model, "José").evidence_found

    def test_uniform_priors_reweight_by_class_totals(self):
        # Class totals 900 female / 100 male: 80/20 is 0.8 female by count ratio,
        # but (80/900) / (80/900 + 20/100) = 0.308 once each class is weighted alike.
        model = CountModel.from_entries({"alex": (80, 20), "mary": (820, 80)})
        empirical = posterior_english(model, "Alex", CFG)
        uniform = posterior_english(model, "Alex", ClassifierConfig(priors_mode="uniform"))
        assert classify(empirical, CFG) is GenderLabel.FEMALE
        assert classify(uniform, CFG) is GenderLabel.MALE
        assert uniform.p_female == pytest.approx(0.8 / 2.6, abs=1e-12)

    def test_default_config_is_empirical(self):
        model = CountModel.from_entries({"alex": (80, 20), "mary": (820, 80)})
        assert posterior_english(model, "alex") == posterior_english(model, "alex", CFG)

    def test_matches_ratio_oracle(self):
        rng = random.Random(4242)
        names = ["ann", "bo", "cy", "di"]
        for _ in range(500):
            entries = {n: (rng.randint(0, 50), rng.randint(0, 50))
                       for n in rng.sample(names, rng.randint(1, 4))}
            if rng.random() < 0.2:  # one class absent from the whole corpus
                idx = rng.randint(0, 1)
                entries = {n: tuple(0 if i == idx else c for i, c in enumerate(v))
                           for n, v in entries.items()}
            entries = {n: v for n, v in entries.items() if sum(v)}
            model = CountModel.from_entries(entries)
            for mode in ("empirical", "uniform"):
                cfg = ClassifierConfig(priors_mode=mode)
                for name in names:
                    expected = english_ratio_oracle(entries, name, mode)
                    post = posterior_english(model, name, cfg)
                    if expected is None:
                        assert not post.evidence_found
                        continue
                    assert post.p_female == pytest.approx(expected[0], abs=1e-12)
                    assert post.p_male == pytest.approx(expected[1], abs=1e-12)
                    if mode == "empirical":  # the plain count ratio, bit for bit
                        female, male = entries[name]
                        assert post.p_female == female / (female + male)


class TestPosteriorChinese:
    def test_single_char_empirical_priors(self):
        # {娟: (3,1)}, alpha=1, V=1: both likelihoods are 1, priors decide
        post = posterior_chinese(CountModel.from_entries({"娟": (3, 1)}), "娟", CFG)
        assert post.p_female == pytest.approx(0.75, abs=1e-12)

    def test_single_char_uniform_priors(self):
        cfg = ClassifierConfig(priors_mode="uniform")
        post = posterior_chinese(CountModel.from_entries({"娟": (3, 1)}), "娟", cfg)
        assert post.p_female == pytest.approx(0.5, abs=1e-12)

    def test_no_known_character_is_no_evidence(self):
        post = posterior_chinese(CountModel.from_entries({"娟": (3, 1)}), "金标", CFG)
        assert not post.evidence_found

    def test_empty_model_is_never_evidence(self):
        post = posterior_chinese(CountModel.from_entries({}), "娟", CFG)
        assert not post.evidence_found

    def test_matches_product_oracle(self):
        rng = random.Random(42)
        for _ in range(500):
            model = random_chinese_model(rng)
            given = "".join(rng.choice(HAN_POOL) for _ in range(rng.randint(1, 2)))
            mode = rng.choice(["empirical", "uniform"])
            cfg = ClassifierConfig(priors_mode=mode)
            expected = bayes_product_oracle(model.entries, given, 1.0, mode)
            post = posterior_chinese(model, given, cfg)
            if expected is None:
                assert not post.evidence_found
            else:
                assert post.p_female == pytest.approx(expected[0], abs=1e-9)
                assert post.p_male == pytest.approx(expected[1], abs=1e-9)

    def test_scale_invariance(self):
        # holds in the alpha->0 limit with all counts positive; Laplace
        # smoothing itself is deliberately not scale-free
        rng = random.Random(9)
        for _ in range(100):
            chars = rng.sample(HAN_POOL, rng.randint(1, 3))
            model = CountModel.from_entries(
                {ch: (rng.randint(1, 20), rng.randint(1, 20)) for ch in chars}
            )
            scaled = CountModel.from_entries(
                {ch: (f * 7, m * 7) for ch, (f, m) in model.entries.items()}
            )
            for mode in ("empirical", "uniform"):
                cfg = ClassifierConfig(priors_mode=mode, smoothing_alpha=1e-9)
                a = posterior_chinese(model, "娟刚", cfg)
                b = posterior_chinese(scaled, "娟刚", cfg)
                if a.evidence_found and b.evidence_found:
                    assert b.p_female == pytest.approx(a.p_female, abs=1e-6)

    def test_zero_evidence_gender_gets_zero_posterior(self):
        # all-female corpus: empirical male prior is 0
        post = posterior_chinese(CountModel.from_entries({"娟": (5, 0)}), "娟", CFG)
        assert post.p_female == pytest.approx(1.0)
        assert post.p_male == pytest.approx(0.0)


class TestClassify:
    @pytest.mark.parametrize(
        "p_female,expected",
        [
            (0.55, GenderLabel.UNISEX),
            (0.39, GenderLabel.MALE),  # p_male 0.61
            (0.60, GenderLabel.UNISEX),  # boundary is strict
            (0.40, GenderLabel.UNISEX),  # p_male exactly 0.60
            (0.61, GenderLabel.FEMALE),
            (0.50, GenderLabel.UNISEX),
        ],
    )
    def test_threshold_bands(self, p_female, expected):
        female = round(p_female * 100)  # weights in hundredths, exactly
        post = Posterior(True, female, 100 - female)
        assert classify(post, CFG) is expected

    def test_no_evidence_is_unknown(self):
        assert classify(Posterior(False), CFG) is GenderLabel.UNKNOWN

    def test_monotone_in_p_female(self):
        order = [GenderLabel.MALE, GenderLabel.UNISEX, GenderLabel.FEMALE]
        last = 0
        for female in range(1001):
            label = classify(Posterior(True, female, 1000 - female), CFG)
            rank = order.index(label)
            assert rank >= last
            last = rank

    def test_custom_threshold(self):
        cfg = ClassifierConfig(decisive_threshold=0.9)
        assert classify(Posterior(True, 3, 7), cfg) is GenderLabel.UNISEX

    # One non-default value per ClassifierConfig field; a field missing here
    # fails the field-list test below until it gets a value that must take effect.
    NON_DEFAULT = {"decisive_threshold": 0.9, "smoothing_alpha": 0.3,
                   "priors_mode": "uniform"}

    def test_every_field_has_a_knob_test(self):
        assert ClassifierConfig._fields == tuple(self.NON_DEFAULT)

    @pytest.mark.parametrize("field", ["decisive_threshold", "smoothing_alpha", "priors_mode"])
    def test_every_knob_changes_a_prediction(self, field):
        english = CountModel.from_entries({"hua": (80, 20), "jordan": (3, 7)})
        chinese = CountModel.from_entries({"娟": (30, 1), "刚": (1, 30), "青": (55, 45)})
        names = ["Hua Zhao", "Jordan Smith", "王娟", "王刚", "王青", "王娟刚"]
        cfg = ClassifierConfig(**{field: self.NON_DEFAULT[field]})
        assert [decide(english, chinese, cfg, *route(n)) for n in names] != [
            decide(english, chinese, CFG, *route(n)) for n in names]

    # A threshold is read by its float repr: any other number, a bool
    # included, is refused however the config is built.
    @pytest.mark.parametrize("threshold", [Fraction(3, 5), Decimal("0.6"), True],
                             ids=["Fraction", "Decimal", "bool"])
    @pytest.mark.parametrize("build", [
        lambda t: ClassifierConfig(decisive_threshold=t),
        lambda t: ClassifierConfig._make([t, 1.0, "empirical"]),
        lambda t: CFG._replace(decisive_threshold=t),
    ], ids=["new", "make", "replace"])
    def test_non_float_threshold_is_refused(self, build, threshold):
        with pytest.raises(ValueError) as exc:
            build(threshold)
        assert str(exc.value) == f"decisive_threshold must be a float, got {threshold!r}"

    def test_label_aliases_are_the_label_members(self):
        from namecensus import classifier

        for label in GenderLabel:
            assert getattr(classifier, "_" + label.name) is label

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClassifierConfig(decisive_threshold=0.4)
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite positive"):
                ClassifierConfig(smoothing_alpha=alpha)
        # An int of any size is finite, though no float can hold it.
        assert ClassifierConfig(smoothing_alpha=10**400).smoothing_alpha == 10**400
        with pytest.raises(ValueError):
            ClassifierConfig(priors_mode="bogus")

    # Every way of building a config checks it, the NamedTuple helpers too.
    BUILDERS = {
        "keywords": lambda values: ClassifierConfig(**values),
        "positional": lambda values: ClassifierConfig(*values.values()),
        "make": lambda values: ClassifierConfig._make(values.values()),
        "replace": lambda values: CFG._replace(**values),
    }
    if hasattr(copy, "replace"):  # Python 3.13
        BUILDERS["copy-replace"] = lambda values: copy.replace(CFG, **values)

    @pytest.mark.parametrize("field, bad", [
        ("decisive_threshold", 0.4), ("decisive_threshold", 1.0),
        ("smoothing_alpha", 0.0), ("smoothing_alpha", float("nan")),
        ("smoothing_alpha", True), ("smoothing_alpha", "1"), ("smoothing_alpha", None),
        ("priors_mode", "bogus"),
    ])
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_every_way_of_building_a_bad_config_raises(self, builder, field, bad):
        build = self.BUILDERS[builder]
        values = dict(CFG._asdict(), **self.NON_DEFAULT)
        good = build(values)
        assert type(good) is ClassifierConfig and good._asdict() == values
        assert pickle.loads(pickle.dumps(good)) == good
        assert copy.copy(good) == good
        with pytest.raises(ValueError):
            build(dict(values, **{field: bad}))


class TestRoute:
    @pytest.mark.parametrize("name, script, given", [
        ("A. B. Smith", Script.LATIN, "A."),  # all initials before the last token
        ("J Mary Smith", Script.LATIN, "Mary"),
        ("J. Mary", Script.LATIN, "J."),  # the last token is never the given name
        ("Mary\x1cSmith", Script.LATIN, "Mary"),  # U+001C is whitespace
        ("王", Script.HAN, "王"),
        ("欧阳", Script.HAN, "阳"),  # a compound surname needs a given name after it
        ("欧阳青", Script.HAN, "青"),
        ("司马光", Script.HAN, "光"),
        ("12345", Script.EMPTY, ""),
    ])
    def test_named_cases(self, name, script, given):
        assert route(name) == (script, given)
        assert route_oracle(name) == (script, given)

    # Tokens of the random names: ASCII letters, initials, digits,
    # punctuation and whitespace (U+001C and U+001F are whitespace too);
    # Han with listed compound surnames and an extension-B character; and
    # non-ASCII Latin letters (a titlecase digraph among them), Cyrillic and
    # Greek letters, an Arabic-Indic digit, a CJK compatibility ideograph
    # (not Han), fullwidth A, the ideographic space and a zero-width space.
    # So Han runs meet non-ASCII Latin, Other and Empty text.
    ASCII_TOKENS = ["A", "a", "B", "z", ".", "1", ",", "-", "'", " ", "\t", "\x0b",
                    "\x1c", "\x1f", "Mary", "J."]
    HAN_TOKENS = ["王", "青", "欧阳", "司马", "龘", "\U00020000"]
    OTHER_TOKENS = ["é", "ß", "Ø", "ǅ", "Ж", "λ", "١", "豈", "\uff21", "\u3000", "\u200b"]

    def test_equals_oracle_on_random_names(self):
        # One name in three is drawn from ASCII tokens only and one from Han
        # tokens only, the two shapes `route` takes without script detection.
        pools = [self.ASCII_TOKENS, self.HAN_TOKENS,
                 self.ASCII_TOKENS + self.HAN_TOKENS + self.OTHER_TOKENS]
        rng = random.Random(18)
        for _ in range(120_000):
            name = "".join(rng.choices(rng.choice(pools), k=rng.randint(0, 8))).strip()
            assert route(name) == route_oracle(name), repr(name)


COMPOUND = default_compound_surnames()


class TestHanGiven:
    @pytest.mark.parametrize("name, given", [
        ("赵金标", "金标"),
        ("欧阳娜", "娜"),  # a listed compound surname
        ("骅", "骅"),  # a single character is all given name
        # nothing would remain as the given name, so fall back to 1-char
        ("欧阳", "阳"),
    ])
    def test_named_cases(self, name, given):
        assert han_given(name, COMPOUND) == given
        assert route(name) == (Script.HAN, given)

    def test_given_is_the_name_less_a_short_surname(self):
        for name in ["赵骅", "王青", "欧阳娜娜", "司马相如", "张三丰"]:
            given = han_given(name, COMPOUND)
            assert name.endswith(given)
            assert len(name) - len(given) in (0, 1, 2)

    def test_compound_list_is_the_argument(self):
        assert han_given("欧阳娜", frozenset()) == "阳娜"
        assert han_given("赵金标", frozenset({"赵金"})) == "标"


class TestLatinGiven:
    @pytest.mark.parametrize("name, given", [
        ("Alasdair J G Gray", "Alasdair"),
        ("Hua Zhao", "Hua"),
        ("Phil Barker", "Phil"),
        ("Mary-Jane Watson", "Mary-Jane"),
        ("J. Robert Oppenheimer", "Robert"),
        ("J. K. Rowling", "J."),  # all initials fall back to the first token
        ("Hua", "Hua"),
        # Non-ASCII initials, routed by script detection and latin_given.
        ("É Marie Curie", "Marie"),
        ("Ø. ǅ Jan Novák", "Jan"),
        ("José Ñ", "José"),
    ])
    def test_western_order(self, name, given):
        assert latin_given(name) == given
        assert route(name) == (Script.LATIN, given)

    def test_surname_never_chosen_with_two_noninitial_tokens(self):
        for name in ["Grace Hopper", "Ada King Lovelace", "Jim T Thomson"]:
            assert latin_given(name) != name.split()[-1]

    def test_idempotent_on_given(self):
        given = latin_given("Martin Kettle")
        assert latin_given(given) == given


def test_shipped_compound_list_drops_comments_and_whitespace():
    assert not any("#" in e or any(ch.isspace() for ch in e) for e in COMPOUND)
    text = resources.files("namecensus").joinpath("data/compound_surnames.txt").read_text(
        encoding="utf-8")
    comment = text.split("\n", 1)[0]
    assert comment.startswith("# ")
    assert comment not in COMPOUND and comment[2:] not in COMPOUND


def test_shipped_compound_list_is_two_char_entries():
    assert len(COMPOUND) >= 70
    assert all(len(e) == 2 for e in COMPOUND)
    assert "欧阳" in COMPOUND and "诸葛" in COMPOUND


class TestPredict:
    """Strip, `route`, then `decide`, as every command runs them."""

    ENG = CountModel.from_entries({"hua": (80, 20), "jordan": (3, 7)})
    CHI = CountModel.from_entries({"娟": (30, 1), "刚": (1, 30), "青": (55, 45)})

    def decide(self, name):
        return decide(self.ENG, self.CHI, CFG, *route(name.strip()))

    def test_latin_pipeline(self):
        assert route("Hua Zhao") == (Script.LATIN, "Hua")
        assert self.decide("Hua Zhao")[1] is GenderLabel.FEMALE

    def test_han_pipeline(self):
        assert route("王娟") == (Script.HAN, "娟")
        assert self.decide("王娟")[1] is GenderLabel.FEMALE

    def test_mixed_routes_through_han_substring(self):
        assert route("王娟 (Juan Wang)") == (Script.MIXED, "娟")
        assert self.decide("王娟 (Juan Wang)")[1] is GenderLabel.FEMALE

    def test_other_and_empty_are_unknown(self):
        for name in ["", "  ", "Алексей", "1234"]:
            post, label = self.decide(name)
            assert label is GenderLabel.UNKNOWN
            assert not post.evidence_found

    @pytest.mark.parametrize("raw, stripped", [
        ("  1234 ", "1234"),
        (" Иван Петров ", "Иван Петров"),
        (" Hua Zhao ", "Hua Zhao"),
        (" 王娟 ", "王娟"),
    ])
    def test_raw_name_is_stripped_on_every_branch(self, raw, stripped):
        pred = run_batch(self.ENG, self.CHI, CFG, [NameRecord(raw)])[0]
        assert pred.raw_name == stripped
        assert pred[1:] == (*route(stripped), *self.decide(stripped))

    def test_unknown_latin_name(self):
        assert self.decide("Zxqv Qrst")[1] is GenderLabel.UNKNOWN

    def test_deterministic(self):
        assert self.decide("王娟") == self.decide("王娟")

    def test_normalization_partition_property(self):
        rng = random.Random(99)
        eng = self.ENG
        for _ in range(2000):
            model = random_chinese_model(rng)
            name = "王" + "".join(rng.choice(HAN_POOL) for _ in range(rng.randint(1, 3)))
            post, label = decide(eng, model, CFG, *route(name))
            assert isinstance(label, GenderLabel)
            if post.evidence_found:
                assert math.isclose(post.p_female + post.p_male, 1.0, abs_tol=1e-9)
            else:
                assert label is GenderLabel.UNKNOWN
