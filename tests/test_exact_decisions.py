"""Labels and printed probabilities are functions of the exact posterior.

Every results row is checked byte for byte against `decision_oracle`,
which works in Fractions only, on the inputs where a float would decide
differently: posteriors at the threshold and at half-way points of the
4th decimal, and alphas whose smoothed likelihoods leave the float range.
"""

import itertools
import random
import subprocess
import sys

import pytest

from namecensus.batchio import NameRecord, predict_to_results, run_batch, write_results
from namecensus.cache import save_cache
from namecensus.classifier import (
    ClassifierConfig,
    GenderLabel,
    classify,
    posterior_chinese,
    posterior_english,
)
from namecensus.corpus import CountModel
from oracles import bayes_product_oracle, decision_oracle, results_csv_oracle

SURNAME = "赵"  # no compound surname starts with it, so the given name is the rest
HAN_POOL = "娟刚青金标骅明丽伟芳"
UNSEEN = "龘"
LATIN_POOL = ["ann", "bo", "cy", "di"]
# alpha 0.3 comes back after other configs, so a posterior kept from an
# earlier call shows.
CONFIGS = [ClassifierConfig(), ClassifierConfig(smoothing_alpha=0.3),
           ClassifierConfig(priors_mode="uniform"), ClassifierConfig(smoothing_alpha=0.3)]


def results_and_oracle(tmp_path, english, chinese, config, names):
    """(results CSV bytes, oracle bytes) of `names`, each given as
    (name, script, given); the oracle row holds the name stripped."""
    path = tmp_path / "results.csv"
    predict_to_results(english, chinese, config, [name for name, _, _ in names], path)
    rows = [
        [item, name.strip(),
         *decision_oracle(english.entries, chinese.entries, script, given,
                          config.smoothing_alpha, config.priors_mode,
                          config.decisive_threshold), script, given]
        for item, (name, script, given) in enumerate(names, start=1)
    ]
    return path.read_bytes(), results_csv_oracle(rows)


def han(given):
    return SURNAME + given, "Han", given


def latin(given):
    return f"{given.capitalize()} Smith", "Latin", given.capitalize()


@pytest.mark.parametrize("priors", ["empirical", "uniform"])
def test_every_short_corpus_given_matches_oracle(tmp_path, full_models, priors):
    english, chinese = full_models
    chars = sorted(chinese.entries)
    givens = chars + ["".join(pair) for pair in itertools.product(chars, repeat=2)]
    got, want = results_and_oracle(tmp_path, english, chinese,
                                   ClassifierConfig(priors_mode=priors), [han(g) for g in givens])
    assert got == want


def test_corpus_ties_and_half_way_points(tmp_path, full_models):
    """李浩怡 is exactly 3/5 and 王军紫 exactly 111/160 = 0.69375."""
    english, chinese = full_models
    path = tmp_path / "results.csv"
    predict_to_results(english, chinese, ClassifierConfig(), ["李浩怡", "王军紫"], path)
    assert path.read_bytes().splitlines()[1:] == [
        "1,李浩怡,Unisex,0.6000,Han,浩怡".encode(), "2,王军紫,Male,0.6938,Han,军紫".encode()]


def random_entries(rng, keys, max_count, one_class=None):
    entries = {k: (rng.randint(0, max_count), rng.randint(0, max_count))
               for k in rng.sample(keys, rng.randint(1, len(keys)))}
    if one_class is not None:  # every count of the other class is 0
        entries = {k: (f, 0) if one_class == "female" else (0, m)
                   for k, (f, m) in entries.items()}
    return {k: v for k, v in entries.items() if sum(v)}


@pytest.mark.parametrize("one_class", [None, "female", "male"])
def test_random_models_match_oracle(tmp_path, one_class):
    rng = random.Random(20241 + len(one_class or ""))
    for trial in range(150):
        english = CountModel.from_entries(random_entries(rng, LATIN_POOL, 6, one_class))
        chinese = CountModel.from_entries(
            random_entries(rng, list(HAN_POOL), 6, one_class))
        config = ClassifierConfig(
            decisive_threshold=rng.choice([0.5, 0.55, 0.6, 0.6, 0.75]),
            smoothing_alpha=rng.choice(
                [5e-324, 1e-300, 2.0**-40, 0.5, 1.0, 1.0, 3.0, 1e9, 1e308]),
            priors_mode=rng.choice(["empirical", "uniform"]),
        )
        names = [latin(key) for key in LATIN_POOL]
        for _ in range(30):
            length = rng.randint(1, 3)
            names.append(han("".join(rng.choice(HAN_POOL + UNSEEN) for _ in range(length))))
        names.append((f"{SURNAME}{HAN_POOL[0]} (Juan Zhao)", "Mixed", HAN_POOL[0]))
        got, want = results_and_oracle(tmp_path, english, chinese, config, names)
        assert got == want, (trial, config, english.entries, chinese.entries)


@pytest.mark.parametrize("priors", ["empirical", "uniform"])
@pytest.mark.parametrize("threshold", [0.5, 0.6])
def test_exact_half_is_unisex(tmp_path, priors, threshold):
    english = CountModel.from_entries({"ann": (3, 3), "bo": (7, 1)})
    chinese = CountModel.from_entries({"娟": (2, 2)})
    config = ClassifierConfig(decisive_threshold=threshold, priors_mode=priors)
    names = [latin("ann"), han("娟"), han("娟娟"), han(UNSEEN + "娟")]
    got, want = results_and_oracle(tmp_path, english, chinese, config, names)
    assert got == want
    if priors == "empirical":  # class totals differ under uniform priors
        assert got.splitlines()[1] == b"1,Ann Smith,Unisex,0.5000,Latin,Ann"
    assert got.splitlines()[2] == f"2,{SURNAME}娟,Unisex,0.5000,Han,娟".encode()


def test_english_half_way_point_rounds_half_even(tmp_path):
    # 113/160 = 0.70625 and 91/160 = 0.56875: the 4th decimal rounds to even.
    english = CountModel.from_entries({"ann": (113, 47), "bo": (91, 69)})
    path = tmp_path / "results.csv"
    predict_to_results(english, CountModel.from_entries({}), ClassifierConfig(),
                       ["Ann Smith", "Bo Smith"], path)
    assert [line.split(b",")[3] for line in path.read_bytes().splitlines()[1:]] == [
        b"0.7062", b"0.5688"]


def test_one_model_alternating_configs_gets_each_its_own_posterior():
    """Each call computes its posterior from the model and config it is
    given; nothing kept from an earlier call may leak into a later one."""
    entries = {"娟": (30, 1), "刚": (1, 30), "青": (55, 45)}
    model = CountModel.from_entries(entries)
    other = CountModel.from_entries({"娟": (1, 30), "刚": (30, 1), "青": (45, 55)})
    # Alternate the config with the model fixed, then the model with the config fixed.
    models = (model, other)
    calls = [(m, c) for m in models for c in CONFIGS] + [(m, c) for c in CONFIGS for m in models]
    for current, config in calls:
        for given in ("娟", "刚青", UNSEEN + "青"):
            post = posterior_chinese(current, given, config)
            expected = bayes_product_oracle(current.entries, given,
                                            config.smoothing_alpha, config.priors_mode)
            assert post.p_female == pytest.approx(expected[0], abs=1e-12)
    # A model equal to another, but not the same object, gets the same answer.
    twin = CountModel.from_entries(dict(entries))
    assert twin == model
    assert posterior_chinese(twin, "娟刚", CONFIGS[1]) == posterior_chinese(
        model, "娟刚", CONFIGS[1])


# Every memo key collides: one Han given name under several surnames and
# inside a Mixed entry, Latin given names that differ only in case, two
# Latin names with equal counts (ann and jo), and Empty and Other rows.
MEMO_POOL = [
    ("王青", "Han", "青"), ("李青", "Han", "青"), ("王青 (Qing Wang)", "Mixed", "青"),
    ("赵娟刚", "Han", "娟刚"), ("李娟刚", "Han", "娟刚"), ("王" + UNSEEN, "Han", UNSEEN),
    (SURNAME + UNSEEN + "刚", "Han", UNSEEN + "刚"),
    ("Mary Smith", "Latin", "Mary"), ("MARY Jones", "Latin", "MARY"),
    ("mary smith", "Latin", "mary"), ("Ann Lee", "Latin", "Ann"), ("Jo Lee", "Latin", "Jo"),
    ("Zxqv Lee", "Latin", "Zxqv"), ("1234", "Empty", ""), ("Иван Петров", "Other", ""),
]
MEMO_MODELS = [
    (CountModel.from_entries({"mary": (70, 30), "ann": (3, 2), "jo": (3, 2), "bo": (1, 9)}),
     CountModel.from_entries({"娟": (30, 1), "刚": (1, 30), "青": (55, 45)})),
    (CountModel.from_entries({"mary": (30, 70), "ann": (2, 7), "jo": (2, 7), "bo": (9, 1)}),
     CountModel.from_entries({"娟": (1, 30), "刚": (30, 1), "青": (45, 55)})),
]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memoised_rows_match_oracle_and_run_batch(tmp_path, seed):
    """The same names, with surrounding whitespace, under every model and
    config in turn: each row is decided from its own call's model and
    config, and keeps its own name, script and given name."""
    rng = random.Random(seed)
    names = [(rng.choice(["", " ", "\u3000"]) + name + rng.choice(["", " ", "\t"]), script, given)
             for name, script, given in rng.choices(MEMO_POOL, k=200)]
    records = [NameRecord(name) for name, _, _ in names]
    for config in CONFIGS:
        for english, chinese in MEMO_MODELS:
            got, want = results_and_oracle(tmp_path, english, chinese, config, names)
            assert got == want, (config, english.entries)
            write_results(run_batch(english, chinese, config, records), tmp_path / "ref.csv")
            assert got == (tmp_path / "ref.csv").read_bytes()


# Names holding a comma, a quote, an LF or a CR: the given name is quoted
# with its name, or printed plain when only the name holds the character.
QUOTED_POOL = [
    ("Gray, Alasdair", "Latin", "Gray,"), ('Mary "M" Smith', "Latin", "Mary"),
    ('"Mary" Smith', "Latin", '"Mary"'), ('"Ann""" Lee', "Latin", '"Ann"""'),
    ("Mary\rSmith", "Latin", "Mary"), ("Ann\nLee", "Latin", "Ann"),
    ("Ann\r\nLee", "Latin", "Ann"), ("Jo,Lee Smith", "Latin", "Jo,Lee"),
    ("José, Smith", "Latin", "José,"), ("Mary, Ann", "Latin", "Mary,"),
    ("赵娟, Juan", "Mixed", "娟"), ('王青 (Qing "Q" Wang)', "Mixed", "青"),
    ("赵\r青", "Han", "青"), ('"赵刚"', "Han", "刚"),
    ("Иван, Петров", "Other", ""), ("12,34", "Empty", ""), ("Mary Smith", "Latin", "Mary"),
]


@pytest.mark.parametrize("seed", [1, 2])
def test_quoted_names_match_csv_writer_oracle(tmp_path, seed):
    rng = random.Random(seed)
    names = rng.choices(QUOTED_POOL, k=60)
    english, chinese = MEMO_MODELS[0]
    for config in CONFIGS:
        got, want = results_and_oracle(tmp_path, english, chinese, config, names)
        assert got == want, config


def test_posterior_near_a_boundary_carries_the_exact_value():
    model = CountModel.from_entries({"ann": (3, 2), "bo": (7, 3)})
    post = posterior_english(model, "ann")  # exactly 3/5, the threshold
    assert (post.female, post.male) == (3, 2)
    assert classify(post, ClassifierConfig()) is GenderLabel.UNISEX


def test_predict_imports_neither_fractions_nor_decimal(tmp_path, full_models):
    """Boundary rows are decided in integers: the threshold tie 李浩怡,
    and the half-way points 王军紫 (111/160) and Ann (113/160)."""
    _, chinese = full_models
    cache, infile, out = tmp_path / "m.ncm", tmp_path / "names.txt", tmp_path / "r.csv"
    save_cache(CountModel.from_entries({"ann": (113, 47)}), chinese, cache)
    infile.write_text("李浩怡\n王军紫\nAnn Smith\n", encoding="utf-8")
    code = ("import sys; from namecensus.cli import main; "
            f"main(['predict', '--cache', {str(cache)!r}, '--in', {str(infile)!r}, "
            f"'--out', {str(out)!r}]); "
            "print(sorted({'fractions', 'decimal'} & sys.modules.keys()))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True)
    assert result.stdout.splitlines()[-1] == "[]"
    assert out.read_bytes().splitlines()[1:] == [
        "1,李浩怡,Unisex,0.6000,Han,浩怡".encode(), "2,王军紫,Male,0.6938,Han,军紫".encode(),
        b"3,Ann Smith,Female,0.7062,Latin,Ann"]
