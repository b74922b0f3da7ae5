"""`namesplit` is a shim kept for the benchmark: its splits are the
reference rules' given names, after the surname they leave."""

from namecensus.namesplit import default_compound_surnames, split_chinese, split_english
from oracles import han_given_oracle, latin_given_oracle

COMPOUND = default_compound_surnames()


def test_shim_splits_equal_the_oracle():
    for name in ["Alasdair J G Gray", "Hua Zhao", "Phil Barker", "Mary-Jane Watson",
                 "J. Robert Oppenheimer", "J. K. Rowling", "Hua", "É Marie Curie"]:
        given = latin_given_oracle(name)
        assert split_english(name) == (name.split()[-1], given)
    for name in ["赵金标", "欧阳娜", "骅", "欧阳", "赵骅", "欧阳娜娜", "司马相如", "张三丰"]:
        given = han_given_oracle(name, COMPOUND)
        assert split_chinese(name, COMPOUND) == (name[:len(name) - len(given)], given)
    assert "欧阳" in COMPOUND
