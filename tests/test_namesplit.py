from importlib import resources

import pytest

from namecensus.namesplit import default_compound_surnames, split_chinese, split_english

COMPOUND = default_compound_surnames()


class TestSplitChinese:
    def test_three_char_name(self):
        split = split_chinese("赵金标", COMPOUND)
        assert (split.surname, split.given) == ("赵", "金标")

    def test_compound_surname(self):
        split = split_chinese("欧阳娜", COMPOUND)
        assert (split.surname, split.given) == ("欧阳", "娜")

    def test_single_char_is_all_given(self):
        split = split_chinese("骅", COMPOUND)
        assert (split.surname, split.given) == ("", "骅")

    def test_two_chars_matching_compound_still_split_single(self):
        # nothing would remain as the given name, so fall back to 1-char
        split = split_chinese("欧阳", COMPOUND)
        assert (split.surname, split.given) == ("欧", "阳")

    def test_reconstruction_invariant(self):
        for name in ["赵骅", "王青", "欧阳娜娜", "司马相如", "张三丰"]:
            split = split_chinese(name, COMPOUND)
            assert split.surname + split.given == name
            assert len(split.surname) in (0, 1, 2)


class TestSplitEnglish:
    @pytest.mark.parametrize(
        "name,given,surname",
        [
            ("Alasdair J G Gray", "Alasdair", "Gray"),
            ("Hua Zhao", "Hua", "Zhao"),
            ("Phil Barker", "Phil", "Barker"),
            ("Mary-Jane Watson", "Mary-Jane", "Watson"),
            ("J. Robert Oppenheimer", "Robert", "Oppenheimer"),
        ],
    )
    def test_western_order(self, name, given, surname):
        split = split_english(name)
        assert (split.given, split.surname) == (given, surname)

    def test_all_initials_fall_back_to_first_token(self):
        split = split_english("J. K. Rowling")
        assert split.given == "J."
        assert split.surname == "Rowling"

    def test_single_token(self):
        assert split_english("Hua").given == "Hua"

    def test_surname_never_chosen_with_two_noninitial_tokens(self):
        for name in ["Grace Hopper", "Ada King Lovelace", "Jim T Thomson"]:
            split = split_english(name)
            assert split.given != split.surname

    def test_idempotent_on_given(self):
        given = split_english("Martin Kettle").given
        assert split_english(given).given == given


def test_shipped_compound_list_drops_comments_and_whitespace():
    entries = default_compound_surnames()
    assert not any("#" in e or any(ch.isspace() for ch in e) for e in entries)
    text = resources.files("namecensus").joinpath("data/compound_surnames.txt").read_text(
        encoding="utf-8")
    comment = text.split("\n", 1)[0]
    assert comment.startswith("# ")
    assert comment not in entries and comment[2:] not in entries


def test_shipped_compound_list_is_two_char_entries():
    entries = default_compound_surnames()
    assert len(entries) >= 70
    assert all(len(e) == 2 for e in entries)
    assert "欧阳" in entries and "诸葛" in entries
