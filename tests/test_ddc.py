"""Code parsing and hierarchical fragmentation."""

from __future__ import annotations

import random

import pytest

from lodrec import ZERO_PRESERVING, fragment_code
from lodrec.ddc import ZERO_STRIPPING, Fragment, parse_code

from conftest import random_code


def frags(code: str, mode: str = ZERO_STRIPPING) -> list[str]:
    return [str(f) for f in fragment_code(parse_code(code), mode)]


class TestParseCode:
    def test_deep_code(self):
        code = parse_code("005.133")
        assert code.raw == "005.133"
        assert code.digits == "005133"

    def test_minimal_code(self):
        code = parse_code("5")
        assert code.raw == "5"
        assert code.digits == "5"

    def test_whitespace_trimmed(self):
        assert parse_code("  005.74 ").raw == "005.74"

    @pytest.mark.parametrize("bad", [
        "005.74.1",   # two dots
        "abc",        # letters
        "",           # empty
        "1234",       # more than three integer digits
        "12.",        # dot without decimals
        ".5",         # empty integer part
        "T1--0901",   # auxiliary-table notation
        "5 3",        # inner whitespace
    ])
    def test_grammar_violations(self, bad):
        with pytest.raises(ValueError):
            parse_code(bad)


class TestFragment:
    def test_level_must_match_prefix_length(self):
        with pytest.raises(ValueError):
            Fragment(level=2, prefix="5")

    def test_str_form(self):
        assert str(Fragment(2, "51")) == "51@2"

    def test_sort_order_is_level_then_prefix(self):
        unordered = [Fragment(2, "57"), Fragment(1, "5"), Fragment(2, "51"),
                     Fragment(3, "513")]
        assert sorted(unordered) == [
            Fragment(1, "5"), Fragment(2, "51"), Fragment(2, "57"),
            Fragment(3, "513"),
        ]


class TestFragmentation:
    def test_zero_stripping_drops_leading_zeros(self):
        assert frags("005.74") == ["5@1", "57@2", "574@3"]

    def test_zero_stripping_deep_code(self):
        assert frags("005.133") == ["5@1", "51@2", "513@3", "5133@4"]

    def test_zero_preserving_keeps_all_digits(self):
        assert frags("005.74", ZERO_PRESERVING) == [
            "0@1", "00@2", "005@3", "0057@4", "00574@5"]

    def test_all_zero_code_keeps_single_zero(self):
        assert frags("000") == ["0@1"]
        assert frags("000", ZERO_PRESERVING) == ["0@1", "00@2", "000@3"]

    def test_shared_fragments_of_sibling_codes(self):
        shared = set(fragment_code("005.74")) & set(fragment_code("005.133"))
        assert shared == {Fragment(1, "5")}

    def test_accepts_raw_strings(self):
        assert fragment_code("005.74") == fragment_code(parse_code("005.74"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            fragment_code("005.74", mode="bogus")

    def test_prefix_chain_property(self):
        # Each fragment is a prefix of the next; count = digit count.
        rng = random.Random(11)
        for _ in range(200):
            code = parse_code(random_code(rng))
            for mode in (ZERO_STRIPPING, ZERO_PRESERVING):
                out = fragment_code(code, mode)
                expected_len = (len(code.digits.lstrip("0") or "0")
                                if mode == ZERO_STRIPPING
                                else len(code.digits))
                assert len(out) == expected_len
                for shallow, deep in zip(out, out[1:]):
                    assert deep.prefix.startswith(shallow.prefix)
                    assert deep.level == shallow.level + 1
                assert out[0].level == 1
