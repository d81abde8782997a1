"""Unit and property tests for string distances."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.textdist import (
    damerau_levenshtein,
    jaccard_qgrams,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_alignment,
    levenshtein_similarity,
    qgrams,
)

from tests.util.kernel_oracles import (
    jaro_scan,
    jaro_winkler_scan,
    kernel_cases,
    levenshtein_dp,
    levenshtein_similarity_dp,
)

short_text = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), max_size=12
)


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("smith", "smith") == 0

    def test_classic_example(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_vs_word(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_token_sequences(self):
        assert levenshtein(["book", "a", "car"], ["book", "car"]) == 1

    def test_single_substitution(self):
        assert levenshtein("cat", "cut") == 1

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text, short_text)
    def test_bounds(self, a, b):
        dist = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= dist <= max(len(a), len(b))

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestLevenshteinAlignment:
    def test_all_match(self):
        ops = levenshtein_alignment(["a", "b"], ["a", "b"])
        assert [op for op, _, _ in ops] == ["match", "match"]

    def test_counts_match_distance(self):
        ref = "the quick brown fox".split()
        hyp = "the quack brown cat fox".split()
        ops = levenshtein_alignment(ref, hyp)
        errors = sum(1 for op, _, _ in ops if op != "match")
        assert errors == levenshtein(ref, hyp)

    def test_deletion_reported(self):
        ops = levenshtein_alignment(["a", "b", "c"], ["a", "c"])
        assert ("del", "b", None) in ops

    def test_insertion_reported(self):
        ops = levenshtein_alignment(["a", "c"], ["a", "b", "c"])
        assert ("ins", None, "b") in ops

    def test_substitution_reported(self):
        ops = levenshtein_alignment(["a", "b"], ["a", "x"])
        assert ("sub", "b", "x") in ops

    @given(
        st.lists(st.sampled_from("abcd"), max_size=8),
        st.lists(st.sampled_from("abcd"), max_size=8),
    )
    def test_alignment_reconstructs_both_sides(self, ref, hyp):
        ops = levenshtein_alignment(ref, hyp)
        ref_side = [r for op, r, _ in ops if op in ("match", "sub", "del")]
        hyp_side = [h for op, _, h in ops if op in ("match", "sub", "ins")]
        assert ref_side == ref
        assert hyp_side == hyp


class TestSimilarityMeasures:
    def test_levenshtein_similarity_range(self):
        assert levenshtein_similarity("abc", "abd") == pytest.approx(2 / 3)

    def test_levenshtein_similarity_empty(self):
        assert levenshtein_similarity("", "") == 1.0

    def test_damerau_transposition(self):
        assert damerau_levenshtein("teh", "the") == 1
        assert levenshtein("teh", "the") == 2

    def test_jaro_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_jaro_disjoint(self):
        assert jaro("abc", "xyz") == 0.0

    def test_jaro_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_jaro_winkler_prefix_boost(self):
        assert jaro_winkler("dixon", "dickson") > jaro("dixon", "dickson")

    def test_jaro_winkler_identical(self):
        assert jaro_winkler("smith", "smith") == 1.0

    @given(short_text, short_text)
    def test_jaro_winkler_bounds(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0

    @given(short_text, short_text)
    def test_jaro_symmetry(self, a, b):
        assert jaro(a, b) == pytest.approx(jaro(b, a))


class TestQGrams:
    def test_padded_bigrams(self):
        assert qgrams("ab", q=2) == ["#a", "ab", "b#"]

    def test_unpadded(self):
        assert qgrams("abc", q=2, pad=False) == ["ab", "bc"]

    def test_empty_string(self):
        assert qgrams("", q=2, pad=False) == []

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            qgrams("abc", q=0)

    def test_jaccard_identical(self):
        assert jaccard_qgrams("smith", "smith") == 1.0

    def test_jaccard_both_empty(self):
        assert jaccard_qgrams("", "", q=2) == 1.0

    @given(short_text, short_text)
    def test_jaccard_bounds(self, a, b):
        assert 0.0 <= jaccard_qgrams(a, b) <= 1.0


CASES = kernel_cases()


class TestKernelsMatchReferenceDP:
    """The fast kernels return exactly (``==``) the textbook values."""

    def test_levenshtein_strings(self):
        for a, b in CASES:
            assert levenshtein(a, b) == levenshtein_dp(a, b), (a, b)
            assert levenshtein(b, a) == levenshtein_dp(a, b), (a, b)

    def test_levenshtein_token_lists(self):
        rng = random.Random(7)
        vocabulary = ["book", "a", "car", "the", "rental", "for", "me"]
        pairs = [([], []), (["car"], []), (["car"], ["cat"]),
                 (["car"], ["car"])]
        for _ in range(200):
            pairs.append((
                [rng.choice(vocabulary) for _ in range(rng.randrange(90))],
                [rng.choice(vocabulary) for _ in range(rng.randrange(90))],
            ))
        for ref, hyp in pairs:
            assert levenshtein(ref, hyp) == levenshtein_dp(ref, hyp)
            assert levenshtein(tuple(ref), tuple(hyp)) == levenshtein_dp(
                ref, hyp
            )

    def test_levenshtein_similarity(self):
        for a, b in CASES:
            assert levenshtein_similarity(a, b) == (
                levenshtein_similarity_dp(a, b)
            ), (a, b)

    def test_jaro(self):
        for a, b in CASES:
            assert jaro(a, b) == jaro_scan(a, b), (a, b)
            assert jaro(b, a) == jaro_scan(b, a), (a, b)

    def test_jaro_winkler(self):
        for a, b in CASES:
            assert jaro_winkler(a, b) == jaro_winkler_scan(a, b), (a, b)

    def test_jaro_zero_window(self):
        short = [a + b for a in "abc" for b in "abc"] + list("abc")
        short += [a + b + c for a in "ab" for b in "ab" for c in "ab"]
        for a in short:
            for b in short:
                assert max(len(a), len(b)) // 2 - 1 <= 0
                assert jaro(a, b) == jaro_scan(a, b), (a, b)
