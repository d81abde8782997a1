"""Tests for the per-attribute similarity measures."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.linking import similarity
from repro.linking.similarity import (
    SimilarityRegistry,
    _longest_common_substring,
    date_similarity,
    default_registry,
    digits_similarity,
    exact_similarity,
    name_similarity,
    numeric_similarity,
    string_similarity,
)
from repro.store.schema import AttributeType

from tests.util.kernel_oracles import (
    digits_similarity_dp,
    kernel_cases,
    longest_common_substring_dp,
)


class TestNameSimilarity:
    def test_identical(self):
        assert name_similarity("john smith", "john smith") == pytest.approx(
            1.0
        )

    def test_partial_recognition_surname_only(self):
        # "only the surname or the given name may get recognized"
        assert name_similarity("smith", "john smith") > 0.9

    def test_similar_sounding_substitution(self):
        assert name_similarity("jon smith", "john smith") > 0.8

    def test_unrelated(self):
        assert name_similarity("mary walker", "john smith") < 0.6

    def test_empty(self):
        assert name_similarity("", "john smith") == 0.0

    def test_word_order_insensitive(self):
        assert name_similarity("smith john", "john smith") == pytest.approx(
            1.0
        )


class TestDigitsSimilarity:
    def test_identical(self):
        assert digits_similarity("5558675309", "5558675309") == 1.0

    def test_partial_six_of_ten(self):
        # The paper's canonical case: 6 of 10 digits recognised.
        assert digits_similarity("867530", "5558675309") >= 0.6

    def test_substituted_digits_still_score(self):
        assert digits_similarity("5558675301", "5558675309") >= 0.9

    def test_formatting_ignored(self):
        assert digits_similarity("(555) 867-5309", "5558675309") == 1.0

    def test_no_digits(self):
        assert digits_similarity("abc", "5558675309") == 0.0

    @given(st.text(alphabet="0123456789", min_size=1, max_size=12))
    def test_self_similarity_one(self, digits):
        assert digits_similarity(digits, digits) == 1.0


class TestDateSimilarity:
    def test_exact(self):
        assert date_similarity("1972-04-08", "1972-04-08") == 1.0

    def test_one_component_wrong(self):
        assert date_similarity("1972-04-09", "1972-04-08") == pytest.approx(
            2 / 3
        )

    def test_non_iso_falls_back_to_exact(self):
        assert date_similarity("april 8", "april 8") == 1.0
        assert date_similarity("april 8", "1972-04-08") == 0.0


class TestNumericSimilarity:
    def test_exact(self):
        assert numeric_similarity("42", "42") == 1.0

    def test_close_values(self):
        assert numeric_similarity("100", "95") > 0.9

    def test_far_values(self):
        assert numeric_similarity("10", "1000") < 0.1

    def test_comma_separators(self):
        assert numeric_similarity("2,013", "2013") == 1.0

    def test_non_numeric(self):
        assert numeric_similarity("abc", "42") == 0.0


class TestRegistry:
    def test_default_measures_wired(self):
        registry = default_registry()
        assert registry.measure_for(AttributeType.NAME) is name_similarity
        assert (
            registry.measure_for(AttributeType.PHONE) is digits_similarity
        )

    def test_none_attribute_scores_zero(self):
        registry = default_registry()
        assert registry.similarity(AttributeType.NAME, "john", None) == 0.0

    def test_custom_measure_plugs_in(self):
        registry = SimilarityRegistry()
        registry.register(AttributeType.NAME, lambda a, b: 0.42)
        assert registry.similarity(
            AttributeType.NAME, "x", "y"
        ) == pytest.approx(0.42)

    def test_unregistered_type_uses_string_fallback(self):
        registry = SimilarityRegistry()
        assert registry.measure_for(AttributeType.PLACE) is string_similarity

    def test_exact_similarity(self):
        assert exact_similarity("SUV", "suv") == 1.0
        assert exact_similarity("suv", "sedan") == 0.0


def _digit_cases(seed=1099, count=300):
    """Seeded (token, attribute) digit pairs: partial, garbled and
    multi-valued numbers, as noisy recognition leaves them."""
    rng = random.Random(seed)
    cases = [("", "5558675309"), ("5", "5"), ("5", "6"),
             ("555", "5558675309 5551234"), ("(555) 867-5309", "abc 12"),
             ("0000", "00000000"), ("12121212", "21212121 1212")]
    for _ in range(count):
        number = "".join(rng.choice("0123456789")
                         for _ in range(rng.choice([4, 7, 10, 16, 70])))
        kept = list(number)
        for _ in range(rng.randrange(4)):
            if kept:
                del kept[rng.randrange(len(kept))]
        for _ in range(rng.randrange(3)):
            if kept:
                kept[rng.randrange(len(kept))] = rng.choice("0123456789")
        parts = [number] + [
            "".join(rng.choice("0123456789") for _ in range(10))
            for _ in range(rng.randrange(3))
        ]
        rng.shuffle(parts)
        cases.append(("".join(kept), " ".join(parts)))
    return cases


class TestKernelsMatchReference:
    """Floor-bounded and memoised measures stay ``==`` the plain DPs."""

    def test_longest_common_substring_every_floor(self):
        for a, b in kernel_cases() + _digit_cases():
            expected = longest_common_substring_dp(a, b)
            for floor in range(min(len(a), len(b)) + 2):
                assert _longest_common_substring(a, b, floor) == max(
                    expected, floor
                ), (a, b, floor)

    def test_digits_similarity_matches_unbounded_reference(self):
        for token, attribute in _digit_cases():
            assert digits_similarity(token, attribute) == (
                digits_similarity_dp(token, attribute)
            ), (token, attribute)

    def test_memoised_registry_scores_equal(self, monkeypatch):
        # A tiny limit makes the memo tables empty themselves often.
        monkeypatch.setattr(similarity, "MEMO_LIMIT", 3)
        plain = default_registry()
        memoised = plain.memoised()
        rng = random.Random(3)
        names = ["john smith", "jon smith", "mary walker", "smith",
                 "o'neil", "", "anne marie smyth"]
        pairs = [(AttributeType.NAME, rng.choice(names), rng.choice(names))
                 for _ in range(300)]
        pairs += [(AttributeType.PHONE, token, attribute)
                  for token, attribute in _digit_cases(count=100)] * 2
        for attr_type, token, attribute in pairs:
            assert memoised.similarity(attr_type, token, attribute) == (
                plain.similarity(attr_type, token, attribute)
            ), (attr_type, token, attribute)

    def test_memoised_copy_keeps_custom_measures(self):
        custom = lambda a, b: 0.42  # noqa: E731
        registry = default_registry().register(AttributeType.NAME, custom)
        memoised = registry.memoised()
        assert memoised.measure_for(AttributeType.NAME) is custom
        assert memoised is not registry
