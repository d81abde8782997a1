"""Tests for exact and fuzzy indexes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.store.index import (
    CompositeIndex,
    DigitsIndex,
    HashIndex,
    QGramIndex,
    SoundexIndex,
    TokenIndex,
    build_index_for_attribute,
)
from repro.store.schema import AttributeType


class TestHashIndex:
    def test_exact_lookup(self):
        index = HashIndex()
        index.add(1, "Reserved")
        index.add(2, "Unbooked")
        assert index.candidates("reserved") == [1]

    def test_multiple_matches(self):
        index = HashIndex()
        index.add(1, "suv")
        index.add(2, "SUV")
        assert set(index.candidates("suv")) == {1, 2}

    def test_no_match(self):
        assert HashIndex().candidates("anything") == []

    def test_len(self):
        index = HashIndex()
        index.add(1, "a")
        index.add(2, "a")
        assert len(index) == 2


class TestTokenIndex:
    def test_shared_tokens_ranked_first(self):
        index = TokenIndex()
        index.add(1, "full size sedan")
        index.add(2, "full size suv")
        index.add(3, "compact hatchback")
        ranked = index.candidates("full size suv")
        assert ranked[0] == 2
        assert 3 not in ranked

    def test_case_insensitive(self):
        index = TokenIndex()
        index.add(1, "New York")
        assert index.candidates("new york") == [1]


class TestQGramIndex:
    def test_typo_tolerance(self):
        index = QGramIndex(q=2)
        index.add(1, "smith")
        index.add(2, "walker")
        assert index.candidates("smyth")[0] == 1

    def test_limit_respected(self):
        index = QGramIndex(q=2)
        for i in range(100):
            index.add(i, "smith")
        assert len(index.candidates("smith", limit=10)) == 10

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QGramIndex(q=0)

    @given(st.text(alphabet="abcdef", min_size=2, max_size=8))
    def test_exact_value_always_candidate(self, value):
        index = QGramIndex(q=2)
        index.add(7, value)
        assert 7 in index.candidates(value)


class TestSoundexIndex:
    def test_phonetic_match(self):
        index = SoundexIndex()
        index.add(1, "John Smith")
        index.add(2, "Mary Walker")
        # ASR-style corruption: similar-sounding surname.
        assert 1 in index.candidates("Jon Smyth")
        assert 2 not in index.candidates("Jon Smyth")


class TestDigitsIndex:
    def test_partial_phone_number(self):
        index = DigitsIndex(q=3)
        index.add(1, "555-867-5309")
        index.add(2, "444-123-9999")
        # Only 7 of 10 digits survived recognition.
        assert index.candidates("8675309")[0] == 1

    def test_formatting_ignored(self):
        index = DigitsIndex(q=3)
        index.add(1, "(555) 867 5309")
        assert index.candidates("5558675309")[0] == 1


class TestCompositeIndex:
    def test_merges_both_views(self):
        composite = CompositeIndex([QGramIndex(q=2), SoundexIndex()])
        composite.add(1, "catherine")
        composite.add(2, "katharine")  # phonetic twin, spelling differs
        ranked = composite.candidates("katherine")
        assert set(ranked) >= {1, 2}

    def test_requires_subindexes(self):
        with pytest.raises(ValueError):
            CompositeIndex([])


# Every entity shares exactly one query gram or Soundex code, so all
# candidates tie and the ranking is the order the query's grams and
# codes are counted in.
_RANKING_SCRIPT = """
import json
from repro.store.index import CompositeIndex, QGramIndex, SoundexIndex

query = "smith jones brown lee"
grams = ["sm", "mi", "it", "th", "jo", "on", "ne", "es", "br", "ro", "ow"]
names = ["qq" + gram + "xx" for gram in grams]
names += ["smyth", "jonas", "braun", "leigh"]
rankings = {}
for kind, index in (
    ("qgram", QGramIndex(q=2)),
    ("soundex", SoundexIndex()),
    ("composite", CompositeIndex([QGramIndex(q=2), SoundexIndex()])),
):
    for entity_id, name in enumerate(names):
        index.add(entity_id, name)
    rankings[kind] = index.candidates(query)
print(json.dumps(rankings))
"""


class TestHashSeedIndependence:
    def test_ranked_candidates_equal_across_hash_seeds(self):
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", _RANKING_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(json.loads(completed.stdout))
        assert outputs[0]["qgram"]
        assert outputs[0]["soundex"]
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestBuildIndexForAttribute:
    def test_name_gets_composite(self):
        assert isinstance(
            build_index_for_attribute(AttributeType.NAME), CompositeIndex
        )

    def test_phone_gets_digits(self):
        assert isinstance(
            build_index_for_attribute(AttributeType.PHONE), DigitsIndex
        )

    def test_category_gets_hash(self):
        assert isinstance(
            build_index_for_attribute(AttributeType.CATEGORY), HashIndex
        )

    def test_string_gets_token(self):
        assert isinstance(
            build_index_for_attribute(AttributeType.STRING), TokenIndex
        )

    def test_place_gets_qgram(self):
        assert isinstance(
            build_index_for_attribute(AttributeType.PLACE), QGramIndex
        )
