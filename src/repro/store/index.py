"""Exact and fuzzy indexes over attribute values.

Candidate generation is what makes linking scale: "the highest-scoring
entity can be determined efficiently, without computing scores
explicitly for all entities" (paper Section IV-B).  Four index families
cover the attribute types:

* :class:`HashIndex` — exact value lookup (ids, categories).
* :class:`TokenIndex` — inverted index over whitespace tokens
  (multi-word strings, addresses).
* :class:`QGramIndex` — character q-gram index; candidates ranked by
  shared-q-gram count (typo-tolerant: names, places).
* :class:`SoundexIndex` — phonetic blocking for ASR-corrupted names
  (similar-sounding substitutions keep the Soundex block).

All indexes share the same tiny interface: ``add(entity_id, value)`` and
``candidates(query, limit)`` returning entity ids, best first.  Query
grams and codes are counted in first-occurrence order, never in
``set`` order, so ``most_common`` tie-breaks (and the linking work
downstream) do not depend on ``PYTHONHASHSEED``.
"""

from collections import Counter, defaultdict

from repro.store.schema import AttributeType
from repro.util.phonetics import soundex
from repro.util.textdist import qgrams


class HashIndex:
    """Exact-match index: normalised value → entity ids."""

    def __init__(self, normalize=str.lower):
        self._normalize = normalize
        self._postings = defaultdict(list)

    def add(self, entity_id, value):
        """Index one (entity_id, value) pair."""
        self._postings[self._normalize(value)].append(entity_id)

    def candidates(self, query, limit=50):
        """Candidate entity ids for a query value, best first."""
        return list(self._postings.get(self._normalize(query), ()))[:limit]

    def __len__(self):
        return sum(len(ids) for ids in self._postings.values())


class TokenIndex:
    """Inverted index over lower-cased whitespace tokens.

    Candidates are ranked by the number of query tokens they share.
    """

    def __init__(self):
        self._postings = defaultdict(set)
        self._size = 0

    @staticmethod
    def _tokens(value):
        return [token for token in value.lower().split() if token]

    def add(self, entity_id, value):
        """Index one (entity_id, value) pair."""
        for token in self._tokens(value):
            self._postings[token].add(entity_id)
        self._size += 1

    def candidates(self, query, limit=50):
        """Candidate entity ids for a query value, best first."""
        counts = Counter()
        for token in self._tokens(query):
            counts.update(self._postings.get(token, ()))
        return [entity_id for entity_id, _ in counts.most_common(limit)]

    def __len__(self):
        return self._size


class QGramIndex:
    """Character q-gram index with shared-gram candidate ranking.

    The ranking score is the count of query q-grams present in the
    indexed value, so near-misses ("SHMIT" for "SMITH") still surface
    the right candidates; exact similarity is computed later by the
    linking engine's measure.
    """

    def __init__(self, q=2):
        if q <= 0:
            raise ValueError("q must be positive")
        self.q = q
        self._postings = defaultdict(set)
        self._size = 0

    def _grams(self, value):
        return qgrams(value.lower(), q=self.q)

    def add(self, entity_id, value):
        """Index one (entity_id, value) pair."""
        for gram in set(self._grams(value)):
            self._postings[gram].add(entity_id)
        self._size += 1

    def candidates(self, query, limit=50):
        """Candidate entity ids for a query value, best first."""
        counts = Counter()
        for gram in dict.fromkeys(self._grams(query)):
            counts.update(self._postings.get(gram, ()))
        return [entity_id for entity_id, _ in counts.most_common(limit)]

    def __len__(self):
        return self._size


class SoundexIndex:
    """Phonetic-block index over the tokens of a value.

    A query matches every entity that shares a Soundex block with any of
    its tokens; blocks are intersected with q-gram ranking by the
    composite used for NAME attributes (see
    :func:`build_index_for_attribute`).
    """

    def __init__(self):
        self._postings = defaultdict(set)
        self._size = 0

    @staticmethod
    def _codes(value):
        return dict.fromkeys(
            soundex(token) for token in value.split() if token
        )

    def add(self, entity_id, value):
        """Index one (entity_id, value) pair."""
        for code in self._codes(value):
            self._postings[code].add(entity_id)
        self._size += 1

    def candidates(self, query, limit=50):
        """Candidate entity ids for a query value, best first."""
        counts = Counter()
        for code in self._codes(query):
            counts.update(self._postings.get(code, ()))
        return [entity_id for entity_id, _ in counts.most_common(limit)]

    def __len__(self):
        return self._size


class CompositeIndex:
    """Merge candidates from several indexes (rank-sum fusion).

    NAME attributes use q-grams (typo tolerance) plus Soundex (phonetic
    tolerance): ASR noise produces *similar-sounding* corruptions that
    q-grams alone can miss, and SMS typos produce *similar-looking*
    corruptions that Soundex alone can miss.
    """

    def __init__(self, indexes):
        if not indexes:
            raise ValueError("CompositeIndex needs at least one sub-index")
        self._indexes = list(indexes)

    def add(self, entity_id, value):
        """Index one (entity_id, value) pair."""
        for index in self._indexes:
            index.add(entity_id, value)

    def candidates(self, query, limit=50):
        """Candidate entity ids for a query value, best first."""
        scores = Counter()
        for index in self._indexes:
            ranked = index.candidates(query, limit=limit)
            for rank, entity_id in enumerate(ranked):
                scores[entity_id] += len(ranked) - rank
        return [entity_id for entity_id, _ in scores.most_common(limit)]

    def __len__(self):
        return len(self._indexes[0])


class DigitsIndex(QGramIndex):
    """Q-gram index over the digit string of a value.

    Phone numbers and card numbers arrive partially recognised ("only 6
    out of a 10 digit telephone number may get recognized"), so indexing
    digit q-grams lets a partial number still surface its record.
    """

    def __init__(self, q=3):
        super().__init__(q=q)

    def _grams(self, value):
        digits = "".join(ch for ch in value if ch.isdigit())
        return qgrams(digits, q=self.q)


def build_index_for_attribute(attr_type):
    """Default index construction per :class:`AttributeType`."""
    if attr_type in (AttributeType.ID, AttributeType.CATEGORY):
        return HashIndex()
    if attr_type is AttributeType.NAME:
        return CompositeIndex([QGramIndex(q=2), SoundexIndex()])
    if attr_type in (AttributeType.PHONE, AttributeType.CARD):
        return DigitsIndex(q=3)
    if attr_type in (AttributeType.DATE, AttributeType.NUMBER,
                     AttributeType.MONEY):
        return HashIndex(normalize=lambda v: v.strip())
    if attr_type is AttributeType.PLACE:
        return QGramIndex(q=2)
    return TokenIndex()
