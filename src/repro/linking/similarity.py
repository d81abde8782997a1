"""Pluggable per-attribute similarity measures.

"Our focus is not on specific attribute similarity measures — the best
similarity measure available for specific attributes can be readily
plugged into our architecture." (paper Section IV-B)

:class:`SimilarityRegistry` is that plug point: it maps an
:class:`~repro.store.schema.AttributeType` to a ``sim(token_value,
attribute_value) -> [0, 1]`` callable, with sensible defaults for every
type the reproduction uses.
"""

from functools import partial

from repro.store.schema import AttributeType
from repro.util.textdist import jaccard_qgrams, jaro_winkler, levenshtein


def name_similarity(token_value, attribute_value):
    """Best-pairing token-level Jaro-Winkler for multi-word names.

    Handles partial recognition ("only the surname or the given name
    may get recognized"): a single matching surname still scores well.
    """
    return _name_score(
        _words(token_value), _words(attribute_value), jaro_winkler
    )


def _words(value):
    return str(value).lower().split()


def _name_score(token_words, attr_words, word_similarity):
    if not token_words or not attr_words:
        return 0.0
    total = 0.0
    for token_word in token_words:
        total += max(
            word_similarity(token_word, attr_word)
            for attr_word in attr_words
        )
    return total / len(token_words)


def digits_similarity(token_value, attribute_value):
    """Similarity of digit strings, robust to partial recognition.

    ASR leaves two kinds of damage on spoken numbers: digits are
    *substituted* in place (alignment survives) and digits are *dropped*
    ("only 6 out of a 10 digit telephone number may get recognized").
    The measure blends an edit-distance similarity (substitution
    tolerant) with a longest-common-substring ratio (rewarding intact
    runs) and takes the stronger signal.
    """
    return _digits_score(
        _digits(token_value), _digit_parts(attribute_value)
    )


def _digits(value):
    return "".join(c for c in str(value) if c.isdigit())


def _digit_parts(value):
    # Multi-valued digit attributes (a customer's several card numbers)
    # are whitespace-separated; the token matches its best part.
    return [
        digits for digits in map(_digits, str(value).split()) if digits
    ]


def _digits_score(token_digits, attr_parts):
    if not token_digits:
        return 0.0
    best = 0.0
    for attr_digits in attr_parts:
        if token_digits == attr_digits:
            return 1.0
        longest = max(len(attr_digits), len(token_digits))
        best = max(
            best, 1.0 - levenshtein(token_digits, attr_digits) / longest
        )
        # A common run of ``floor`` digits or fewer cannot raise
        # ``best``, so the substring scan may stop there.
        floor = int(best * longest)
        while floor and floor / longest > best:
            floor -= 1
        run = _longest_common_substring(token_digits, attr_digits, floor)
        best = max(best, run / longest)
    return best


def _longest_common_substring(a, b, floor=0):
    """Length of the longest common substring of strings ``a`` and
    ``b``, or ``floor`` when no common substring is longer.

    Common-substring lengths are downward closed (every prefix of a
    common run is a common run), so the scan grows the length from
    ``floor + 1`` and stops at the first length with no common run;
    each probe is a C-level ``in`` test.
    """
    if len(a) > len(b):
        a, b = b, a
    length = floor + 1
    while length <= len(a) and any(
        a[start:start + length] in b
        for start in range(len(a) - length + 1)
    ):
        length += 1
    return length - 1


def date_similarity(token_value, attribute_value):
    """Component-wise date match over ISO-format dates.

    Each matching component (year, month, day) contributes a third;
    noisy recognition frequently garbles one component only.
    """
    token_parts = str(token_value).split("-")
    attr_parts = str(attribute_value).split("-")
    if len(token_parts) != 3 or len(attr_parts) != 3:
        return 1.0 if token_value == attribute_value else 0.0
    matches = sum(
        1 for a, b in zip(token_parts, attr_parts) if a == b
    )
    return matches / 3.0


def numeric_similarity(token_value, attribute_value):
    """1 minus relative difference, clamped to [0, 1]."""
    try:
        token_number = float(str(token_value).replace(",", ""))
        attr_number = float(str(attribute_value).replace(",", ""))
    except ValueError:
        return 0.0
    denominator = max(abs(token_number), abs(attr_number), 1.0)
    return max(0.0, 1.0 - abs(token_number - attr_number) / denominator)


def string_similarity(token_value, attribute_value):
    """Default fuzzy string match: q-gram Jaccard."""
    return jaccard_qgrams(
        str(token_value).lower(), str(attribute_value).lower()
    )


def exact_similarity(token_value, attribute_value):
    """Case-insensitive exact match for ids and categories."""
    return float(
        str(token_value).lower() == str(attribute_value).lower()
    )


#: Entries a memo table holds before it is emptied: bounds the memory
#: of a long-lived linker fed ever-new token values.
MEMO_LIMIT = 1 << 16


def _new_row(_):
    return {}


class _Memo:
    """Per-value work of the name and digit measures, kept for one scope.

    Caches each value's lowered words and digit parts, and Jaro-Winkler
    over word pairs.  Scores are ``==`` the plain measures': only
    repeated work is skipped.
    """

    def __init__(self):
        self._words = {}
        self._digits = {}
        self._digit_parts = {}
        self._word_pairs = {}

    @staticmethod
    def _lookup(table, compute, key):
        value = table.get(key)
        if value is None:
            if len(table) >= MEMO_LIMIT:
                table.clear()
            value = table[key] = compute(key)
        return value

    def _jaro_winkler(self, a, b):
        row = self._lookup(self._word_pairs, _new_row, a)
        return self._lookup(row, partial(jaro_winkler, a), b)

    def name_similarity(self, token_value, attribute_value):
        """:func:`name_similarity`, memoised."""
        return _name_score(
            self._lookup(self._words, _words, str(token_value)),
            self._lookup(self._words, _words, str(attribute_value)),
            self._jaro_winkler,
        )

    def digits_similarity(self, token_value, attribute_value):
        """:func:`digits_similarity`, memoised."""
        return _digits_score(
            self._lookup(self._digits, _digits, str(token_value)),
            self._lookup(
                self._digit_parts, _digit_parts, str(attribute_value)
            ),
        )


class SimilarityRegistry:
    """Maps attribute types to similarity callables."""

    def __init__(self, measures=None):
        self._measures = dict(measures or {})

    def register(self, attr_type, measure):
        """Plug in a custom measure for ``attr_type``."""
        self._measures[attr_type] = measure
        return self

    def measure_for(self, attr_type):
        """The measure registered for ``attr_type`` (string fallback)."""
        return self._measures.get(attr_type, string_similarity)

    def similarity(self, attr_type, token_value, attribute_value):
        """Score ``token_value`` against ``attribute_value``."""
        if attribute_value is None:
            return 0.0
        return self.measure_for(attr_type)(token_value, attribute_value)

    def memoised(self):
        """A copy whose built-in name and digit measures memoise.

        The memo lives exactly as long as the returned registry (an
        :class:`~repro.linking.single.EntityLinker` keeps one for its
        own life), so no cache outlives its owner.  Scores are ``==``
        this registry's; measures registered here later are not seen
        by the copy.
        """
        memo = _Memo()
        memoised = {
            name_similarity: memo.name_similarity,
            digits_similarity: memo.digits_similarity,
        }
        return SimilarityRegistry({
            attr_type: memoised.get(measure, measure)
            for attr_type, measure in self._measures.items()
        })


def default_registry():
    """Registry with the default measure per attribute type."""
    return SimilarityRegistry(
        {
            AttributeType.NAME: name_similarity,
            AttributeType.PHONE: digits_similarity,
            AttributeType.CARD: digits_similarity,
            AttributeType.DATE: date_similarity,
            AttributeType.NUMBER: numeric_similarity,
            AttributeType.MONEY: numeric_similarity,
            AttributeType.PLACE: string_similarity,
            AttributeType.STRING: string_similarity,
            AttributeType.ID: exact_similarity,
            AttributeType.CATEGORY: exact_similarity,
        }
    )
