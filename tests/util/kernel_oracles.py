"""Plain O(n*m) reference forms of the string kernels.

The library's kernels are bit-parallel (Levenshtein), ``str.find``
driven (Jaro) or floor-bounded (longest common substring).  These are
the textbook dynamic programs and scans they replaced, kept only as
oracles for the differential tests: every kernel must return values
``==`` these.
"""

import random


def levenshtein_dp(a, b):
    """Two-row Wagner-Fischer edit distance."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + cost,
                )
            )
        previous = current
    return previous[-1]


def levenshtein_similarity_dp(a, b):
    """``1 - dist / max(len(a), len(b))`` over the DP distance."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_dp(a, b) / longest


def jaro_scan(a, b):
    """Jaro similarity with a per-index window scan."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(max(la, lb) // 2 - 1, 0)
    a_matched = [False] * la
    b_matched = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        for j in range(max(0, i - window), min(lb, i + window + 1)):
            if not b_matched[j] and b[j] == ca:
                a_matched[i] = True
                b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if a_matched[i]:
            while not b_matched[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (
        matches / la + matches / lb + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_scan(a, b, prefix_scale=0.1, max_prefix=4):
    """Jaro-Winkler over :func:`jaro_scan`."""
    base = jaro_scan(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix >= max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def longest_common_substring_dp(a, b):
    """Unbounded longest-common-substring length by DP."""
    best = 0
    previous = [0] * (len(b) + 1)
    for ca in a:
        current = [0]
        for j, cb in enumerate(b, start=1):
            length = previous[j - 1] + 1 if ca == cb else 0
            current.append(length)
            if length > best:
                best = length
        previous = current
    return best


def digits_similarity_dp(token_value, attribute_value):
    """Digit-string similarity over the unbounded DP kernels."""
    token_digits = "".join(c for c in str(token_value) if c.isdigit())
    if not token_digits:
        return 0.0
    best = 0.0
    for part in str(attribute_value).split():
        attr_digits = "".join(c for c in part if c.isdigit())
        if not attr_digits:
            continue
        if token_digits == attr_digits:
            return 1.0
        longest = max(len(attr_digits), len(token_digits))
        edit_sim = 1.0 - levenshtein_dp(token_digits, attr_digits) / longest
        run_sim = (
            longest_common_substring_dp(token_digits, attr_digits) / longest
        )
        best = max(best, edit_sim, run_sim)
    return best


def _random_text(rng, alphabet, length):
    return "".join(rng.choice(alphabet) for _ in range(length))


def kernel_cases(seed=20090329, count=400):
    """Seeded string pairs covering the kernels' edge cases.

    Empty and one-character strings, repeated characters, non-ASCII
    text, lengths around and above 64 (bit-vector carries cross a
    machine word) and lengths of at most 3, where the Jaro match window
    is 0.
    """
    cases = [
        ("", ""), ("", "a"), ("abc", ""), ("a", "a"), ("a", "b"),
        ("ab", "ba"), ("abc", "acb"), ("abc", "cab"), ("ab", "abc"),
        ("aaaa", "aaab"), ("aaaaaaaa", "aaa"), ("abababab", "babababa"),
        ("müller", "mueller"), ("straße", "strasse"), ("日本語", "日本"),
        ("naïve café", "naive cafe"), ("🙂🙃", "🙃🙂"),
        ("a" * 64, "a" * 63 + "b"), ("a" * 65, "b" + "a" * 64),
        ("x" * 130, "y" * 130), ("ab" * 40, "ba" * 41),
    ]
    rng = random.Random(seed)
    alphabets = ["ab", "abc", "abcdefghij", "0123456789", "aéü日本"]
    lengths = [0, 1, 2, 3, 4, 7, 12, 31, 63, 64, 65, 100, 150]
    for _ in range(count):
        alphabet = rng.choice(alphabets)
        a = _random_text(rng, alphabet, rng.choice(lengths))
        if rng.random() < 0.5:
            b = _random_text(rng, alphabet, rng.choice(lengths))
        else:
            # A noisy copy: substitutions, drops and insertions.
            b = "".join(
                rng.choice(["", ch, ch + rng.choice(alphabet),
                            rng.choice(alphabet)]) if rng.random() < 0.3
                else ch
                for ch in a
            )
        cases.append((a, b))
    return cases
