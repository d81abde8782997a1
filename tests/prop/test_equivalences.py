"""25 seeded differential cases + the generator's own guarantees.

Each seed draws a random corpus and configuration, then asserts the
four equivalence oracles in :func:`repro.prop.check_equivalences`:
sharded == single-index, process pool == inline, crash/resume ==
uninterrupted, traced == untraced.  A failing seed prints a one-line
``bivoc prop --seed N`` reproduction command.
"""

import pytest

from repro.prop import check_equivalences, describe_case, generate_case
from repro.prop.harness import _check, make_documents

N_SEEDS = 25


class TestEquivalences:
    """The harness oracle over a fixed band of seeds."""

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_seed(self, seed):
        check_equivalences(seed)


class TestCaseGenerator:
    """Determinism and coverage of the seeded case generator."""

    def test_same_seed_same_case(self):
        assert generate_case(7) == generate_case(7)
        assert describe_case(7) == describe_case(7)

    def test_distinct_seeds_vary(self):
        cases = {generate_case(seed) for seed in range(N_SEEDS)}
        assert len(cases) > N_SEEDS // 2

    def test_band_covers_multiple_shard_counts(self):
        drawn = {generate_case(seed).shards for seed in range(N_SEEDS)}
        assert len(drawn) >= 4

    def test_documents_are_deterministic(self):
        case = generate_case(3)
        first = [
            (d.doc_id, d.channel, d.text, d.artifacts)
            for d in make_documents(case)
        ]
        second = [
            (d.doc_id, d.channel, d.text, d.artifacts)
            for d in make_documents(case)
        ]
        assert first == second
        assert len(first) == case.n_docs

    def test_case_bounds(self):
        for seed in range(N_SEEDS):
            case = generate_case(seed)
            assert 24 <= case.n_docs <= 96
            assert 1 <= case.shards <= 8
            assert 2 <= case.workers <= 4
            assert case.channels == tuple(sorted(case.channels))


class TestFailureReporting:
    """A violated property must hand the user a repro command."""

    def test_check_mismatch_prints_repro_line(self):
        case = generate_case(5)
        with pytest.raises(AssertionError) as err:
            _check("unit-test-property", {"a": 1}, {"a": 2}, case)
        message = str(err.value)
        assert "property violated: unit-test-property" in message
        assert "bivoc prop --seed 5" in message
        assert "a" in message
