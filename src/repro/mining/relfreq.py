"""Relevancy analysis with relative frequency (paper Section IV-D.1).

"It compares the distributions of concepts within a specific data set
featured with one or more concepts with the distribution of the
concepts in the entire data set. ... By sorting phrases in a category
based on the relative frequencies, relevant concepts for a specific
data set are revealed."

The analysis is expressed in the partial/merge/finalize algebra
(:mod:`repro.mining.algebra`): each shard contributes integer focus
and overall counts, merges sum them exactly, and every frequency ratio
is derived once from the merged integers — so sharded execution is
bit-identical to the single-index form.
"""

from dataclasses import dataclass

from repro.mining.algebra import PartialAggregate, compute, merge_counts


@dataclass(frozen=True)
class RelevancyResult:
    """One concept's relative frequency inside a focus subset."""

    key: tuple
    focus_count: int
    focus_total: int
    overall_count: int
    overall_total: int

    @property
    def focus_frequency(self):
        """Concept frequency inside the focus subset."""
        if self.focus_total == 0:
            return 0.0
        return self.focus_count / self.focus_total

    @property
    def overall_frequency(self):
        """Concept frequency over the whole collection."""
        if self.overall_total == 0:
            return 0.0
        return self.overall_count / self.overall_total

    @property
    def relative_frequency(self):
        """Focus frequency over overall frequency (1.0 = unremarkable)."""
        if self.overall_frequency == 0.0:
            return 0.0
        return self.focus_frequency / self.overall_frequency


class RelativeFrequencyAggregate(PartialAggregate):
    """Relevancy analysis as a shard-mergeable aggregate.

    Partial state: the shard's document total, its focus-subset size,
    and per-candidate-key document counts (overall and inside the
    focus subset) — all integers, so merging is exact addition.
    """

    analytic = "relative-frequency"

    def __init__(self, focus_keys, candidate_dimension,
                 min_focus_count=1):
        """``focus_keys`` select the subset; see :func:`relative_frequency`."""
        focus_keys = [tuple(key) for key in focus_keys]
        if not focus_keys:
            raise ValueError("need at least one focus key")
        self.focus_keys = focus_keys
        self.candidate_dimension = tuple(candidate_dimension)
        self.min_focus_count = min_focus_count

    def identity(self):
        """Empty counts."""
        return {
            "overall_total": 0,
            "focus_total": 0,
            "overall": {},
            "focus": {},
        }

    def partial(self, shard):
        """One shard's focus/overall counts (integers only)."""
        focus_docs = set(shard.postings_view(self.focus_keys[0]))
        for key in self.focus_keys[1:]:
            focus_docs &= shard.postings_view(key)
        overall = {}
        focus = {}
        for key in shard.keys_of_dimension(self.candidate_dimension):
            if key in self.focus_keys:
                continue
            key_docs = shard.postings_view(key)
            overall[key] = len(key_docs)
            focus[key] = len(key_docs & focus_docs)
        return {
            "overall_total": len(shard),
            "focus_total": len(focus_docs),
            "overall": overall,
            "focus": focus,
        }

    def merge(self, accumulated, update):
        """Sum the totals and per-key counts (exact)."""
        return {
            "overall_total": (
                accumulated["overall_total"] + update["overall_total"]
            ),
            "focus_total": (
                accumulated["focus_total"] + update["focus_total"]
            ),
            "overall": merge_counts(
                accumulated["overall"], update["overall"]
            ),
            "focus": merge_counts(accumulated["focus"], update["focus"]),
        }

    def finalize(self, state, index):
        """Rank by relative frequency from the merged integer counts."""
        results = []
        for key in sorted(state["overall"]):
            focus_count = state["focus"].get(key, 0)
            if focus_count < self.min_focus_count:
                continue
            results.append(
                RelevancyResult(
                    key=key,
                    focus_count=focus_count,
                    focus_total=state["focus_total"],
                    overall_count=state["overall"][key],
                    overall_total=state["overall_total"],
                )
            )
        results.sort(key=lambda r: (-r.relative_frequency, r.key))
        return results


def relative_frequency(index, focus_keys, candidate_dimension,
                       min_focus_count=1, backend=None):
    """Rank the concepts of a dimension by relative frequency.

    ``focus_keys`` select the focus subset (documents carrying *all* of
    them — "featured with one or more concepts"); the concepts of
    ``candidate_dimension`` (("concept", category) or ("field", name))
    are ranked by how over-represented they are inside the subset.

    Runs through the partial-aggregate algebra: per shard on a sharded
    index (optionally across an execution ``backend``), as
    one degenerate partial on a single index — bit-identical either
    way.

    Returns :class:`RelevancyResult` objects, most over-represented
    first (ties broken by key, so the order is deterministic).
    """
    aggregate = RelativeFrequencyAggregate(
        focus_keys, candidate_dimension, min_focus_count=min_focus_count
    )
    return compute(aggregate, index, backend=backend)
