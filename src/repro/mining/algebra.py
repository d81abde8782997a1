"""The partial-aggregate algebra: per-shard partials, exact merges.

Every mining analytic is a count over documents, and the shards of a
:class:`~repro.mining.sharded.ShardedConceptIndex` partition the
documents — so per-shard counts *sum exactly* to the whole-index
counts, and any analytic expressed as

    ``identity() → partial(shard) → merge(a, b) → finalize(state, index)``

is **bit-identical** to its single-index form: all integers are merged
by exact addition and every float is derived once, in ``finalize``,
from the merged integers — the same arithmetic, in the same order, as
the unsharded code path.  That is the monoid contract
:class:`PartialAggregate` pins down and
:func:`compute` executes.

``compute`` runs the partials inline, one shard after another, and
folds them left-to-right in shard order: pickling a shard to a worker
process costs more than scanning it, and threads lose to the inline
loop under the GIL (DESIGN.md §15).  Each analytic run opens an
``analytic:<name>`` span with per-shard ``analytic:partial`` children
and one ``analytic:merge`` child, and reports shard-count and skew
gauges — write-only observability, exactly like the engine's.

Aggregates double as ``bivoc effects`` subjects: the base class
declares ``pure = True`` and aliases the engine's ``process`` entry to
``partial``, so the checker structurally discovers every concrete
aggregate and verifies its partial chain is free of shared-state
writes — the property that keeps every partial independent of the
others and of its shard's position.
"""

from repro.obs import get_metrics, get_tracer


def iter_shards(index):
    """The per-shard iteration units of an index.

    A sharded index yields its sub-indexes; a single index is its own
    (only) shard — so every analytic runs through the same algebra
    regardless of layout, and a 1-shard run is the degenerate case.
    """
    shards = getattr(index, "shards", None)
    if shards is None:
        return [index]
    return list(shards)


def merge_counts(accumulated, update):
    """Sum two ``{key: int}`` maps into a fresh dict.

    The workhorse monoid merge: counts over disjoint document
    partitions add exactly, so this is lossless.
    """
    merged = dict(accumulated)
    for key, value in update.items():
        merged[key] = merged.get(key, 0) + value
    return merged


class PartialAggregate:
    """One mining analytic in partial/merge/finalize form.

    The contract is a commutative monoid over per-shard states:

    * :meth:`identity` — the empty state (merging it changes nothing);
    * :meth:`partial` — one shard's contribution, *integers only*;
    * :meth:`merge` — combine two states without loss (sums);
    * :meth:`finalize` — derive the analytic's result (all float math
      happens here, once, from the merged integers).

    ``pure``/``process`` make every aggregate a structurally
    discovered ``bivoc effects`` stage: partials must not write shared
    state, so each shard's partial depends on that shard alone.
    """

    #: Analytic name, used for span labels and metrics.
    analytic = "aggregate"
    #: Effect contract of :meth:`partial` (checked by ``bivoc effects``).
    pure = True

    def identity(self):
        """The empty (neutral) partial state."""
        raise NotImplementedError

    def partial(self, shard):
        """One shard's partial state (pure: reads the shard only)."""
        raise NotImplementedError

    def merge(self, accumulated, update):
        """Combine two partial states into a fresh one (exact sums)."""
        raise NotImplementedError

    def finalize(self, state, index):
        """The analytic's result from the fully merged ``state``.

        ``index`` is the whole index (not one shard) for results that
        keep a drill-down handle; counting must already be done.
        """
        raise NotImplementedError

    def process(self, shard):
        """Engine-protocol alias of :meth:`partial`.

        Exists so ``bivoc effects`` discovers the aggregate as a stage
        and verifies the declared ``pure`` flag against the partial's
        inferred effects.
        """
        return self.partial(shard)


def compute(aggregate, index, tracer=None, metrics=None):
    """Execute one aggregate over an index through the algebra.

    Partials run per shard, inline, then merge left-to-right in shard
    order from :meth:`PartialAggregate.identity`, and ``finalize``
    derives the result from the merged integers.

    ``tracer``/``metrics`` default to the ambient observability
    collectors; everything recorded is write-only and never feeds back
    into the result.
    """
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    shards = iter_shards(index)
    with tracer.span(
        f"analytic:{aggregate.analytic}",
        category="mining",
        tags={"shards": len(shards), "docs": len(index)},
    ):
        partials = []
        for number, shard in enumerate(shards):
            with tracer.span(
                "analytic:partial",
                category="mining",
                tags={"shard": number, "docs": len(shard)},
            ):
                partials.append(aggregate.partial(shard))
        with tracer.span(
            "analytic:merge",
            category="mining",
            tags={"partials": len(partials)},
        ):
            state = aggregate.identity()
            for part in partials:
                state = aggregate.merge(state, part)
            result = aggregate.finalize(state, index)
    metrics.counter("mining.analytics").inc()
    metrics.counter("mining.partials").inc(len(shards))
    metrics.gauge("mining.shards").set(len(shards))
    sizes = [len(shard) for shard in shards]
    total = sum(sizes)
    if total and len(sizes) > 1:
        # Skew = largest shard / ideal even share (1.0 = perfectly even).
        metrics.gauge("mining.shard_skew").set(
            max(sizes) * len(sizes) / total
        )
    return result
