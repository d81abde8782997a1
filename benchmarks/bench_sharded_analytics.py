"""Sharded analytics: indexing throughput and per-analytic latency.

The partial/merge/finalize algebra (``repro.mining.algebra``) promises
that sharded execution is *bit-identical* to the single-index
analytics.  This bench measures it over the pipeline-built car-rental
index: for 1, 2, 4 and 8 shards it times index construction
(docs/sec) and each analytic (relative frequency, association, trends,
emerging concepts, OLAP cube), verifies every result ``==`` the
unsharded reference, and emits the trajectory artifact — with
``merge_identical`` as a gated correctness metric (1 = every layout
matched exactly).  The analytics run inline, because fanning per-shard
partials out to threads or processes is slower (DESIGN.md §15).
"""

import time

from repro.mining.assoc2d import associate
from repro.mining.olap import concept_cube
from repro.mining.relfreq import relative_frequency
from repro.mining.sharded import ShardedConceptIndex
from repro.mining.trends import emerging_concepts, trend_series
from repro.util.tabletext import format_table

from benchjson import emit

SHARD_COUNTS = [1, 2, 4, 8]

FOCUS = [("field", "call_type", "unbooked")]
CANDIDATES = ("concept", "place")
ROWS = ("concept", "place")
COLS = ("concept", "vehicle type")
TREND_DIM = ("concept", "vehicle type")
CUBE_DIMS = [("concept", "place"), ("field", "call_type")]


def _reshard(single, n_shards):
    """Copy a single index's contents into an N-shard layout, timed."""
    sharded = ShardedConceptIndex(n_shards)
    start = time.perf_counter()
    for doc_id in single.document_ids:
        sharded.add_keys(
            doc_id,
            single.keys_of(doc_id),
            timestamp=single.timestamp_of(doc_id),
        )
    return sharded, time.perf_counter() - start


def _run_analytics(index):
    """Run every mining analytic; returns (results, latencies_ms)."""
    results = {}
    timings = {}

    def timed(name, thunk):
        start = time.perf_counter()
        results[name] = thunk()
        timings[name] = (time.perf_counter() - start) * 1000.0

    timed(
        "relative_frequency",
        lambda: relative_frequency(index, FOCUS, CANDIDATES),
    )
    timed(
        "associate",
        lambda: associate(index, ROWS, COLS),
    )
    timed(
        "trend_series",
        lambda: [
            trend_series(index, key)
            for key in index.keys_of_dimension(TREND_DIM)
        ],
    )
    timed(
        "emerging_concepts",
        lambda: emerging_concepts(index, TREND_DIM, min_total=1),
    )
    timed(
        "concept_cube",
        lambda: concept_cube(index, CUBE_DIMS),
    )
    return results, timings


def _identical(reference, candidate):
    """True when every analytic's result matches bit-exactly."""
    if reference["relative_frequency"] != candidate["relative_frequency"]:
        return False
    if reference["trend_series"] != candidate["trend_series"]:
        return False
    if reference["emerging_concepts"] != candidate["emerging_concepts"]:
        return False
    ref_table = reference["associate"]
    cand_table = candidate["associate"]
    if ref_table.cells() != cand_table.cells():
        return False
    if ref_table.row_share_matrix() != cand_table.row_share_matrix():
        return False
    ref_cube = reference["concept_cube"]
    cand_cube = candidate["concept_cube"]
    return ref_cube.cells(include_empty_coordinates=True) == (
        cand_cube.cells(include_empty_coordinates=True)
    )


def test_sharded_analytics(clean_study, smoke):
    """Throughput + latency per shard count, gated on exact merges."""
    single = clean_study.analysis.index
    n_docs = len(single)
    reference, single_timings = _run_analytics(single)

    layouts = {}
    all_identical = True
    for n_shards in SHARD_COUNTS:
        sharded, build_s = _reshard(single, n_shards)
        assert len(sharded) == n_docs
        results, timings = _run_analytics(sharded)
        identical = _identical(reference, results)
        all_identical = all_identical and identical
        layouts[str(n_shards)] = {
            "index_build_s": build_s,
            "docs_per_sec": n_docs / build_s if build_s else 0.0,
            "analytic_latency_ms": timings,
            "merge_identical": 1 if identical else 0,
            "shard_sizes": sharded.shard_sizes(),
        }

    print()
    print(
        format_table(
            ["shards", "docs/sec", "relfreq", "assoc", "cube"],
            [
                [
                    name,
                    f"{layout['docs_per_sec']:,.0f}",
                    f"{layout['analytic_latency_ms']['relative_frequency']:.2f} ms",
                    f"{layout['analytic_latency_ms']['associate']:.2f} ms",
                    f"{layout['analytic_latency_ms']['concept_cube']:.2f} ms",
                ]
                for name, layout in layouts.items()
            ],
            title=(
                f"sharded analytics over {n_docs:,} pipeline documents"
            ),
        )
    )
    assert all_identical
    emit(
        "shards",
        {
            "bench": "shards",
            "smoke": smoke,
            "indexed_docs": n_docs,
            "merge_identical": 1 if all_identical else 0,
            "single_analytic_latency_ms": single_timings,
            "layouts": layouts,
        },
    )
