"""Per-stage pipeline timing, emitted machine-readable.

Runs both use-case stage graphs at bench scale and writes
``BENCH_pipeline.json`` — per-stage docs in/out/discarded and wall
time for the call-center flow and the churn flow — so the perf
trajectory of every stage is tracked from this PR onward.  Also prints
the human-readable stage tables.

The churn study is then run in ten alternating pairs, inline and on a
two-worker process pool.  Every pooled result must equal the inline
one, and the median inline/pool wall-time ratio is recorded as
``churn_email_pool.median_speedup`` — gated in
``benchmarks/baselines.json``, so a change that stops the pool paying
on the entity-linking study fails the bench trajectory.  The figure
needs at least two cores.
"""

import json
import pathlib
import statistics
import time

from repro.core.usecases.churn import run_churn_study
from repro.exec import process_pool
from repro.util.tabletext import format_table

OUTPUT_PATH = pathlib.Path("BENCH_pipeline.json")

#: Alternating inline / pool pairs behind the speedup figure.
POOL_PAIRS = 10


def _churn_outcome(corpus, workers):
    """Wall time and the comparable outcome of one churn study run."""
    start = time.perf_counter()
    with process_pool(workers) as backend:
        result = run_churn_study(corpus, channel="email", backend=backend)
    wall_s = time.perf_counter() - start
    outcome = (
        result.total_messages,
        result.linked_messages,
        result.unlinked_fraction,
        result.detection_rate,
        result.flagged_customers,
        result.stage_report.total_out,
    )
    return wall_s, outcome


def _pool_pairs(corpus, reference):
    """Inline vs two-worker pool over alternating pairs (the order
    flips every pair, so drift in host speed hits both sides)."""
    inline_s, pool_s = [], []
    for pair in range(POOL_PAIRS):
        order = (0, 2) if pair % 2 == 0 else (2, 0)
        for workers in order:
            wall_s, outcome = _churn_outcome(corpus, workers)
            assert outcome == reference
            (pool_s if workers else inline_s).append(wall_s)
    speedups = [a / b for a, b in zip(inline_s, pool_s)]
    q1, _, q3 = statistics.quantiles(speedups, n=4)
    return {
        "pairs": POOL_PAIRS,
        "workers": 2,
        "median_speedup": statistics.median(speedups),
        "speedup_q1": q1,
        "speedup_q3": q3,
        "pool_wins": sum(b < a for a, b in zip(inline_s, pool_s)),
        "inline_median_s": statistics.median(inline_s),
        "pool_median_s": statistics.median(pool_s),
    }


def test_bench_pipeline_stage_timing(clean_study, telecom_corpus, smoke):
    """Emit BENCH_pipeline.json with per-stage timing for both flows."""
    call_report = clean_study.analysis.stage_report
    churn_result = run_churn_study(telecom_corpus, channel="email")
    churn_report = churn_result.stage_report
    _, reference = _churn_outcome(telecom_corpus, 0)
    pool = _pool_pairs(telecom_corpus, reference)

    payload = {
        "bench": "pipeline_stages",
        "smoke": smoke,
        "call_center": call_report.to_json_dict(),
        "churn_email": churn_report.to_json_dict(),
        "churn_email_pool": pool,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print("call-center flow")
    print(call_report.render_text())
    print()
    print("churn email flow")
    print(churn_report.render_text())
    print()
    print(
        format_table(
            ["execution", "median wall time"],
            [
                ["inline", f"{pool['inline_median_s']:.2f} s"],
                ["process (2)", f"{pool['pool_median_s']:.2f} s"],
            ],
            title=(
                f"churn email study over {POOL_PAIRS} alternating "
                f"pairs: median speedup {pool['median_speedup']:.2f} "
                f"(IQR {pool['speedup_q1']:.2f}-"
                f"{pool['speedup_q3']:.2f}), pool won "
                f"{pool['pool_wins']}/{POOL_PAIRS}"
            ),
        )
    )
    print(f"\nwrote {OUTPUT_PATH}")

    assert OUTPUT_PATH.exists()
    for report in (call_report, churn_report):
        assert report.total_in > 0
        assert all(s.wall_time >= 0.0 for s in report.stages)
