"""Per-stage pipeline timing, emitted machine-readable.

Runs both use-case stage graphs at bench scale and writes
``BENCH_pipeline.json`` — per-stage docs in/out/discarded and wall
time for the call-center flow and the churn flow — so the perf
trajectory of every stage is tracked from this PR onward.  Also prints
the human-readable stage tables.

The churn flow is then re-run under each execution backend (serial,
thread, process) with two workers, recording wall time per backend
and asserting the document counts match the serial run — the bench
suite's end-to-end check that backend choice never changes what the
pipeline produces at scale.
"""

import json
import pathlib
import time

from repro.core.usecases.churn import run_churn_study
from repro.exec import BACKEND_KINDS, make_backend
from repro.util.tabletext import format_table

OUTPUT_PATH = pathlib.Path("BENCH_pipeline.json")


def test_bench_pipeline_stage_timing(clean_study, telecom_corpus, smoke):
    """Emit BENCH_pipeline.json with per-stage timing for both flows."""
    call_report = clean_study.analysis.stage_report
    churn_result = run_churn_study(telecom_corpus, channel="email")
    churn_report = churn_result.stage_report

    backend_runs = {}
    for kind in BACKEND_KINDS:
        start = time.perf_counter()
        with make_backend(kind, workers=2) as backend:
            result = run_churn_study(
                telecom_corpus, channel="email", backend=backend
            )
        wall_s = time.perf_counter() - start
        report = result.stage_report
        assert report.total_in == churn_report.total_in
        assert report.total_out == churn_report.total_out
        backend_runs[kind] = {
            "wall_time_s": wall_s,
            "total_in": report.total_in,
            "total_out": report.total_out,
        }

    payload = {
        "bench": "pipeline_stages",
        "smoke": smoke,
        "call_center": call_report.to_json_dict(),
        "churn_email": churn_report.to_json_dict(),
        "churn_email_backends": backend_runs,
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
            ["backend", "wall time", "docs out"],
            [
                [kind, f"{run['wall_time_s']:.2f} s",
                 str(run["total_out"])]
                for kind, run in backend_runs.items()
            ],
            title="churn email flow by execution backend (2 workers)",
        )
    )
    print(f"\nwrote {OUTPUT_PATH}")

    assert OUTPUT_PATH.exists()
    for report in (call_report, churn_report):
        assert report.total_in > 0
        assert all(s.wall_time >= 0.0 for s in report.stages)
