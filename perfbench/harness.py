"""Runs one workload and assembles its result line.

Untraced (``--trace 0``): set up several times (``setup_s`` is the
median), then run measured units while the next one still fits in
``--seconds`` of measured time (at least one), and report every
end-to-end metric over the whole run: documents per second over all the
units' document time, and the p50 and p99 of all their queries.  On a
shared host the speed swings from second to second; a figure taken over
the whole run averages the swings out, where one taken over a single
unit follows them.

Traced (``--trace 1``): run one untraced unit, then set up and run one
unit again under :class:`tracing.Instrumentation`, and report every
per-layer metric.  The two units must produce the same digest
(observability is write-only); their ``docs_per_s`` give the tracing
overhead.  Spans and a per-layer profile are written to ``out/``.
"""

import gc
import json
import math
import os
import resource
import statistics
import sys
import time

import calls
import churn
import live
from common import answers_digest, sha256_of
from tracing import Instrumentation, SpanTree, write_spans

WORKLOADS = {"calls": calls, "churn": churn, "live": live}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = {"calls": 15, "churn": 9, "live": 3}

END_TO_END = (
    ("setup_s", "s"),
    ("docs_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Every engine stage any workload runs; each gets an
#: ``engine.stage.<stage>_s`` metric (0 where a workload lacks it).
ENGINE_STAGES = (
    "transcribe", "turn-split", "compose", "record-link", "annotate",
    "derive", "index", "clean", "entity-link", "label", "featurize",
    "annotate-drivers",
)

#: (name, unit, better, what it should move) of every per-layer
#: metric, in print order.  The last field names the end-to-end metric
#: and workload a change in the layer should show up in.
PER_LAYER = (
    ("asr.transcribe_s", "s", "lower", "docs_per_s on calls"),
    ("asr.turns", "count", "lower", "docs_per_s on calls"),
    ("annotation.annotate_s", "s", "lower",
     "docs_per_s on live (most of ingest) and calls (~25%)"),
    ("annotation.texts", "count", "lower", "docs_per_s on live and calls"),
    ("annotation.tokens", "count", "lower", "docs_per_s on live and calls"),
    ("linking.entity_link_s", "s", "lower", "docs_per_s on churn"),
    ("linking.record_link_s", "s", "lower", "docs_per_s on calls and live"),
    ("linking.similarity_evals", "count", "lower", "docs_per_s on churn"),
    ("linking.fagin.sequential_accesses", "count", "lower",
     "docs_per_s on churn"),
    ("linking.fagin.random_accesses", "count", "lower",
     "docs_per_s on churn"),
    ("linking.linked_ratio", "ratio", "higher", "docs_per_s on churn"),
    ("cleaning.clean_s", "s", "lower", "docs_per_s on churn"),
    ("cleaning.discarded", "count", "lower", "docs_per_s on churn"),
) + tuple(
    (f"engine.stage.{stage}_s", "s", "lower",
     "docs_per_s on each workload that runs the stage")
    for stage in ENGINE_STAGES
) + (
    ("engine.docs_in", "count", "higher", "docs_per_s on every workload"),
    ("engine.docs_out", "count", "higher", "docs_per_s on every workload"),
    ("engine.docs_discarded", "count", "lower",
     "docs_per_s on every workload"),
    ("mining.analytics_s", "s", "lower",
     "docs_per_s on calls (tables), query_p99_ms on every workload "
     "(cold queries)"),
    ("churn.model_s", "s", "lower", "docs_per_s on churn"),
    ("stream.step_s", "s", "lower", "docs_per_s on live"),
    ("stream.window_ingest_s", "s", "lower", "docs_per_s on live"),
    ("stream.publish_s", "s", "lower", "docs_per_s on live"),
    ("stream.checkpoint_s", "s", "lower", "docs_per_s on live"),
    ("stream.checkpoint_bytes", "bytes", "lower", "docs_per_s on live"),
    ("stream.restore_s", "s", "lower", "setup_s on live"),
    ("serve.engine_s", "s", "lower", "query_p50_ms and query_p99_ms"),
    ("serve.http_s", "s", "lower", "query_p50_ms and query_p99_ms"),
    ("serve.compute_s", "s", "lower", "query_p99_ms (cold queries)"),
    ("serve.cache_hit_ratio", "ratio", "higher", "query_p50_ms"),
    ("serve.keepalive_p50_ms", "ms", "lower",
     "round trips of keep-alive clients (not in query_p50_ms)"),
    ("error_rate", "ratio", "lower", "correct / failed on every workload"),
    ("trace.docs_per_s_untraced", "1/s", "higher", "base of the overhead"),
    ("trace.docs_per_s_traced", "1/s", "higher", "base of the overhead"),
    ("trace.overhead_ratio", "ratio", "higher", "tracing overhead"),
)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least
    ``q`` of the sample at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb():
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(name, seed, scale, workdir):
    module = WORKLOADS[name]
    if module is live:
        return module.setup(seed, scale, workdir)
    return module.setup(seed, scale)


def _close(state):
    """Stop what the set-up started (the live workload's server)."""
    close = getattr(state, "close", None)
    if close is not None:
        close()


def _digest(rep):
    """The workload's output digests plus the served answers'."""
    parts = dict(rep.digest)
    parts["answers"] = answers_digest(rep.served)
    return parts


def _recorded_digest(name, seed, scale, here):
    """The digest ``digests.json`` records for this workload, if it was
    recorded at this seed and scale."""
    with open(os.path.join(here, "digests.json"), encoding="utf-8") as f:
        recorded = json.load(f)
    if (recorded["seed"], recorded["scale"]) != (seed, scale):
        return None
    return recorded[name]


def _say(line):
    print(line, flush=True)


def run_untraced(name, seed, seconds, scale, workdir):
    """Set-up repeats plus measured units; the end-to-end metrics."""
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS[name] if scale == "full" else 1):
        if state is not None:
            # Free the last set-up first, so every set-up (and the peak
            # memory) starts from the same heap.
            _close(state)
            state = None
            gc.collect()
        started = time.perf_counter()
        state = _setup(name, seed, scale, workdir)
        setup_times.append(time.perf_counter() - started)
    reps = []
    measured = 0.0
    try:
        while True:
            gc.collect()  # each unit starts from the same heap
            rep = WORKLOADS[name].run(state)
            reps.append(rep)
            last = rep.doc_seconds + sum(sum(s.seconds) for s in rep.served)
            measured += last
            if measured + last > seconds:  # the next unit would not fit
                break
            if name == "live":  # a pass consumes the feed: set up again
                _close(state)
                state = None
                gc.collect()
                started = time.perf_counter()
                state = _setup(name, seed, scale, workdir)
                setup_times.append(time.perf_counter() - started)
    finally:
        _close(state)

    digests = [sha256_of(_digest(rep)) for rep in reps]
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    if len(set(digests)) > 1:
        # Same inputs must give the same outputs: every later unit
        # that disagrees with the first counts as failed.
        failed += sum(
            rep.attempted for rep, d in zip(reps, digests) if d != digests[0]
        )
    latencies = [ms for rep in reps for ms in rep.latencies_ms]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "docs_per_s": sum(rep.docs for rep in reps) / sum(
            rep.doc_seconds for rep in reps
        ),
        "query_p50_ms": percentile(latencies, 0.50),
        "query_p99_ms": percentile(latencies, 0.99),
        "peak_rss_mb": peak_rss_mb(),
    }
    _say(f"  {len(setup_times)} set-ups, {len(reps)} measured unit(s) of "
         f"{reps[0].docs} documents and {reps[0].queries} queries each, "
         f"{len(latencies)} queries in all "
         f"({len(latencies) - math.ceil(0.99 * len(latencies))} beyond "
         f"p99)")
    _say("  docs_per_s of each unit: " + " ".join(
        f"{rep.docs / rep.doc_seconds:.4g}" for rep in reps
    ))
    _say("  query_p50_ms / query_p99_ms of each unit: " + " ".join(
        f"{percentile(rep.latencies_ms, 0.50):.3f}/"
        f"{percentile(rep.latencies_ms, 0.99):.3f}" for rep in reps
    ))
    for metric, unit in END_TO_END:
        _say(f"  {metric:<14} {metrics[metric]:>12.4f} {unit}")
    return metrics, reps, digests[0], attempted, failed


def _layer_metrics(inst, setup_span, rep_span, rep, counters0):
    """Per-layer numbers of the traced unit, from spans and counters.

    ``counters0`` is the metrics registry's counters when the unit
    started (the traced set-up counts too).
    """
    spans = inst.tracer.finished()
    tree = SpanTree(spans, rep_span.thread, root=rep_span)
    counters = inst.counters()

    def delta(counter):
        return counters.get(counter, 0) - counters0.get(counter, 0)

    def delta_matching(suffix):
        return sum(
            value - counters0.get(key, 0)
            for key, value in counters.items()
            if key.startswith("linking.fagin.") and key.endswith(suffix)
        )

    links = tree.named("linking:entity-link") + tree.named(
        "linking:record-link"
    )
    hits = delta("query.cache_hits")
    misses = delta("query.cache_misses")
    restore = [
        s for s in spans
        if s.name == "stream:restore"
        and s.start >= setup_span.start and s.end <= setup_span.end
    ]
    study = tree.named("study:churn")
    stage_rows = {
        row.name: row.wall_time for row in rep.stage_report.stages
    }
    values = {
        "asr.transcribe_s": tree.total("asr:transcribe"),
        "asr.turns": len(tree.named("asr:transcribe")),
        "annotation.annotate_s": tree.total("annotation:annotate"),
        "annotation.texts": len(tree.named("annotation:annotate")),
        "annotation.tokens": sum(
            s.tags.get("tokens", 0)
            for s in tree.named("annotation:annotate")
        ),
        "linking.entity_link_s": tree.total("linking:entity-link"),
        "linking.record_link_s": tree.total("linking:record-link"),
        "linking.similarity_evals": inst.similarity_evals,
        "linking.fagin.sequential_accesses": delta_matching(
            ".sequential_accesses"
        ),
        "linking.fagin.random_accesses": delta_matching(".random_accesses"),
        "linking.linked_ratio": (
            sum(1 for s in links if s.tags.get("linked")) / len(links)
            if links else 0.0
        ),
        "cleaning.clean_s": tree.total("cleaning:clean"),
        "cleaning.discarded": sum(
            1 for s in tree.named("cleaning:clean")
            if s.tags.get("discarded")
        ),
        "engine.docs_in": delta("engine.docs_in"),
        "engine.docs_out": delta("engine.docs_out"),
        "engine.docs_discarded": delta("engine.docs_discarded"),
        "mining.analytics_s": tree.total_self("analytic:"),
        "churn.model_s": sum(tree.self_time(s) for s in study),
        "stream.step_s": tree.total("stream:step"),
        "stream.window_ingest_s": tree.total("stream:window-ingest"),
        "stream.publish_s": tree.total("stream:publish"),
        "stream.checkpoint_s": tree.total("stream:checkpoint"),
        "stream.checkpoint_bytes": inst.checkpoint_bytes,
        "stream.restore_s": sum(s.duration for s in restore),
        "serve.engine_s": tree.total("serve:engine"),
        "serve.http_s": tree.total("serve:http") - tree.total(
            "serve:engine"
        ),
        "serve.compute_s": tree.total_self(
            "query:", where=lambda s: s.tags.get("cached") is False
        ),
        "serve.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "serve.keepalive_p50_ms": 1000.0 * statistics.median(
            rep.keepalive_seconds
        ),
    }
    for stage in ENGINE_STAGES:
        values[f"engine.stage.{stage}_s"] = stage_rows.get(stage, 0.0)
    return values, tree


def _profile(tree, rep_span):
    """Layer shares of the program's traced self time (and, where the
    unit ingests a stream, of its ingest time alone)."""
    program = [s for s in tree.spans if not s.name.startswith("bench:")]
    base = sum(tree.self_time(s) for s in program)
    profile = {
        "rep_s": rep_span.duration,
        "program_s": base,
        "layer_shares": tree.layer_shares(program, base),
        "self_by_name": tree.self_by_name(),
    }
    steps = tree.named("stream:step")
    if steps:
        ingest = tree.descendants(steps)
        ingest_s = tree.total("stream:step")
        profile["ingest_layer_shares"] = tree.layer_shares(ingest, ingest_s)
        profile["ingest_self_by_name"] = SpanTree(
            ingest, rep_span.thread
        ).self_by_name()
    return profile


def run_traced(name, seed, scale, workdir, outdir):
    """One untraced and one traced unit; the per-layer metrics."""
    state = _setup(name, seed, scale, workdir)
    try:
        base = WORKLOADS[name].run(state)
    finally:
        _close(state)
    with Instrumentation() as inst:
        with inst.span("bench:setup") as setup_span:
            state = _setup(name, seed, scale, workdir)
        inst.call_ids.update(getattr(state, "call_ids", {}))
        counters0 = inst.counters()
        inst.similarity_evals = inst.checkpoint_bytes = 0
        try:
            with inst.span("bench:rep") as rep_span:
                rep = WORKLOADS[name].run(state, obs=inst)
        finally:
            _close(state)
    values, tree = _layer_metrics(
        inst, setup_span, rep_span, rep, counters0
    )
    untraced_digest = sha256_of(_digest(base))
    traced_digest = sha256_of(_digest(rep))
    attempted = base.attempted + rep.attempted
    failed = base.failed + rep.failed
    if traced_digest != untraced_digest:
        failed += rep.attempted
    untraced_rate = base.docs / base.doc_seconds
    traced_rate = rep.docs / rep.doc_seconds
    values["error_rate"] = failed / attempted
    values["trace.docs_per_s_untraced"] = untraced_rate
    values["trace.docs_per_s_traced"] = traced_rate
    values["trace.overhead_ratio"] = traced_rate / untraced_rate

    profile = _profile(tree, rep_span)
    profile.update({
        "workload": name, "seed": seed, "scale": scale,
        "per_layer": {
            metric: {"value": values[metric], "unit": unit, "moves": moves}
            for metric, unit, _, moves in PER_LAYER
        },
        "overhead": {"traced_docs_per_s": traced_rate,
                     "untraced_docs_per_s": untraced_rate,
                     "ratio": traced_rate / untraced_rate},
        "digest": {"untraced": untraced_digest, "traced": traced_digest,
                   "equal": traced_digest == untraced_digest},
        "checks": {k: list(v) for k, v in rep.checks.items()},
        "notes": rep.notes,
    })
    stem = os.path.join(outdir, f"{name}-seed{seed}-{scale}")
    with open(stem + ".profile.json", "w", encoding="utf-8") as handle:
        json.dump(profile, handle, indent=1, default=str)
    write_spans(stem + ".spans.jsonl",
                SpanTree(inst.tracer.finished(), rep_span.thread))

    for metric, unit, _, _ in PER_LAYER:
        _say(f"  {metric:<36} {values[metric]:>14.6g} {unit}")
    _say("  layer shares of traced program self time: " + ", ".join(
        f"{layer} {entry['share']:.1%}"
        for layer, entry in profile["layer_shares"].items()
    ))
    if "ingest_layer_shares" in profile:
        _say("  layer shares of ingest (stream:step) time: " + ", ".join(
            f"{layer} {entry['share']:.1%}"
            for layer, entry in profile["ingest_layer_shares"].items()
        ))
    same = "==" if traced_digest == untraced_digest else "!="
    _say(f"  traced digest {same} untraced digest; "
         f"profile: {stem}.profile.json")
    return values, [base, rep], traced_digest, attempted, failed


def run_workload(name, seed, seconds, trace, scale, here):
    """Run one workload; returns the result object to print last."""
    outdir = os.path.join(here, "out")
    os.makedirs(outdir, exist_ok=True)
    _say(f"perfbench: workload {name}, seed {seed}, scale {scale}, "
         f"trace {int(trace)}")
    if trace:
        metrics, reps, digest, attempted, failed = run_traced(
            name, seed, scale, outdir, outdir
        )
        units = {metric: unit for metric, unit, _, _ in PER_LAYER}
    else:
        metrics, reps, digest, attempted, failed = run_untraced(
            name, seed, seconds, scale, outdir
        )
        units = dict(END_TO_END)
    for check, (covered, bad) in reps[-1].checks.items():
        outcome = f"{bad} of {covered} failed" if bad else "ok"
        _say(f"  check {check}: {outcome}")
    for note, value in sorted(reps[-1].notes.items()):
        _say(f"  note {note}: {value}")
    _say(f"  error_rate {failed / attempted:.6f} "
         f"({failed} of {attempted} operations failed)")
    parts = _digest(reps[-1])
    _say(f"  digest {digest} (" + ", ".join(
        f"{part} {value[:12]}" for part, value in sorted(parts.items())
    ) + ")")
    recorded = _recorded_digest(name, seed, scale, here)
    if recorded is not None:
        _say(f"  recorded digest for seed {seed}: "
             f"{'match' if recorded == digest else 'DIFFERS'}")
    sys.stdout.flush()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }
