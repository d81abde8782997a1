"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the library so each paper experiment can be
regenerated without writing code:

    python -m repro tables              # Tables II, III, IV
    python -m repro asr                 # Table I
    python -m repro training            # the SecV-C A/B experiment
    python -m repro churn               # the SecVI churn study
    python -m repro stream              # incremental streaming consumer
    python -m repro serve               # HTTP query serving over a stream
    python -m repro chaos               # seeded fault-injection drill
    python -m repro prop                # seeded differential property checks
    python -m repro lint                # static-analysis guardrails
    python -m repro effects             # stage purity / effect checker
    python -m repro trace tables        # any command, traced (repro.obs)

The staged commands (``tables``, ``churn``, ``stream``) also accept
``--trace PATH`` to write a Chrome-trace JSON of the run; ``trace`` is
the richer wrapper with format selection and a flame summary.
"""

import argparse
import sys
from contextlib import contextmanager


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus random seed")


@contextmanager
def _execution_backend(kind, workers):
    """The backend behind ``--backend``/``--workers``, closed on exit.

    ``None`` (inline execution) unless ``workers > 1``.  The command
    owns the backend; the consumers and engines it builds borrow it.
    """
    if workers <= 1:
        yield None
        return
    from repro.exec import make_backend

    with make_backend(kind, workers=workers) as backend:
        yield backend


def _add_engine_options(parser):
    """Pipeline-engine knobs shared by the staged commands."""
    from repro.exec import BACKEND_KINDS

    parser.add_argument(
        "--workers", type=int, default=0,
        help="workers for pure pipeline stages "
             "(0 = serial; parallel output is bit-identical)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_KINDS, default="thread",
        help="execution backend behind --workers: 'thread' shares the "
             "GIL, 'process' escapes it via a ProcessPoolExecutor, "
             "'serial' forces inline; every backend's output is "
             "bit-identical (default: thread)",
    )
    parser.add_argument(
        "--stage-stats", action="store_true",
        help="print the per-stage docs in/out/discard + wall-time table",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="hash-partition the concept index into N shards; the "
             "analytics run per-shard partials merged exactly "
             "(bit-identical to unsharded)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome-trace JSON of this run to PATH "
             "(traced output is bit-identical to untraced)",
    )


def cmd_tables(args):
    """Regenerate Tables II-IV from a fresh corpus."""
    from repro.core import BIVoCConfig, run_insight_analysis
    from repro.mining.reports import (
        outcome_percentage_table,
        render_association,
    )
    from repro.synth.carrental import CarRentalConfig, generate_car_rental

    corpus = generate_car_rental(
        CarRentalConfig(
            n_agents=args.agents,
            n_days=args.days,
            calls_per_agent_per_day=5,
            n_customers=10 * args.agents,
            seed=args.seed,
        )
    )
    study = run_insight_analysis(
        corpus,
        BIVoCConfig(
            use_asr=args.asr,
            link_mode="content",
            workers=args.workers,
            backend=args.backend,
            shards=args.shards or 0,
        ),
    )
    if args.stage_stats:
        print(study.analysis.stage_report.render_text())
        print()
    print(
        outcome_percentage_table(
            study.intent_table,
            title="Table III — customer intention vs outcome",
            col_order=["reservation", "unbooked"],
        )
    )
    print()
    for name, table in study.utterance_tables.items():
        print(
            outcome_percentage_table(
                table,
                title=f"Table IV ({name}) vs outcome",
                col_order=["reservation", "unbooked"],
            )
        )
        print()
    print(
        render_association(
            study.location_vehicle_table,
            value="strength",
            title="Table II — location x vehicle (interval-bounded lift)",
        )
    )
    return 0


def cmd_asr(args):
    """Regenerate Table I (ASR WER) on a fresh corpus."""
    from repro.asr.calibrate import measure_wer
    from repro.asr.system import ASRSystem
    from repro.asr.vocabulary import NAME_CLASS, NUMBER_CLASS
    from repro.synth.banking import generate_banking_calls
    from repro.synth.carrental import CarRentalConfig, generate_car_rental
    from repro.util.tabletext import format_table

    corpus = generate_car_rental(
        CarRentalConfig(
            n_agents=15,
            n_days=3,
            calls_per_agent_per_day=5,
            n_customers=200,
            seed=args.seed,
        )
    )
    system = ASRSystem.build_default(
        extra_sentences=[t.text for t in corpus.transcripts[:30]]
    )
    test_set = [t.text for t in corpus.transcripts[30:110]] + [
        c.text for c in generate_banking_calls(30, seed=args.seed)
    ]
    breakdown = measure_wer(system, test_set, reset_seed=args.seed)
    print(
        format_table(
            ["Entity", "paper", "measured"],
            [
                ["Entire Speech", "45%", f"{breakdown.wer():.1%}"],
                ["Names", "65%", f"{breakdown.wer(NAME_CLASS):.1%}"],
                ["Numbers", "45%", f"{breakdown.wer(NUMBER_CLASS):.1%}"],
            ],
            title="Table I — ASR performance",
        )
    )
    return 0


def cmd_training(args):
    """Run the SecV-C training A/B experiment."""
    from repro.core.usecases.agent_productivity import (
        run_training_experiment,
    )
    from repro.synth.carrental import CarRentalConfig

    outcome, _ = run_training_experiment(
        CarRentalConfig(
            n_agents=90,
            n_days=args.days,
            calls_per_agent_per_day=20,
            n_customers=3000,
            seed=args.seed,
            agent_logit_sigma=0.26,
            build_transcripts=False,
        )
    )
    print(
        f"pre-period gap {outcome.pre_gap:+.4f} "
        f"(p={outcome.pre_ttest.p_value:.3f}); "
        f"post-period improvement {outcome.improvement:+.4f} "
        f"(p={outcome.ttest.p_value:.4f})"
    )
    print("paper: +3% booking ratio, t-test p = 0.0675")
    return 0


def cmd_churn(args):
    """Run the SecVI churn study at the given scale."""
    from repro.core.usecases.churn import run_churn_study
    from repro.synth.telecom import TelecomConfig, generate_telecom

    corpus = generate_telecom(
        TelecomConfig(scale=args.scale, n_customers=args.customers,
                      seed=args.seed)
    )
    with _execution_backend(args.backend, args.workers) as backend:
        result = run_churn_study(
            corpus, channel=args.channel, shards=args.shards,
            backend=backend,
        )
    if args.stage_stats:
        print(result.stage_report.render_text())
        print()
    print(
        f"{args.channel}: unlinked {result.unlinked_fraction:.1%} "
        f"(paper 18%), churner share "
        f"{result.train_churner_fraction:.1%}, detection "
        f"{result.detection_rate:.1%} (paper 53.6% for email)"
    )
    if result.driver_index is not None:
        from repro.mining import emerging_concepts, shard_count_of

        index = result.driver_index
        rising = emerging_concepts(
            index, ("concept", "churn driver"), min_total=1
        )
        layout = (
            f"{shard_count_of(index)} shards"
            if shard_count_of(index) else "single index"
        )
        print()
        print(
            f"churn drivers by trend ({len(index)} messages indexed, "
            f"{layout}):"
        )
        for key, slope, total in rising:
            print(f"  {key[2]:<22} slope {slope:+.3f}  total {total}")
    return 0


def _build_carrental_stream(args):
    """Stream wiring for the car-rental feed: source, stages, window."""
    from repro.core import BIVoCConfig
    from repro.core.pipeline import BIVoCSystem
    from repro.engine import Document
    from repro.mining.index import field_key
    from repro.mining.stage import ConceptIndexStage
    from repro.stream import (
        AssocSpec,
        MemorySource,
        RelFreqSpec,
        WindowedAnalytics,
    )
    from repro.synth.carrental import CarRentalConfig, generate_car_rental

    corpus = generate_car_rental(
        CarRentalConfig(
            n_agents=args.agents,
            n_days=args.days,
            calls_per_agent_per_day=5,
            n_customers=10 * args.agents,
            seed=args.seed,
        )
    )
    system = BIVoCSystem(BIVoCConfig(use_asr=False, link_mode="content"))
    stages = system.build_call_stages(
        corpus,
        index_stage=ConceptIndexStage(
            on_duplicate="replace", shards=args.shards or 0
        ),
    )
    arrivals = sorted(
        corpus.transcripts, key=lambda t: (t.day, t.call_id)
    )
    source = MemorySource(
        (
            transcript.day,
            Document(
                doc_id=transcript.call_id,
                channel="call",
                text=transcript.text,
                artifacts={"transcript": transcript},
            ),
        )
        for transcript in arrivals
    )
    window = WindowedAnalytics(
        args.window,
        assoc_specs=[
            AssocSpec(("field", "city"), ("field", "car_type"))
        ],
        relfreq_specs=[
            RelFreqSpec(
                (field_key("detected_intent", "strong"),),
                ("field", "call_type"),
            )
        ],
    )
    return source, stages, window


def _build_telecom_stream(args):
    """Stream wiring for the telecom feed: source, stages, window."""
    from repro.cleaning.stage import CleaningStage
    from repro.core.usecases.churn import (
        StreamAnnotateStage,
        churn_driver_engine,
    )
    from repro.engine import Document
    from repro.mining.stage import ConceptIndexStage
    from repro.stream import AssocSpec, MemorySource, WindowedAnalytics
    from repro.synth.telecom import TelecomConfig, generate_telecom

    corpus = generate_telecom(
        TelecomConfig(
            scale=args.scale, n_customers=args.customers, seed=args.seed
        )
    )
    # One shared "churn driver" category so windowed trend/association
    # snapshots can rank the drivers against each other.  The annotate
    # stage is a module-level class (not a lambda FunctionStage) so it
    # pickles into process-backend workers.
    stages = [
        CleaningStage(),
        StreamAnnotateStage(churn_driver_engine()),
        ConceptIndexStage(
            on_duplicate="replace", shards=args.shards or 0
        ),
    ]
    arrivals = sorted(
        corpus.messages, key=lambda m: (m.month, m.message_id)
    )
    source = MemorySource(
        (
            message.month,
            Document(
                doc_id=message.message_id,
                channel=message.channel,
                text=message.raw_text,
                artifacts={
                    "index_fields": {"channel": message.channel}
                },
            ),
        )
        for message in arrivals
    )
    window = WindowedAnalytics(
        args.window,
        assoc_specs=[
            AssocSpec(("concept", "churn driver"), ("field", "channel"))
        ],
    )
    return source, stages, window


def cmd_stream(args):
    """Run the incremental streaming consumer over a synthetic feed."""
    from repro.mining.reports import render_association, render_relevancy
    from repro.stream import Checkpointer, StreamConsumer

    if args.source == "carrental":
        source, stages, window = _build_carrental_stream(args)
        bucket_name = "day"
    else:
        source, stages, window = _build_telecom_stream(args)
        bucket_name = "month"
    checkpointer = (
        Checkpointer(args.checkpoint) if args.checkpoint else None
    )
    with _execution_backend(
        args.backend, args.workers
    ) as backend, StreamConsumer(
        source,
        stages,
        window=window,
        checkpointer=checkpointer,
        batch_docs=args.batch_docs,
        checkpoint_interval=args.checkpoint_interval,
        backend=backend,
    ) as consumer:
        if checkpointer is not None and consumer.restore():
            print(
                f"resumed from checkpoint at offset "
                f"{consumer.committed_offset}"
            )
        report = consumer.run(max_batches=args.max_batches)
    if args.stage_stats:
        print(consumer.stage_report().render_text())
        print()
    print(report.render_text())
    print(
        f"window: last {window.window_buckets} {bucket_name}s "
        f"({len(window)} documents, buckets {window.buckets})"
    )
    print()
    spec = window.assoc_specs[0]
    print(
        render_association(
            window.assoc_snapshot(0),
            value="count",
            title=(
                f"windowed association — {spec.row_dimension[1]} x "
                f"{spec.col_dimension[1]}"
            ),
        )
    )
    if window.relfreq_specs:
        print()
        print(
            render_relevancy(
                window.relfreq_snapshot(0),
                title="windowed relevancy — strong intent vs outcome",
            )
        )
    return 0


def cmd_serve(args):
    """Serve analytic queries over HTTP while a stream ingests."""
    with _execution_backend(
        args.backend, args.workers
    ) as backend, _execution_backend(
        args.backend, args.query_workers
    ) as query_backend:
        return _serve(args, backend, query_backend)


def _serve(args, backend, query_backend):
    """:func:`cmd_serve`'s body, on the command's two backends."""
    import json
    import os
    import signal
    import threading

    from repro.faults import BreakerBoard, RetryPolicy
    from repro.serve import InsightServer, QueryCache, QueryEngine
    from repro.stream import Checkpointer, EpochStore, StreamConsumer

    if args.source == "carrental":
        source, stages, _ = _build_carrental_stream(args)
    else:
        source, stages, _ = _build_telecom_stream(args)
    retry = (
        RetryPolicy(max_attempts=args.retry, seed=args.seed)
        if args.retry > 1 else None
    )
    breakers = (
        BreakerBoard(
            failure_threshold=args.breaker_threshold,
            cooldown=args.breaker_cooldown,
        )
        if args.breaker_threshold > 0 else None
    )
    checkpointer = (
        Checkpointer(args.checkpoint, retry=retry)
        if args.checkpoint else None
    )
    epochs = EpochStore(history=args.epoch_history)
    consumer = StreamConsumer(
        source,
        stages,
        checkpointer=checkpointer,
        batch_docs=args.batch_docs,
        checkpoint_interval=args.checkpoint_interval,
        backend=backend,
        epochs=epochs,
    )
    if checkpointer is not None and consumer.restore():
        print(
            f"warm start from checkpoint at offset "
            f"{consumer.committed_offset}"
        )
    engine = QueryEngine(
        epochs,
        backend=query_backend,
        cache=QueryCache(
            capacity=args.cache_capacity, ttl=args.cache_ttl
        ),
        retry=retry,
        deadline_ms=args.deadline_ms,
        breakers=breakers,
    )
    server = InsightServer(engine, host=args.host, port=args.port)
    ingest = threading.Thread(
        target=consumer.run,
        kwargs={"max_batches": args.max_batches},
        name="bivoc-serve-ingest",
    )
    server.start()
    ingest.start()
    print(f"serving on http://{server.host}:{server.port}")
    print(
        f"  try: curl -s http://{server.host}:{server.port}/status"
    )
    print(
        f"  try: curl -s -X POST "
        f"http://{server.host}:{server.port}/query "
        f"-d '{{\"kind\": \"cube\", "
        f"\"dimensions\": [[\"field\", \"channel\"]]}}'"
    )
    if args.ready_file:
        with open(args.ready_file, "w", encoding="utf-8") as handle:
            json.dump(
                {"host": server.host, "port": server.port}, handle
            )
    # SIGTERM (an orchestrator's stop signal) must drain exactly like
    # POST /shutdown; handlers only install from the main thread.
    previous_term = None
    restore_term = False
    if threading.current_thread() is threading.main_thread():
        previous_term = signal.signal(
            signal.SIGTERM,
            lambda signum, frame: server.request_shutdown(),
        )
        restore_term = True
    timer = None
    if args.serve_seconds is not None:
        timer = threading.Timer(
            args.serve_seconds, server.request_shutdown
        )
        timer.daemon = True
        timer.start()
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        if timer is not None:
            timer.cancel()
        server.stop()
        ingest.join()
        engine.close()
        consumer.close()
        if restore_term:
            signal.signal(signal.SIGTERM, previous_term)
        # The ready-file advertises a live endpoint; leaving it behind
        # after the drain points orchestration at a dead port.
        if args.ready_file:
            try:
                os.remove(args.ready_file)
            except FileNotFoundError:
                pass
    stats = epochs.current().stats()
    print(
        f"stopped at epoch {stats['epoch']} "
        f"({stats['documents']} documents, "
        f"{stats['concepts']} concepts indexed)"
    )
    return 0


def cmd_chaos(args):
    """Crash/retry/resume a stream under a seeded fault plan.

    Builds the default chaos plan for ``--seed``, runs the car-rental
    stream to completion once fault-free, then replays it with the
    plan armed — restarting a fresh consumer from its checkpoint after
    every injected crash, exactly the loop the ``tests/faults`` suite
    gates — and verifies the faulted run's final index is ``==`` to
    the uninterrupted one.  Exit 0 on bit-identity, 1 on divergence
    (with the plan JSON on stderr for one-command reproduction).
    """
    import json
    import os
    import tempfile

    from repro.faults import (
        InjectedFault,
        RetryPolicy,
        default_chaos_plan,
        injecting,
    )
    from repro.stream import CheckpointCorrupt, Checkpointer, StreamConsumer
    from repro.stream.checkpoint import index_to_state

    plan = default_chaos_plan(args.seed)
    if args.plan_only:
        print(json.dumps(plan.to_json_dict(), indent=2))
        return 0

    def build_consumer(checkpointer, backend):
        # Rebuilt from scratch per (re)start: a crash loses every bit
        # of in-memory state, so the resume path must too.  The
        # backend holds no stream state and is shared by every run.
        source, stages, _ = _build_carrental_stream(args)
        return StreamConsumer(
            source,
            stages,
            checkpointer=checkpointer,
            batch_docs=args.batch_docs,
            checkpoint_interval=2,
            backend=backend,
        )

    retry = RetryPolicy(
        max_attempts=8, base_delay=0.0, max_delay=0.0, seed=args.seed
    )
    injector = plan.injector(sleep=lambda _delay: None)
    restarts = 0
    with _execution_backend(
        args.backend, args.workers
    ) as backend, tempfile.TemporaryDirectory() as tmp:
        reference = build_consumer(None, backend)
        reference.run(checkpoint_at_end=False)
        expected = index_to_state(reference.index)
        ck_path = os.path.join(tmp, "chaos-checkpoint.json")
        with injecting(injector):
            while True:
                checkpointer = Checkpointer(
                    ck_path, retry=retry, sleep=lambda _delay: None
                )
                consumer = build_consumer(checkpointer, backend)
                try:
                    consumer.restore()
                except CheckpointCorrupt:
                    # Every copy corrupted: cold-start, the last
                    # resort (at-least-once delivery makes it safe).
                    checkpointer.clear()
                    continue
                try:
                    consumer.run()
                    break
                except InjectedFault:
                    restarts += 1
                    if restarts > 50:
                        print(
                            "chaos: runaway restart loop (plan below)",
                            file=sys.stderr,
                        )
                        print(
                            json.dumps(plan.to_json_dict(), indent=2),
                            file=sys.stderr,
                        )
                        return 1

    fired = {
        name: counts["fired"]
        for name, counts in injector.counts().items()
        if counts["fired"]
    }
    print(
        f"chaos seed {args.seed}: {restarts} injected crashes "
        f"survived, {len(consumer.index)} documents indexed"
    )
    print(f"faults fired: {fired if fired else 'none'}")
    if index_to_state(consumer.index) == expected:
        print("faulted crash/retry/resume run == uninterrupted run")
        return 0
    print(
        "MISMATCH: the faulted run diverged from the uninterrupted "
        "run; reproduce with the plan below",
        file=sys.stderr,
    )
    print(json.dumps(plan.to_json_dict(), indent=2), file=sys.stderr)
    return 1


def cmd_prop(args):
    """Replay the seeded differential property harness."""
    from repro.prop import check_equivalences, describe_case

    failures = 0
    for seed in range(args.seed, args.seed + max(1, args.count)):
        if args.verbose:
            print(f"seed {seed}: {describe_case(seed)}")
        try:
            check_equivalences(seed)
        except AssertionError as exc:
            failures += 1
            print(f"seed {seed}: FAIL", file=sys.stderr)
            print(str(exc), file=sys.stderr)
        else:
            print(f"seed {seed}: all equivalences hold")
    return 1 if failures else 0


def cmd_trace(args):
    """Run another subcommand under an active tracer.

    Parses everything after ``trace`` as a fresh command line, runs it
    with a live :class:`~repro.obs.Tracer` and
    :class:`~repro.obs.MetricsRegistry` activated, then writes the
    chosen export and prints a flame summary plus the metric totals.
    The traced command's own output (and exit code) are unchanged.
    """
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        activated,
        render_flame_text,
        write_chrome_trace,
        write_spans_jsonl,
    )

    argv = [arg for arg in args.argv if arg != "--"]
    if not argv:
        print("bivoc trace: no command to trace", file=sys.stderr)
        return 2
    if argv[0] == "trace":
        print("bivoc trace: tracing a trace is not supported",
              file=sys.stderr)
        return 2
    inner = build_parser().parse_args(argv)
    if getattr(inner, "trace", None):
        print("bivoc trace: drop --trace from the traced command "
              "(the wrapper already exports)", file=sys.stderr)
        return 2
    tracer = Tracer()
    metrics = MetricsRegistry()
    with activated(tracer, metrics):
        code = inner.func(inner)
    spans = tracer.finished()
    suffix = "jsonl" if args.trace_format == "jsonl" else "json"
    out = args.out or f"TRACE_{argv[0]}.{suffix}"
    if args.trace_format == "jsonl":
        write_spans_jsonl(spans, out)
    elif args.trace_format == "flame":
        import pathlib

        pathlib.Path(out).write_text(
            render_flame_text(spans) + "\n", encoding="utf-8"
        )
    else:
        write_chrome_trace(spans, out)
    print()
    print(render_flame_text(spans, min_share=0.01))
    snapshot = metrics.snapshot()
    counts = {
        kind: len(snapshot.get(kind, {}))
        for kind in ("counters", "gauges", "histograms")
    }
    print(
        f"trace: {len(spans)} spans -> {out} "
        f"({args.trace_format}); metrics: "
        f"{counts['counters']} counters, {counts['gauges']} gauges, "
        f"{counts['histograms']} histograms"
    )
    return code


def _default_lint_paths():
    """What ``bivoc lint`` checks when no path is given.

    The in-repo source tree (``src/repro``) when run from a checkout,
    otherwise the installed package directory.
    """
    import pathlib

    import repro

    checkout = pathlib.Path("src/repro")
    if (checkout / "__init__.py").exists():
        return [str(checkout)]
    return [str(pathlib.Path(repro.__file__).parent)]


def cmd_lint(args):
    """Run the project linter (see :mod:`repro.devtools`)."""
    from repro.devtools import lint_paths, render_json, render_text

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    exclude = tuple(
        part for part in args.exclude.split(",") if part
    )
    try:
        report = lint_paths(
            args.paths or _default_lint_paths(),
            select=select,
            ignore=ignore,
            exclude=exclude,
            effects=args.effects,
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"bivoc lint: {exc}", file=sys.stderr)
        return 2
    rendered = (
        render_json(report)
        if args.format == "json"
        else render_text(report)
    )
    print(rendered)
    return report.exit_code(fail_on=args.fail_on)


def cmd_effects(args):
    """Run the purity/effect checker (see :mod:`repro.devtools`)."""
    from repro.devtools import effects_paths, render_json, render_text

    exclude = tuple(
        part for part in args.exclude.split(",") if part
    )
    try:
        report, stage_reports = effects_paths(
            args.paths or _default_lint_paths(),
            exclude=exclude,
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"bivoc effects: {exc}", file=sys.stderr)
        return 2
    rendered = (
        render_json(report)
        if args.format == "json"
        else render_text(report)
    )
    print(rendered)
    if args.explain and args.format != "json":
        print()
        print("stage purity verdicts:")
        for stage in stage_reports:
            declared = (
                "pure" if stage.declared_pure is True
                else "impure" if stage.declared_pure is False
                else "dynamic"
            )
            effects = ", ".join(stage.effects) or "none"
            print(
                f"  {stage.verdict:12} {stage.name} "
                f"[declared {declared}; effects: {effects}] "
                f"({stage.path}:{stage.line})"
            )
    return report.exit_code(fail_on=args.fail_on)


def build_parser():
    """Build the argparse parser for all subcommands."""
    from repro.exec import BACKEND_KINDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="BIVoC (ICDE 2009) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="regenerate Tables II-IV")
    _add_common(tables)
    _add_engine_options(tables)
    tables.add_argument(
        "--source", choices=("carrental",), default="carrental",
        help="synthetic corpus behind the tables (carrental only)",
    )
    tables.add_argument("--agents", type=int, default=30)
    tables.add_argument("--days", type=int, default=4)
    tables.add_argument("--asr", action="store_true",
                        help="run transcripts through the ASR channel")
    tables.set_defaults(func=cmd_tables)

    asr = sub.add_parser("asr", help="regenerate Table I")
    _add_common(asr)
    asr.set_defaults(func=cmd_asr)

    training = sub.add_parser(
        "training", help="run the SecV-C training experiment"
    )
    _add_common(training)
    training.add_argument("--days", type=int, default=44)
    training.set_defaults(func=cmd_training)

    churn = sub.add_parser("churn", help="run the SecVI churn study")
    _add_common(churn)
    _add_engine_options(churn)
    churn.add_argument("--scale", type=float, default=0.05,
                       help="fraction of the paper's message volume")
    churn.add_argument("--customers", type=int, default=2500)
    churn.add_argument("--channel", choices=("email", "sms"),
                       default="email")
    churn.set_defaults(func=cmd_churn)

    stream = sub.add_parser(
        "stream",
        help="run the incremental streaming consumer",
        description=(
            "Feeds a synthetic corpus through the stage graph as a "
            "live stream: micro-batched ingestion with backpressure, "
            "sliding-window analytics, and optional checkpoint/resume "
            "(re-run with the same --checkpoint path to resume)."
        ),
    )
    _add_common(stream)
    _add_engine_options(stream)
    stream.add_argument(
        "--source", choices=("carrental", "telecom"),
        default="carrental",
        help="which synthetic generator feeds the stream",
    )
    stream.add_argument("--agents", type=int, default=30,
                        help="carrental: number of agents")
    stream.add_argument("--days", type=int, default=6,
                        help="carrental: number of days")
    stream.add_argument("--scale", type=float, default=0.02,
                        help="telecom: fraction of paper message volume")
    stream.add_argument("--customers", type=int, default=1000,
                        help="telecom: number of customers")
    stream.add_argument(
        "--window", type=int, default=3,
        help="sliding-window width in time buckets (days/months)",
    )
    stream.add_argument("--batch-docs", type=int, default=25,
                        help="documents per micro-batch")
    stream.add_argument(
        "--checkpoint", default=None,
        help="checkpoint file path (enables checkpoint/resume)",
    )
    stream.add_argument("--checkpoint-interval", type=int, default=4,
                        help="micro-batches between checkpoints")
    stream.add_argument(
        "--max-batches", type=int, default=None,
        help="stop after this many micro-batches (default: drain)",
    )
    stream.set_defaults(func=cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="serve analytic queries over a live ingesting stream",
        description=(
            "Starts the streaming consumer on a background thread and "
            "answers JSON analytic queries over HTTP while it ingests: "
            "POST /query, GET /status (alias /healthz), POST "
            "/shutdown. Every response is computed on an immutable "
            "epoch snapshot and stamped with its epoch, so answers "
            "are bit-identical to batch analytics on that stream "
            "prefix. Re-run with the same --checkpoint path for a "
            "warm start."
        ),
    )
    _add_common(serve)
    _add_engine_options(serve)
    serve.add_argument(
        "--source", choices=("carrental", "telecom"),
        default="carrental",
        help="which synthetic generator feeds the stream",
    )
    serve.add_argument("--agents", type=int, default=30,
                       help="carrental: number of agents")
    serve.add_argument("--days", type=int, default=6,
                       help="carrental: number of days")
    serve.add_argument("--scale", type=float, default=0.02,
                       help="telecom: fraction of paper message volume")
    serve.add_argument("--customers", type=int, default=1000,
                       help="telecom: number of customers")
    serve.add_argument("--window", type=int, default=3,
                       help=argparse.SUPPRESS)  # stream-builder compat
    serve.add_argument("--batch-docs", type=int, default=25,
                       help="documents per ingestion micro-batch")
    serve.add_argument(
        "--checkpoint", default=None,
        help="checkpoint file path (warm start + periodic snapshots)",
    )
    serve.add_argument("--checkpoint-interval", type=int, default=4,
                       help="micro-batches between checkpoints")
    serve.add_argument(
        "--max-batches", type=int, default=None,
        help="stop ingesting after this many micro-batches "
             "(default: drain the source; serving continues either way)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address")
    serve.add_argument("--port", type=int, default=8321,
                       help="bind port (0 picks a free port)")
    serve.add_argument(
        "--query-workers", type=int, default=0,
        help="thread workers for per-shard query partials "
             "(0 = serial; pooled results are bit-identical)",
    )
    serve.add_argument("--cache-capacity", type=int, default=128,
                       help="epoch-keyed result cache entries")
    serve.add_argument(
        "--cache-ttl", type=float, default=None,
        help="result cache TTL seconds (default: no TTL; epoch "
             "advance already invalidates)",
    )
    serve.add_argument(
        "--epoch-history", type=int, default=8,
        help="published epoch snapshots retained for verification",
    )
    serve.add_argument(
        "--serve-seconds", type=float, default=None,
        help="self-shutdown after this many seconds (default: serve "
             "until POST /shutdown or Ctrl-C)",
    )
    serve.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write {host, port} JSON here once the server is bound "
             "(removed again on clean shutdown)",
    )
    serve.add_argument(
        "--retry", type=int, default=3, metavar="N",
        help="max attempts absorbing transient faults around query "
             "execution and checkpoint I/O (1 disables retrying)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-query deadline budget in milliseconds; exhaustion "
             "answers 504 (default: unbounded)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive failures opening a query kind's circuit "
             "breaker, after which last-good answers are served "
             "degraded (0 disables breakers)",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=1.0,
        help="seconds an open breaker rejects before probing again",
    )
    serve.set_defaults(func=cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="verify crash/retry/resume under a seeded fault plan",
        description=(
            "Runs the car-rental stream fault-free, then replays it "
            "with the default chaos plan for --seed armed: injected "
            "I/O errors, crashes and checkpoint corruption, survived "
            "by retry policies and previous-good fallback. Exits 0 "
            "when the faulted run's final index is bit-identical to "
            "the uninterrupted one — the same contract the "
            "tests/faults suite gates in CI."
        ),
    )
    _add_common(chaos)
    chaos.add_argument(
        "--plan-only", action="store_true",
        help="print the fault plan JSON for this seed and exit",
    )
    chaos.add_argument(
        "--shards", type=int, default=None,
        help="hash-partition the concept index into N shards",
    )
    chaos.add_argument("--agents", type=int, default=12,
                       help="carrental: number of agents")
    chaos.add_argument("--days", type=int, default=4,
                       help="carrental: number of days")
    chaos.add_argument("--batch-docs", type=int, default=16,
                       help="documents per ingestion micro-batch")
    chaos.add_argument(
        "--workers", type=int, default=0,
        help="workers for pure pipeline stages during the drill "
             "(0 = serial)",
    )
    chaos.add_argument(
        "--backend", choices=BACKEND_KINDS, default="thread",
        help="execution backend behind --workers (the crash/resume "
             "contract holds on every backend)",
    )
    chaos.add_argument("--window", type=int, default=3,
                       help=argparse.SUPPRESS)
    chaos.set_defaults(func=cmd_chaos)

    prop = sub.add_parser(
        "prop",
        help="replay seeded differential property checks",
        description=(
            "Generates a random corpus/config from --seed (doc "
            "counts, channels, shard counts, batch sizes, worker "
            "counts, backends) and asserts every equivalence the "
            "repo guarantees on it: sharded == single-index, every "
            "backend == serial, stream crash/resume == uninterrupted, "
            "traced == untraced. The tests/prop suite runs 25 seeds "
            "of exactly this oracle in CI; a failing seed there "
            "prints the matching 'bivoc prop --seed N' line."
        ),
    )
    prop.add_argument(
        "--seed", type=int, default=0,
        help="first property seed to replay",
    )
    prop.add_argument(
        "--count", type=int, default=1,
        help="number of consecutive seeds to run (default: 1)",
    )
    prop.add_argument(
        "--verbose", action="store_true",
        help="print each seed's generated case before checking it",
    )
    prop.set_defaults(func=cmd_prop)

    lint = sub.add_parser(
        "lint",
        help="run the project's static-analysis guardrails",
        description=(
            "Checks the layer contract, import cycles, determinism "
            "rules (derive_rng discipline, no wall clock), paper-"
            "citation validity and general hygiene. Exit code 0 means "
            "clean at the chosen --fail-on threshold."
        ),
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or package directories (default: src/repro)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    lint.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run exclusively",
    )
    lint.add_argument(
        "--ignore", default=None,
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--exclude", default="__pycache__",
        help="comma-separated path components to skip "
             "(default: __pycache__)",
    )
    lint.add_argument(
        "--fail-on", choices=("error", "warning"), default="warning",
        help="lowest severity that makes the exit code non-zero",
    )
    lint.add_argument(
        "--effects", action="store_true",
        help="also run the interprocedural purity/effect checks on "
             "package directories (same as 'bivoc effects')",
    )
    lint.set_defaults(func=cmd_lint)

    effects = sub.add_parser(
        "effects",
        help="check stage purity declarations against inferred effects",
        description=(
            "Builds a project-wide call graph, infers per-function "
            "effects (mutation, I/O, wall clock, unseeded RNG, "
            "ambient observability) to a fixpoint, and verifies every "
            "Stage subclass and FunctionStage(..., pure=...) "
            "construction against its declared purity — mis-declared "
            "pure stages are concurrency bugs under the parallel "
            "executor. Exit code 0 means the purity contract holds."
        ),
    )
    effects.add_argument(
        "paths", nargs="*",
        help="package root directories (default: src/repro)",
    )
    effects.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    effects.add_argument(
        "--exclude", default="__pycache__",
        help="comma-separated path components to skip "
             "(default: __pycache__)",
    )
    effects.add_argument(
        "--fail-on", choices=("error", "warning"), default="error",
        help="lowest severity that makes the exit code non-zero "
             "(default: error — advisories do not gate)",
    )
    effects.add_argument(
        "--explain", action="store_true",
        help="list every checked stage with its verdict and inferred "
             "effect set",
    )
    effects.set_defaults(func=cmd_effects)

    trace = sub.add_parser(
        "trace",
        help="run any subcommand under the span tracer",
        description=(
            "Wraps another command with an active tracer + metrics "
            "registry (see repro.obs) and exports the spans. Options "
            "must come before the wrapped command: "
            "bivoc trace --format flame tables --source carrental"
        ),
    )
    trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="export path (default: TRACE_<command>.json[l])",
    )
    trace.add_argument(
        "--format", dest="trace_format",
        choices=("chrome", "jsonl", "flame"), default="chrome",
        help="export format: Chrome trace JSON (chrome://tracing / "
             "Perfetto), JSONL span log, or text flame summary",
    )
    trace.add_argument(
        "argv", nargs=argparse.REMAINDER,
        help="the command line to trace",
    )
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code.

    When the parsed command carries ``--trace PATH``, the run happens
    under a live tracer/metrics pair and a Chrome-trace JSON is
    written to PATH afterwards; the command's stdout and exit code are
    exactly what the untraced run would produce.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return args.func(args)
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        activated,
        write_chrome_trace,
    )

    tracer = Tracer()
    with activated(tracer, MetricsRegistry()):
        code = args.func(args)
    spans = tracer.finished()
    write_chrome_trace(spans, trace_path)
    print(f"trace: {len(spans)} spans -> {trace_path} (chrome)")
    return code


if __name__ == "__main__":
    sys.exit(main())
