"""The pipeline runner: batched stage execution with instrumentation.

:class:`PipelineRunner` executes a declared stage list over a corpus of
:class:`~repro.engine.document.Document` objects:

* the corpus is chunked into fixed-size batches, and each stage
  processes every live batch before the next stage starts (a stage
  barrier — downstream stages may rely on upstream artifacts existing
  for the whole corpus);
* per stage, the runner counts documents in / out / discarded and the
  stage's wall time, collected into a :class:`PipelineReport`;
* batches of *pure* stages (see
  :class:`~repro.engine.stage.Stage.pure`) are mapped across an
  execution backend (see :mod:`repro.exec`) with an order-preserving
  map; impure stages always run serially.  Because pure stages process
  documents independently and deterministically, parallel execution is
  bit-identical to serial execution on every backend — the determinism
  guarantee every paper artifact relies on.

The backend is one ready :class:`~repro.exec.ExecBackend` (or
``None`` for inline execution) passed at construction and warm-reused
across runs — worker spawn is paid once per backend, not once per
run.  The runner only borrows it: whoever called
:func:`~repro.exec.make_backend` closes it.

On backends that pickle tasks across a process boundary, each batch
ships inside a module-level :class:`_StageTask` envelope instead of a
span-opening closure; per-batch child spans are skipped there (the
parent tracer is unreachable from a worker process), which cannot
change results because observability is write-only.

Wall-time measurement is instrumentation only: it is reported, never
fed back into document flow, and the clock is injectable so tests (and
the ``no-wallclock-in-algo`` determinism argument) can substitute a
fake.

The runner is also the engine's observability anchor (see
:mod:`repro.obs`): every run opens a ``pipeline:run`` span, every
stage a ``stage:<name>`` span, and every batch a ``batch`` span
parented to its stage (explicitly, so the hierarchy survives the
thread-pool executor), while a metrics registry accumulates document
counters and per-stage wall-time histograms.  Both default to the
ambient collectors, which are no-ops unless a trace is active —
tracing never alters document flow, so traced and untraced runs are
bit-identical in outputs.
"""

import time
from dataclasses import dataclass, field

from repro.obs import get_metrics, get_tracer


class _StageTask:
    """Picklable envelope running one stage over one batch.

    Defined at module level (spawn-safe) and holding only the stage, so
    it crosses process boundaries whenever the stage itself pickles —
    which every pure stage must, to run on the process backend.
    """

    def __init__(self, stage):
        """``stage`` is the Stage instance to apply per batch."""
        self.stage = stage

    def __call__(self, batch):
        """One batch through the stage (same output contract)."""
        return self.stage.process(batch)


@dataclass
class StageStats:
    """Counters for one stage of one run."""

    name: str
    docs_in: int = 0
    docs_out: int = 0
    discarded: int = 0
    batches: int = 0
    wall_time: float = 0.0
    parallel: bool = False

    def to_json_dict(self):
        """Plain-dict form for machine-readable reports."""
        return {
            "stage": self.name,
            "docs_in": self.docs_in,
            "docs_out": self.docs_out,
            "discarded": self.discarded,
            "batches": self.batches,
            "wall_time_s": self.wall_time,
            "parallel": self.parallel,
        }


@dataclass
class PipelineReport:
    """Per-stage statistics for one :meth:`PipelineRunner.run`."""

    stages: list = field(default_factory=list)  # StageStats, in order
    total_in: int = 0
    total_out: int = 0
    wall_time: float = 0.0
    metrics: object = None  # metrics snapshot dict when observed

    def stage(self, name):
        """Stats for one stage by report name."""
        for stats in self.stages:
            if stats.name == name:
                return stats
        raise KeyError(f"no stage named {name!r} in this report")

    def to_json_dict(self):
        """Plain-dict form (suitable for ``json.dump``)."""
        out = {
            "total_in": self.total_in,
            "total_out": self.total_out,
            "wall_time_s": self.wall_time,
            "stages": [stats.to_json_dict() for stats in self.stages],
        }
        if self.metrics:
            out["metrics"] = self.metrics
        return out

    def render_text(self):
        """Human-readable per-stage funnel table."""
        from repro.util.tabletext import format_table

        rows = [
            [
                stats.name,
                str(stats.docs_in),
                str(stats.docs_out),
                str(stats.discarded),
                f"{stats.wall_time:.3f}s",
                "par" if stats.parallel else "ser",
            ]
            for stats in self.stages
        ]
        rows.append(
            [
                "total",
                str(self.total_in),
                str(self.total_out),
                str(self.total_in - self.total_out),
                f"{self.wall_time:.3f}s",
                "",
            ]
        )
        return format_table(
            ["stage", "in", "out", "drop", "wall", "mode"],
            rows,
            title="pipeline stages",
        )


@dataclass
class PipelineResult:
    """Outcome of one run: surviving documents, discards, report."""

    documents: list  # live documents, original corpus order
    discarded: list  # discarded documents, original corpus order
    report: PipelineReport

    def artifact_column(self, name, default=None):
        """One artifact across all surviving documents, in order."""
        return [doc.get(name, default) for doc in self.documents]


def _batched(items, size):
    """Chunk ``items`` into lists of at most ``size``."""
    return [items[start:start + size] for start in range(0, len(items), size)]


class PipelineRunner:
    """Executes a stage list over a document corpus.

    ``batch_size`` bounds the unit of work handed to each stage (and to
    each worker); ``backend`` is a ready
    :class:`~repro.exec.ExecBackend` across which pure stages fan out
    (``None`` runs every stage inline).  ``clock`` is the timing
    source for per-stage wall time (defaults to the monotonic
    performance counter); it is used for reporting only and never
    influences the documents.
    """

    def __init__(self, stages, batch_size=64, clock=None, tracer=None,
                 metrics=None, backend=None):
        """``stages`` is an ordered list of Stage instances.

        ``tracer``/``metrics`` override the ambient observability
        collectors for this runner (``None`` means "resolve the
        ambient slot at each run", which is how ``bivoc trace``
        reaches a runner built long before tracing was activated).

        ``backend`` is borrowed: the runner never closes it, so one
        backend can serve many runs — and the sharded analytics that
        follow them.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        names = [stage.stage_name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(
                f"stage names must be unique, got {names}"
            )
        self.stages = list(stages)
        self.batch_size = batch_size
        # Instrumentation-only clock (injectable; see module docstring).
        self._clock = clock if clock is not None else time.perf_counter
        self._tracer = tracer
        self._metrics = metrics
        self._backend = backend

    def close(self):
        """Nothing to release: the backend is borrowed, not owned."""
        return None

    def __enter__(self):
        """Context manager: the runner itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        """Context-manager exit: :meth:`close`."""
        self.close()
        return False

    def run(self, documents):
        """Run every stage over ``documents``; returns a result with
        surviving documents in corpus order plus the stage report.

        The runner's warm backend serves every parallel stage of every
        run; parallel output stays bit-identical to serial on all
        backends (order-preserving map, pure stages only).
        """
        return self._run(documents, self._backend)

    def _run(self, documents, backend):
        """The run body, executing parallel stages on ``backend``."""
        tracer = self._tracer if self._tracer is not None else get_tracer()
        metrics = (
            self._metrics if self._metrics is not None else get_metrics()
        )
        live = list(documents)
        all_discarded = []
        report = PipelineReport(total_in=len(live))
        run_started = self._clock()
        with tracer.span(
            "pipeline:run",
            category="engine",
            tags={"docs_in": len(live), "stages": len(self.stages)},
        ) as run_span:
            for stage in self.stages:
                live, stats = self._run_stage(
                    stage, live, tracer, backend
                )
                report.stages.append(stats)
                discarded_here = [doc for doc in live if doc.discarded]
                if discarded_here:
                    all_discarded.extend(discarded_here)
                    live = [doc for doc in live if not doc.discarded]
                stats.docs_out = len(live)
                stats.discarded = len(discarded_here)
                metrics.histogram("engine.stage_wall_s").observe(
                    stats.wall_time
                )
            run_span.tag("docs_out", len(live))
        report.total_out = len(live)
        report.wall_time = self._clock() - run_started
        metrics.counter("engine.runs").inc()
        metrics.counter("engine.docs_in").inc(report.total_in)
        metrics.counter("engine.docs_out").inc(report.total_out)
        metrics.counter("engine.docs_discarded").inc(len(all_discarded))
        report.metrics = metrics.snapshot() or None
        return PipelineResult(
            documents=live, discarded=all_discarded, report=report
        )

    def _run_stage(self, stage, live, tracer, backend):
        """Run one stage over all live documents, batched.

        ``backend`` is the runner's warm executor (None when the
        runner is serial); pure stages with more than one batch map
        across it.
        """
        batches = _batched(live, self.batch_size)
        use_parallel = (
            backend is not None
            and backend.can_fan_out()
            and stage.pure
            and len(batches) > 1
        )
        stats = StageStats(
            name=stage.stage_name,
            docs_in=len(live),
            batches=len(batches),
            parallel=use_parallel,
        )
        tags = {
            "docs_in": len(live),
            "batches": len(batches),
            "parallel": use_parallel,
        }
        if use_parallel:
            tags["backend"] = backend.kind
        with tracer.span(
            f"stage:{stage.stage_name}",
            category="engine",
            tags=tags,
        ) as stage_span:

            def process(index, batch):
                # Explicit parent: worker threads have no span stack,
                # so thread-local nesting alone would orphan batches.
                with tracer.span(
                    "batch",
                    category="engine",
                    tags={"batch": index, "docs": len(batch)},
                    parent=stage_span,
                ):
                    return stage.process(batch)

            started = self._clock()
            if use_parallel and backend.requires_pickling:
                # Across a process boundary the batch travels inside a
                # picklable envelope; per-batch child spans are skipped
                # (the parent tracer is unreachable from a worker), and
                # because observability is write-only, skipping them
                # cannot change any document.  Order preservation keeps
                # output identical to serial.
                out_batches = backend.map(
                    _StageTask(stage),
                    batches,
                    label=f"stage:{stage.stage_name}",
                )
            elif use_parallel:
                # Order-preserving map: the backend yields results in
                # submission order, so output order (and therefore
                # every downstream computation) matches serial
                # execution exactly.
                out_batches = backend.map(
                    process,
                    range(len(batches)),
                    batches,
                    label=f"stage:{stage.stage_name}",
                )
            else:
                out_batches = [
                    process(index, batch)
                    for index, batch in enumerate(batches)
                ]
            stats.wall_time = self._clock() - started
        out = []
        for batch_in, batch_out in zip(batches, out_batches):
            if batch_out is None or len(batch_out) != len(batch_in):
                raise ValueError(
                    f"stage {stage.stage_name!r} must return its batch "
                    f"(same length); discards are flagged, not dropped"
                )
            out.extend(batch_out)
        for document in out:
            document.provenance = document.provenance + (
                stage.stage_name,
            )
        return out, stats
