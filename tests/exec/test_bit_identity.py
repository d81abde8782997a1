"""The process pool is ``==`` to inline: pipeline, churn flow, stream.

The acceptance bar of the execution layer, on both synthetic corpora
and shard counts 1, 2, 4 and 7 (7 deliberately divides neither corpus
evenly): the call-center pipeline, the churn flow and a crash/resumed
stream run on a process pool are *bit-identical* (``==``, never
approximate) to the inline run.  These are the surfaces that take a
pool; analytics and serving run inline only.  The randomized sweep
over the same invariants lives in ``tests/prop``; these are the
pinned, named configurations.
"""

import pytest

from repro.cleaning.stage import CleaningStage
from repro.core import BIVoCConfig
from repro.core.pipeline import BIVoCSystem
from repro.core.usecases.churn import (
    StreamAnnotateStage,
    churn_driver_engine,
    run_churn_study,
)
from repro.engine import Document, PipelineRunner
from repro.exec import ProcessBackend
from repro.mining.stage import ConceptIndexStage
from repro.obs import MetricsRegistry, activated
from repro.prop import PropCase
from repro.prop.harness import run_stream_reference, run_stream_resumed
from repro.stream.checkpoint import index_to_state
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.telecom import TelecomConfig, generate_telecom

SHARD_COUNTS = [1, 2, 4, 7]
WORKERS = 2


@pytest.fixture(scope="module")
def pool():
    """One warm process pool shared by every pooled run here."""
    with ProcessBackend(WORKERS) as backend:
        yield backend


@pytest.fixture(scope="module")
def car_corpus():
    """One small car-rental corpus shared by every run."""
    return generate_car_rental(
        CarRentalConfig(
            n_agents=5,
            n_days=3,
            calls_per_agent_per_day=3,
            n_customers=50,
            seed=13,
        )
    )


@pytest.fixture(scope="module")
def telecom_corpus():
    """A small telecom corpus (churn study and stage graph)."""
    return generate_telecom(
        TelecomConfig(scale=0.01, n_customers=150, seed=13)
    )


class TestPipelineBitIdentity:
    """The call-center pipeline and the churn flow, pooled == inline."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_carrental_pipeline(self, car_corpus, pool, shards):
        # 45 calls in batches of 8: the pure stages really fan out.
        system = BIVoCSystem(
            BIVoCConfig(
                use_asr=False, link_mode="content", batch_size=8,
                shards=shards,
            )
        )
        inline = system.process_call_center(car_corpus)
        pooled = system.process_call_center(car_corpus, backend=pool)
        assert any(s.parallel for s in pooled.stage_report.stages)
        assert index_to_state(pooled.index) == index_to_state(
            inline.index
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_telecom_stage_graph(self, telecom_corpus, pool, shards):
        messages = telecom_corpus.messages[:400]

        def build_and_run(backend=None):
            stages = [
                CleaningStage(),
                StreamAnnotateStage(churn_driver_engine()),
                ConceptIndexStage(on_duplicate="replace", shards=shards),
            ]
            documents = [
                Document(
                    doc_id=message.message_id,
                    channel=message.channel,
                    text=message.raw_text,
                    artifacts={
                        "index_fields": {"channel": message.channel},
                        "timestamp": message.month,
                    },
                )
                for message in messages
            ]
            PipelineRunner(
                stages, batch_size=32, backend=backend
            ).run(documents)
            return index_to_state(stages[-1].index)

        assert build_and_run(backend=pool) == build_and_run()

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_churn_study(self, telecom_corpus, pool, shards):
        def outcome(backend=None):
            result = run_churn_study(
                telecom_corpus, channel="sms", batch_size=16,
                shards=shards, backend=backend,
            )
            return (
                result.unlinked_fraction,
                result.train_churner_fraction,
                result.detection_rate,
                [
                    (s.name, s.docs_in, s.docs_out, s.discarded)
                    for s in result.stage_report.stages
                ],
                index_to_state(result.driver_index),
            )

        pooled = outcome(backend=pool)
        assert pooled == outcome()


class TestStreamBitIdentity:
    """Crash/resume on the pool converges to the inline run."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_crash_resume_equals_uninterrupted(self, tmp_path, shards):
        # Micro-batches of 20 split into runner batches of 8: every
        # micro-batch fans out across the pool.
        case = PropCase(
            seed=99, n_docs=60, channels=("call", "email"),
            shards=shards, batch_size=8, workers=WORKERS,
            batch_docs=20, checkpoint_interval=1, crash_after=2,
        )
        expected = run_stream_reference(case)
        metrics = MetricsRegistry()
        with activated(None, metrics):
            resumed = run_stream_resumed(case, str(tmp_path))
        assert metrics.snapshot()["counters"]["exec.map.process"] > 0
        assert resumed == expected
