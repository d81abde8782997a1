"""Every backend is ``==`` to serial: analytics, pipeline, stream, serve.

The acceptance bar of the execution-backend layer, on both synthetic
corpora and shard counts 1, 2, 4 and 7 (7 deliberately divides
neither corpus evenly): for every backend kind, the mining analytics,
the full pipeline, a crash/resumed stream and served query results
are *bit-identical* (``==``, never approximate) to the serial run.
The randomized sweep over the same invariants lives in ``tests/prop``;
these are the pinned, named configurations.
"""

import pytest

from repro.annotation.dictionary import DictionaryEntry, DomainDictionary
from repro.annotation.domains import CHURN_DRIVER_SURFACES
from repro.annotation.matcher import AnnotationEngine
from repro.core import BIVoCConfig
from repro.core.pipeline import BIVoCSystem
from repro.exec import BACKEND_KINDS, make_backend
from repro.mining.assoc2d import associate
from repro.mining.index import ConceptIndex
from repro.mining.olap import concept_cube
from repro.mining.relfreq import relative_frequency
from repro.mining.trends import emerging_concepts, trend_series
from repro.prop import PropCase
from repro.prop.harness import run_stream_reference, run_stream_resumed
from repro.serve import QueryEngine
from repro.serve.wire import result_to_wire
from repro.stream import EpochStore
from repro.stream.checkpoint import index_to_state
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.telecom import TelecomConfig, generate_telecom

from tests.mining.test_algebra_equivalence import reshard
from tests.serve.corpus import make_consumer, make_pairs

SHARD_COUNTS = [1, 2, 4, 7]
WORKERS = 2


@pytest.fixture(scope="module")
def car_corpus():
    """One small car-rental corpus shared by every backend run."""
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
def car_index(car_corpus):
    """Concept index from the serial full-pipeline run."""
    system = BIVoCSystem(
        BIVoCConfig(use_asr=False, link_mode="content", workers=0)
    )
    return system.process_call_center(car_corpus).index


@pytest.fixture(scope="module")
def telecom_messages():
    """A bounded slice of the telecom corpus (pipeline-cheap)."""
    corpus = generate_telecom(
        TelecomConfig(scale=0.01, n_customers=150, seed=13)
    )
    return corpus.messages[:400]


@pytest.fixture(scope="module")
def telecom_index(telecom_messages):
    """Churn-driver index built directly from the message slice."""
    dictionary = DomainDictionary()
    for driver, surfaces in CHURN_DRIVER_SURFACES.items():
        for surface in surfaces:
            dictionary.add(
                DictionaryEntry(surface, driver, "churn driver")
            )
    engine = AnnotationEngine(dictionary=dictionary)
    index = ConceptIndex()
    for message in telecom_messages:
        index.add(
            message.message_id,
            annotated=engine.annotate(message.clean_text),
            fields={"channel": message.channel},
            timestamp=message.month,
        )
    return index


@pytest.fixture(
    scope="module", params=["carrental", "telecom"]
)
def corpus_pair(request, car_index, telecom_index):
    """(single index, analytics spec) per corpus."""
    if request.param == "carrental":
        return car_index, {
            "focus": [("field", "call_type", "unbooked")],
            "candidates": ("concept", "place"),
            "rows": ("concept", "place"),
            "cols": ("concept", "vehicle type"),
            "trend_dim": ("concept", "vehicle type"),
            "cube_dims": [
                ("concept", "place"), ("field", "call_type"),
            ],
        }
    return telecom_index, {
        "focus": [("field", "channel", "email")],
        "candidates": ("concept", "churn driver"),
        "rows": ("concept", "churn driver"),
        "cols": ("field", "channel"),
        "trend_dim": ("concept", "churn driver"),
        "cube_dims": [
            ("concept", "churn driver"), ("field", "channel"),
        ],
    }


def _analytics(index, spec, backend=None):
    """Every mining analytic as comparable values."""
    table = associate(
        index, spec["rows"], spec["cols"], backend=backend
    )
    cube = concept_cube(index, spec["cube_dims"], backend=backend)
    return {
        "relfreq": relative_frequency(
            index, spec["focus"], spec["candidates"], backend=backend
        ),
        "assoc_cells": table.cells(),
        "assoc_shares": table.row_share_matrix(),
        "trends": [
            trend_series(index, key, backend=backend)
            for key in index.keys_of_dimension(spec["trend_dim"])
        ],
        "emerging": emerging_concepts(
            index, spec["trend_dim"], min_total=1, backend=backend
        ),
        "cube_cells": cube.cells(include_empty_coordinates=True),
    }


class TestAnalyticsBitIdentity:
    """All analytics x shards {1,2,4,7} x backends, both corpora."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_backend_equals_serial(self, corpus_pair, shards, kind):
        single, spec = corpus_pair
        expected = _analytics(single, spec)
        sharded = reshard(single, shards)
        with make_backend(kind, workers=WORKERS) as backend:
            actual = _analytics(sharded, spec, backend=backend)
        assert actual == expected


class TestPipelineBitIdentity:
    """The full call-center pipeline per backend equals serial."""

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_carrental_pipeline(self, car_corpus, car_index, kind):
        system = BIVoCSystem(
            BIVoCConfig(use_asr=False, link_mode="content")
        )
        with make_backend(kind, workers=WORKERS) as backend:
            result = system.process_call_center(car_corpus, backend=backend)
        assert index_to_state(result.index) == index_to_state(car_index)

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    @pytest.mark.parametrize("shards", [1, 4])
    def test_telecom_stage_graph(self, telecom_messages, kind, shards):
        from repro.cleaning.stage import CleaningStage
        from repro.core.usecases.churn import (
            StreamAnnotateStage,
            churn_driver_engine,
        )
        from repro.engine import Document, PipelineRunner
        from repro.mining.stage import ConceptIndexStage

        def build_and_run(backend=None, shard_count=0):
            stages = [
                CleaningStage(),
                StreamAnnotateStage(churn_driver_engine()),
                ConceptIndexStage(
                    on_duplicate="replace", shards=shard_count
                ),
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
                for message in telecom_messages
            ]
            PipelineRunner(
                stages, batch_size=32, backend=backend
            ).run(documents)
            return index_to_state(stages[-1].index)

        expected = build_and_run(shard_count=shards)
        with make_backend(kind, workers=WORKERS) as backend:
            actual = build_and_run(backend=backend, shard_count=shards)
        assert actual == expected


class TestStreamBitIdentity:
    """Crash/resume under each backend converges to the serial run."""

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    @pytest.mark.parametrize("shards", [1, 4, 7])
    def test_crash_resume_equals_uninterrupted(
        self, tmp_path, kind, shards
    ):
        case = PropCase(
            seed=99, n_docs=60, channels=("call", "email"),
            shards=shards, batch_size=8, workers=WORKERS,
            backend=kind, batch_docs=7, checkpoint_interval=2,
            crash_after=2,
        )
        expected = run_stream_reference(case)
        resumed = run_stream_resumed(case, str(tmp_path))
        assert resumed == expected


SERVE_QUERIES = [
    {"kind": "assoc2d", "rows": ["field", "city"],
     "cols": ["field", "car"]},
    {"kind": "relfreq", "focus": [["field", "city", "boston"]],
     "candidates": ["field", "car"]},
    {"kind": "trends", "key": ["field", "car", "suv"]},
    {"kind": "cube",
     "dimensions": [["field", "city"], ["field", "channel"]]},
]


class TestServedQueryBitIdentity:
    """Served answers per backend equal the serial engine's."""

    @pytest.fixture(scope="class", params=SHARD_COUNTS)
    def epochs(self, request):
        store = EpochStore(history=None)
        consumer = make_consumer(
            make_pairs(), shards=request.param, epochs=store
        )
        consumer.run()
        return store

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_backend_engine_equals_serial_engine(self, epochs, kind):
        serial = QueryEngine(epochs)
        with make_backend(kind, workers=WORKERS) as backend, QueryEngine(
            epochs, backend=backend
        ) as engine:
            for payload in SERVE_QUERIES:
                expected = serial.query(payload)
                actual = engine.query(payload)
                assert actual.epoch == expected.epoch
                assert result_to_wire(
                    actual.kind, actual.value
                ) == result_to_wire(expected.kind, expected.value)
