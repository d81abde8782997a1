"""Workload ``calls``: the paper's call-center study (Fig 3, Tables III/IV).

The study runs as the library runs it by default: ``BIVoCConfig()``
sends every generated call through simulated ASR, record linking,
annotation, derivation and indexing, then mines the Table II/III/IV
associations (:func:`repro.core.run_insight_analysis`).  In the traced
run ASR takes about 58% of the program's time, annotation about 22%
and linking about 2% (the analyst's queries most of the rest), so an
ASR change shows here and nowhere else.  An analyst then explores the
finished index over HTTP.
"""

import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.core import BIVoCConfig, run_insight_analysis
from repro.core.pipeline import BIVoCSystem
from repro.serve import result_to_wire
from repro.synth.carrental import CarRentalConfig, generate_car_rental

from common import (
    Rep,
    index_digest,
    serve_index,
    session_schedules,
    sha256_of,
)
from queries import carrental_vocabulary

#: Corpus and query sizes per scale.  ``full`` is 10 agents x 4 days x
#: 5 calls = 200 calls (about 3 s of pipeline on a 2-core x86 box), so
#: that a run measures several units and reports their median.
SCALES = {
    "full": {"agents": 10, "days": 4, "calls": 5, "customers": 200,
             "sessions": 64, "distinct": 4, "per_session": 16},
    "tiny": {"agents": 3, "days": 2, "calls": 2, "customers": 30,
             "sessions": 3, "distinct": 2, "per_session": 4},
}


@dataclass
class State:
    """Generated inputs, ready to run."""

    corpus: object
    schedule: list
    call_ids: dict  # id(transcript.turns) -> call id (trace tagging)


def corpus_config(seed, scale):
    """The car-rental generator config for ``seed``."""
    size = SCALES[scale]
    return CarRentalConfig(
        n_agents=size["agents"], n_days=size["days"],
        calls_per_agent_per_day=size["calls"],
        n_customers=size["customers"], seed=seed,
    )


def input_fingerprint(seed, scale):
    """Digest of the generated inputs (corpus and query schedule)."""
    corpus = generate_car_rental(corpus_config(seed, scale))
    return sha256_of({
        "turns": [t.turns for t in corpus.transcripts],
        "schedule": _schedule(seed, scale, corpus),
    })


def _schedule(seed, scale, corpus):
    return session_schedules(
        seed, "calls", carrental_vocabulary(range(corpus.config.n_days)),
        SCALES[scale],
    )


def setup(seed, scale):
    """Generate the corpus and build the system once (LM, annotation
    engine, linker indexes), as a caller does before the first call."""
    corpus = generate_car_rental(corpus_config(seed, scale))
    BIVoCSystem(BIVoCConfig()).build_call_stages(corpus)
    return State(
        corpus=corpus,
        schedule=_schedule(seed, scale, corpus),
        call_ids={id(t.turns): t.call_id for t in corpus.transcripts},
    )


def run(state, obs=None):
    """One study plus the analyst's queries; returns a :class:`Rep`."""
    span = obs.span if obs is not None else lambda name: nullcontext()
    corpus = state.corpus
    started = time.perf_counter()
    with span("study:calls"):
        study = run_insight_analysis(corpus, BIVoCConfig())
    elapsed = time.perf_counter() - started
    analysis = study.analysis
    rep = Rep(docs=len(corpus.transcripts), doc_seconds=elapsed,
              stage_report=analysis.stage_report)

    call_ids = [t.call_id for t in corpus.transcripts]
    indexed = analysis.index.document_ids
    rep.check(
        "every call indexed exactly once", len(call_ids),
        len(indexed) == len(set(indexed)) == len(call_ids)
        and set(indexed) == set(call_ids),
    )
    correct = sum(
        1 for call in analysis.calls
        if call.linked_record is not None
        and call.linked_record.entity_id == call.call_id
    )
    linked = sum(1 for call in analysis.calls if call.linked_record)
    rep.notes["record_link_accuracy"] = correct / len(call_ids)
    rep.notes["record_link_precision"] = correct / linked if linked else 0.0

    serve_index(rep, analysis.index, state.schedule, obs)

    rep.digest = {
        "tables": sha256_of({
            name: result_to_wire("assoc2d", table)
            for name, table in [
                ("intent", study.intent_table),
                *study.utterance_tables.items(),
                ("location_vehicle", study.location_vehicle_table),
            ]
        }),
        "calls": sha256_of([
            (call.call_id, call.detected_intent, call.value_selling,
             call.discount,
             call.linked_record.entity_id if call.linked_record else None)
            for call in analysis.calls
        ]),
        "index": index_digest(analysis.index),
    }
    return rep
