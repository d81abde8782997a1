"""Workload ``churn``: the paper's Section VI churn study, emails and SMS.

Clean -> entity-link -> label -> featurize, then train and evaluate the
classifier (:func:`repro.core.usecases.churn.run_churn_study`), with the
churn-driver index the ``bivoc churn --shards 0`` path builds for the
analyst's queries.  In the traced run entity linking takes about 77% of
the program's time (with the queries) and there is no ASR and no pattern
annotation: the featurizer and the driver index annotate with
dictionary-only engines, 3%.  So a linking-kernel change shows here and
a change to the pattern pass must read "no change".
"""

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from repro.core.usecases.churn import (
    MessageLinkStage,
    build_churn_stages,
    run_churn_study,
)
from repro.synth.telecom import TelecomConfig, generate_telecom

from common import (
    Rep,
    index_digest,
    serve_index,
    session_schedules,
    sha256_of,
)
from queries import telecom_vocabulary

#: Corpus and query sizes per scale.  ``full`` is 0.5% of the paper's
#: message volume (about 1,700 emails and SMS, 3 s of study on a 2-core
#: x86 box), so that a run measures several units and reports their
#: median.  The warehouse keeps 2,000 customers, so linking one message
#: costs what it does at 1%.
SCALES = {
    "full": {"scale": 0.005, "customers": 2000,
             "sessions": 64, "distinct": 4, "per_session": 16},
    "tiny": {"scale": 0.001, "customers": 200,
             "sessions": 3, "distinct": 2, "per_session": 4},
}

#: Linking must stay high-precision: the study links only on
#: near-exact phone evidence.  Measured precision is 1.0 at this
#: commit on every seed tried; the floor leaves room for a rare
#: phone-number collision in the generated warehouse.
MIN_LINK_PRECISION = 0.95


@dataclass
class State:
    """Generated inputs, ready to run."""

    corpus: object
    schedule: list


def corpus_config(seed, scale):
    """The telecom generator config for ``seed``."""
    size = SCALES[scale]
    return TelecomConfig(
        scale=size["scale"], n_customers=size["customers"], seed=seed
    )


def _schedule(seed, scale, corpus):
    return session_schedules(
        seed, "churn", telecom_vocabulary(range(corpus.config.n_months)),
        SCALES[scale],
    )


def input_fingerprint(seed, scale):
    """Digest of the generated inputs (messages and query schedule)."""
    corpus = generate_telecom(corpus_config(seed, scale))
    return sha256_of({
        "messages": [
            (m.message_id, m.raw_text, m.sender_entity_id)
            for m in corpus.emails + corpus.sms
        ],
        "schedule": _schedule(seed, scale, corpus),
    })


def setup(seed, scale):
    """Generate the corpus and build the stage graph once (linker)."""
    corpus = generate_telecom(corpus_config(seed, scale))
    build_churn_stages(corpus)
    return State(corpus=corpus, schedule=_schedule(seed, scale, corpus))


@contextmanager
def _captured_links():
    """Record each message's linked entity id as the link stage sets it.

    The study keeps its documents to itself; this captures the one
    artifact the precision check needs, at the cost of one call per
    message.
    """
    links = []
    original = MessageLinkStage.__dict__["process_document"]

    def capture(stage, document):
        original(stage, document)
        links.append((document.get("message"), document.get("entity_id")))

    MessageLinkStage.process_document = capture
    try:
        yield links
    finally:
        MessageLinkStage.process_document = original


def run(state, obs=None):
    """One study plus the analyst's queries; returns a :class:`Rep`."""
    span = obs.span if obs is not None else lambda name: nullcontext()
    corpus = state.corpus
    with _captured_links() as links:
        started = time.perf_counter()
        with span("study:churn"):
            result = run_churn_study(corpus, channel="both", shards=0)
        elapsed = time.perf_counter() - started
    rep = Rep(docs=result.total_messages, doc_seconds=elapsed,
              stage_report=result.stage_report)

    sent = len(corpus.emails) + len(corpus.sms)
    clean = result.stage_report.stages[0]
    stats = result.cleaning_stats
    rep.check(
        "message counts conserved through clean", sent,
        result.total_messages == sent == clean.docs_in == stats.total
        and clean.docs_out + clean.discarded == clean.docs_in
        and clean.docs_out == stats.kept == len(links),
    )
    linked = [(m, e) for m, e in links if e is not None]
    correct = sum(1 for m, e in linked if m.sender_entity_id == e)
    precision = correct / len(linked) if linked else 0.0
    rep.notes["link_precision"] = precision
    rep.notes["linked_ratio"] = len(linked) / len(links) if links else 0.0
    rep.check(
        "linking precision vs true sender", len(links),
        bool(linked) and precision >= MIN_LINK_PRECISION,
    )

    serve_index(rep, result.driver_index, state.schedule, obs)

    report = result.message_report
    rep.digest = {
        "model": sha256_of({
            "detection_rate": result.detection_rate,
            "confusion": [report.true_positives, report.false_positives,
                          report.true_negatives, report.false_negatives],
            "flagged": sorted(result.flagged_customers),
            "test_churners": sorted(result.test_churners),
            "train": [result.train_messages,
                      result.train_churner_fraction],
        }),
        "links": sha256_of([(m.message_id, e) for m, e in links]),
        "cleaning": sha256_of([stats.total, stats.spam, stats.non_english,
                               stats.empty, stats.kept,
                               sorted(stats.by_reason.items())]),
        "index": index_digest(result.driver_index),
    }
    return rep
