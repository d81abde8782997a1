"""Tests for the use cases rebuilt on the staged pipeline engine:
per-stage instrumentation, the parallel-determinism guarantee, and the
empty-bodied-email regression."""

import pytest

from repro.core.config import BIVoCConfig
from repro.core.pipeline import BIVoCSystem
from repro.exec import ThreadBackend
from repro.core.usecases.churn import (
    link_evidence_text,
    run_churn_study,
)
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.telecom import Message, TelecomConfig, generate_telecom


@pytest.fixture(scope="module")
def car_corpus():
    return generate_car_rental(
        CarRentalConfig(
            n_agents=10,
            n_days=3,
            calls_per_agent_per_day=4,
            n_customers=100,
            seed=11,
        )
    )


@pytest.fixture(scope="module")
def telecom_corpus():
    return generate_telecom(TelecomConfig(scale=0.03, n_customers=1500))


def _call_signature(analysis):
    """Comparable projection of a call-center analysis."""
    return [
        (
            call.call_id,
            call.customer_opening,
            call.agent_text,
            call.full_text,
            None
            if call.linked_record is None
            else call.linked_record.values.get("customer_ref"),
            call.detected_intent,
            call.value_selling,
            call.discount,
        )
        for call in analysis.calls
    ]


class TestCallCenterStageGraph:
    def test_stage_report_covers_fig3_flow(self, car_corpus):
        system = BIVoCSystem(
            BIVoCConfig(use_asr=False, link_mode="content")
        )
        analysis = system.process_call_center(car_corpus)
        report = analysis.stage_report
        assert [s.name for s in report.stages] == [
            "turn-split",
            "compose",
            "record-link",
            "annotate",
            "derive",
            "index",
        ]
        n = len(car_corpus.transcripts)
        assert report.total_in == n
        assert report.total_out == n
        for stats in report.stages:
            assert stats.docs_in == n
            assert stats.discarded == 0
            assert stats.wall_time >= 0.0

    def test_asr_graph_swaps_ingest_stage(self, car_corpus):
        system = BIVoCSystem(
            BIVoCConfig(use_asr=True, link_mode="metadata")
        )
        analysis = system.process_call_center(car_corpus)
        assert analysis.stage_report.stages[0].name == "transcribe"
        assert not analysis.stage_report.stages[0].parallel

    def test_parallel_identical_to_serial(self, car_corpus):
        serial = BIVoCSystem(
            BIVoCConfig(use_asr=False, link_mode="content")
        ).process_call_center(car_corpus)
        with ThreadBackend(4) as backend:
            parallel = BIVoCSystem(
                BIVoCConfig(
                    use_asr=False,
                    link_mode="content",
                    batch_size=8,
                )
            ).process_call_center(car_corpus, backend=backend)
        # With >1 batch and pure stages, the executor actually engaged.
        assert any(
            s.parallel for s in parallel.stage_report.stages
        )
        assert _call_signature(serial) == _call_signature(parallel)
        assert serial.link_attempts == parallel.link_attempts
        assert serial.link_successes == parallel.link_successes
        assert len(serial.index) == len(parallel.index)

    def test_parallel_asr_identical_to_serial(self, car_corpus):
        """The impure transcribe stage must stay serial under workers,
        keeping the shared noise channel's draw order — and therefore
        the transcripts — bit-identical."""
        serial = BIVoCSystem(
            BIVoCConfig(use_asr=True, link_mode="content")
        ).process_call_center(car_corpus)
        with ThreadBackend(3) as backend:
            parallel = BIVoCSystem(
                BIVoCConfig(
                    use_asr=True,
                    link_mode="content",
                    batch_size=8,
                )
            ).process_call_center(car_corpus, backend=backend)
        assert _call_signature(serial) == _call_signature(parallel)


class TestChurnStageGraph:
    def test_stage_report_matches_funnel(self, telecom_corpus):
        result = run_churn_study(telecom_corpus, channel="email")
        report = result.stage_report
        assert [s.name for s in report.stages] == [
            "clean",
            "entity-link",
            "label",
            "featurize",
        ]
        clean = report.stage("clean")
        assert clean.docs_in == result.total_messages
        assert clean.discarded == (
            result.cleaning_stats.total - result.cleaning_stats.kept
        )
        # Unlinked messages are kept, not discarded (paper reports the
        # unlinkable fraction): downstream stages see every survivor.
        assert report.stage("entity-link").discarded == 0
        assert report.total_out == clean.docs_out

    def test_parallel_identical_to_serial(self, telecom_corpus):
        serial = run_churn_study(telecom_corpus, channel="sms")
        with ThreadBackend(4) as backend:
            parallel = run_churn_study(
                telecom_corpus, channel="sms", backend=backend,
                batch_size=16,
            )
        assert any(
            s.parallel for s in parallel.stage_report.stages
        )
        assert serial.detection_rate == parallel.detection_rate
        assert serial.unlinked_fraction == parallel.unlinked_fraction
        assert serial.flagged_customers == parallel.flagged_customers
        assert serial.test_churners == parallel.test_churners
        assert serial.train_messages == parallel.train_messages


class TestEmptyBodiedEmailRegression:
    """`_prepare_messages` used to crash with IndexError on
    ``raw_text.splitlines()[0]`` for an empty-bodied email."""

    def test_link_evidence_guards_empty_raw_text(self):
        assert link_evidence_text("email", "cleaned", "") == "cleaned"

    def test_link_evidence_keeps_header_line(self):
        evidence = link_evidence_text(
            "email", "body text", "From: jane doe\nbody text"
        )
        assert evidence == "body text From: jane doe"

    def test_non_email_channels_unchanged(self):
        assert link_evidence_text("sms", "short txt", "") == "short txt"

    def test_study_survives_empty_bodied_email(self, telecom_corpus):
        corpus = telecom_corpus
        hollow = Message(
            message_id=10_000_000,
            channel="email",
            month=0,
            raw_text="",
            clean_text="",
            sender_entity_id=None,
            from_churner=False,
        )
        corpus.emails.append(hollow)
        try:
            result = run_churn_study(corpus, channel="email")
        finally:
            corpus.emails.remove(hollow)
        assert result.total_messages >= 1
