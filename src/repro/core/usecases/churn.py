"""Use case 2: churn prediction and analysis (paper Section VI).

The full study as a stage graph on the :mod:`repro.engine` runner:
clean the email/SMS corpus, link each message to its customer record
with the data-linking engine (the paper could not link ~18% of
emails), label training messages with the linked customer's churn
status, featurize, train a classifier on the imbalanced data, and
measure the churner detection rate on the held-out month at the
customer level ("we compared the number churners we were able to
predict against the actual churners for that month").
"""

from collections import defaultdict
from dataclasses import dataclass, field

from repro.churn.classifier import MultinomialNaiveBayes
from repro.churn.evaluation import evaluate_churn_classifier
from repro.churn.features import ChurnFeatureExtractor
from repro.churn.imbalance import undersample
from repro.cleaning.pipeline import CleaningPipeline
from repro.cleaning.stage import CleaningStage
from repro.engine import Document, MapStage, PipelineRunner
from repro.linking.single import EntityLinker


@dataclass
class ChurnStudyResult:
    """Everything the Section-VI bench reports."""

    channel: str
    cleaning_stats: object
    total_messages: int
    linked_messages: int
    unlinked_fraction: float
    train_messages: int
    train_churner_fraction: float
    detection_rate: float  # customer-level churner recall (paper: 53.6%)
    message_report: object  # message-level ChurnReport
    flagged_customers: set = field(default_factory=set)
    test_churners: set = field(default_factory=set)
    stage_report: object = None  # engine PipelineReport for the run
    driver_index: object = None  # churn-driver concept index (opt-in)

    @property
    def customer_precision(self):
        """Of flagged customers, the share that truly churned."""
        if not self.flagged_customers:
            return 0.0
        correct = len(self.flagged_customers & self.test_churners)
        return correct / len(self.flagged_customers)


def analyse_churn_drivers(corpus, channel="email", spell_correct=False):
    """Relative prevalence of each churn driver among churner messages.

    The paper's business heads "agreed more or less on key drivers that
    affected churn"; this analysis quantifies them from VoC: for every
    driver category, the rate at which churner messages mention it
    versus non-churner messages.  Returns ``{driver: (churner_rate,
    other_rate, lift)}`` sorted by lift.
    """
    from repro.annotation.domains import (
        CHURN_DRIVER_SURFACES,
        build_telecom_engine,
    )

    engine = build_telecom_engine()
    pipeline = CleaningPipeline(spell_correct=spell_correct)
    messages = corpus.emails if channel == "email" else corpus.sms
    churner_counts = {driver: 0 for driver in CHURN_DRIVER_SURFACES}
    other_counts = {driver: 0 for driver in CHURN_DRIVER_SURFACES}
    n_churner = n_other = 0
    for message in messages:
        if message.sender_entity_id is None:
            continue
        cleaned = pipeline.clean(message.raw_text, channel=channel)
        if cleaned.discarded:
            continue
        document = engine.annotate(cleaned.text)
        if message.from_churner:
            n_churner += 1
        else:
            n_other += 1
        for driver in CHURN_DRIVER_SURFACES:
            if document.has_category(driver):
                if message.from_churner:
                    churner_counts[driver] += 1
                else:
                    other_counts[driver] += 1
    if n_churner == 0 or n_other == 0:
        raise RuntimeError("driver analysis needs both populations")
    analysis = {}
    for driver in CHURN_DRIVER_SURFACES:
        churner_rate = churner_counts[driver] / n_churner
        other_rate = other_counts[driver] / n_other
        lift = churner_rate / other_rate if other_rate else float("inf")
        analysis[driver] = (churner_rate, other_rate, lift)
    return dict(
        sorted(analysis.items(), key=lambda item: -item[1][2])
    )


def link_evidence_text(channel, cleaned_text, raw_text):
    """Text handed to the entity linker for one message.

    Emails carry identity evidence in their headers (the ``From:``
    line), so the raw message's first line is appended to the cleaned
    body.  An empty-bodied email has no lines at all — the historical
    code crashed with IndexError on ``splitlines()[0]`` there, so the
    lookup is guarded.
    """
    if channel != "email":
        return cleaned_text
    lines = raw_text.splitlines()
    if not lines:
        return cleaned_text
    return f"{cleaned_text} {lines[0]}"


class DriverAnnotateStage(MapStage):
    """Annotate cleaned messages with churn-driver concepts.

    Opt-in tail of the churn graph (see :func:`build_driver_index_stages`):
    tags each surviving message with the shared "churn driver" category
    and stages the index row (channel field + month time bucket) for
    the concept index stage that follows.
    """

    name = "annotate-drivers"

    def __init__(self, engine):
        """``engine`` is the telecom churn-driver AnnotationEngine."""
        self.engine = engine

    def process_document(self, document):  # bivoc: effects[mutates-param]
        """Write the annotated/index_fields/timestamp artifacts.

        Declared for ``bivoc effects``: ``AnnotationEngine.annotate``
        builds a fresh AnnotatedDocument from read-only dictionaries,
        so the hook only writes the document.
        """
        document.put(
            "annotated",
            self.engine.annotate(document.require("cleaned_text")),
        )
        document.put("index_fields", {"channel": document.channel})
        document.put("timestamp", document.require("message").month)


def churn_driver_engine():
    """The shared churn-driver :class:`AnnotationEngine`.

    One "churn driver" category over ``CHURN_DRIVER_SURFACES``, so
    trend and association analytics can rank the drivers against each
    other; shared by the batch churn graph and the telecom stream
    wiring in the CLI.
    """
    from repro.annotation.domains import CHURN_DRIVER_SURFACES
    from repro.annotation.dictionary import (
        DictionaryEntry,
        DomainDictionary,
    )
    from repro.annotation.matcher import AnnotationEngine

    dictionary = DomainDictionary()
    for driver, surfaces in CHURN_DRIVER_SURFACES.items():
        for surface in surfaces:
            dictionary.add(
                DictionaryEntry(surface, driver, "churn driver")
            )
    return AnnotationEngine(dictionary=dictionary)


class StreamAnnotateStage(MapStage):
    """Annotate streamed cleaned messages with churn-driver concepts.

    The streaming sibling of :class:`DriverAnnotateStage`: the stream
    source stages ``index_fields`` (and any time bucket) on its
    documents up front, so this hook writes only the annotation.  A
    module-level class — not a lambda ``FunctionStage`` — so the stage
    pickles into process-backend workers.
    """

    name = "annotate"

    def __init__(self, engine):
        """``engine`` is the churn-driver AnnotationEngine."""
        self.engine = engine

    def process_document(self, document):  # bivoc: effects[mutates-param]
        """Write the annotated artifact.

        Declared for ``bivoc effects``: ``AnnotationEngine.annotate``
        builds a fresh AnnotatedDocument from read-only dictionaries,
        so the hook only writes the document.
        """
        document.put(
            "annotated",
            self.engine.annotate(document.get("cleaned_text") or ""),
        )


def build_driver_index_stages(shards=0):
    """The opt-in churn-driver indexing tail of the churn graph.

    Returns ``[DriverAnnotateStage, ConceptIndexStage]``: annotate the
    surviving cleaned messages with the shared "churn driver" concept
    category and index them — into a hash-sharded index when
    ``shards`` > 0 — so the VoC mining analytics (emerging drivers,
    driver x channel association) run over the churn corpus through
    the partial-aggregate algebra.
    """
    from repro.mining.stage import ConceptIndexStage

    return [
        DriverAnnotateStage(churn_driver_engine()),
        ConceptIndexStage(shards=shards),
    ]


class MessageLinkStage(MapStage):
    """Link each cleaned message to a customer entity (or None).

    Unlinked messages are *kept* — the paper reports the unlinkable
    fraction (~18% of emails) and excludes them from training — so the
    stage writes ``entity_id = None`` instead of discarding.
    """

    name = "entity-link"

    def __init__(self, linker):
        """``linker`` is an EntityLinker over the customers table."""
        self.linker = linker

    def process_document(self, document):  # bivoc: effects[mutates-param]
        """Attach the linked customer's entity id artifact.

        Declared for ``bivoc effects``: ``EntityLinker.link`` scores
        candidates, and the only state it writes is its similarity
        memo, which never changes a score (racing threads store the
        same value), so the hook only writes the document.
        """
        evidence = link_evidence_text(
            document.channel,
            document.require("cleaned_text"),
            document.text,
        )
        result = self.linker.link(evidence)
        document.put(
            "entity_id",
            result.entity.entity_id if result.linked else None,
        )


class ChurnLabelStage(MapStage):
    """Label linked messages with the customer's churn status.

    Labels come from the *linked* customer, so linking errors propagate
    into label noise exactly as they would in production.
    """

    name = "label"

    def __init__(self, customers):
        """``customers`` is the warehouse customers table."""
        self.customers = customers

    def process_document(self, document):
        """Write the boolean ``label`` artifact (None when unlinked)."""
        entity_id = document.get("entity_id")
        if entity_id is None:
            document.put("label", None)
            return
        customer = self.customers.get(entity_id)
        document.put("label", bool(customer["churned"]))


class FeaturizeStage(MapStage):
    """Extract classifier features from the cleaned message text."""

    name = "featurize"

    def __init__(self, extractor=None):
        """``extractor`` defaults to the standard ChurnFeatureExtractor."""
        self.extractor = extractor or ChurnFeatureExtractor()

    def process_document(self, document):  # bivoc: effects[mutates-param]
        """Write the feature-Counter artifact.

        Declared for ``bivoc effects``: the extractor tokenises into a
        fresh Counter; only the document is written.
        """
        document.put(
            "features",
            self.extractor.extract(document.require("cleaned_text")),
        )


def build_churn_stages(corpus, pipeline=None, linker=None,
                       extractor=None):
    """The declarative stage graph for the churn message flow.

    clean → entity-link → label → featurize; returns the ordered stage
    list.  ``linker`` defaults to the paper's high-precision setting: a
    link must be confirmed by near-exact phone evidence, otherwise the
    sender is treated as unlinkable — "around 18% of emails could not
    be linked.  Most of these emails were from people who were not
    customers".  Phone numbers are far more discriminative than names
    (warehouses are full of exact name twins), so phone evidence is
    weighted up.
    """
    linker = linker or EntityLinker(
        corpus.database,
        "customers",
        min_score=0.8,
        weights={"phone": 4.0},
        candidate_limit=50,
        confirm={"phone": 0.85},
    )
    return [
        CleaningStage(pipeline or CleaningPipeline()),
        MessageLinkStage(linker),
        ChurnLabelStage(corpus.database.table("customers")),
        FeaturizeStage(extractor),
    ]


def _channelled_messages(corpus, channel):
    """``(channel, message)`` pairs for the requested channel(s)."""
    if channel == "email":
        return [("email", m) for m in corpus.emails]
    if channel == "sms":
        return [("sms", m) for m in corpus.sms]
    if channel == "both":
        # The paper's §VI setup: "We took emails and sms messages for
        # one month and identified potential churners based on these
        # communications" — both channels feed one classifier.
        return [("email", m) for m in corpus.emails] + [
            ("sms", m) for m in corpus.sms
        ]
    raise ValueError(f"unknown channel {channel!r}")


def run_churn_study(corpus, channel="email", split_month=None,
                    classifier=None, undersample_ratio=6.0,
                    threshold=0.5, spell_correct=False,
                    batch_size=64, shards=None, backend=None):
    """Run the churn study over one channel of a telecom corpus.

    ``split_month`` separates training history from the evaluation
    month (defaults to the corpus's last month).  ``batch_size`` and
    ``backend`` are the engine execution knobs: ``backend`` is a ready
    :class:`~repro.exec.ExecBackend` (``None`` runs inline), and
    parallel execution of pure stages is bit-identical to serial on
    every backend.

    ``shards`` opts into the churn-driver concept index
    (:func:`build_driver_index_stages`): ``None`` (the default) skips
    it, 0 builds a single index, a positive count a hash-sharded one;
    the built index lands on the result's ``driver_index``.
    """
    config = corpus.config
    if split_month is None:
        split_month = config.n_months - 1
    channelled = _channelled_messages(corpus, channel)
    stages = build_churn_stages(
        corpus, pipeline=CleaningPipeline(spell_correct=spell_correct)
    )
    driver_index_stage = None
    if shards is not None:
        driver_stages = build_driver_index_stages(shards=shards)
        driver_index_stage = driver_stages[-1]
        stages = stages + driver_stages
    cleaning_stage = stages[0]
    documents = [
        Document(
            doc_id=index,
            channel=message_channel,
            text=message.raw_text,
            artifacts={"message": message},
        )
        for index, (message_channel, message) in enumerate(channelled)
    ]
    result = PipelineRunner(
        stages, batch_size=batch_size, backend=backend
    ).run(documents)

    prepared = result.documents
    linked = [
        doc for doc in prepared if doc.get("entity_id") is not None
    ]
    unlinked_fraction = (
        1.0 - len(linked) / len(prepared) if prepared else 0.0
    )

    train_features = []
    train_labels = []
    test_rows = []  # (entity_id, features, actual_churner)
    for document in linked:
        message = document.get("message")
        if message.month < split_month:
            train_features.append(document.get("features"))
            train_labels.append(document.get("label"))
        else:
            test_rows.append(
                (
                    document.get("entity_id"),
                    document.get("features"),
                    document.get("label"),
                )
            )

    if not train_features or len(set(train_labels)) < 2:
        raise RuntimeError(
            "churn study needs linked training messages of both classes; "
            "increase the corpus scale"
        )

    model = classifier or MultinomialNaiveBayes()
    balanced_features, balanced_labels = undersample(
        train_features, train_labels, ratio=undersample_ratio
    )
    model.fit(balanced_features, balanced_labels)

    message_report = evaluate_churn_classifier(
        model,
        [features for _, features, _ in test_rows],
        [label for _, _, label in test_rows],
        threshold=threshold,
    )

    # Customer-level aggregation: a customer is predicted to churn when
    # any of their evaluation-month messages classifies positive.
    probabilities = model.predict_proba(
        [features for _, features, _ in test_rows]
    )
    flagged = set()
    by_customer = defaultdict(list)
    for (entity_id, _, _), probability in zip(test_rows, probabilities):
        by_customer[entity_id].append(probability)
        if probability >= threshold:
            flagged.add(entity_id)
    test_churners = {
        entity_id
        for entity_id, _, label in test_rows
        if label
    }
    detected = len(flagged & test_churners)
    detection_rate = (
        detected / len(test_churners) if test_churners else 0.0
    )
    return ChurnStudyResult(
        channel=channel,
        cleaning_stats=cleaning_stage.stats,
        total_messages=len(channelled),
        linked_messages=len(linked),
        unlinked_fraction=unlinked_fraction,
        train_messages=len(train_features),
        train_churner_fraction=(
            sum(train_labels) / len(train_labels)
        ),
        detection_rate=detection_rate,
        message_report=message_report,
        flagged_customers=flagged,
        test_churners=test_churners,
        stage_report=result.report,
        driver_index=(
            driver_index_stage.index
            if driver_index_stage is not None else None
        ),
    )
