"""Configuration for the assembled BIVoC system."""

from dataclasses import dataclass

from repro.exec import BACKEND_KINDS


@dataclass(frozen=True)
class BIVoCConfig:
    """Knobs of the end-to-end pipeline.

    ``use_asr`` routes call audio (reference transcripts) through the
    simulated recogniser; with it off the pipeline consumes reference
    text directly (the upper bound the ablation benches compare
    against).

    ``link_mode`` selects how transcripts are joined to warehouse
    records: ``"content"`` runs the entity-linking engine over the
    identity mentions, restricted to the calls of the known agent/day
    (the recording system always knows which agent took the call and
    when); ``"metadata"`` uses the oracle call id, modelling a site
    where CTI metadata survives.
    """

    use_asr: bool = True
    link_mode: str = "content"
    asr_seed: int = 1001
    lm_sample_size: int = 30
    min_link_score: float = 0.3
    # Second-pass entity-constrained re-decoding (paper SecIV-A): name
    # slots are restricted to the top-N warehouse identities retrieved
    # with the first pass, plus the agent roster.
    two_pass: bool = False
    two_pass_top_n: int = 5
    # Engine execution knobs: documents flow through the stage graph in
    # batches of ``batch_size``.  With ``workers`` > 1,
    # ``run_insight_analysis`` builds one backend of kind ``backend``
    # ("serial" / "thread" / "process") and passes it to the pipeline
    # and the analytics (bit-identical to serial on every backend — see
    # repro.engine.runner and repro.exec).
    batch_size: int = 64
    workers: int = 0
    backend: str = "thread"
    # Concept-index layout: 0 keeps the single in-memory index, a
    # positive count hash-partitions it into that many shards and the
    # mining analytics run per-shard partials merged exactly
    # (bit-identical — see repro.mining.algebra).
    shards: int = 0

    def __post_init__(self):
        if self.link_mode not in ("content", "metadata"):
            raise ValueError(
                f"link_mode must be 'content' or 'metadata', "
                f"got {self.link_mode!r}"
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.backend not in BACKEND_KINDS:
            raise ValueError(
                f"backend must be one of {list(BACKEND_KINDS)}, "
                f"got {self.backend!r}"
            )
        if self.shards < 0:
            raise ValueError("shards must be >= 0")
