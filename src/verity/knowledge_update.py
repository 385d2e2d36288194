"""Harvests new triples from claims judged Real and merges them into the graph.

Extraction reuses both modes from :mod:`verity.kg_builder` over a composed
text: the claim plus the Q&A steps of the reasoning paths that agreed with
the Real verdict, each step once. Paths that concluded Fake are excluded so
contradicted reasoning is not reintroduced.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import ValidationError
from .gateway import Gateway, Steps, drive
from .kg_builder import SourceDocument, document_steps
from .kg_store import KnowledgeGraph, Triple
from .mcts import ActionKind, ReasoningPath
from .verdict import Verdict

log = logging.getLogger(__name__)


@dataclass
class UpdateStats:
    added: int = 0
    duplicates: int = 0
    rejected: int = 0


def update_steps(claim_id: str, claim: str, paths: list[ReasoningPath],
                 seed: int = 0) -> Steps:
    """``extract_new_knowledge`` as a step generator, its requests at
    ``seed``.

    It reads no graph. ``run_detection`` chains it after a claim's search
    that ends Real, with the engine's seed, so it may run while its claim
    runs ahead. Between its two waves it yields the ``GraphWrite`` of
    ``document_steps``."""
    parts = [claim]
    for path in paths:
        if path.verdict != Verdict.REAL:
            continue
        for action, text in path.steps:
            if action in (ActionKind.A1, ActionKind.A2):
                parts.append(text)
    doc = SourceDocument(id=claim_id, body="\n".join(dict.fromkeys(parts)),
                         trusted=True)
    triples, dropped = yield from document_steps(doc, seed)
    if dropped:
        log.warning("claim %s: %d extraction drops during knowledge update",
                    claim_id, dropped)
    return triples


def extract_new_knowledge(claim_id: str, claim: str, paths: list[ReasoningPath],
                          gateway: Gateway, seed: int = 0) -> list[Triple]:
    """Triples extracted from the claim text plus agreeing-path transcripts.

    Callers invoke this only for claims whose final verdict is Real; an empty
    agreeing-path set degrades to extraction from the claim text alone.
    Paths share their root-side steps, so the document keeps each line's
    first occurrence only. It drives ``update_steps`` alone through
    ``gateway``; ``run_detection`` chains ``update_steps`` after the
    claim's search instead, so that a claim run ahead can begin its
    update early.
    """
    return drive(update_steps(claim_id, claim, paths, seed), gateway)


def apply_update(graph: KnowledgeGraph, new_triples: list[Triple],
                 claim_id: str = "") -> UpdateStats:
    """Insert each triple; dedup keeps the graph strictly monotone.

    A triple the graph rejects as invalid is counted in ``rejected``; any
    other error propagates.
    """
    stats = UpdateStats()
    for triple in new_triples:
        try:
            inserted = graph.add(triple.subject.surface, triple.relation,
                                 triple.object.surface,
                                 source_id=claim_id or triple.source_id)
        except ValidationError:
            stats.rejected += 1
            continue
        if inserted:
            stats.added += 1
        else:
            stats.duplicates += 1
    return stats
