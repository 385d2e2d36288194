"""Top-K knowledge retrieval for a sub-question.

Pipeline: extract the question's entities (``kg_builder.entity_steps``,
the question read as a document), match them exactly against the graph,
take the one-hop subgraph, and when the candidate set exceeds the budget
ask the model to rank candidate indices (never to regenerate triples)
before truncating to K. ``retrieval_steps`` is the pipeline as a step
generator (see :func:`verity.gateway.drive`), which the search runs inside
an answer step; ``retrieve_context`` drives it through a gateway.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import ValidationError
from .gateway import (Gateway, GraphRead, LLMRequest, PromptKind, Steps,
                      drive)
from .kg_builder import SourceDocument, entity_steps
from .kg_store import KnowledgeGraph, Triple

log = logging.getLogger(__name__)

# The ranking prompt is capped to keep it inside a model context budget.
RANK_CANDIDATE_CAP = 50


@dataclass
class RetrievalResult:
    question: str
    matched_keys: set[str] = field(default_factory=set)
    candidates: list[Triple] = field(default_factory=list)
    selected: list[Triple] = field(default_factory=list)
    ranked_by_llm: bool = False


def render_triples(triples: list[Triple]) -> str:
    if not triples:
        return "(none)"
    return "\n".join(f"({t.subject.surface}; {t.relation}; {t.object.surface})"
                     for t in triples)


def render_candidates(triples: list[Triple]) -> str:
    return "\n".join(
        f"{i}: ({t.subject.surface}; {t.relation}; {t.object.surface})"
        for i, t in enumerate(triples))


def retrieval_steps(question: str, graph: KnowledgeGraph, k: int,
                    seed: int = 0) -> Steps:
    """``retrieve_context`` as a step generator, its requests at ``seed``.

    Once it knows the question's entities, just before it reads ``graph``,
    it yields a ``GraphRead`` of their keys: the read returns the triples
    that have one of them as subject or object, so only an insert of such
    a triple can change it.
    """
    if k < 1:
        raise ValidationError("retrieval cutoff K must be >= 1")
    entities = yield from entity_steps(SourceDocument("question", question),
                                       seed)
    keys = frozenset(e.key for e in entities)
    yield GraphRead(keys)
    matched = graph.match_entities(keys)
    candidates = graph.one_hop_subgraph(matched)
    result = RetrievalResult(question, matched, candidates)
    if len(candidates) <= k:
        result.selected = list(candidates)
        return result
    pool = candidates[:RANK_CANDIDATE_CAP]
    [resp] = yield [LLMRequest(
        PromptKind.RANK_TRIPLES,
        {"question": question, "candidates": render_candidates(pool)},
        seed=seed)]
    order = resp.parsed if resp.parse_ok else None
    if order is not None and sorted(order) == list(range(len(pool))):
        result.selected = [pool[i] for i in order[:k]]
        result.ranked_by_llm = True
    else:
        log.warning("ranking output unusable for sub-question %r (%d "
                    "candidates ranked); falling back to insertion order",
                    question, len(pool))
        result.selected = candidates[:k]
    return result


def retrieve_context(question: str, graph: KnowledgeGraph, k: int,
                     gateway: Gateway) -> RetrievalResult:
    return drive(retrieval_steps(question, graph, k), gateway)
