"""Top-K knowledge retrieval for a sub-question.

Pipeline: link the question to the graph lexically (every span of the
normalized question that lies between word boundaries and is no longer
than the graph's longest key, looked up in the graph's entity index, with
no model call), take the one-hop subgraph, and when the candidate set
exceeds the budget ask the model to rank candidate indices (never to
regenerate triples) before truncating to K.
``retrieval_steps`` is the pipeline as a step generator (see
:func:`verity.gateway.drive`), which the search runs inside an answer step;
``retrieve_context`` drives it through a gateway.

The linker finds a graph key only where the question spells it out, up to
case and whitespace. A paraphrase ("the U.S." for "united states") links
nothing.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator

from .errors import ValidationError
from .gateway import (Gateway, GraphRead, LLMRequest, PromptKind, Steps,
                      drive)
from .kg_store import KnowledgeGraph, Triple, normalize_entity

log = logging.getLogger(__name__)

# The ranking prompt is capped to keep it inside a model context budget.
RANK_CANDIDATE_CAP = 50
# Where a span may start and end: no word character just before, or just
# after.
_STARTS = re.compile(r"(?<!\w)")
_ENDS = re.compile(r"(?!\w)")


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


def word_spans(text: str, longest: int) -> Iterator[str]:
    """Every span of ``text`` of at most ``longest`` characters that starts
    and ends on a word boundary: no word character just before it or just
    after it.

    These are exactly the places where the scan ``(?<!\\w)key(?!\\w)``
    can match a key of at most ``longest`` characters in ``text``. The
    spans are made one at a time, and each start tries only the ends
    within ``longest`` characters, so the work grows with the length of
    ``text``, not with its square.
    """
    ends = [m.start() for m in _ENDS.finditer(text)]
    for m in _STARTS.finditer(text):
        i = m.start()
        for j in ends[bisect_right(ends, i):bisect_right(ends, i + longest)]:
            yield text[i:j]


def retrieval_steps(question: str, graph: KnowledgeGraph, k: int,
                    seed: int = 0) -> Steps:
    """``retrieve_context`` as a step generator, its ranking request at
    ``seed``.

    Its first step, before it reads ``graph``, is a ``GraphRead`` of the
    normalized question. The read returns the triples whose subject or
    object key occurs in that text between word boundaries, so only an
    insert of a triple with such a key can change it, whether the key is in
    the graph yet or not. It then looks up the question's ``word_spans`` no
    longer than the graph's longest key.
    """
    if k < 1:
        raise ValidationError("retrieval cutoff K must be >= 1")
    text = normalize_entity(question)
    yield GraphRead(text)
    matched = graph.match_entities(word_spans(text, graph.longest_key))
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
