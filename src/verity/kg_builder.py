"""Builds the initial knowledge graph from trusted source texts.

Two complementary extraction modes run over every document: entity-centered
relation extraction (the relation wording may be generated, not quoted) and
event-centered triple extraction where subjects and objects can be
multi-word phrases such as times and places.

A document's extraction takes two steps, in dependency order. The first
asks for the entities and the event triples of every distinct chunk; the
second, sent only if some entity was found, asks for every chunk's
relations, naming those entities. A chunk that repeats is asked once. When
a request fails for good, the step raises the first failure in request
order, entity requests before event ones, and no relation request is sent
if the first step failed. ``build_graph`` then skips the document and
lists it in ``docs_failed``; the knowledge update passes the error on, and
its claim is abandoned.

The extraction is a step generator (``document_steps``; see
:func:`verity.gateway.drive`), so the knowledge update can run it inside a
claim's own steps. ``build_graph`` drives the documents of a window
together (:func:`verity.gateway.drive_all`), so a window takes two
round-trips, not two per document.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from typing import Sequence

from .errors import GatewayHardError, ValidationError
from .gateway import (Gateway, GraphWrite, LLMRequest, LLMResponse,
                      PromptKind, Steps, drive_all)
from .jsonl import write_lines
from .kg_store import Entity, KnowledgeGraph, Triple

log = logging.getLogger(__name__)

# Long documents are chunked so each prompt fits a model context budget;
# the entity list is re-sent with every chunk.
CHUNK_CHARS = 4000

# Documents whose extraction runs together; bounds the prompts held at once.
BUILD_WINDOW = 64


@dataclass
class SourceDocument:
    id: str
    body: str
    trusted: bool = True


@dataclass
class BuildReport:
    docs_processed: int = 0
    docs_failed: list[str] = field(default_factory=list)
    triples_added: int = 0
    triples_duplicate: int = 0
    triples_dropped: int = 0

    def save(self, path: str) -> None:
        """Write the report as indented JSON, atomically."""
        write_lines(path, [json.dumps(asdict(self), indent=2)])


def _chunks(body: str) -> list[str]:
    if len(body) <= CHUNK_CHARS:
        return [body]
    out = []
    start = 0
    while start < len(body):
        end = min(start + CHUNK_CHARS, len(body))
        # Prefer to break at a sentence boundary inside the tail of the chunk.
        cut = body.rfind(". ", start, end)
        if cut > start and end < len(body):
            end = cut + 1
        out.append(body[start:end])
        start = end
    return out


def _wave(chunks: list[str], kinds: Sequence[PromptKind], seed: int,
          **slots: str) -> Steps:
    """Every kind's request, with ``slots``, for every distinct chunk, in
    one step.

    Returns, per kind, the responses for each chunk occurrence in order, so
    a repeated chunk is asked once and parsed once per occurrence.
    """
    distinct = list(dict.fromkeys(chunks))
    resps = iter((yield [LLMRequest(kind, {"document": chunk, **slots},
                                     seed=seed)
                         for kind in kinds for chunk in distinct]))
    out = []
    for _ in kinds:
        by_chunk = {chunk: next(resps) for chunk in distinct}
        out.append([by_chunk[chunk] for chunk in chunks])
    return out


def _parse_entities(resps: list[LLMResponse]) -> list[Entity]:
    entities: list[Entity] = []
    seen: set[str] = set()
    for resp in resps:
        for surface in resp.parsed:
            entity = Entity(surface)
            if entity.key and entity.key not in seen:
                seen.add(entity.key)
                entities.append(entity)
    return entities


def _parse_triples(doc: SourceDocument,
                   resps: list[LLMResponse]) -> tuple[list[Triple], int]:
    """The triples of ``resps`` from ``doc``, and the malformed lines."""
    triples: list[Triple] = []
    malformed = 0
    for resp in resps:
        malformed += resp.warnings
        triples += [Triple(Entity(s), r, Entity(o), source_id=doc.id)
                    for s, r, o in resp.parsed]
    return triples, malformed


def document_steps(doc: SourceDocument, seed: int = 0) -> Steps:
    """A step generator that runs both extraction modes over one document,
    its requests at ``seed``, and keeps each triple's first occurrence.

    Two round-trips: entities and event triples for every chunk in one
    batch, then the relations between the entities found in a second. It
    returns the triples and a count of malformed lines and of relations
    naming an entity outside that list, which are dropped. Between its
    two waves it yields a ``GraphWrite`` of every extracted entity key and
    both keys of every event triple: relations are kept only between
    extracted entities, so every triple it returns has both keys in that
    set.
    """
    if not doc.body.strip():
        return [], 0
    chunks = _chunks(doc.body)
    entity_resps, event_resps = yield from _wave(
        chunks,
        [PromptKind.EXTRACT_ENTITIES, PromptKind.EXTRACT_EVENT_TRIPLES], seed)
    entities = _parse_entities(entity_resps)
    event_triples, dropped = _parse_triples(doc, event_resps)
    allowed = {e.key for e in entities}
    yield GraphWrite(frozenset(allowed).union(
        *((t.subject.key, t.object.key) for t in event_triples)))
    relations: list[Triple] = []
    if entities:
        [resps] = yield from _wave(
            chunks, [PromptKind.GENERATE_RELATIONS], seed,
            entities=", ".join(e.surface for e in entities))
        found, malformed = _parse_triples(doc, resps)
        relations = [t for t in found if t.subject.key in allowed
                     and t.object.key in allowed]
        rel_dropped = malformed + len(found) - len(relations)
        if rel_dropped:
            log.warning("doc %s: dropped %d relation triples", doc.id,
                        rel_dropped)
        dropped += rel_dropped
    first: dict[tuple[str, str, str], Triple] = {}
    for t in relations + event_triples:
        first.setdefault(t.identity, t)
    return list(first.values()), dropped


def build_graph(corpus: list[SourceDocument],
                gateway: Gateway) -> tuple[KnowledgeGraph, BuildReport]:
    """Union of both extraction modes over all trusted documents, asked at
    seed 0.

    The corpus runs in order, ``BUILD_WINDOW`` documents at a time: every
    document of a window sends its step in the same backend batch, so a
    window of single-chunk documents takes two round-trips. A document that
    would send a request that an earlier document of its window sends, or
    waits to send, waits a round and then reads the memo
    (``Gateway.complete_steps``). Two documents can share a relation request
    only if they share a chunk, and then the later one's first step waits
    until the earlier one's has been sent, so no document reaches a request
    before an earlier one that asks it too. The graph, the report, calls and memo
    hits are therefore those of extracting one document at a time. The
    triples are inserted in corpus order once the window is done.
    """
    for doc in corpus:
        if not doc.trusted:
            raise ValidationError(f"document {doc.id} is not trusted")
    graph = KnowledgeGraph()
    report = BuildReport()
    for start in range(0, len(corpus), BUILD_WINDOW):
        window = corpus[start:start + BUILD_WINDOW]
        walks = drive_all([document_steps(doc) for doc in window], gateway)
        for doc, walk in zip(window, walks):
            if isinstance(walk.error, GatewayHardError):
                log.warning("skipping doc %s: %s", doc.id, walk.error)
                report.docs_failed.append(doc.id)
                continue
            if walk.error is not None:
                raise walk.error
            triples, dropped = walk.result
            report.docs_processed += 1
            report.triples_dropped += dropped
            for triple in triples:
                if graph.add(triple.subject.surface, triple.relation,
                             triple.object.surface, source_id=doc.id):
                    report.triples_added += 1
                else:
                    report.triples_duplicate += 1
    return graph, report
