"""Builds the initial knowledge graph from trusted source texts.

Two complementary extraction modes run over every document: entity-centered
relation extraction (the relation wording may be generated, not quoted) and
event-centered triple extraction where subjects and objects can be
multi-word phrases such as times and places.

A document costs two model round-trips, in dependency order. The first
batch asks for the entities and the event triples of every distinct chunk;
the second asks for every chunk's relations, naming the entities the first
found. A chunk that repeats is asked once. When a request fails for good,
the batch raises the first failure in request order, entity requests
before event ones, and no relation request is sent if the first batch
failed. ``build_graph`` then skips the document and lists it in
``docs_failed``; the knowledge update passes the error on, and its claim is
abandoned.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

from .errors import GatewayHardError, ValidationError
from .gateway import Gateway, LLMRequest, LLMResponse, PromptKind
from .jsonl import write_lines
from .kg_store import Entity, KnowledgeGraph, Triple

log = logging.getLogger(__name__)

# Long documents are chunked so each prompt fits a model context budget;
# the entity list is re-sent with every chunk.
CHUNK_CHARS = 4000


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


def _request(kind: PromptKind, **slots: str) -> Callable[[str], LLMRequest]:
    """Builds ``kind``'s request for one chunk, with the other slots fixed."""
    return lambda chunk: LLMRequest(kind, {"document": chunk, **slots})


def _wave(gateway: Gateway, chunks: list[str],
          builders: Sequence[Callable[[str], LLMRequest]],
          ) -> list[list[LLMResponse]]:
    """Every builder's request for every distinct chunk, in one batch.

    Returns, per builder, the responses for each chunk occurrence in order,
    so a repeated chunk is asked once and parsed once per occurrence.
    """
    distinct = list(dict.fromkeys(chunks))
    resps = iter(gateway.complete_all(
        [build(chunk) for build in builders for chunk in distinct]))
    out = []
    for _ in builders:
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


def _parse_relations(doc: SourceDocument, entities: list[Entity],
                     resps: list[LLMResponse]) -> tuple[list[Triple], int]:
    allowed = {e.key for e in entities}
    triples: list[Triple] = []
    dropped = 0
    for resp in resps:
        dropped += resp.warnings
        for s, r, o in resp.parsed:
            triple = Triple(Entity(s), r, Entity(o), source_id=doc.id)
            if triple.subject.key not in allowed or triple.object.key not in allowed:
                dropped += 1
                continue
            triples.append(triple)
    if dropped:
        log.warning("doc %s: dropped %d relation triples", doc.id, dropped)
    return triples, dropped


def _parse_events(doc: SourceDocument,
                  resps: list[LLMResponse]) -> tuple[list[Triple], int]:
    triples: list[Triple] = []
    malformed = 0
    for resp in resps:
        malformed += resp.warnings
        triples += [Triple(Entity(s), r, Entity(o), source_id=doc.id)
                    for s, r, o in resp.parsed]
    return triples, malformed


def extract_entities(doc: SourceDocument, gateway: Gateway) -> list[Entity]:
    """Deduplicated (by normalized key) entities in first-mention order."""
    if not doc.body.strip():
        return []
    [resps] = _wave(gateway, _chunks(doc.body),
                    [_request(PromptKind.EXTRACT_ENTITIES)])
    return _parse_entities(resps)


def extract_entity_relations(doc: SourceDocument, entities: list[Entity],
                             gateway: Gateway) -> tuple[list[Triple], int]:
    """Relation triples between the supplied entities, repeats included.

    Triples referencing entities outside the list are dropped; the second
    return value counts the drops (plus malformed output lines).
    """
    if not entities:
        raise ValidationError("entity list must be non-empty")
    entity_list = ", ".join(e.surface for e in entities)
    [resps] = _wave(gateway, _chunks(doc.body),
                    [_request(PromptKind.GENERATE_RELATIONS,
                              entities=entity_list)])
    return _parse_relations(doc, entities, resps)


def extract_document(doc: SourceDocument,
                     gateway: Gateway) -> tuple[list[Triple], int]:
    """Run both extraction modes over one document; keep each triple's first.

    Two round-trips: entities and event triples for every chunk in one
    batch, then the relations, which need the entity list, in a second.
    """
    if not doc.body.strip():
        return [], 0
    chunks = _chunks(doc.body)
    entity_resps, event_resps = _wave(
        gateway, chunks, [_request(PromptKind.EXTRACT_ENTITIES),
                          _request(PromptKind.EXTRACT_EVENT_TRIPLES)])
    entities = _parse_entities(entity_resps)
    event_triples, dropped = _parse_events(doc, event_resps)
    triples: list[Triple] = []
    if entities:
        triples, rel_dropped = extract_entity_relations(doc, entities, gateway)
        dropped += rel_dropped
    seen: set[tuple[str, str, str]] = set()
    unique = []
    for t in triples + event_triples:
        if t.identity not in seen:
            seen.add(t.identity)
            unique.append(t)
    return unique, dropped


def build_graph(corpus: list[SourceDocument],
                gateway: Gateway) -> tuple[KnowledgeGraph, BuildReport]:
    """Union of both extraction modes over all trusted documents."""
    for doc in corpus:
        if not doc.trusted:
            raise ValidationError(f"document {doc.id} is not trusted")
    graph = KnowledgeGraph()
    report = BuildReport()
    for doc in corpus:
        try:
            triples, dropped = extract_document(doc, gateway)
        except GatewayHardError as exc:
            log.warning("skipping doc %s: %s", doc.id, exc)
            report.docs_failed.append(doc.id)
            continue
        report.docs_processed += 1
        report.triples_dropped += dropped
        for triple in triples:
            if graph.add(triple.subject.surface, triple.relation,
                         triple.object.surface, source_id=doc.id):
                report.triples_added += 1
            else:
                report.triples_duplicate += 1
    return graph, report
