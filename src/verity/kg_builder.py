"""Builds the initial knowledge graph from trusted source texts.

Two complementary extraction modes run over every document: entity-centered
relation extraction (the relation wording may be generated, not quoted) and
event-centered triple extraction where subjects and objects can be
multi-word phrases such as times and places.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field

from .errors import GatewayHardError, ValidationError
from .gateway import Gateway, LLMRequest, PromptKind
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


def extract_entities(doc: SourceDocument, gateway: Gateway) -> list[Entity]:
    """Deduplicated (by normalized key) entities in first-mention order."""
    if not doc.body.strip():
        return []
    entities: list[Entity] = []
    seen: set[str] = set()
    for chunk in _chunks(doc.body):
        resp = gateway.complete(LLMRequest(PromptKind.EXTRACT_ENTITIES,
                                           {"document": chunk}))
        for surface in resp.parsed:
            entity = Entity(surface)
            if entity.key and entity.key not in seen:
                seen.add(entity.key)
                entities.append(entity)
    return entities


def extract_entity_relations(doc: SourceDocument, entities: list[Entity],
                             gateway: Gateway) -> tuple[list[Triple], int]:
    """Relation triples between the supplied entities, repeats included.

    Triples referencing entities outside the list are dropped; the second
    return value counts the drops (plus malformed output lines).
    """
    if not entities:
        raise ValidationError("entity list must be non-empty")
    allowed = {e.key for e in entities}
    entity_list = ", ".join(e.surface for e in entities)
    triples: list[Triple] = []
    dropped = 0
    for chunk in _chunks(doc.body):
        resp = gateway.complete(LLMRequest(
            PromptKind.GENERATE_RELATIONS,
            {"document": chunk, "entities": entity_list}))
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


def extract_event_triples(doc: SourceDocument,
                          gateway: Gateway) -> tuple[list[Triple], int]:
    """Event triples, repeats included; endpoints may be multi-word phrases."""
    if not doc.body.strip():
        return [], 0
    triples: list[Triple] = []
    malformed = 0
    for chunk in _chunks(doc.body):
        resp = gateway.complete(LLMRequest(PromptKind.EXTRACT_EVENT_TRIPLES,
                                           {"document": chunk}))
        malformed += resp.warnings
        triples += [Triple(Entity(s), r, Entity(o), source_id=doc.id)
                    for s, r, o in resp.parsed]
    return triples, malformed


def extract_document(doc: SourceDocument,
                     gateway: Gateway) -> tuple[list[Triple], int]:
    """Run both extraction modes over one document; keep each triple's first."""
    entities = extract_entities(doc, gateway)
    triples: list[Triple] = []
    dropped = 0
    if entities:
        rel_triples, rel_dropped = extract_entity_relations(doc, entities, gateway)
        triples.extend(rel_triples)
        dropped += rel_dropped
    event_triples, malformed = extract_event_triples(doc, gateway)
    dropped += malformed
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
