"""Indexed, persistent triple store for the news-domain knowledge graph.

Entities are matched exactly on a normalized key (lowercase, trimmed,
internal whitespace collapsed). Relation strings are stored verbatim but
normalized for the dedup identity. Each triple carries provenance: the id
of the source it came from plus a monotonically increasing sequence number.

File format: one JSON object per line with fields subject, relation,
object, source_id, seq. Lines starting with '#' are ignored. Saved lines
and the content digest share one serialization,
:meth:`Triple.canonical_line`.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Iterable

from .errors import FormatError, ValidationError
from .jsonl import read_records, write_lines

_WS_RUN = re.compile(r"\s+")
_encode_str = json.encoder.encode_basestring
# Triples serialized per content_digest_lines call when the digest catches up.
_DIGEST_CHUNK = 4096


def normalize_entity(surface: str) -> str:
    """Lowercase, strip, and collapse runs of whitespace to one space."""
    return _WS_RUN.sub(" ", surface.strip()).lower()


@dataclass(frozen=True)
class Entity:
    """A named entity as written in the source, with its normalized match key.

    ``key`` is computed once at construction from the immutable ``surface``.
    It takes no part in equality, hashing or repr, which depend on
    ``surface`` alone.
    """

    surface: str
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", normalize_entity(self.surface))


@dataclass(frozen=True)
class Triple:
    subject: Entity
    relation: str
    object: Entity
    source_id: str = ""
    seq: int = 0

    @property
    def identity(self) -> tuple[str, str, str]:
        """Dedup identity: normalized subject, relation, and object."""
        return (self.subject.key, normalize_entity(self.relation), self.object.key)

    def validate(self) -> None:
        if not self.subject.key:
            raise ValidationError("triple has an empty subject key")
        if not self.object.key:
            raise ValidationError("triple has an empty object key")
        if not self.relation.strip():
            raise ValidationError("triple has an empty relation")

    def as_record(self) -> dict:
        return {
            "subject": self.subject.surface,
            "relation": self.relation,
            "object": self.object.surface,
            "source_id": self.source_id,
            "seq": self.seq,
        }

    def canonical_line(self) -> str:
        """The record as one JSON line with sorted keys, no trailing newline.

        Byte-identical to ``json.dumps(self.as_record(), ensure_ascii=False,
        sort_keys=True)`` without building an encoder and a dict per triple.
        """
        return '{"object": %s, "relation": %s, "seq": %d, "source_id": %s, ' \
            '"subject": %s}' % (
                _encode_str(self.object.surface), _encode_str(self.relation),
                self.seq, _encode_str(self.source_id),
                _encode_str(self.subject.surface))


def make_triple(subject: str, relation: str, object: str,
                source_id: str = "", seq: int = 0) -> Triple:
    return Triple(Entity(subject), relation, Entity(object), source_id, seq)


class KnowledgeGraph:
    """Ordered triple collection with an entity index for one-hop lookups.

    Concurrent reads are safe; callers serialize writes, and
    :meth:`content_digest` counts as a write. ``copy()`` gives a cheap
    snapshot so a detection run can read a consistent graph while a previous
    claim's updates commit elsewhere.

    The graph is append-only: triples enter ``triples`` only through
    :meth:`insert_triple`, and none is ever changed or removed. The running
    content digest relies on this, since it hashes each triple once.
    """

    def __init__(self) -> None:
        self.triples: list[Triple] = []
        self._identities: set[tuple[str, str, str]] = set()
        self._entity_index: dict[str, set[int]] = {}
        self._next_seq = 0
        # sha256 over the canonical lines of triples[:_hashed], "\n"-joined.
        self._hasher = hashlib.sha256()
        self._hashed = 0

    def __len__(self) -> int:
        return len(self.triples)

    def insert_triple(self, triple: Triple) -> bool:
        """Insert unless the dedup identity is already present.

        Returns True when the triple was appended. Rejects empty-key or
        empty-relation triples with :class:`ValidationError`.
        """
        triple.validate()
        identity = triple.identity
        if identity in self._identities:
            return False
        idx = len(self.triples)
        self.triples.append(triple)
        self._identities.add(identity)
        self._entity_index.setdefault(triple.subject.key, set()).add(idx)
        self._entity_index.setdefault(triple.object.key, set()).add(idx)
        self._next_seq = max(self._next_seq, triple.seq + 1)
        return True

    def add(self, subject: str, relation: str, object: str, source_id: str = "") -> bool:
        """Build a triple with the next sequence number and insert it."""
        return self.insert_triple(
            make_triple(subject, relation, object, source_id, self._next_seq))

    def match_entities(self, query_keys: Iterable[str]) -> set[str]:
        """Exact intersection of normalized query keys with indexed keys."""
        return {k for k in query_keys if k in self._entity_index}

    def one_hop_subgraph(self, keys: Iterable[str]) -> list[Triple]:
        """All triples whose subject or object key is in ``keys``, in insertion order."""
        hit: set[int] = set()
        for key in keys:
            hit.update(self._entity_index.get(key, ()))
        return [self.triples[i] for i in sorted(hit)]

    def copy(self) -> "KnowledgeGraph":
        snap = KnowledgeGraph()
        snap.triples = list(self.triples)
        snap._identities = set(self._identities)
        snap._entity_index = {k: set(v) for k, v in self._entity_index.items()}
        snap._next_seq = self._next_seq
        snap._hasher = self._hasher.copy()
        snap._hashed = self._hashed
        return snap

    def content_digest_lines(self, start: int = 0,
                             stop: int | None = None) -> list[str]:
        """Canonical lines of ``triples[start:stop]``."""
        return [t.canonical_line() for t in self.triples[start:stop]]

    def content_digest(self) -> str:
        """Hex sha256 of the canonical lines of every triple, joined by "\\n".

        Only triples appended since the last call are serialized and hashed,
        a chunk at a time, so the digest of a grown graph costs its growth.
        """
        total = len(self.triples)
        while self._hashed < total:
            stop = min(self._hashed + _DIGEST_CHUNK, total)
            chunk = "\n".join(self.content_digest_lines(self._hashed, stop))
            if self._hashed:
                chunk = "\n" + chunk
            self._hasher.update(chunk.encode("utf-8"))
            self._hashed = stop
        return self._hasher.hexdigest()

    def save(self, path: str) -> None:
        """Write one canonical line per triple, atomically (see ``write_lines``)."""
        write_lines(path, (t.canonical_line() + "\n" for t in self.triples))

    @classmethod
    def load(cls, path: str) -> "KnowledgeGraph":
        graph = cls()
        for lineno, record in read_records(path):
            try:
                names = (record["subject"], record["relation"], record["object"],
                         record.get("source_id", ""))
                if tuple(map(type, names)) != (str, str, str, str):
                    raise TypeError("subject, relation, object and source_id "
                                    "must be strings")
                graph.insert_triple(
                    make_triple(*names, int(record.get("seq", 0))))
            except (KeyError, TypeError, ValueError, ValidationError) as exc:
                raise FormatError(path, lineno, f"bad record: {exc}") from exc
        return graph
