"""Indexed, persistent triple store for the news-domain knowledge graph.

Entities are matched exactly on a normalized key (lowercase, trimmed,
internal whitespace collapsed). Relation strings are stored verbatim but
normalized for the dedup identity. Each triple carries provenance: the id
of the source it came from plus a monotonically increasing sequence number.

A graph interns the strings its triples repeat. It keeps one ``Entity`` per
surface string and one normalized key per relation string, so loading a
100k-triple file with about 20k distinct names normalizes and stores each
name once, not once per mention. The tables are keyed by the surface as
written, not by its key: "Obama" and "obama" stay two entities that share
one key, so every saved line and digest keeps each mention's own spelling.

File format: one JSON object per line with fields subject, relation,
object, source_id, seq. Lines starting with '#' are ignored. Saved lines
and the content digest share one serialization,
:meth:`Triple.canonical_line`.

A loaded graph arrives digested. A line written the way ``save`` writes it
is already its triple's canonical line, so ``load`` takes the fields from
one pattern match, with no JSON decode, and hashes the line as it reads.
Any other line is decoded as JSON and its triple's canonical line hashed.
The digest of a freshly loaded graph is then one ``hexdigest``.

A loaded graph saves by copying its file. When every data line was
inserted and is its triple's canonical line, ``load`` records the sha256
the file has if it holds just those lines: the running digest with one
more ``"\\n"``. ``save`` then copies the file, checking that hash on the
bytes it writes, and serializes only the triples added since. If the
check fails (a comment, a blank line or a ``\\r`` in the file, an edit
since the load, a file gone or unreadable), it serializes every triple.
The saved bytes are the same either way.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Iterable

from .errors import FormatError, ValidationError
from .jsonl import decode_record, read_lines, write_lines

_WS_RUN = re.compile(r"\s+")
_encode_str = json.encoder.encode_basestring
# Canonical lines hashed per sha256 update, when the digest catches up or a
# graph is loaded, and written per write when the graph is saved.
_LINE_CHUNK = 4096
# Bytes of a loaded graph's source file copied per read and write by save;
# bounded so a save never holds the whole file.
_COPY_CHUNK = 256 * 1024
# A JSON string that _encode_str writes as is: no quote, backslash or
# control character, so its text between the quotes is its value.
_PLAIN_STR = r'"([^"\\\x00-\x1f]*)"'
# A line that is its own triple's canonical_line(): the five keys in sorted
# order with canonical_line's separators, plain strings, and a seq written
# as "%d" writes it (so no "-0", no leading zero).
_CANONICAL_LINE = re.compile(
    r'\{"object": ' + _PLAIN_STR + r', "relation": ' + _PLAIN_STR
    + r', "seq": (0|-?[1-9][0-9]*), "source_id": ' + _PLAIN_STR
    + r', "subject": ' + _PLAIN_STR + r'\}')


class _StaleSource(Exception):
    """A loaded graph's source file is gone, unreadable or changed."""


def normalize_entity(surface: str) -> str:
    """Lowercase, strip, and collapse runs of whitespace to one space."""
    return _WS_RUN.sub(" ", surface.strip()).lower()


@dataclass(frozen=True, slots=True)
class Entity:
    """A named entity as written in the source, with its normalized match key.

    ``key`` and ``encoded``, the surface as a JSON string literal, are
    computed once at construction from the immutable ``surface``. They take
    no part in equality, hashing or repr, which depend on ``surface`` alone.
    """

    surface: str
    key: str = field(init=False, repr=False, compare=False)
    encoded: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", normalize_entity(self.surface))
        object.__setattr__(self, "encoded", _encode_str(self.surface))


@dataclass(frozen=True, slots=True)
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
        # bool is a subclass of int, and int() would take 1.9 or "7"; a seq
        # of any other type would not save back to the line it was read from.
        if type(self.seq) is not int:
            raise ValidationError(f"seq must be an integer, not {self.seq!r}")

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
        return (f'{{"object": {self.object.encoded}, '
                f'"relation": {_encode_str(self.relation)}, "seq": {self.seq:d}, '
                f'"source_id": {_encode_str(self.source_id)}, '
                f'"subject": {self.subject.encoded}}}')


def make_triple(subject: str, relation: str, object: str,
                source_id: str = "", seq: int = 0) -> Triple:
    return Triple(Entity(subject), relation, Entity(object), source_id, seq)


class KnowledgeGraph:
    """Ordered triple collection with an entity index for one-hop lookups.

    Concurrent reads are safe; callers serialize writes, and
    :meth:`content_digest` and :meth:`copy` count as writes. ``copy()``
    gives a snapshot so a detection run can read a consistent graph while a
    previous claim's updates commit elsewhere. It copies the triple list and
    the identity set, but shares the entity index: the two graphs hold the
    same index sets, and :meth:`insert_triple` copies a shared set on its
    first write, on either side. At 100k triples a copy takes milliseconds,
    not the tens it takes to rebuild about 20k sets.

    The graph is append-only: triples enter ``triples`` only through
    :meth:`insert_triple`, and none is ever changed or removed. The running
    content digest relies on this, since it hashes each triple once.

    :meth:`load` and :meth:`add` take each triple's entities from a table
    keyed by surface string, so triples that name the same surface share one
    ``Entity``, and :meth:`insert_triple` takes relation keys from a table
    keyed by relation string. Keying by surface rather than by normalized
    key keeps case and spacing variants apart, as the saved file has them.
    ``copy()`` carries both tables.

    :meth:`load` hashes each line as it reads it, so a loaded graph's
    :meth:`content_digest` serializes no triple, and :meth:`save` copies
    the file it read rather than serializing the triples that came from it.
    """

    def __init__(self) -> None:
        self.triples: list[Triple] = []
        self._identities: set[tuple[str, str, str]] = set()
        self._entity_index: dict[str, set[int]] = {}
        # Index keys whose set no other graph holds; copy() empties it on
        # both sides, so the next write to any key copies its set first.
        self._owned: set[str] = set()
        # The length of the longest index key; no key is longer.
        self._longest_key = 0
        self._next_seq = 0
        # Interning tables, keyed by the string exactly as written.
        self._entities: dict[str, Entity] = {}
        self._relation_keys: dict[str, str] = {}
        # sha256 over the canonical lines of triples[:_hashed], "\n"-joined.
        self._hasher = hashlib.sha256()
        self._hashed = 0
        # (path, count, sha256 digest) of the file load() read, when its bytes
        # are the canonical lines of triples[:count], each ending in "\n".
        self._origin: tuple[str, int, bytes] | None = None

    def __len__(self) -> int:
        return len(self.triples)

    def insert_triple(self, triple: Triple) -> bool:
        """Insert unless the dedup identity is already present.

        Returns True when the triple was appended. Rejects empty-key or
        empty-relation triples, and a ``seq`` that is not an ``int``, with
        :class:`ValidationError`.
        """
        triple.validate()
        relation_key = self._relation_keys.get(triple.relation)
        if relation_key is None:
            relation_key = normalize_entity(triple.relation)
            self._relation_keys[triple.relation] = relation_key
        identity = (triple.subject.key, relation_key, triple.object.key)
        if identity in self._identities:
            return False
        idx = len(self.triples)
        self.triples.append(triple)
        self._identities.add(identity)
        index, owned = self._entity_index, self._owned
        for key in (triple.subject.key, triple.object.key):
            if key not in owned:
                index[key] = set(index.get(key, ()))
                owned.add(key)
                self._longest_key = max(self._longest_key, len(key))
            index[key].add(idx)
        self._next_seq = max(self._next_seq, triple.seq + 1)
        return True

    def add(self, subject: str, relation: str, object: str, source_id: str = "") -> bool:
        """Build a triple with the next sequence number and insert it."""
        return self.insert_triple(Triple(
            self._entity(subject), relation, self._entity(object), source_id,
            self._next_seq))

    def _entity(self, surface: str) -> Entity:
        """The graph's one ``Entity`` for ``surface``, made on first use."""
        entity = self._entities.get(surface)
        if entity is None:
            entity = self._entities[surface] = Entity(surface)
        return entity

    @property
    def longest_key(self) -> int:
        """The length of the longest entity key in the index, 0 if none."""
        return self._longest_key

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
        """A snapshot that later inserts on either side do not reach.

        It saves by copying the file ``load`` read, as the original does:
        the graph is append-only, so that file's triples come first in both.
        """
        snap = KnowledgeGraph()
        snap.triples = list(self.triples)
        snap._identities = set(self._identities)
        snap._entity_index = dict(self._entity_index)
        self._owned = set()
        snap._longest_key = self._longest_key
        snap._next_seq = self._next_seq
        snap._entities = dict(self._entities)
        snap._relation_keys = dict(self._relation_keys)
        snap._hasher = self._hasher.copy()
        snap._hashed = self._hashed
        snap._origin = self._origin
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
            self._hash_lines(self.content_digest_lines(
                self._hashed, min(self._hashed + _LINE_CHUNK, total)))
        return self._hasher.hexdigest()

    def _hash_lines(self, lines: list[str]) -> None:
        """Hash the canonical lines of the next ``len(lines)`` triples."""
        if lines:
            chunk = "\n".join(lines)
            if self._hashed:
                chunk = "\n" + chunk
            self._hasher.update(chunk.encode("utf-8"))
            self._hashed += len(lines)

    def save(self, path: str) -> None:
        """Write one canonical line per triple, atomically (see ``write_lines``).

        A graph that :meth:`load` read from a file of canonical lines, or a
        copy of one, copies that file's bytes and serializes only the
        triples added since, so a save costs its growth. The copied bytes
        are hashed as they are written; if they are not the bytes ``load``
        read, or the file is gone or cannot be read, every triple is
        serialized instead, and this graph forgets the file, so a later save
        does not read it again. ``path`` may be the file the graph was
        loaded from. A failure to write ``path`` is raised, and ``path``
        keeps its old content.
        """
        if self._origin is not None:
            chunks = self._source_then_growth()
            try:
                with contextlib.closing(chunks):
                    write_lines(path, chunks)
                return
            except _StaleSource:
                self._origin = None
        write_lines(path, self._canonical_chunks(0))

    def _canonical_chunks(self, start: int):
        """Canonical lines of ``triples[start:]``, each ending in "\\n",
        joined a chunk at a time, so the file gets one write per chunk."""
        triples = self.triples
        for i in range(start, len(triples), _LINE_CHUNK):
            yield "\n".join([t.canonical_line()
                             for t in triples[i:i + _LINE_CHUNK]]) + "\n"

    def _source_then_growth(self):
        """The bytes of the file ``load`` read, then the added triples' lines.

        Raises :class:`_StaleSource`, before any added line, if that file
        cannot be read or its bytes do not hash to what ``load`` read.
        """
        source, count, digest = self._origin
        hasher = hashlib.sha256()
        try:
            with open(source, "rb") as fh:
                while chunk := fh.read(_COPY_CHUNK):
                    hasher.update(chunk)
                    yield chunk
        except OSError as exc:
            raise _StaleSource(source) from exc
        if hasher.digest() != digest:
            raise _StaleSource(source)
        yield from self._canonical_chunks(count)

    @classmethod
    def load(cls, path: str) -> "KnowledgeGraph":
        """The graph of the triple file ``path``, digested as it is read.

        A line that matches ``_CANONICAL_LINE`` gives its fields straight
        from the match and is hashed as it stands; any other line is decoded
        as JSON and its triple's canonical line hashed. A duplicate is not
        inserted, so it is not hashed. A record that is not a valid triple
        raises :class:`FormatError` naming its line.

        If every line was inserted and is its triple's canonical line, the
        graph records the file as its origin, which :meth:`save` copies.
        """
        graph = cls()
        entity = graph._entity
        lines: list[str] = []
        exact = True
        for lineno, line in read_lines(path):
            try:
                match = _CANONICAL_LINE.fullmatch(line)
                if match:
                    obj, relation, seq, source_id, subject = match.groups()
                    seq = int(seq)
                else:
                    record = decode_record(path, lineno, line)
                    names = subject, relation, obj, source_id = (
                        record["subject"], record["relation"],
                        record["object"], record.get("source_id", ""))
                    if tuple(map(type, names)) != (str, str, str, str):
                        raise TypeError("subject, relation, object and "
                                        "source_id must be strings")
                    seq = record.get("seq", 0)
                # Relations and source ids come from small vocabularies;
                # interning keeps one string per distinct value.
                triple = Triple(entity(subject), sys.intern(relation),
                                entity(obj), sys.intern(source_id), seq)
                if not graph.insert_triple(triple):
                    exact = False
                    continue
            except (KeyError, TypeError, ValidationError) as exc:
                raise FormatError(path, lineno, f"bad record: {exc}") from exc
            if not match:
                canonical = triple.canonical_line()
                exact = exact and canonical == line
                line = canonical
            lines.append(line)
            if len(lines) == _LINE_CHUNK:
                graph._hash_lines(lines)
                lines = []
        graph._hash_lines(lines)
        if exact:
            hasher = graph._hasher.copy()
            hasher.update(b"\n")
            graph._origin = (os.path.abspath(path), len(graph.triples),
                             hasher.digest())
        return graph
