"""Deterministic rule-based backend answering prompts from a hidden fact table.

Used as a stand-in for a live model so end-to-end behavior is verifiable in
CI. The oracle understands a controlled sentence grammar: a statement is a
sentence containing one known relation phrase, "<subject> <relation>
<object>", and a sub-question is "Is it true that <statement>?".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ValidationError
from .gateway import LLMRequest, PromptKind
from .jsonl import read_object
from .kg_store import normalize_entity

Fact = tuple[str, str, str]

_QUESTION_PREFIX = re.compile(r"^\s*is it true that\s+", re.IGNORECASE)


def _norm_fact(fact: Fact) -> Fact:
    return (normalize_entity(fact[0]), normalize_entity(fact[1]),
            normalize_entity(fact[2]))


def _field(data: dict, name: str) -> list:
    """Fact-table field ``name``: strings, or 3-string lists for the facts."""
    value = data.get(name, [])
    triples = name.endswith("facts")
    rows = value if isinstance(value, list) else [None]
    if triples:
        ok = all(isinstance(row, list) and len(row) == 3
                 and all(isinstance(part, str) for part in row) for row in rows)
    else:
        ok = all(isinstance(row, str) for row in rows)
    if not ok:
        shape = "3-string lists" if triples else "strings"
        raise ValidationError(f"fact table field {name!r} must be a list of {shape}")
    return [tuple(row) for row in value] if triples else list(value)


def _contains_phrase(text_norm: str, phrase_key: str) -> bool:
    if not phrase_key:
        return False
    pattern = r"(?<!\w)" + re.escape(phrase_key) + r"(?!\w)"
    return re.search(pattern, text_norm) is not None


@dataclass
class FactTable:
    """The oracle's hidden knowledge.

    ``facts`` is what the oracle knows to be true (its "internal knowledge").
    ``extraction_facts`` and ``event_facts`` are triples the oracle can pull
    out of a text whenever both endpoint phrases occur in it; they model the
    generative extraction of relations that need not appear verbatim in the
    text. ``relations`` widens the statement grammar so that false statements
    using known relation phrases still parse.
    """

    entities: list[str] = field(default_factory=list)
    facts: list[Fact] = field(default_factory=list)
    extraction_facts: list[Fact] = field(default_factory=list)
    event_facts: list[Fact] = field(default_factory=list)
    relations: list[str] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: dict) -> "FactTable":
        """Table from a JSON object; an ill-typed field raises ValidationError."""
        return cls(**{name: _field(data, name) for name in (
            "entities", "facts", "extraction_facts", "event_facts", "relations")})

    @classmethod
    def from_path(cls, path: str) -> "FactTable":
        try:
            return cls.from_dict(read_object(path))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc

    def fact_identities(self) -> set[Fact]:
        return {_norm_fact(f) for f in self.facts}

    def relation_vocabulary(self) -> list[str]:
        vocab = {normalize_entity(r) for r in self.relations}
        for f in self.facts + self.extraction_facts + self.event_facts:
            vocab.add(normalize_entity(f[1]))
        vocab.discard("")
        # Longest first so multi-word relations win over embedded shorter ones.
        return sorted(vocab, key=lambda r: (-len(r), r))


class RuleBasedOracle:
    """Gateway backend that resolves every prompt kind from a FactTable."""

    def __init__(self, table: FactTable):
        self.table = table
        self._fact_keys = table.fact_identities()
        self._vocab = table.relation_vocabulary()

    # -- statement grammar -------------------------------------------------

    def parse_statement(self, sentence: str) -> Fact | None:
        sent = normalize_entity(sentence).rstrip(".?!").rstrip()
        for rel in self._vocab:
            idx = (" " + sent + " ").find(" " + rel + " ")
            if idx < 0:
                continue
            subject = sent[:idx].strip()
            obj = sent[idx + len(rel) + 1:].strip()
            if subject and obj:
                return (subject, rel, obj)
        return None

    def parse_statements(self, text: str) -> list[Fact]:
        facts: list[Fact] = []
        for sentence in re.split(r"[.?!\n]", text):
            fact = self.parse_statement(sentence)
            if fact is not None and fact not in facts:
                facts.append(fact)
        return facts

    def parse_question(self, question: str) -> Fact | None:
        return self.parse_statement(_QUESTION_PREFIX.sub("", question).rstrip("?"))

    # -- per-kind handlers -------------------------------------------------

    def generate(self, req: LLMRequest, prompt: str) -> str:
        handler = {
            PromptKind.EXTRACT_ENTITIES: self._extract_entities,
            PromptKind.GENERATE_RELATIONS: self._generate_relations,
            PromptKind.EXTRACT_EVENT_TRIPLES: self._extract_events,
            PromptKind.GENERATE_SUBQUESTION: self._subquestion,
            PromptKind.ANSWER_SUBQUESTION: self._answer,
            PromptKind.FINAL_VERDICT: self._verdict,
            PromptKind.RANK_TRIPLES: self._rank,
        }[req.kind]
        return handler(req.context)

    def _extract_entities(self, ctx: dict[str, str]) -> str:
        text_norm = normalize_entity(ctx["document"])
        found: list[tuple[int, str, str]] = []
        seen: set[str] = set()
        for surface in self.table.entities:
            key = normalize_entity(surface)
            if key in seen:
                continue
            match = re.search(r"(?<!\w)" + re.escape(key) + r"(?!\w)", text_norm)
            if match:
                seen.add(key)
                found.append((match.start(), key, surface))
        found.sort()
        return "\n".join(surface for _, _, surface in found)

    def _facts_in_text(self, candidates: list[Fact], text: str) -> list[Fact]:
        text_norm = normalize_entity(text)
        out: list[Fact] = []
        seen: set[Fact] = set()
        for fact in candidates:
            key = _norm_fact(fact)
            if key in seen:
                continue
            if (_contains_phrase(text_norm, key[0])
                    and _contains_phrase(text_norm, key[2])):
                seen.add(key)
                out.append(fact)
        return out

    def _generate_relations(self, ctx: dict[str, str]) -> str:
        hits = self._facts_in_text(self.table.extraction_facts + self.table.facts,
                                   ctx["document"])
        return "\n".join(f"({s} | {r} | {o})" for s, r, o in hits)

    def _extract_events(self, ctx: dict[str, str]) -> str:
        hits = self._facts_in_text(self.table.event_facts, ctx["document"])
        return "\n".join(f"({s} | {r} | {o})" for s, r, o in hits)

    def _transcript_questions(self, transcript: str) -> list[Fact]:
        facts = []
        for line in transcript.splitlines():
            if line.lower().startswith("q:"):
                fact = self.parse_question(line[2:].strip())
                if fact is not None:
                    facts.append(fact)
        return facts

    def _transcript_affirmed(self, transcript: str) -> set[Fact]:
        affirmed: set[Fact] = set()
        for line in transcript.splitlines():
            if not line.lower().startswith("a:"):
                continue
            answer = line[2:].strip()
            if not answer.lower().startswith("yes"):
                continue
            fact = self.parse_statement(answer[3:].lstrip(", "))
            if fact is not None:
                affirmed.add(fact)
        return affirmed

    def _subquestion(self, ctx: dict[str, str]) -> str:
        claim_facts = self.parse_statements(ctx["claim"])
        if not claim_facts:
            return "Is it true that the claim holds?"
        asked = self._transcript_questions(ctx["transcript"])
        unasked = [f for f in claim_facts if f not in asked] or claim_facts
        try:
            branch = int(ctx.get("branch", "0"))
        except ValueError:
            branch = 0
        s, r, o = unasked[branch % len(unasked)]
        return f"Is it true that {s} {r} {o}?"

    def _context_triples(self, triples_block: str) -> set[Fact]:
        facts: set[Fact] = set()
        for line in triples_block.splitlines():
            line = line.strip()
            if line.startswith("(") and line.endswith(")"):
                parts = [p.strip() for p in line[1:-1].split(";")]
                if len(parts) == 3 and all(parts):
                    facts.add(_norm_fact((parts[0], parts[1], parts[2])))
        return facts

    def _answer(self, ctx: dict[str, str]) -> str:
        fact = self.parse_question(ctx["question"])
        if fact is None:
            return "I cannot interpret the question."
        known = self._fact_keys | self._context_triples(ctx.get("triples", ""))
        s, r, o = fact
        if fact in known:
            return f"Yes, {s} {r} {o}."
        return f"I do not know whether {s} {r} {o}."

    def _verdict(self, ctx: dict[str, str]) -> str:
        claim_facts = self.parse_statements(ctx["claim"])
        affirmed = self._transcript_affirmed(ctx["transcript"])
        verifiable = (bool(claim_facts)
                      and all(f in affirmed or f in self._fact_keys
                              for f in claim_facts))
        return f"Answer: {'Real' if verifiable else 'Fake'}"

    def _rank(self, ctx: dict[str, str]) -> str:
        question_norm = normalize_entity(ctx["question"])
        relevant: list[int] = []
        rest: list[int] = []
        for line in ctx["candidates"].splitlines():
            match = re.match(r"\s*(\d+)\s*:\s*\((.*)\)\s*$", line)
            if not match:
                continue
            idx = int(match.group(1))
            parts = [p.strip() for p in match.group(2).split(";")]
            hit = len(parts) == 3 and (
                _contains_phrase(question_norm, normalize_entity(parts[0]))
                or _contains_phrase(question_norm, normalize_entity(parts[2])))
            (relevant if hit else rest).append(idx)
        return ", ".join(str(i) for i in relevant + rest)
