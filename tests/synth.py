"""Synthetic oracle worlds for end-to-end tests.

Claims follow the controlled grammar the rule-based oracle understands:
one statement per sentence, "<subject> <relation> <object>.".
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import threading
from unittest import mock

from verity.dataset import NewsItem
from verity.errors import GatewayHardError, TransportError
from verity.gateway import Gateway, PromptKind, drive, request_hash
from verity.kg_builder import BuildReport, SourceDocument, document_steps
from verity.kg_store import KnowledgeGraph
from verity.mcts import SearchEngine
from verity.oracle import FactTable, RuleBasedOracle
from verity.verdict import Verdict


def news_record(item: NewsItem) -> dict:
    """The native dataset record of ``item``, as ``load_dataset`` reads it."""
    record: dict = {"id": item.id, "claim": item.claim}
    if item.gold is not None:
        record["label"] = item.gold.value
    if item.evidence:
        record["evidence"] = item.evidence
    if item.group is not None:
        record["group"] = item.group
    return record


def save_dataset(items: list[NewsItem], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(json.dumps(news_record(item), ensure_ascii=False) + "\n")


def write_facts(path, table: FactTable) -> None:
    """``table`` as a ``--facts`` file at the ``pathlib.Path`` ``path``."""
    path.write_text(json.dumps({
        "entities": table.entities,
        "facts": [list(f) for f in table.facts],
        "extraction_facts": [list(f) for f in table.extraction_facts],
        "event_facts": [list(f) for f in table.event_facts],
        "relations": table.relations,
    }))


class BatchLog:
    """The backend batches of one Gateway: the prompt kinds each sent, and
    how many requests. ``Gateway.round_trips`` counts the batches alone.

    Wraps the Gateway's backend send in place, so a batch the memo answered
    in full is not logged, and a rider's misses are logged with the batch
    that carried them.
    """

    def __init__(self, gateway: Gateway):
        self.batches: list[set[PromptKind]] = []
        self.sizes: list[int] = []
        inner = gateway._send

        def send(jobs):
            self.batches.append({req.kind for req, _ in jobs})
            self.sizes.append(len(jobs))
            return inner(jobs)

        gateway._send = send


def build_one_by_one(corpus: list[SourceDocument], gateway: Gateway
                     ) -> tuple[KnowledgeGraph, BuildReport]:
    """What ``build_graph`` returns, with each document's extraction driven
    alone, in corpus order."""
    graph, report = KnowledgeGraph(), BuildReport()
    for doc in corpus:
        try:
            triples, dropped = drive(document_steps(doc), gateway)
        except GatewayHardError:
            report.docs_failed.append(doc.id)
            continue
        report.docs_processed += 1
        report.triples_dropped += dropped
        for t in triples:
            if graph.add(t.subject.surface, t.relation, t.object.surface,
                         source_id=doc.id):
                report.triples_added += 1
            else:
                report.triples_duplicate += 1
    return graph, report


# Faults a backend call may meet; "garbage" is text no parser accepts.
FAULTS = ("transport", "hard", "garbage")


class FaultyOracle:
    """The oracle behind injected faults, and the claims each fault hit.

    Whether a call fails depends only on the salt, the request and how often
    that request was sent before, so a run is the same whatever order a
    batch's calls finish in.
    """

    def __init__(self, table, salt: int, percent: int, kinds):
        self.oracle = RuleBasedOracle(table)
        self.salt, self.percent, self.kinds = salt, percent, kinds
        self.sent: dict[str, int] = {}
        self.hit: dict[str, set[str]] = {}
        self.claim = ""
        self.ids: dict[str, str] = {}
        # The claim each generated sub-question was asked for.
        self.asked_by: dict[str, str] = {}
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def track(self, items):
        """Note the claim each call belongs to while the block runs.

        A request that names a claim belongs to that claim, and a ranking
        request to the claim that asked the question, wherever they are
        sent: a claim running ahead sends them while the claim before it is
        searched or updated. Any other call belongs to the claim being
        searched or updated.
        """
        self.ids = {item.claim: item.id for item in items}
        search = SearchEngine.search

        def tracked(engine, claim, graph, claim_id="", **kwargs):
            self.claim = claim_id
            return search(engine, claim, graph, claim_id, **kwargs)

        with mock.patch.object(SearchEngine, "search", tracked):
            yield

    def _owner(self, req) -> str:
        claim = req.context.get("claim")
        if req.kind is PromptKind.RANK_TRIPLES:
            claim = self.asked_by.get(req.context["question"])
        return self.ids.get(claim, self.claim)

    def generate(self, req, prompt):
        key = request_hash(req, prompt)
        with self._lock:
            attempt = self.sent[key] = self.sent.get(key, -1) + 1
        draw = hashlib.sha256(f"{self.salt}:{key}:{attempt}".encode()).digest()
        if draw[0] * 100 < self.percent * 256:
            fault = self.kinds[draw[1] % len(self.kinds)]
            with self._lock:
                self.hit.setdefault(fault, set()).add(self._owner(req))
            if fault == "transport":
                raise TransportError("injected")
            if fault == "hard":
                raise GatewayHardError("injected")
            return " \n "
        text = self.oracle.generate(req, prompt)
        if req.kind is PromptKind.GENERATE_SUBQUESTION:
            with self._lock:
                self.asked_by[text.strip()] = req.context["claim"]
        return text


def tabled_world(num_real: int = 25, num_fake: int = 25):
    """A dataset whose real claims are fully entailed by the fact table.

    Real claims state two tabled facts; fake claims state one fact absent
    from the table. Every claim is therefore decidable by the oracle alone.
    """
    entities: list[str] = []
    facts: list[tuple[str, str, str]] = []
    items: list[NewsItem] = []
    for i in range(num_real):
        cmdr, aide, camp = f"Alpha{i}", f"Beta{i}", f"Gamma{i}"
        entities += [cmdr, aide, camp]
        facts += [(cmdr, "commanded", camp), (aide, "served in", camp)]
        items.append(NewsItem(
            id=f"real-{i}",
            claim=f"{cmdr} commanded {camp}. {aide} served in {camp}.",
            gold=Verdict.REAL))
    for i in range(num_fake):
        cmdr, wrong = f"Alpha{i}", f"Delta{i}"
        items.append(NewsItem(
            id=f"fake-{i}",
            claim=f"{cmdr} commanded {wrong}.",
            gold=Verdict.FAKE))
    table = FactTable(entities=entities, facts=facts,
                      relations=["commanded", "served in"])
    return table, items


def closed_book_world():
    """``tabled_world(25, 25)``'s facts, known to the graph and not to the
    model.

    The oracle's table holds no fact, so it answers "Yes" to a sub-question
    only when the retrieved triples hold its fact. It can still extract
    every fact, from a corpus of one trusted sentence per fact. Returns the
    table, the claims and the corpus.
    """
    table, items = tabled_world(25, 25)
    closed = FactTable(entities=table.entities, facts=[],
                       extraction_facts=table.facts,
                       relations=table.relations)
    corpus = [SourceDocument(f"fact-{i}", f"{s} {r} {o}.")
              for i, (s, r, o) in enumerate(table.facts)]
    return closed, items, corpus


def carryover_world(num_linked: int = 12):
    """Two subsets where subset-2 claims hinge on knowledge from subset 1.

    Each subset-1 claim states two tabled facts and carries evidence for the
    base corpus; verifying it as real lets the extractor emit a derived
    "superior of" triple that is in nobody's fact table. The matching
    subset-2 claim states exactly that derived relation, so it is decidable
    only once subset-1 updates have landed in the graph.
    """
    entities: list[str] = []
    facts: list[tuple[str, str, str]] = []
    extraction_facts: list[tuple[str, str, str]] = []
    subset1: list[NewsItem] = []
    subset2: list[NewsItem] = []
    for i in range(num_linked):
        cmdr, aide, camp = f"Cmdr{i}", f"Aide{i}", f"Camp{i}"
        entities += [cmdr, aide, camp]
        fact_a = (cmdr, "commanded", camp)
        fact_b = (aide, "served in", camp)
        facts += [fact_a, fact_b]
        extraction_facts.append((cmdr, "superior of", aide))
        subset1.append(NewsItem(
            id=f"s1-{i}",
            claim=f"{cmdr} commanded {camp}. {aide} served in {camp}.",
            gold=Verdict.REAL,
            evidence=[f"{cmdr} commanded {camp}.", f"{aide} served in {camp}."]))
        subset2.append(NewsItem(
            id=f"s2-{i}",
            claim=f"{cmdr} superior of {aide}.",
            gold=Verdict.REAL))
    table = FactTable(entities=entities, facts=facts,
                      extraction_facts=extraction_facts,
                      relations=["commanded", "served in", "superior of"])
    return table, subset1, subset2
