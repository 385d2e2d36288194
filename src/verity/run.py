"""Detection runs: per-claim search, online knowledge updates, and the
sequential carry-over protocol where the graph updated on earlier subsets
assists later ones."""

from __future__ import annotations

import gc
import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from .dataset import NewsItem
from .errors import GatewayHardError, ValidationError
from .gateway import (Gateway, GraphRead, GraphWrite, LLMRequest, LLMResponse,
                      Stepper, drive)
from .jsonl import write_lines
from .kg_store import KnowledgeGraph
from .knowledge_update import apply_update, update_steps
from .mcts import EngineConfig, SearchEngine, paths_digest
from .retrieval import word_spans
from .metrics import MetricsReport, compute_metrics
from .verdict import Verdict

log = logging.getLogger(__name__)


@dataclass
class ClaimResult:
    id: str
    verdict: Optional[Verdict] = None
    gold: Optional[Verdict] = None
    error: Optional[str] = None
    paths_digest: str = ""
    triples_added: list[dict] = field(default_factory=list)
    duplicates: int = 0

    def as_record(self) -> dict:
        return {
            "id": self.id,
            "verdict": self.verdict.value if self.verdict else None,
            "gold": self.gold.value if self.gold else None,
            "error": self.error,
            "paths_digest": self.paths_digest,
            "triples_added": self.triples_added,
            "duplicates": self.duplicates,
        }


@dataclass
class RunRecord:
    results: list[ClaimResult] = field(default_factory=list)
    config_digest: str = ""
    kg_before: str = ""
    kg_after: str = ""

    @property
    def exclusions(self) -> int:
        """Claims abandoned on a hard gateway failure."""
        return sum(1 for r in self.results if r.error is not None)

    def digest(self) -> str:
        payload = json.dumps({
            "results": [r.as_record() for r in self.results],
            "config": self.config_digest,
            "kg_before": self.kg_before,
            "kg_after": self.kg_after,
        }, ensure_ascii=False, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def save(self, path: str) -> None:
        """One JSON line per claim result, written atomically."""
        write_lines(path, (json.dumps(r.as_record(), ensure_ascii=False) + "\n"
                           for r in self.results))


def _config_digest(config: EngineConfig, updates: bool) -> str:
    payload = json.dumps({**asdict(config), "updates": updates}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _ClaimAhead:
    """The gateway as the claim being decided uses it, with the next claim's
    search, then its knowledge update, riding along.

    It offers ``complete_all`` and ``declare_writes``, the Gateway methods
    ``drive`` calls. The search held in ``ahead`` is the next claim's, begun
    by ``run_detection`` from ``SearchEngine.search_steps``, and it moves
    only inside ``complete_all``, by at most a read and a step per batch of
    the current claim.
    First, if it waits at a ``GraphRead`` whose text holds, between word
    boundaries, none of the keys the current claim's update has declared
    it can write (``GraphWrite``), it passes the read, since no triple of
    that update can then change what the read returns. With updates off,
    ``run_detection`` declares an empty set for every claim, so the search
    passes each read at the next batch without scanning its text: on
    ``tabled_world(25, 25)`` a claim then takes 2.08 round-trips at n20 h9
    b3, where waiting for the current claim to end took 3.02. Then the
    batch goes to ``Gateway.complete_all`` with the search as its
    ``ahead``, where the step the search waits on rides if the batch
    reaches the backend and shares none of that step's memo misses.
    With updates on, once the search has ended with verdict Real, the next
    batch begins that claim's ``knowledge_update.update_steps``, held in
    ``update``, and its steps ride in the search's place, under the same
    rule. The extraction reads no graph. Its ``GraphWrite`` is passed at
    the batch after its first wave, and its keys are kept in
    ``update_writes`` for ``run_detection`` to declare when that claim's
    turn comes.
    Whatever it has not passed by the end of the current claim it meets in
    its own turn, once the claims before it have committed their updates:
    the search in its ``search`` call, the update in the ``drive`` that
    ends it. An error it meets stays with it (``Stepper.error``) and is
    raised there, never by the batch that carried it.
    """

    def __init__(self, gateway: Gateway, updates: bool, seed: int):
        self.gateway = gateway
        self.updates, self.seed = updates, seed
        self.item: Optional[NewsItem] = None
        self.ahead: Optional[Stepper] = None
        self.update: Optional[Stepper] = None
        self.update_writes: Optional[frozenset[str]] = None
        # The keys the current claim's update can write, once declared;
        # empty with updates off.
        self.writes: Optional[frozenset[str]] = None

    def run_ahead(self, item: Optional[NewsItem],
                  walk: Optional[Stepper]) -> None:
        self.item, self.ahead, self.writes = item, walk, None
        self.update = self.update_writes = None

    def declare_writes(self, keys: frozenset[str]) -> None:
        self.writes = keys

    def complete_all(self, reqs: Sequence[LLMRequest]) -> list[LLMResponse]:
        walk = self.ahead
        if walk is not None and walk.step is None and walk is not self.update:
            walk = self.ahead = self.update = self._begin_update(walk)
        if walk is not None and isinstance(walk.step, GraphWrite):
            self.update_writes = walk.step.keys
            walk.advance(None)
        elif (walk is not None and isinstance(walk.step, GraphRead)
                and self.writes is not None
                and (not self.writes or self.writes.isdisjoint(word_spans(
                    walk.step.text, max(map(len, self.writes)))))):
            walk.advance(None)
        return self.gateway.complete_all(reqs, walk)

    def _begin_update(self, search: Stepper) -> Optional[Stepper]:
        """The ended ``search`` ahead's update, if it has one."""
        if not self.updates or search.error is not None:
            return None
        verdict, paths, _tree = search.result
        if verdict != Verdict.REAL:
            return None
        return Stepper(update_steps(self.item.id, self.item.claim, paths,
                                    self.seed))


def run_detection(items: list[NewsItem], graph: KnowledgeGraph,
                  config: EngineConfig, gateway: Gateway,
                  updates: bool = True,
                  ) -> tuple[RunRecord, Optional[MetricsReport], KnowledgeGraph]:
    """Sequentially detect each claim, committing KG updates between claims.

    Claims that hit a hard gateway failure, in the search or in the
    knowledge update, are recorded with an error and no verdict and are
    excluded from metrics; the exclusion count is reported on the record.

    Each claim is searched, updated and committed in order, but one claim
    runs ahead. Before claim i's search, the run begins claim i+1's
    (``SearchEngine.search_steps``), and a backend batch of claim i, in its
    search or in its update, also carries the step claim i+1's search waits
    on, unless that step asks a request the batch sends
    (``Gateway.complete_all``, given claim i+1's search as ``ahead``), and
    resumes claim i+1 with that step's answers. Claim i+1 stops at each
    graph read. With ``updates`` off nothing writes the graph, so it
    passes each read at claim i's next batch. With ``updates`` on it
    passes one at a batch of claim i's update only when the question it
    reads for names none of the keys that update declared it can write
    (``_ClaimAhead``), so no triple of claim i can change what it reads.
    Otherwise it reads the graph only after claim i's update, when the run
    hands the begun search to claim i+1's ``search`` call. That takes its
    opening step, the root's sub-questions and verdict, off its own
    round-trips, and, past a read, its ranking or answer step too. If
    claim i+1's search ends Real while claim i runs, its update's
    extraction (``knowledge_update.update_steps``), which reads no graph,
    rides claim i's later batches under the same rule. In claim i+1's turn
    the run declares the keys that extraction has declared, right after it
    begins claim i+2, then drives the extraction to its end and inserts
    its triples, in dataset order. On ``tabled_world(25, 25)`` with
    ``updates`` off, a claim takes 0.70 round-trips at the engine defaults
    and 2.08 at n20 h9 b3 (1.28 and 4.00 with no claim ahead); with
    ``updates`` on, 1.24 at the defaults (1.42 while each update waited for
    its own turn). Records, graphs, calls and memo hits are those of a run
    that searches and updates one claim at a time, and an error of the
    claim ahead ends that claim, at its own step. On failure paths the run
    differs from one that takes a claim at a time in these ways:

    - The claim ahead's transport retries delay the claim whose batch
      carried them.
    - If the run raises, the claim ahead may already have sent and counted
      some of its requests.

    A blank claim raises ``ValidationError``, naming its item, before
    anything is sent. The input graph's digest cache is updated before the
    run copies it, so a graph passed to several runs is hashed in full only
    once.
    """
    for item in items:
        if not item.claim.strip():
            raise ValidationError(f"item {item.id}: claim must be non-empty")
    kg_before = graph.content_digest()
    graph = graph.copy()
    # The copy's triple list and identity set are new containers of one
    # entry per triple. The first young collection after the copy visits
    # them all (15 ms at 100k triples), in whichever claim the allocation
    # count lands it on. Collecting the young generations here moves them
    # to the old one before the first claim, where a young collection
    # never visits them.
    gc.collect(1)
    riding = _ClaimAhead(gateway, updates, config.seed)
    engine = SearchEngine(riding, config)
    record = RunRecord(config_digest=_config_digest(config, updates),
                       kg_before=kg_before)
    begun: Optional[Stepper] = None
    for i, item in enumerate(items):
        # This claim's update, if it began while the claim ran ahead, and
        # the keys it has declared.
        update, writes = riding.update, riding.update_writes
        following, ahead = None, None
        if i + 1 < len(items):
            following = items[i + 1]
            ahead = Stepper(engine.search_steps(following.claim, graph,
                                                following.id))
        riding.run_ahead(following, ahead)
        if not updates:
            riding.declare_writes(frozenset())
        elif writes is not None:
            riding.declare_writes(writes)
        result = ClaimResult(id=item.id, gold=item.gold)
        try:
            verdict, paths, _tree = engine.search(item.claim, graph,
                                                  claim_id=item.id,
                                                  begun=begun)
            if updates and verdict == Verdict.REAL:
                new_triples = drive(update or update_steps(
                    item.id, item.claim, paths, config.seed), riding)
                stats = apply_update(graph, new_triples, claim_id=item.id)
                result.duplicates = stats.duplicates
                # Only the actually-inserted triples land in the record.
                result.triples_added = [
                    t.as_record() for t in graph.triples[-stats.added:]
                ] if stats.added else []
            # An abandoned claim carries no verdict, so it is set last.
            result.verdict = verdict
            result.paths_digest = paths_digest(paths)
        except GatewayHardError as exc:
            log.warning("claim %s failed: %s", item.id, exc)
            result.error = str(exc)
        record.results.append(result)
        begun = ahead
    record.kg_after = graph.content_digest()
    scored = [r for r in record.results if r.error is None and r.gold is not None]
    report = None
    if scored:
        report = compute_metrics([r.verdict for r in scored],
                                 [r.gold for r in scored])
    return record, report, graph


@dataclass
class SequentialCell:
    setting: str
    accuracy: float
    population: int
    record: RunRecord


def run_sequential(subsets: list[list[NewsItem]], base_graph: KnowledgeGraph,
                   config: EngineConfig, gateway: Gateway,
                   updates: bool = True) -> list[SequentialCell]:
    """Evaluate each subset pristine and with the carried-over updated graph.

    Subset 1 runs once (producing the first updated graph); every later
    subset i runs both against the pristine base graph and against the graph
    updated during subsets 1..i-1.
    """
    if not subsets or any(not s for s in subsets):
        raise ValidationError("run_sequential requires non-empty subsets")

    cells: list[SequentialCell] = []

    def cell(setting: str, items: list[NewsItem], graph: KnowledgeGraph,
             with_updates: bool) -> KnowledgeGraph:
        record, report, out_graph = run_detection(items, graph, config, gateway,
                                                  updates=with_updates)
        accuracy = report.accuracy if report else 0.0
        population = report.population if report else 0
        cells.append(SequentialCell(setting, accuracy, population, record))
        return out_graph

    carried = cell("subset1", subsets[0], base_graph, updates)
    for i, subset in enumerate(subsets[1:], start=2):
        cell(f"subset{i}", subset, base_graph, False)
        carry_tag = "kg1" if i == 2 else "kg1&" + "&".join(
            str(j) for j in range(2, i))
        carried = cell(f"subset{i}+{carry_tag}", subset, carried, updates)
    return cells


def format_cells(cells: list[SequentialCell]) -> str:
    lines = [f"{'setting':<20}{'accuracy':>10}{'population':>12}"]
    for c in cells:
        lines.append(f"{c.setting:<20}{c.accuracy:>10.4f}{c.population:>12}")
    return "\n".join(lines)
