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
                      Steps, Stepper)
from .jsonl import write_lines
from .kg_store import KnowledgeGraph, Triple
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


def _claim_steps(engine: SearchEngine, item: NewsItem, graph: KnowledgeGraph,
                 updates: bool, extracted: list[Triple]) -> Steps:
    """One claim's steps: its search, then, with ``updates`` on and a Real
    verdict, its update's extraction, whose triples it appends to
    ``extracted``. It returns the search's verdict, paths and tree.

    With ``updates`` off it first declares that it writes nothing."""
    search = engine.search_steps(item.claim, graph, item.id)
    if not updates:
        yield GraphWrite(frozenset())
    verdict, paths, tree = yield from search
    if updates and verdict == Verdict.REAL:
        extracted += yield from update_steps(item.id, item.claim, paths,
                                             engine.config.seed)
    return verdict, paths, tree


class _ClaimAhead:
    """The gateway as the current claim uses it, with the next claim's steps
    riding along.

    ``current`` and ``ahead`` are the two claims' ``Stepper``s over
    ``_claim_steps``. The claim ahead moves only inside ``complete_all``,
    by at most one ``GraphRead`` or ``GraphWrite`` and one step per batch
    of the current claim:

    - it passes a ``GraphWrite`` at once;
    - it passes a ``GraphRead`` once the current claim has declared its
      write set (``Stepper.writes``), if that set is empty or the read's
      text names none of its keys between word boundaries, since no triple
      the current claim inserts can then change what the read returns;
    - the step it then waits on rides the batch, under
      ``Gateway.complete_all``'s rule for ``ahead``.

    An error the claim ahead meets stays on its ``Stepper`` and is raised
    in its own ``search`` call, never by the batch that carried it.
    """

    def __init__(self, gateway: Gateway):
        self.gateway = gateway
        self.current: Optional[Stepper] = None
        self.ahead: Optional[Stepper] = None

    def complete_all(self, reqs: Sequence[LLMRequest]) -> list[LLMResponse]:
        walk, writes = self.ahead, self.current.writes
        if walk is not None and isinstance(walk.step, GraphWrite):
            walk.advance(None)
        elif (walk is not None and isinstance(walk.step, GraphRead)
                and writes is not None
                and (not writes or writes.isdisjoint(word_spans(
                    walk.step.text, max(map(len, writes)))))):
            walk.advance(None)
        return self.gateway.complete_all(reqs, walk)


def run_detection(items: list[NewsItem], graph: KnowledgeGraph,
                  config: EngineConfig, gateway: Gateway,
                  updates: bool = True,
                  ) -> tuple[RunRecord, Optional[MetricsReport], KnowledgeGraph]:
    """Detect each claim in order, inserting each Real claim's extracted
    triples into the graph before the next claim's turn.

    Each claim runs as one ``Stepper`` over ``_claim_steps``. In claim i's
    turn, claim i+1's ``Stepper`` is begun, and claim i's is handed to
    ``SearchEngine.search`` as ``begun``, so ``search`` is called once per
    claim, in dataset order. Claim i+1 rides claim i's batches
    (``_ClaimAhead``). Once claim i's ``search`` returns, its extracted
    triples are inserted. Records, graphs, calls and memo hits are those of
    a run that takes one claim at a time.

    A claim that hits a hard gateway failure, in its search or in its
    extraction, is recorded with an error and no verdict, inserts nothing,
    and is excluded from metrics; the record counts the exclusions. On
    failure paths the run differs from one that takes a claim at a time in
    two ways:

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
    riding = _ClaimAhead(gateway)
    engine = SearchEngine(riding, config)
    record = RunRecord(config_digest=_config_digest(config, updates),
                       kg_before=kg_before)
    extracted: list[list[Triple]] = [[] for _ in items]
    walks = (Stepper(_claim_steps(engine, item, graph, updates, triples))
             for item, triples in zip(items, extracted))
    riding.ahead = next(walks, None)
    for item, triples in zip(items, extracted):
        riding.current, riding.ahead = riding.ahead, next(walks, None)
        result = ClaimResult(id=item.id, gold=item.gold)
        try:
            verdict, paths, _tree = engine.search(item.claim, graph,
                                                  claim_id=item.id,
                                                  begun=riding.current)
            stats = apply_update(graph, triples, claim_id=item.id)
            triples.clear()  # the graph holds them now; keep no second copy
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
