"""Detection runs: per-claim search, online knowledge updates, and the
sequential carry-over protocol where the graph updated on earlier subsets
assists later ones."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field
from typing import Optional

from .dataset import NewsItem
from .errors import GatewayHardError, ValidationError
from .gateway import Gateway
from .jsonl import write_lines
from .kg_store import KnowledgeGraph
from .knowledge_update import apply_update, extract_new_knowledge
from .mcts import EngineConfig, SearchEngine, paths_digest
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


def run_detection(items: list[NewsItem], graph: KnowledgeGraph,
                  config: EngineConfig, gateway: Gateway,
                  updates: bool = True,
                  ) -> tuple[RunRecord, Optional[MetricsReport], KnowledgeGraph]:
    """Sequentially detect each claim, committing KG updates between claims.

    Claims that hit a hard gateway failure, in the search or in the
    knowledge update, are recorded with an error and no verdict and are
    excluded from metrics; the exclusion count is reported on the record.

    The run is the one place that sends requests ahead. It queues claim 0's
    and claim 1's opening requests (``SearchEngine.opening_requests``) with
    ``Gateway.send_ahead`` before the first search, and claim i+1's before
    claim i's. They read no graph and no answer, so they ride along with the
    next backend batch: claim 0's verdict with its own sub-questions, and
    each later claim's opening with the first batch of the claim before.
    Records, graphs, calls and memo hits are those of a run whose
    ``send_ahead`` is a no-op; a rider that fails hard ends the claim it
    belongs to, at the step that asks for it. The riders left when the run
    returns or raises are dropped. On failure paths a run differs from one
    without riders in these ways:

    - A rider's transport retries delay the claim whose batch carried it.
    - A blank claim raises ``ValidationError`` when it is queued, before
      the claim ahead of it is decided.
    - A rider that is never asked, such as the verdict of a claim that
      failed before its root's A3, or one dropped when the run raises, was
      seen by the backend, and ``call_counts`` does not count it.

    The input graph's digest cache is updated before the run copies it, so
    a graph passed to several runs is hashed in full only once.
    """
    kg_before = graph.content_digest()
    graph = graph.copy()
    engine = SearchEngine(gateway, config)
    record = RunRecord(config_digest=_config_digest(config, updates),
                       kg_before=kg_before)
    try:
        if items:
            gateway.send_ahead(engine.opening_requests(items[0].claim))
        for i, item in enumerate(items):
            if i + 1 < len(items):
                gateway.send_ahead(engine.opening_requests(items[i + 1].claim))
            result = ClaimResult(id=item.id, gold=item.gold)
            try:
                verdict, paths, _tree = engine.search(item.claim, graph,
                                                      claim_id=item.id)
                if updates and verdict == Verdict.REAL:
                    new_triples = extract_new_knowledge(
                        item.id, item.claim, paths, gateway)
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
    finally:
        gateway.drop_riders()
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
