"""The three workloads: set-up, the timed claims window, and the checks.

Every workload drives verity through its public API the way the ``verity``
command does: read the input files, run ``run_detection`` per dataset (the
sequential protocol on ``carryover``), then write the run record and, when
updates are on, the updated graph. The checks compare what the program
produced with what the generator knows (gold labels, the triples it wrote)
and with properties the method must have; they never compare against a
stored copy of earlier output.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import verity.dataset as vdataset
import verity.kg_builder as vbuilder
import verity.mcts as vmcts
import verity.run as vrun
from verity.gateway import Gateway
from verity.kg_store import KnowledgeGraph
from verity.mcts import EngineConfig
from verity.verdict import Verdict

import worlds


class ClaimClock:
    """Per-claim wall times, stamped at each ``SearchEngine.search`` call.

    A claim runs from its search call to the next one, so its knowledge
    update is included. The first claim of a ``run_detection`` call starts
    when the call does and the last ends once its outputs are written, so
    the per-run fixed costs (graph copy, digests, saves) land on them.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []
        self._marks: list[float] = []
        self._original = vmcts.SearchEngine.search
        original, marks = self._original, self._marks

        def search(engine, *args, **kwargs):
            marks.append(time.perf_counter())
            return original(engine, *args, **kwargs)

        vmcts.SearchEngine.search = search

    def open(self) -> None:
        self._marks.clear()
        self._marks.append(time.perf_counter())

    def close(self) -> None:
        bounds = [self._marks[0]] + self._marks[2:] + [time.perf_counter()]
        self.durations.extend(b - a for a, b in zip(bounds, bounds[1:]))
        self._marks.clear()

    def remove(self) -> None:
        vmcts.SearchEngine.search = self._original


@dataclass
class Cell:
    """One ``run_detection`` call and what it wrote."""

    name: str
    dataset: str                      # key into World.gold
    items: list
    graph_in: KnowledgeGraph
    updates: bool
    expect_accuracy: float
    record: Optional[vrun.RunRecord] = None
    graph_out: Optional[KnowledgeGraph] = None
    record_path: Optional[Path] = None
    graph_path: Optional[Path] = None
    len_in: int = 0


def detect(cell: Cell, config: EngineConfig, gateway: Gateway,
           clock: ClaimClock, workdir: Path) -> Cell:
    """``verity detect``: run the claims, then write record and graph."""
    cell.len_in = len(cell.graph_in)
    clock.open()
    record, _, graph_out = vrun.run_detection(
        cell.items, cell.graph_in, config, gateway, updates=cell.updates)
    cell.record_path = workdir / f"out-{cell.name}-run.jsonl"
    record.save(str(cell.record_path))
    if cell.updates:
        cell.graph_path = workdir / f"out-{cell.name}-kg.jsonl"
        graph_out.save(str(cell.graph_path))
    clock.close()
    cell.record, cell.graph_out = record, graph_out
    return cell


@dataclass
class Workload:
    name: str
    config: Callable[[int], EngineConfig]
    setup: Callable[[worlds.World], dict]
    execute: Callable[..., list[Cell]]
    # Extra checks: (world, inputs, cells, heavy) -> problems found. The
    # heavy ones copy a whole graph and run once per run, after the rounds.
    extra_checks: Callable[..., list[str]]


# -- carryover --------------------------------------------------------------

def _carry_setup(world: worlds.World) -> dict:
    subset1 = vdataset.load_dataset(str(world.files["subset1"])).items
    subset2 = vdataset.load_dataset(str(world.files["subset2"])).items
    corpus = vdataset.split_subsets(subset1, 1).corpora[0]
    return {"subset1": subset1, "subset2": subset2, "corpus": corpus}


def _carry_execute(inputs: dict, config: EngineConfig, gateway: Gateway,
                   clock: ClaimClock, workdir: Path) -> list[Cell]:
    base, report = vbuilder.build_graph(inputs["corpus"], gateway)
    inputs["base"], inputs["build_report"] = base, report
    first = detect(Cell("subset1", "subset1", inputs["subset1"], base, True,
                        1.0), config, gateway, clock, workdir)
    pristine = detect(Cell("subset2", "subset2", inputs["subset2"], base,
                           False, 0.0), config, gateway, clock, workdir)
    carried = detect(Cell("subset2+kg1", "subset2", inputs["subset2"],
                          first.graph_out, True, 1.0),
                     config, gateway, clock, workdir)
    return [first, pristine, carried]


def _carry_checks(world, inputs, cells, heavy) -> list[str]:
    built = {t.identity for t in inputs["base"].triples}
    if built != world.expected_base:
        return [f"base graph holds {len(built)} triples, the evidence states "
                f"{len(world.expected_base)}: "
                f"{sorted(built ^ world.expected_base)[:3]}"]
    return []


# -- deep -------------------------------------------------------------------

def _graph_setup(world: worlds.World) -> dict:
    return {"graph": KnowledgeGraph.load(str(world.files["kg"])),
            "items": vdataset.load_dataset(str(world.files["dataset"])).items}


def _single_execute(dataset: str, updates: bool):
    def execute(inputs: dict, config: EngineConfig, gateway: Gateway,
                clock: ClaimClock, workdir: Path) -> list[Cell]:
        return [detect(Cell(dataset, dataset, inputs["items"], inputs["graph"],
                            updates, 1.0), config, gateway, clock, workdir)]
    return execute


def _as_rows(triples) -> list[tuple]:
    return [(t.subject.surface, t.relation, t.object.surface, t.source_id, t.seq)
            for t in triples]


def _stored_graph_checks(world, inputs, cells, heavy) -> list[str]:
    if not heavy:
        return []
    if _as_rows(inputs["graph"].triples) != worlds.graph_rows(world.files["kg"]):
        return ["loaded graph differs from the triples the generator wrote"]
    return []


# -- bigkg ------------------------------------------------------------------

def _bigkg_checks(world, inputs, cells, heavy) -> list[str]:
    problems = _stored_graph_checks(world, inputs, cells, heavy)
    if problems or not heavy:
        return problems
    # one_hop_subgraph against a brute-force scan of the generator's triples.
    rng = random.Random(world.seed)
    triples = worlds.graph_rows(world.files["kg"])
    entities = sorted({row[0] for row in triples[:5000]})
    graph = inputs["graph"]
    rows = [(worlds.norm_key(s), worlds.norm_key(o), (s, r, o, src, seq))
            for s, r, o, src, seq in triples]
    for trial in range(24):
        keys = {worlds.norm_key(k) for k in
                rng.sample(world.hubs, 2) + rng.sample(entities, 3)}
        expected = [row for s, o, row in rows if s in keys or o in keys]
        if _as_rows(graph.one_hop_subgraph(keys)) != expected:
            problems.append(f"one_hop_subgraph differs from a scan for {keys}")
    return problems


WORKLOADS: dict[str, Workload] = {
    "carryover": Workload(
        "carryover", lambda seed: EngineConfig(n=8, h=3, b=2, seed=seed),
        _carry_setup, _carry_execute, _carry_checks),
    "deep": Workload(
        "deep", lambda seed: EngineConfig(n=20, h=9, b=3, seed=seed),
        _graph_setup, _single_execute("deep", False),
        _stored_graph_checks),
    "bigkg": Workload(
        "bigkg", lambda seed: EngineConfig(seed=seed),
        _graph_setup, _single_execute("bigkg", True),
        _bigkg_checks),
}


# -- checks shared by every workload ----------------------------------------

def check_saved_graphs(cells: list[Cell]) -> list[str]:
    """Each written graph reloads to the triples the run ended with.

    At 100k triples a reload costs as much as the set-up and holds a second
    graph, so this runs once per run.
    """
    return [f"{cell.name}: saved graph reloads to other triples"
            for cell in cells if cell.graph_path is not None
            and KnowledgeGraph.load(str(cell.graph_path)).triples
            != cell.graph_out.triples]


def check_cells(world: worlds.World, cells: list[Cell]) -> list[str]:
    """Verdicts, exclusions, graph growth and the run record written."""
    problems: list[str] = []
    for cell in cells:
        record, gold = cell.record, world.gold[cell.dataset]
        where = f"{cell.name}:"
        ids = [r.id for r in record.results]
        if ids != [it.id for it in cell.items] or sorted(ids) != sorted(gold):
            problems.append(f"{where} record does not list every claim once")
        failed = [r.id for r in record.results if r.error is not None]
        if failed or record.exclusions:
            problems.append(f"{where} {len(failed)} claims excluded: {failed[:3]}")
        right = sum(1 for r in record.results
                    if r.verdict is not None and r.verdict.value == gold[r.id])
        accuracy = right / len(gold)
        if accuracy != cell.expect_accuracy:
            problems.append(f"{where} accuracy {accuracy:.3f} against gold, "
                            f"expected {cell.expect_accuracy}")
        # The updated graph is the input plus exactly the listed triples.
        out, len_in = cell.graph_out.triples, cell.len_in
        if len(cell.graph_in) != len_in:
            problems.append(f"{where} the input graph was modified")
        listed = [t for r in record.results for t in r.triples_added]
        if out[:len_in] != cell.graph_in.triples[:len_in] \
                or [t.as_record() for t in out[len_in:]] != listed:
            problems.append(f"{where} updated graph is not the input graph "
                            f"plus the {len(listed)} triples the record lists")
        for r in record.results:
            if r.triples_added and r.verdict is not Verdict.REAL:
                problems.append(f"{where} claim {r.id} judged {r.verdict} "
                                "added triples")
            if any(t["source_id"] != r.id for t in r.triples_added):
                problems.append(f"{where} claim {r.id} lists triples with "
                                "another source")
        if not cell.updates and listed:
            problems.append(f"{where} updates off, yet triples were added")
        with open(cell.record_path, encoding="utf-8") as fh:
            saved = [json.loads(line) for line in fh]
        if saved != [r.as_record() for r in record.results]:
            problems.append(f"{where} saved run record differs from the run")
    return problems
