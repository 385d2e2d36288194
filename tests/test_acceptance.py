"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import math
import random
import time

from synth import carryover_world, tabled_world
from test_mcts import make_tree, structural_check

from verity.gateway import Gateway, RecordingBackend, ReplayBackend
from verity.kg_store import KnowledgeGraph, make_triple
from verity.knowledge_update import apply_update
from verity.mcts import (ActionKind, EngineConfig, SearchEngine, path_reward,
                         select)
from verity.metrics import compute_metrics
from verity.oracle import RuleBasedOracle
from verity.run import run_detection, run_sequential
from verity.verdict import Verdict


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {name}: {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_uct_oracle_equivalence():
    rng = random.Random(20240817)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        nchildren = rng.randrange(2, 8)
        tree = make_tree(b=nchildren)
        for _ in range(nchildren):
            tree.add_child(tree.root, ActionKind.A3, "v")
        children = []
        for i in range(nchildren):
            child = tree.add_child(tree.root, ActionKind.A1, f"q{i}")
            child.q = rng.uniform(0, 10)
            child.v = rng.randrange(1, 101)
            children.append(child)
        tree.root.v = sum(c.v for c in children)
        picked = select(tree, rng)
        best_score = -math.inf
        best = None
        for child in children:
            score = child.q / child.v + 2.0 * math.sqrt(
                math.log(tree.root.v) / child.v)
            if score > best_score:
                best_score, best = score, child
        if picked is not best:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(1, "uct oracle equivalence",
           mismatches == 0 and elapsed < 5.0,
           f"1000 child sets, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_02_reward_formula():
    exact = path_reward(3, 2) == 0.6
    unanimous = path_reward(7, 0) == 1.0
    tie = path_reward(4, 4) == 0.5
    bounded = all(0.5 <= path_reward(maj, mino) <= 1.0
                  for maj in range(1, 40) for mino in range(0, maj + 1))
    report(2, "reward formula", exact and unanimous and tie and bounded,
           "path_reward(3,2)=0.6, unanimous=1.0, tie=0.5, range [0.5,1]")


def test_criterion_03_structural_legality():
    table, items = tabled_world(4, 4)
    gateway = Gateway(RuleBasedOracle(table))
    rng = random.Random(3)
    checked = 0
    for _ in range(200):
        config = EngineConfig(n=rng.randrange(1, 7), h=rng.randrange(2, 13),
                              b=rng.randrange(1, 4), seed=rng.randrange(10_000))
        engine = SearchEngine(gateway, config)
        item = rng.choice(items)
        _, _, tree = engine.search(item.claim, KnowledgeGraph(),
                                   claim_id=item.id)
        structural_check(tree, config)
        checked += 1
    report(3, "structural legality", checked == 200,
           f"{checked} randomized searches, h in 2..12, zero violations")


def test_criterion_04_one_hop_equivalence():
    rng = random.Random(4)
    start = time.perf_counter()
    comparisons = 0
    for size in (100, 1_000, 10_000):
        g = KnowledgeGraph()
        universe = [f"entity {i}" for i in range(max(20, size // 20))]
        for _ in range(size):
            g.add(rng.choice(universe), "linked to", rng.choice(universe))
        for _ in range(500 if size == 10_000 else 100):
            keys = {f"entity {rng.randrange(len(universe))}"
                    for _ in range(rng.randrange(1, 6))}
            expected = [t for t in g.triples
                        if t.subject.key in keys or t.object.key in keys]
            assert g.one_hop_subgraph(keys) == expected
            comparisons += 1
    elapsed = time.perf_counter() - start
    report(4, "one-hop retrieval equivalence", elapsed < 10.0,
           f"graphs up to 10,000 triples, {comparisons} key sets, "
           f"{elapsed:.2f}s")


def test_criterion_05_update_gating_and_idempotence():
    table, items = tabled_world(10, 10)
    gateway = Gateway(RuleBasedOracle(table))
    graph = KnowledgeGraph()
    sizes = [0]
    batches = []
    record, _, _ = run_detection(items, graph, EngineConfig(seed=5), gateway)
    for result in record.results:
        if result.triples_added:
            assert result.verdict is Verdict.REAL
            batches.append(result.triples_added)
    # Replay the run incrementally to observe the size trajectory.
    for batch in batches:
        triples = [make_triple(r["subject"], r["relation"], r["object"])
                   for r in batch]
        stats = apply_update(graph, triples)
        sizes.append(len(graph))
        again = apply_update(graph, triples)
        assert again.added == 0
        assert stats.added == len(batch)
    monotone = all(a <= b for a, b in zip(sizes, sizes[1:]))
    report(5, "update gating and idempotence",
           monotone and bool(batches),
           f"{len(batches)} Real-claim batches, re-apply adds 0, "
           f"sizes {sizes[0]}..{sizes[-1]} monotone")


def test_criterion_06_end_to_end_oracle_accuracy():
    table, items = tabled_world(25, 25)
    gateway = Gateway(RuleBasedOracle(table))
    config = EngineConfig(n=5, h=5, b=2, alpha=2.0, top_k=5, seed=6)
    start = time.perf_counter()
    record, metrics, _ = run_detection(items, KnowledgeGraph(), config,
                                       gateway)
    elapsed = time.perf_counter() - start
    ok = (metrics is not None and metrics.accuracy == 1.0
          and record.exclusions == 0 and elapsed < 60.0)
    report(6, "end-to-end oracle accuracy", ok,
           f"50 claims, accuracy {metrics.accuracy:.2f}, {elapsed:.2f}s "
           "(n=5 h=5 b=2 alpha=2 K=5)")


def test_criterion_07_knowledge_update_benefit():
    table, subset1, subset2 = carryover_world(num_linked=12)
    gateway = Gateway(RuleBasedOracle(table))
    config = EngineConfig(n=8, h=3, b=2, alpha=2.0, top_k=5, seed=7)
    start = time.perf_counter()
    cells = run_sequential([subset1, subset2], KnowledgeGraph(), config,
                           gateway)
    elapsed = time.perf_counter() - start
    by_setting = {c.setting: c for c in cells}
    gap = (by_setting["subset2+kg1"].accuracy
           - by_setting["subset2"].accuracy)
    floor = 10 / len(subset2)
    ok = gap >= floor and elapsed < 120.0
    report(7, "knowledge-update benefit", ok,
           f"accuracy gap {gap:.3f} >= {floor:.3f} "
           f"({len(subset2)} linked claims), {elapsed:.2f}s")


def test_criterion_08_metrics_identities():
    rng = random.Random(8)
    R, F = Verdict.REAL, Verdict.FAKE
    for _ in range(1000):
        size = rng.randrange(1, 40)
        preds = [rng.choice([R, F]) for _ in range(size)]
        golds = [rng.choice([R, F]) for _ in range(size)]
        m = compute_metrics(preds, golds)
        tp = sum(1 for p, g in zip(preds, golds) if p is R and g is R)
        fp = sum(1 for p, g in zip(preds, golds) if p is R and g is F)
        tn = sum(1 for p, g in zip(preds, golds) if p is F and g is F)
        fn = size - tp - fp - tn
        assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)
        assert m.accuracy == (tp + tn) / size
        assert m.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert m.recall == (tp / (tp + fn) if tp + fn else 0.0)
        denom = m.precision + m.recall
        assert m.f1 == (2 * m.precision * m.recall / denom if denom else 0.0)
    report(8, "metrics identities", True,
           "1000 random vectors match confusion-matrix recomputation")


def test_criterion_09_determinism(tmp_path):
    table, items = tabled_world(5, 5)
    transcript = tmp_path / "transcript.jsonl"
    recording = Gateway(RecordingBackend(RuleBasedOracle(table),
                                         str(transcript)))
    config = EngineConfig(seed=9)
    run_detection(items, KnowledgeGraph(), config, recording)

    digests, kg_bytes = [], []
    for run in range(2):
        gateway = Gateway(ReplayBackend.from_path(str(transcript)))
        record, _, graph = run_detection(items, KnowledgeGraph(), config,
                                         gateway)
        out = tmp_path / f"kg-{run}.jsonl"
        graph.save(str(out))
        digests.append(record.digest())
        kg_bytes.append(out.read_bytes())
    ok = digests[0] == digests[1] and kg_bytes[0] == kg_bytes[1]
    report(9, "determinism", ok,
           f"replayed twice, digest {digests[0][:12]}.., KG files identical")


def test_criterion_10_persistence_round_trip(tmp_path):
    rng = random.Random(10)
    for size in (0, 1, 100, 10_000):
        g = KnowledgeGraph()
        for i in range(size):
            g.add(f"Node {rng.randrange(size + 1)}", f"rel {i % 17}",
                  f"Node {rng.randrange(size + 1)}", source_id=f"s{i % 7}")
        path = tmp_path / f"kg-{size}.jsonl"
        g.save(str(path))
        loaded = KnowledgeGraph.load(str(path))
        assert loaded.triples == g.triples
        assert len(loaded) == len(g)
    report(10, "persistence round-trip", True,
           "graphs of 0, 1, 100, and 10,000 triples round-trip exactly")
