import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import tempfile
import threading
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from synth import BatchLog, carryover_world, tabled_world

from verity.errors import GatewayHardError, TransportError, ValidationError
from verity.gateway import (Gateway, PromptKind, RecordingBackend,
                            ReplayBackend, ScriptedBackend, request_hash)
from verity.kg_builder import SourceDocument, build_graph
from verity.kg_store import KnowledgeGraph, Triple
from verity.knowledge_update import apply_update, extract_new_knowledge
from verity.mcts import EngineConfig, SearchEngine, paths_digest
from verity.oracle import RuleBasedOracle
from verity.run import (ClaimResult, format_cells, run_detection,
                        run_sequential)
from verity.verdict import Verdict

import pytest


# RunRecord.digest() of tabled_world(3, 3) at n20 h9 b3, seed 0, with updates,
# as computed when each expansion still sent its requests one by one.
SEQUENTIAL_DEEP_DIGEST = \
    "ca5102fbe0295d51c348583549441385538c986fd6a811f74edbc07f9d72c62a"

# sha256 of the run digests of run_sequential over carryover_world(12) at
# n8 h3 b2, seed 0, with updates, on the graph build_graph made from subset
# 1's evidence, followed by the sha256 of the carried graph's canonical lines;
# as computed when each document's three extraction requests went out one
# after another.
SEQUENTIAL_CARRYOVER_DIGEST = \
    "8173d2071f8794ac69dc739243a838dcbd73736c4858b85a64736998b18dc72c"

# sha256 of the run digest of tabled_world(6, 6) at the engine defaults,
# seed 0, with updates, on a graph of eight filler triples around each claim
# subject, so that every answer step ranks its candidates (bench's bigkg
# shape), followed by the sha256 of the updated graph's canonical lines; as
# computed when the root's verdict had a round-trip of its own.
HUB_RANKING_DIGEST = \
    "6a52102ea315ed11ef99cbc8fd7a835a867e7e71b1437c20acda66da52eb0b59"


def from_scratch(graph):
    """sha256 of the graph's lines, serialized independently of kg_store."""
    return records_digest(t.as_record() for t in graph.triples)


def records_digest(records):
    """sha256 of triple records written as a saved graph's lines."""
    lines = [json.dumps(r, ensure_ascii=False, sort_keys=True)
             for r in records]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def small_config(**overrides):
    params = dict(n=3, h=3, b=2, alpha=2.0, top_k=5, seed=0)
    params.update(overrides)
    return EngineConfig(**params)


class TestRunDetection:
    def test_oracle_world_perfect_accuracy(self):
        table, items = tabled_world(num_real=4, num_fake=4)
        gateway = Gateway(RuleBasedOracle(table))
        record, metrics, _ = run_detection(items, KnowledgeGraph(),
                                           small_config(), gateway)
        assert metrics is not None
        assert metrics.accuracy == 1.0
        assert record.exclusions == 0

    def test_updates_off_leaves_graph_unchanged(self):
        table, items = tabled_world(num_real=3, num_fake=0)
        gateway = Gateway(RuleBasedOracle(table))
        base = KnowledgeGraph()
        base.add("seed", "relation", "value")
        record, _, out_graph = run_detection(items, base, small_config(),
                                             gateway, updates=False)
        assert [t.identity for t in out_graph.triples] == \
            [t.identity for t in base.triples]
        assert record.kg_before == record.kg_after
        assert all(r.triples_added == [] for r in record.results)

    def test_updates_on_grows_graph_for_real_claims(self):
        table, items = tabled_world(num_real=2, num_fake=1)
        gateway = Gateway(RuleBasedOracle(table))
        record, _, out_graph = run_detection(items, KnowledgeGraph(),
                                             small_config(), gateway)
        assert len(out_graph) > 0
        fake = next(r for r in record.results if r.id == "fake-0")
        assert fake.triples_added == []

    def test_input_graph_not_mutated(self):
        table, items = tabled_world(num_real=2, num_fake=0)
        gateway = Gateway(RuleBasedOracle(table))
        base = KnowledgeGraph()
        run_detection(items, base, small_config(), gateway)
        assert len(base) == 0

    def test_deterministic_digests(self):
        table, items = tabled_world(num_real=3, num_fake=3)
        digests = []
        for _ in range(2):
            gateway = Gateway(RuleBasedOracle(table))
            record, _, _ = run_detection(items, KnowledgeGraph(),
                                         small_config(seed=11), gateway)
            digests.append(record.digest())
        assert digests[0] == digests[1]

    def test_seed_changes_config_digest_only(self):
        table, items = tabled_world(num_real=1, num_fake=1)
        gateway = Gateway(RuleBasedOracle(table))
        a, _, _ = run_detection(items, KnowledgeGraph(),
                                small_config(seed=1), gateway)
        b, _, _ = run_detection(items, KnowledgeGraph(),
                                small_config(seed=2), gateway)
        assert a.config_digest != b.config_digest

    def test_hard_failure_excludes_claim(self):
        table, items = tabled_world(num_real=2, num_fake=0)

        class FlakyOracle(RuleBasedOracle):
            def generate(self, req, prompt):
                if "Alpha0" in prompt:
                    raise TransportError("connection refused")
                return super().generate(req, prompt)

        gateway = Gateway(FlakyOracle(table), max_retries=1, backoff=0.0)
        record, metrics, _ = run_detection(items, KnowledgeGraph(),
                                           small_config(), gateway)
        assert record.exclusions == 1
        failed = next(r for r in record.results if r.id == "real-0")
        assert failed.error
        assert failed.verdict is None
        # Metrics cover only the surviving claim.
        assert metrics.tp + metrics.fp + metrics.tn + metrics.fn == 1

    def test_failed_update_leaves_no_verdict(self):
        table, items = tabled_world(num_real=1, num_fake=0)
        oracle = RuleBasedOracle(table)

        def fail_update(req, prompt):
            if req.kind is PromptKind.EXTRACT_EVENT_TRIPLES:
                raise GatewayHardError("HTTP 400")
            return oracle.generate(req, prompt)

        record, metrics, grown = run_detection(
            items, KnowledgeGraph(), small_config(),
            Gateway(ScriptedBackend(fail_update)))
        [result] = record.results
        assert (result.error, result.verdict, result.paths_digest) == \
            ("HTTP 400", None, "")
        assert record.exclusions == 1 and metrics is None
        assert len(grown) == 0

    def test_update_extraction_failure_leaves_no_verdict(self):
        table, items = tabled_world(num_real=1, num_fake=0)
        oracle = RuleBasedOracle(table)
        asked = []

        def fail_events(req, prompt):
            asked.append(req.kind)
            if req.kind is PromptKind.EXTRACT_EVENT_TRIPLES:
                raise TransportError("injected")
            return oracle.generate(req, prompt)

        gateway = Gateway(ScriptedBackend(fail_events), max_retries=0)
        record, metrics, grown = run_detection(items, KnowledgeGraph(),
                                               small_config(), gateway)
        gateway.close()
        [result] = record.results
        assert result.error == \
            "extract_event_triples failed after 1 attempts: injected"
        assert result.verdict is None and metrics is None and len(grown) == 0
        assert PromptKind.GENERATE_RELATIONS not in asked

    def test_update_takes_two_extraction_round_trips(self):
        table, items = tabled_world(num_real=1, num_fake=0)
        gateway = Gateway(RuleBasedOracle(table))
        # Run once without updates, so that the memo answers every search
        # request and only the update's batches reach the backend.
        run_detection(items, KnowledgeGraph(), small_config(), gateway,
                      updates=False)
        log = BatchLog(gateway)
        record, _, _ = run_detection(items, KnowledgeGraph(), small_config(),
                                     gateway)
        gateway.close()
        [result] = record.results
        assert result.verdict is Verdict.REAL and result.triples_added
        assert log.batches == [
            {PromptKind.EXTRACT_ENTITIES, PromptKind.EXTRACT_EVENT_TRIPLES},
            {PromptKind.GENERATE_RELATIONS}]

    def test_hub_ranking_keeps_digest(self):
        table, items = tabled_world(6, 6)
        graph = KnowledgeGraph()
        for i in range(6):
            for j in range(8):
                graph.add(f"Alpha{i}", "mentioned", f"Filler{i}-{j}", "filler")
        gateway = Gateway(RuleBasedOracle(table))
        record, _, grown = run_detection(items, graph, EngineConfig(seed=0),
                                         gateway, updates=True)
        gateway.close()
        assert gateway.call_counts[PromptKind.RANK_TRIPLES] == 11
        assert len(grown) == len(graph) + 12
        lines = [record.digest(), from_scratch(grown)]
        assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() \
            == HUB_RANKING_DIGEST

    def test_record_round_trip(self, tmp_path):
        table, items = tabled_world(num_real=1, num_fake=1)
        gateway = Gateway(RuleBasedOracle(table))
        record, _, _ = run_detection(items, KnowledgeGraph(), small_config(),
                                     gateway)
        path = tmp_path / "run.jsonl"
        record.save(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_record_save_failure_keeps_old_file(self, tmp_path, monkeypatch):
        table, items = tabled_world(num_real=2, num_fake=1)
        record, _, _ = run_detection(items, KnowledgeGraph(), small_config(),
                                     Gateway(RuleBasedOracle(table)))
        path = tmp_path / "run.jsonl"
        path.write_text("old record\n")
        real = ClaimResult.as_record
        calls = []

        def flaky(self):
            calls.append(self)
            if len(calls) == 2:
                raise OSError("disk went away")
            return real(self)

        monkeypatch.setattr(ClaimResult, "as_record", flaky)
        with pytest.raises(OSError, match="disk went away"):
            record.save(str(path))
        assert path.read_text() == "old record\n"
        assert os.listdir(tmp_path) == ["run.jsonl"]

    def test_kg_digests_equal_from_scratch_sha256(self):
        table, items = tabled_world(num_real=3, num_fake=1)
        gateway = Gateway(RuleBasedOracle(table))
        base = KnowledgeGraph()
        base.add("Zoë", "lives in", "Köln \"Altstadt\"", "seed\\doc")
        record, _, grown = run_detection(items, base, small_config(), gateway)
        assert len(grown) > len(base)
        assert record.kg_before == from_scratch(base)
        assert record.kg_after == from_scratch(grown)
        # A carried graph starts where the previous run ended.
        again, _, regrown = run_detection(items, grown, small_config(),
                                          gateway, updates=False)
        assert again.kg_before == record.kg_after
        assert again.kg_after == from_scratch(regrown) == record.kg_after

    def test_reused_input_graph_is_hashed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "kg.jsonl"
        seed = KnowledgeGraph()
        for i in range(50):
            seed.add(f"Zoë {i}", "lives in", f"Köln {i % 7}", "seed")
        seed.save(str(path))
        loaded = KnowledgeGraph.load(str(path))
        table, items = tabled_world(num_real=2, num_fake=1)
        gateway = Gateway(RuleBasedOracle(table))
        inputs = {id(t) for t in loaded.triples}
        serialized = []
        real = Triple.canonical_line
        monkeypatch.setattr(Triple, "canonical_line",
                            lambda t: serialized.append(id(t)) or real(t))
        # Every saved line is canonical, so load hashed it as read: not even
        # the first run serializes an input triple for kg_before.
        first, _, _ = run_detection(items, loaded, small_config(), gateway)
        assert serialized and not inputs.intersection(serialized)
        serialized.clear()
        second, _, grown = run_detection(items, loaded, small_config(),
                                         gateway)
        assert len(grown) > len(loaded)
        assert serialized and not inputs.intersection(serialized)
        assert second.kg_before == first.kg_before == from_scratch(loaded)

    def test_replay_reproduces_run_byte_identical(self, tmp_path):
        table, items = tabled_world(num_real=3, num_fake=2)
        transcript = tmp_path / "transcript.jsonl"
        recording = Gateway(RecordingBackend(RuleBasedOracle(table),
                                             str(transcript)))
        config = small_config(seed=5)
        rec1, _, g1 = run_detection(items, KnowledgeGraph(), config, recording)
        replayed = Gateway(ReplayBackend.from_path(str(transcript)))
        rec2, _, g2 = run_detection(items, KnowledgeGraph(), config, replayed)
        assert rec1.digest() == rec2.digest()
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        g1.save(str(f1))
        g2.save(str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_backend_sees_each_distinct_request_once(self, tmp_path):
        table, items = tabled_world(num_real=3, num_fake=3)
        hashes = []

        class HashingOracle(RuleBasedOracle):
            def generate(self, req, prompt):
                hashes.append(request_hash(req, prompt))
                return super().generate(req, prompt)

        transcript = tmp_path / "transcript.jsonl"
        recording = Gateway(RecordingBackend(HashingOracle(table),
                                             str(transcript)))
        config = small_config(n=20, h=9, b=3)
        rec1, _, _ = run_detection(items, KnowledgeGraph(), config, recording)
        assert sum(recording.call_counts.values()) == len(hashes) == \
            len(set(hashes))
        assert sum(recording.memo_hits.values()) > 0
        replayed = Gateway(ReplayBackend.from_path(str(transcript)))
        rec2, _, _ = run_detection(items, KnowledgeGraph(), config, replayed)
        assert rec1.digest() == rec2.digest()
        assert replayed.call_counts == recording.call_counts


    def test_retried_answers_replay_in_order(self, tmp_path):
        table, items = tabled_world(num_real=3, num_fake=3)
        oracle = RuleBasedOracle(table)
        asked = set()

        def blank_first(req, prompt):
            # The first answer to each sub-question prompt does not parse,
            # so the search asks again and keeps the second.
            key = request_hash(req, prompt)
            if req.kind is PromptKind.GENERATE_SUBQUESTION and key not in asked:
                asked.add(key)
                return " "
            return oracle.generate(req, prompt)

        transcript = tmp_path / "transcript.jsonl"
        recording = Gateway(RecordingBackend(ScriptedBackend(blank_first),
                                             str(transcript)))
        config = small_config(n=20, h=9, b=3)
        rec1, _, _ = run_detection(items, KnowledgeGraph(), config, recording,
                                   updates=False)
        recording.close()
        assert [r.verdict for r in rec1.results] == [r.gold for r in rec1.results]
        replayed = Gateway(ReplayBackend.from_path(str(transcript)))
        rec2, _, _ = run_detection(items, KnowledgeGraph(), config, replayed,
                                   updates=False)
        replayed.close()
        assert rec2.digest() == rec1.digest()
        assert replayed.call_counts == recording.call_counts

    def test_replay_under_another_seed_misses(self, tmp_path):
        table, items = tabled_world(num_real=3, num_fake=3)
        transcript = tmp_path / "transcript.jsonl"
        recording = Gateway(RecordingBackend(RuleBasedOracle(table),
                                             str(transcript)))
        run_detection(items, KnowledgeGraph(), small_config(seed=0), recording)
        replayed = Gateway(ReplayBackend.from_path(str(transcript)))
        record, metrics, _ = run_detection(items, KnowledgeGraph(),
                                           small_config(seed=1), replayed)
        assert record.exclusions == len(items) and metrics is None
        assert all(r.error.startswith("no recorded response")
                   and r.verdict is None for r in record.results)

    def test_sibling_hard_error_excludes_claim(self):
        table, items = tabled_world(num_real=2, num_fake=1)
        oracle = RuleBasedOracle(table)

        def fail_one_sibling(req, prompt):
            if (req.kind is PromptKind.GENERATE_SUBQUESTION
                    and "Alpha1" in req.context["claim"]
                    and req.context["branch"] == "1"):
                raise GatewayHardError("HTTP 400")
            return oracle.generate(req, prompt)

        gateway = Gateway(ScriptedBackend(fail_one_sibling))
        record, metrics, _ = run_detection(items, KnowledgeGraph(),
                                           small_config(n=6, h=5, b=3),
                                           gateway)
        gateway.close()
        assert record.exclusions == 1
        failed = next(r for r in record.results if r.id == "real-1")
        assert failed.error == "HTTP 400"
        assert failed.verdict is None
        assert metrics.tp + metrics.fp + metrics.tn + metrics.fn == 2

    def test_out_of_order_answers_keep_sequential_digest(self, tmp_path):
        table, items = tabled_world(num_real=3, num_fake=3)
        oracle = RuleBasedOracle(table)

        def delayed(req, prompt):
            # 0-2 ms by request hash, so siblings finish out of order.
            time.sleep(int(request_hash(req, prompt)[:4], 16) % 2001 / 1e6)
            return oracle.generate(req, prompt)

        transcript = tmp_path / "transcript.jsonl"
        recording = Gateway(RecordingBackend(ScriptedBackend(delayed),
                                             str(transcript)))
        config = small_config(n=20, h=9, b=3)
        rec1, _, _ = run_detection(items, KnowledgeGraph(), config, recording)
        recording.close()
        assert rec1.digest() == SEQUENTIAL_DEEP_DIGEST
        replayed = Gateway(ReplayBackend.from_path(str(transcript)))
        rec2, _, _ = run_detection(items, KnowledgeGraph(), config, replayed)
        replayed.close()
        assert rec2.digest() == SEQUENTIAL_DEEP_DIGEST
        assert replayed.call_counts == recording.call_counts


class TestSendAhead:
    """Each claim's opening batch rides along with the claim before it."""

    def _run(self, items, config, reply=None, updates=False):
        table, _ = tabled_world(3, 3)
        oracle = RuleBasedOracle(table)
        gateway = Gateway(ScriptedBackend(reply or oracle.generate))
        log = BatchLog(gateway)
        record, _, _ = run_detection(items, KnowledgeGraph(), config, gateway,
                                     updates=updates)
        gateway.close()
        return record, gateway, log

    def test_opening_batch_leaves_with_the_claim_before(self):
        table, items = tabled_world(3, 3)
        oracle = RuleBasedOracle(table)
        config = small_config(n=20, h=9, b=3)
        engine = SearchEngine(Gateway(oracle), config)
        opening = {request_hash(req): i for i, item in enumerate(items)
                   for req in engine.opening_requests(item.claim)}
        sent_in: dict[int, set[int]] = {}
        marks = []

        def reply(req, prompt):
            claim = opening.get(request_hash(req, prompt))
            if claim is not None:
                sent_in.setdefault(claim, set()).add(len(log.batches) - 1)
            return oracle.generate(req, prompt)

        gateway = Gateway(ScriptedBackend(reply))
        log = BatchLog(gateway)
        search = SearchEngine.search

        def marked(engine, *args, **kwargs):
            marks.append(len(log.batches))
            return search(engine, *args, **kwargs)

        with mock.patch.object(SearchEngine, "search", marked):
            record, _, _ = run_detection(items, KnowledgeGraph(), config,
                                         gateway, updates=False)
        gateway.close()
        # Claim 0 sends its own opening batch, with claim 1's behind it;
        # each later claim's first backend batch carries the next opening.
        assert sent_in[0] == {0} and log.sizes[0] == 2 * (3 + 1)
        for i in range(len(items) - 1):
            assert sent_in[i + 1] == {marks[i]}
        assert max(log.sizes) == 8
        alone = Gateway(oracle)
        results, _ = one_claim_at_a_time(items, KnowledgeGraph(), config,
                                         alone, updates=False)
        alone.close()
        assert [r.as_record() for r in record.results] == results

    def test_identical_consecutive_claims(self):
        _, items = tabled_world(3, 3)
        twice = [items[0], dataclasses.replace(items[0], id="real-0-again"),
                 items[3], dataclasses.replace(items[3], id="fake-0-again")]
        config = small_config(n=20, h=9, b=3)
        record, gateway, _ = self._run(twice, config, updates=True)
        table, _ = tabled_world(3, 3)
        alone = Gateway(RuleBasedOracle(table))
        results, _ = one_claim_at_a_time(twice, KnowledgeGraph(), config,
                                         alone)
        alone.close()
        assert [r.as_record() for r in record.results] == results
        assert record.exclusions == 0
        assert gateway.call_counts == alone.call_counts
        assert gateway.memo_hits == alone.memo_hits

    def test_single_iteration_sends_no_verdict_rider(self):
        _, items = tabled_world(3, 3)
        record, gateway, log = self._run(items, small_config(n=1, b=2))
        # A claim that rode along needs no batch of its own, so every other
        # claim sends its opening batch with the next one's behind it.
        assert log.sizes == [4, 4, 4]
        assert all(kinds == {PromptKind.GENERATE_SUBQUESTION}
                   for kinds in log.batches)
        assert gateway.call_counts[PromptKind.FINAL_VERDICT] == 0
        assert gateway.call_counts[PromptKind.GENERATE_SUBQUESTION] == 12
        assert record.exclusions == 0

    def test_last_claim_sends_no_riders(self):
        table, items = tabled_world(3, 3)
        gateway = Gateway(RuleBasedOracle(table))
        queued = []
        seen = []
        send_ahead = gateway.send_ahead

        def spy(reqs):
            queued.append({req.context["claim"] for req in reqs})
            send_ahead(reqs)

        search = SearchEngine.search

        def marked(engine, claim, graph, claim_id=""):
            seen.append(len(queued))
            return search(engine, claim, graph, claim_id)

        gateway.send_ahead = spy
        with mock.patch.object(SearchEngine, "search", marked):
            run_detection(items, KnowledgeGraph(), small_config(), gateway,
                          updates=False)
        # One queue per claim: claims 0 and 1 before the first search, and
        # each later claim before the search of the claim ahead of it.
        assert queued == [{item.claim} for item in items]
        assert seen == [min(i + 2, len(items)) for i in range(len(items))]
        # Nothing is left queued or held: a fresh request goes out alone.
        log = BatchLog(gateway)
        other = dataclasses.replace(items[0], claim="Alpha9 commanded Gamma9.")
        gateway.complete_all(SearchEngine(gateway, small_config())
                             .opening_requests(other.claim))
        gateway.close()
        assert log.sizes == [3]

    def test_riders_dropped_when_the_run_raises(self):
        table, items = tabled_world(3, 3)
        oracle = RuleBasedOracle(table)

        def reply(req, prompt):
            if req.kind is PromptKind.ANSWER_SUBQUESTION:
                raise RuntimeError("backend bug")
            return oracle.generate(req, prompt)

        gateway = Gateway(ScriptedBackend(reply))
        with pytest.raises(RuntimeError, match="backend bug"):
            run_detection(items, KnowledgeGraph(), small_config(), gateway)
        # Claim 1's opening batch rode along, and its outcomes are gone.
        log = BatchLog(gateway)
        engine = SearchEngine(gateway, small_config())
        gateway.complete_all(engine.opening_requests(items[1].claim))
        gateway.close()
        assert log.sizes == [3]
        assert gateway.memo_hits[PromptKind.GENERATE_SUBQUESTION] == 0

    def test_hard_rider_failure_ends_its_own_claim(self):
        table, items = tabled_world(2, 0)
        oracle = RuleBasedOracle(table)
        carried_by = []

        def reply(req, prompt):
            if (req.kind is PromptKind.FINAL_VERDICT
                    and req.context["claim"] == items[1].claim
                    and req.context["transcript"] == "(none)"):
                carried_by.append(len(log.batches) - 1)
                raise GatewayHardError("verdict down")
            return oracle.generate(req, prompt)

        gateway = Gateway(ScriptedBackend(reply))
        log = BatchLog(gateway)
        record, _, _ = run_detection(items, KnowledgeGraph(), small_config(),
                                     gateway, updates=False)
        gateway.close()
        # Claim 0's first batch carried the failing request, once.
        assert carried_by == [0]
        first, second = record.results
        assert first.error is None and first.verdict is Verdict.REAL
        assert second.error == "verdict down" and second.verdict is None

    def test_blank_claim_raises_when_pulled(self):
        _, items = tabled_world(1, 0)
        blank = dataclasses.replace(items[0], id="blank", claim="  ")
        with pytest.raises(ValidationError, match="non-empty"):
            self._run([items[0], blank], small_config())


# Faults a backend call may meet; "garbage" is text no parser accepts.
FAULTS = ("transport", "hard", "garbage")


def _fault_world():
    """tabled_world(2, 2) and a seed graph with enough one-hop neighbours
    of each claim that retrieval asks the model to rank them."""
    table, items = tabled_world(num_real=2, num_fake=2)
    graph = KnowledgeGraph()
    for i in range(2):
        for j in range(6):
            graph.add(f"Alpha{i}", "visited", f"Town{j}", "seed")
    return table, items, graph


@functools.cache
def _fault_free_results(n: int) -> tuple[str, ...]:
    table, items, graph = _fault_world()
    gateway = Gateway(RuleBasedOracle(table))
    record, _, _ = run_detection(items, graph, small_config(n=n, h=9, b=3),
                                 gateway, updates=False)
    gateway.close()
    return tuple(json.dumps(r.as_record(), sort_keys=True)
                 for r in record.results)


def one_claim_at_a_time(items, graph, config, gateway, updates=True):
    """The result records and final graph digest ``run_detection`` gives,
    computed by searching and updating one claim at a time, with no claim's
    requests sent with the claim before. Each claim's opening requests are
    queued just before its search, so its verdict rides with its
    sub-questions."""
    graph = graph.copy()
    engine = SearchEngine(gateway, config)
    results = []
    for item in items:
        result = ClaimResult(id=item.id, gold=item.gold)
        gateway.send_ahead(engine.opening_requests(item.claim))
        try:
            verdict, paths, _ = engine.search(item.claim, graph,
                                              claim_id=item.id)
            if updates and verdict == Verdict.REAL:
                stats = apply_update(graph, extract_new_knowledge(
                    item.id, item.claim, paths, gateway), claim_id=item.id)
                result.duplicates = stats.duplicates
                result.triples_added = [
                    t.as_record() for t in graph.triples[-stats.added:]
                ] if stats.added else []
            result.verdict = verdict
            result.paths_digest = paths_digest(paths)
        except GatewayHardError as exc:
            result.error = str(exc)
        results.append(result.as_record())
    return results, graph.content_digest()


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
        self.opening: dict[str, str] = {}
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def track(self, items, config):
        """Note the claim each call belongs to while the block runs.

        A call belongs to the claim being searched or updated, except that
        a claim's opening requests belong to that claim wherever they are
        sent.
        """
        engine = SearchEngine(Gateway(self.oracle), config)
        self.opening = {request_hash(req): item.id for item in items
                        for req in engine.opening_requests(item.claim)}
        search = SearchEngine.search

        def tracked(engine, claim, graph, claim_id=""):
            self.claim = claim_id
            return search(engine, claim, graph, claim_id)

        with mock.patch.object(SearchEngine, "search", tracked):
            yield

    def generate(self, req, prompt):
        key = request_hash(req, prompt)
        with self._lock:
            attempt = self.sent[key] = self.sent.get(key, -1) + 1
        draw = hashlib.sha256(f"{self.salt}:{key}:{attempt}".encode()).digest()
        if draw[0] * 100 < self.percent * 256:
            fault = self.kinds[draw[1] % len(self.kinds)]
            with self._lock:
                self.hit.setdefault(fault, set()).add(
                    self.opening.get(key, self.claim))
            if fault == "transport":
                raise TransportError("injected")
            if fault == "hard":
                raise GatewayHardError("injected")
            return " \n "
        return self.oracle.generate(req, prompt)


class TestFaultInjection:
    # One iteration sends no verdict rider, and two ask the root's verdict
    # in the second.
    @settings(max_examples=60, deadline=None)
    @given(salt=st.integers(0, 2**32), percent=st.integers(0, 25),
           kinds=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3,
                          unique=True),
           updates=st.booleans(), n=st.sampled_from((1, 2, 20)))
    def test_faults_stay_with_their_claims(self, salt, percent, kinds,
                                           updates, n):
        table, items, graph = _fault_world()
        before = [t.canonical_line() for t in graph.triples]
        backend = FaultyOracle(table, salt, percent, kinds)
        config = small_config(n=n, h=9, b=3)
        with tempfile.TemporaryDirectory() as scratch:
            transcript = os.path.join(scratch, "transcript.jsonl")
            gateway = Gateway(RecordingBackend(ScriptedBackend(backend.generate),
                                               transcript),
                              max_retries=1, backoff=0.0)
            with backend.track(items, config):
                record, _, grown = run_detection(items, graph, config, gateway,
                                                 updates=updates)
            gateway.close()
            replay = ReplayBackend.from_path(transcript)
        # Sending each claim's opening batch ahead changes nothing: the same
        # faults hit the same claims, with the same record and counts.
        alone = FaultyOracle(table, salt, percent, kinds)
        one_by_one = Gateway(ScriptedBackend(alone.generate), max_retries=1,
                             backoff=0.0)
        with alone.track(items, config):
            results, kg_after = one_claim_at_a_time(items, graph, config,
                                                    one_by_one, updates)
        one_by_one.close()
        assert [r.as_record() for r in record.results] == results
        assert record.kg_after == kg_after
        assert alone.hit == backend.hit and alone.sent == backend.sent
        assert one_by_one.call_counts == gateway.call_counts
        assert one_by_one.memo_hits == gateway.memo_hits
        # With send_ahead a no-op there is no lookahead at all: each request
        # goes out when a step asks for it, with the same record and counts.
        plain = Gateway(ScriptedBackend(
            FaultyOracle(table, salt, percent, kinds).generate),
            max_retries=1, backoff=0.0)
        plain.send_ahead = lambda reqs: None
        unsent, _, _ = run_detection(items, graph, config, plain,
                                     updates=updates)
        plain.close()
        assert [r.as_record() for r in unsent.results] == results
        assert unsent.kg_after == record.kg_after
        assert plain.call_counts == gateway.call_counts
        assert plain.memo_hits == gateway.memo_hits
        failed = {r.id for r in record.results if r.error is not None}
        assert record.exclusions == len(failed)
        # An abandoned claim carries no verdict.
        assert all(r.verdict is None and r.paths_digest == ""
                   for r in record.results if r.error is not None)
        if not failed:
            # Retried transport faults and unparseable answers replay too.
            replayed = Gateway(replay)
            again, _, _ = run_detection(items, graph, config, replayed,
                                        updates=updates)
            replayed.close()
            assert again.digest() == record.digest()
        # A hard fault ends its claim; only hard and transport faults do.
        hit = backend.hit
        assert hit.get("hard", set()) <= failed
        assert failed <= hit.get("hard", set()) | hit.get("transport", set())
        # The input graph is untouched, and the output only grows.
        assert [t.canonical_line() for t in graph.triples] == before
        assert record.kg_before == graph.content_digest()
        after = [t.canonical_line() for t in grown.triples]
        assert after[:len(before)] == before
        assert len(after) - len(before) == \
            sum(len(r.triples_added) for r in record.results)
        assert record.kg_after == grown.content_digest()
        if updates:
            return
        assert after == before
        # Without updates, a claim no fault reached decides as if none had.
        touched = set().union(*hit.values())
        for result, clean in zip(record.results, _fault_free_results(n)):
            if result.id not in touched:
                assert json.dumps(result.as_record(), sort_keys=True) == clean


class TestRunSequential:
    def test_carryover_cells(self):
        table, subset1, subset2 = carryover_world(num_linked=3)
        gateway = Gateway(RuleBasedOracle(table))
        config = small_config(n=8, h=3, seed=0)
        cells = run_sequential([subset1, subset2], KnowledgeGraph(), config,
                               gateway)
        by_setting = {c.setting: c for c in cells}
        assert set(by_setting) == {"subset1", "subset2", "subset2+kg1"}
        assert by_setting["subset1"].accuracy == 1.0
        assert by_setting["subset2"].accuracy == 0.0
        assert by_setting["subset2+kg1"].accuracy == 1.0
        assert all(c.population == 3 for c in cells)

    def test_carryover_keeps_sequential_digest(self):
        table, subset1, subset2 = carryover_world(num_linked=12)
        gateway = Gateway(RuleBasedOracle(table))
        # One document per evidence sentence, so that no document names a
        # commander with their aide and only the updates add "superior of".
        corpus = [SourceDocument(f"{item.id}-{i}", sentence)
                  for item in subset1
                  for i, sentence in enumerate(item.evidence)]
        base, report = build_graph(corpus, gateway)
        cells = run_sequential([subset1, subset2], base,
                               small_config(n=8, h=3, b=2), gateway)
        gateway.close()
        assert report.docs_processed == len(corpus) == 24 and len(base) == 24
        assert [c.accuracy for c in cells] == [1.0, 0.0, 1.0]
        # The carried graph is the built one plus every update, in order.
        carried = [t.as_record() for t in base.triples] + [
            t for c in cells for r in c.record.results
            for t in r.triples_added]
        carried_digest = records_digest(carried)
        assert carried_digest == cells[-1].record.kg_after
        lines = [c.record.digest() for c in cells] + [carried_digest]
        assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() \
            == SEQUENTIAL_CARRYOVER_DIGEST

    def test_three_subset_tags(self):
        table, items = tabled_world(num_real=3, num_fake=0)
        gateway = Gateway(RuleBasedOracle(table))
        cells = run_sequential([[items[0]], [items[1]], [items[2]]],
                               KnowledgeGraph(), small_config(), gateway)
        assert [c.setting for c in cells] == \
            ["subset1", "subset2", "subset2+kg1",
             "subset3", "subset3+kg1&2"]

    def test_empty_subset_rejected(self):
        table, items = tabled_world(num_real=1, num_fake=0)
        gateway = Gateway(RuleBasedOracle(table))
        with pytest.raises(ValidationError):
            run_sequential([items, []], KnowledgeGraph(), small_config(),
                           gateway)

    def test_format_cells_layout(self):
        table, items = tabled_world(num_real=1, num_fake=1)
        gateway = Gateway(RuleBasedOracle(table))
        cells = run_sequential([[items[0]], [items[1]]], KnowledgeGraph(),
                               small_config(), gateway)
        text = format_cells(cells)
        assert text.splitlines()[0].split() == \
            ["setting", "accuracy", "population"]
        assert len(text.splitlines()) == len(cells) + 1
