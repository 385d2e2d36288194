import functools
import hashlib
import json
import os
import tempfile
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st
from synth import BatchLog, carryover_world, tabled_world

from verity.errors import GatewayHardError, TransportError, ValidationError
from verity.gateway import (Gateway, PromptKind, RecordingBackend,
                            ReplayBackend, ScriptedBackend, request_hash)
from verity.kg_builder import SourceDocument, build_graph
from verity.kg_store import KnowledgeGraph, Triple
from verity.mcts import EngineConfig
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
def _fault_free_results() -> tuple[str, ...]:
    table, items, graph = _fault_world()
    gateway = Gateway(RuleBasedOracle(table))
    record, _, _ = run_detection(items, graph, small_config(n=20, h=9, b=3),
                                 gateway, updates=False)
    gateway.close()
    return tuple(json.dumps(r.as_record(), sort_keys=True)
                 for r in record.results)


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
        self._lock = threading.Lock()

    def track(self, items):
        """Iterate ``items``, noting which claim the calls belong to."""
        for item in items:
            self.claim = item.id
            yield item

    def generate(self, req, prompt):
        key = request_hash(req, prompt)
        with self._lock:
            attempt = self.sent[key] = self.sent.get(key, -1) + 1
        draw = hashlib.sha256(f"{self.salt}:{key}:{attempt}".encode()).digest()
        if draw[0] * 100 < self.percent * 256:
            fault = self.kinds[draw[1] % len(self.kinds)]
            with self._lock:
                self.hit.setdefault(fault, set()).add(self.claim)
            if fault == "transport":
                raise TransportError("injected")
            if fault == "hard":
                raise GatewayHardError("injected")
            return " \n "
        return self.oracle.generate(req, prompt)


class TestFaultInjection:
    @settings(max_examples=30, deadline=None)
    @given(salt=st.integers(0, 2**32), percent=st.integers(0, 25),
           kinds=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3,
                          unique=True),
           updates=st.booleans())
    def test_faults_stay_with_their_claims(self, salt, percent, kinds,
                                           updates):
        table, items, graph = _fault_world()
        before = [t.canonical_line() for t in graph.triples]
        backend = FaultyOracle(table, salt, percent, kinds)
        config = small_config(n=20, h=9, b=3)
        with tempfile.TemporaryDirectory() as scratch:
            transcript = os.path.join(scratch, "transcript.jsonl")
            gateway = Gateway(RecordingBackend(ScriptedBackend(backend.generate),
                                               transcript),
                              max_retries=1, backoff=0.0)
            record, _, grown = run_detection(backend.track(items), graph,
                                             config, gateway, updates=updates)
            gateway.close()
            replay = ReplayBackend.from_path(transcript)
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
        for result, clean in zip(record.results, _fault_free_results()):
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
