import collections
import contextlib
import dataclasses
import functools
import gc
import hashlib
import json
import os
import re
import sys
import tempfile
import time
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from synth import (FAULTS, BatchLog, FaultyOracle, carryover_world,
                   tabled_world)

from verity.errors import GatewayHardError, TransportError, ValidationError
from verity.gateway import (Gateway, GraphRead, PromptKind, RecordingBackend,
                            ReplayBackend, ScriptedBackend, Stepper,
                            request_hash)
from verity.kg_builder import SourceDocument, build_graph
from verity.kg_store import KnowledgeGraph, Triple
from verity.knowledge_update import apply_update, extract_new_knowledge
from verity.mcts import EngineConfig, SearchEngine, paths_digest
from verity.oracle import RuleBasedOracle
from verity.retrieval import word_spans
from verity.run import (ClaimResult, _ClaimAhead, format_cells, run_detection,
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
    params = dict(n=4, h=3, b=2, alpha=2.0, top_k=5, seed=0)
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

    def test_copy_leaves_the_young_generations_before_the_first_claim(self):
        # A young collection visits every entry of a young container, so one
        # that took the run's copy of a large graph would stall whichever
        # claim it fell in.
        table, items = tabled_world(num_real=2, num_fake=0)
        base = KnowledgeGraph()
        for i in range(50):
            base.add(f"Filler{i}", "mentioned", f"Other{i}")
        seen = []
        search = SearchEngine.search

        def first_search(engine, claim, graph, *args, **kwargs):
            if not seen:
                young = {id(o) for g in (0, 1) for o in gc.get_objects(g)}
                seen.append((graph is not base,
                             id(graph.triples) in young,
                             id(graph._identities) in young))
            return search(engine, claim, graph, *args, **kwargs)

        with mock.patch.object(SearchEngine, "search", first_search):
            run_detection(items, base, small_config(),
                          Gateway(RuleBasedOracle(table)))
        assert seen == [(True, False, False)]

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

    def test_every_request_of_a_run_carries_the_engine_seed(self):
        """Search, retrieval, ranking and update requests all go out at the
        engine's seed; ``build_graph`` has none and asks at 0."""
        table, items = tabled_world(num_real=2, num_fake=1)
        oracle = RuleBasedOracle(table)
        seeds: dict[PromptKind, set[int]] = {}

        def reply(req, prompt):
            seeds.setdefault(req.kind, set()).add(req.seed)
            return oracle.generate(req, prompt)

        gateway = Gateway(ScriptedBackend(reply))
        graph, _ = build_graph([SourceDocument("doc", items[0].claim)],
                               gateway)
        assert seeds and set().union(*seeds.values()) == {0}
        for i in range(2):
            for j in range(8):
                graph.add(f"Alpha{i}", "mentioned", f"Filler{i}-{j}", "filler")
        seeds.clear()
        record, _, _ = run_detection(items, graph, small_config(n=5, seed=7),
                                     gateway)
        gateway.close()
        assert record.exclusions == 0
        assert {PromptKind.ANSWER_SUBQUESTION, PromptKind.RANK_TRIPLES} <= \
            seeds.keys()
        assert seeds == {kind: {7} for kind in PromptKind}

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
        assert gateway.call_counts[PromptKind.RANK_TRIPLES] == 1
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


def opening_step(config, item):
    """The requests of the first step of ``item``'s search."""
    engine = SearchEngine(Gateway(ScriptedBackend(None)), config)
    return Stepper(engine.search_steps(item.claim, KnowledgeGraph(),
                                       item.id)).pending


def names_any(text, keys):
    """Whether ``text`` holds any of ``keys`` between word boundaries."""
    return any(re.search(r"(?<!\w)" + re.escape(key) + r"(?!\w)", text)
               for key in keys)


@contextlib.contextmanager
def read_branches():
    """Count, at each write declaration that finds the claim ahead at a
    graph read, whether the read is released at the update's next batch
    (no key in common with the declaration) or waits; and, at each batch
    that finds it at a graph read with nothing declared writable, as with
    updates off, the read released there ("unwritten")."""
    seen = collections.Counter()
    declare = _ClaimAhead.declare_writes
    complete_all = _ClaimAhead.complete_all

    def counted(self, keys):
        step = self.ahead.step if self.ahead is not None else None
        if isinstance(step, GraphRead):
            branch = "waited" if names_any(step.text, keys) else "released"
            seen[branch] += 1
        return declare(self, keys)

    def batch(self, reqs):
        step = self.ahead.step if self.ahead is not None else None
        if isinstance(step, GraphRead) and self.writes == frozenset():
            seen["unwritten"] += 1
        return complete_all(self, reqs)

    with mock.patch.object(_ClaimAhead, "declare_writes", counted), \
            mock.patch.object(_ClaimAhead, "complete_all", batch):
        yield seen


def start_graph(triples):
    """A graph of ``triples``, (subject, relation, object) surfaces."""
    graph = KnowledgeGraph()
    for s, r, o in triples:
        graph.add(s, r, o, "seed")
    return graph


# Names of tabled_world(2, 2)'s claims, and one no claim names.
WORLD_NAMES = ("Alpha0", "Beta0", "Gamma0", "Delta0", "Alpha1", "Beta1",
               "Gamma1", "Delta1", "Town")
seed_triples = st.lists(st.tuples(st.sampled_from(WORLD_NAMES),
                                  st.sampled_from(("visited", "commanded")),
                                  st.sampled_from(WORLD_NAMES)),
                        min_size=1, max_size=10)


class TestSendAhead:
    """Each claim's first steps ride along with the claim before it."""

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
        opening = {request_hash(req): i for i, item in enumerate(items)
                   for req in opening_step(config, item)}
        claim_of = {item.claim: i for i, item in enumerate(items)}
        sent_in: dict[int, set[int]] = {}
        answered_in: dict[int, set[int]] = {}
        marks = []

        def reply(req, prompt):
            batch = len(log.batches) - 1
            claim = opening.get(request_hash(req, prompt))
            if claim is not None:
                sent_in.setdefault(claim, set()).add(batch)
            if req.kind is PromptKind.ANSWER_SUBQUESTION:
                answered_in.setdefault(claim_of[req.context["claim"]],
                                       set()).add(batch)
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
        # With updates off nothing writes the graph, so a claim ahead passes
        # its graph read at once: some claim answers a sub-question, which
        # needs the graph, in a batch of the claim before it.
        assert any(min(answered_in[i]) < marks[i] for i in answered_in)
        assert max(log.sizes) == 8
        assert gateway.round_trips == len(log.batches)
        alone = Gateway(oracle)
        results, _ = one_claim_at_a_time(items, KnowledgeGraph(), config,
                                         alone, updates=False)
        alone.close()
        assert [r.as_record() for r in record.results] == results
        assert alone.call_counts == gateway.call_counts
        assert alone.memo_hits == gateway.memo_hits

    @pytest.mark.parametrize("updates", [False, True])
    def test_identical_consecutive_claims(self, updates):
        _, items = tabled_world(3, 3)
        twice = [items[0], dataclasses.replace(items[0], id="real-0-again"),
                 items[3], dataclasses.replace(items[3], id="fake-0-again")]
        config = small_config(n=20, h=9, b=3)
        record, gateway, _ = self._run(twice, config, updates=updates)
        table, _ = tabled_world(3, 3)
        alone = Gateway(RuleBasedOracle(table))
        results, _ = one_claim_at_a_time(twice, KnowledgeGraph(), config,
                                         alone, updates=updates)
        alone.close()
        assert [r.as_record() for r in record.results] == results
        assert record.exclusions == 0
        assert gateway.call_counts == alone.call_counts
        assert gateway.memo_hits == alone.memo_hits

    @pytest.mark.parametrize("updates", [False, True])
    def test_repeated_item_at_the_head(self, updates):
        # Nothing rejects a repeated id, and the second copy's search is
        # already under way when the first copy's search is called.
        _, items = tabled_world(3, 3)
        twice = [items[0], items[0], items[3], items[3]]
        config = small_config(n=20, h=9, b=3)
        record, gateway, _ = self._run(twice, config, updates=updates)
        table, _ = tabled_world(3, 3)
        alone = Gateway(RuleBasedOracle(table))
        results, _ = one_claim_at_a_time(twice, KnowledgeGraph(), config,
                                         alone, updates=updates)
        alone.close()
        assert [r.as_record() for r in record.results] == results
        assert record.exclusions == 0
        assert gateway.call_counts == alone.call_counts
        assert gateway.memo_hits == alone.memo_hits

    def test_hand_off_matches_one_claim_at_a_time(self):
        """Items drawn with repeats, their ids from a pool of three, so two
        items may share a claim, an id or both; the claim run ahead must be
        the one whose search it finishes. The start graph holds triples
        about the claims' entities, so a claim ahead that reads the graph
        early reads what the claim before it could have written; neighbours
        with and without an entity in common make its reads both pass and
        wait, and with updates off they pass at once."""
        branches = collections.Counter()

        @settings(max_examples=80, deadline=None)
        @given(picks=st.lists(st.tuples(st.integers(0, 3),
                                        st.integers(0, 2)),
                              min_size=1, max_size=6),
               n=st.integers(1, 5), h=st.integers(2, 4), b=st.integers(1, 3),
               updates=st.booleans(), seeded=seed_triples)
        # Real claims about other entities, then a repeat, on a hub graph:
        # the read after real-0 passes.
        @example(picks=[(0, 0), (1, 1), (1, 2)], n=5, h=3, b=2, updates=True,
                 seeded=[("Alpha0", "visited", "Town")] + [
                     ("Alpha1", "visited", f"Town{j}") for j in range(6)])
        # A repeat, then a Real claim about other entities, on the same
        # graph: the repeat's read waits and the next one passes.
        @example(picks=[(1, 0), (1, 1), (0, 2)], n=5, h=3, b=2, updates=True,
                 seeded=[("Alpha0", "visited", "Town")] + [
                     ("Alpha1", "visited", f"Town{j}") for j in range(6)])
        # Updates off: each read passes at the next batch of the claim
        # before it.
        @example(picks=[(0, 0), (2, 1)], n=5, h=3, b=2, updates=False,
                 seeded=[("Alpha0", "visited", "Town")])
        def check(picks, n, h, b, updates, seeded):
            table, pool = tabled_world(2, 2)
            items = [dataclasses.replace(pool[k], id=f"item-{j}")
                     for k, j in picks]
            graph = start_graph(seeded)
            config = small_config(n=n, h=h, b=b)
            gateway = Gateway(RuleBasedOracle(table))
            with read_branches() as seen:
                record, _, _ = run_detection(items, graph, config, gateway,
                                             updates=updates)
            gateway.close()
            branches.update(seen)
            for branch in seen:
                event(f"graph read {branch}")
            alone = Gateway(RuleBasedOracle(table))
            results, kg_after = one_claim_at_a_time(items, graph, config,
                                                    alone, updates)
            alone.close()
            assert [r.as_record() for r in record.results] == results
            assert record.kg_after == kg_after
            assert gateway.call_counts == alone.call_counts
            assert gateway.memo_hits == alone.memo_hits

        check()
        assert branches["released"] and branches["waited"]
        assert branches["unwritten"]

    def test_single_iteration_sends_no_verdict_rider(self):
        _, items = tabled_world(3, 3)
        record, gateway, log = self._run(items, small_config(n=1, b=2))
        # The one iteration would expand the root's A1, which completes no
        # path, so no claim sends anything, ahead or in its own search.
        assert log.sizes == []
        assert gateway.round_trips == 0
        assert set(gateway.call_counts.values()) == {0}
        assert set(gateway.memo_hits.values()) == {0}
        assert record.exclusions == 0
        assert [r.paths_digest for r in record.results] == \
            [paths_digest([])] * len(items)

    def test_last_claim_sends_no_riders(self):
        table, items = tabled_world(3, 3)
        oracle = RuleBasedOracle(table)
        events = []

        def reply(req, prompt):
            events.append(("sent", req.context.get("claim")))
            return oracle.generate(req, prompt)

        begin, search = SearchEngine.search_steps, SearchEngine.search
        handed = []

        def begun(engine, claim, graph, claim_id=""):
            events.append(("begin", claim_id))
            return begin(engine, claim, graph, claim_id)

        def marked(engine, claim, graph, claim_id="", **kwargs):
            events.append(("search", claim_id))
            handed.append(kwargs.get("begun") is not None)
            return search(engine, claim, graph, claim_id, **kwargs)

        gateway = Gateway(ScriptedBackend(reply))
        with mock.patch.object(SearchEngine, "search_steps", begun), \
                mock.patch.object(SearchEngine, "search", marked):
            run_detection(items, KnowledgeGraph(), small_config(), gateway,
                          updates=False)
        gateway.close()
        # The first claim begins in its own search call, and each later
        # claim just before the search of the claim ahead of it, which
        # hands that begun search to the claim's own call.
        expected = [("begin", items[1].id), ("search", items[0].id),
                    ("begin", items[0].id)]
        for i in range(1, len(items)):
            if i + 1 < len(items):
                expected.append(("begin", items[i + 1].id))
            expected.append(("search", items[i].id))
        assert [event for event in events if event[0] != "sent"] == expected
        assert handed == [False] + [True] * (len(items) - 1)
        # Once the last claim is searched, nothing else rides along.
        last = events.index(("search", items[-1].id))
        assert {claim for kind, claim in events[last:] if kind == "sent"} \
            <= {items[-1].claim, None}

    def test_riders_dropped_when_the_run_raises(self):
        table, items = tabled_world(3, 3)
        oracle = RuleBasedOracle(table)
        sent = []

        def reply(req, prompt):
            sent.append(req.kind)
            if req.kind is PromptKind.ANSWER_SUBQUESTION:
                raise RuntimeError("backend bug")
            return oracle.generate(req, prompt)

        gateway = Gateway(ScriptedBackend(reply))
        with pytest.raises(RuntimeError, match="backend bug"):
            run_detection(items, KnowledgeGraph(), small_config(), gateway)
        assert PromptKind.ANSWER_SUBQUESTION in sent
        # Claim 1's opening step rode along and was answered, counted and
        # memoized; the claim is dropped, and the gateway holds nothing
        # of it: asked again, the step is answered from the memo.
        calls, round_trips = dict(gateway.call_counts), gateway.round_trips
        gateway.complete_all(opening_step(small_config(), items[1]))
        gateway.close()
        assert gateway.call_counts == calls
        assert gateway.round_trips == round_trips
        assert gateway.memo_hits[PromptKind.GENERATE_SUBQUESTION] == 2

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

    @pytest.mark.parametrize("updates", [False, True])
    def test_hard_failure_of_a_question_ahead_ends_its_own_claim(self,
                                                                 updates):
        """A step of claim 1 rides with claim 0's steps and fails for good:
        with updates on, its first answer request, which rides with claim
        0's update once claim 1's graph read passes; with updates off, its
        opening sub-question requests, which ride with claim 0's
        batches. Claim 0 is decided and updated as if nothing had failed,
        and claim 1 ends at that step."""
        table, items = tabled_world(2, 0)
        oracle = RuleBasedOracle(table)
        failing = (PromptKind.ANSWER_SUBQUESTION if updates
                   else PromptKind.GENERATE_SUBQUESTION)
        failed_during = []
        searching = []
        sent = []

        def reply(req, prompt):
            sent.append((req.kind, req.context.get("claim")))
            if req.kind is failing and \
                    req.context["claim"] == items[1].claim:
                failed_during.append(searching[-1])
                raise GatewayHardError("step down")
            return oracle.generate(req, prompt)

        search = SearchEngine.search

        def marked(engine, claim, graph, claim_id="", **kwargs):
            searching.append(claim_id)
            return search(engine, claim, graph, claim_id, **kwargs)

        gateway = Gateway(ScriptedBackend(reply), max_retries=0)
        with mock.patch.object(SearchEngine, "search", marked):
            record, _, _ = run_detection(items, KnowledgeGraph(),
                                         small_config(n=5), gateway,
                                         updates=updates)
        gateway.close()
        # Claim 0 read the graph, so claim 1 had a read to wait at.
        assert (PromptKind.ANSWER_SUBQUESTION, items[0].claim) in sent
        # With updates off, both of the opening step's sub-questions fail.
        assert failed_during == [items[0].id] * (1 if updates else 2)
        first, second = record.results
        alone = Gateway(oracle)
        [clean], _ = one_claim_at_a_time(items[:1], KnowledgeGraph(),
                                         small_config(n=5), alone, updates)
        alone.close()
        assert first.as_record() == clean
        assert second.error == "step down" and second.verdict is None

    def test_claim_ahead_waits_for_a_key_the_graph_lacks(self):
        """On an empty graph, real-0's update declares alpha0, which no
        triple has yet, and fake-0's question names it. fake-0's graph read
        waits for that update, so its first answer request carries the
        triple about alpha0 that the update inserted."""
        table, items = tabled_world(1, 1)
        oracle = RuleBasedOracle(table)
        contexts = []

        def reply(req, prompt):
            if req.kind is PromptKind.ANSWER_SUBQUESTION and \
                    req.context["claim"] == items[1].claim:
                contexts.append(req.context["triples"])
            return oracle.generate(req, prompt)

        gateway = Gateway(ScriptedBackend(reply))
        with read_branches() as seen:
            record, _, grown = run_detection(items, KnowledgeGraph(),
                                             small_config(n=5), gateway)
        gateway.close()
        assert seen == {"waited": 1}
        assert "(Alpha0; commanded; Gamma0)" in contexts[0]
        assert "alpha0" in {t.subject.key for t in grown.triples}
        alone = Gateway(RuleBasedOracle(table))
        results, kg_after = one_claim_at_a_time(items, KnowledgeGraph(),
                                                small_config(n=5), alone)
        alone.close()
        assert [r.as_record() for r in record.results] == results
        assert record.kg_after == kg_after

    def test_no_claim_reads_the_graph_before_the_one_before_commits(
            self, monkeypatch):
        """On a hub world with updates on, a claim reads the graph before
        the claim ahead of it has inserted its last triple only after that
        claim's update declared the keys it can write, and only about keys
        outside them and outside every triple it inserted. Items that share
        an entity with the claim before them, a repeated claim among them,
        read only after that claim's last insert."""
        table, pool = tabled_world(6, 6)
        again = [dataclasses.replace(pool[i], id=f"real-{i}-again")
                 for i in range(6)]
        # Pairs of neighbours with no entity in common (real-0, real-1),
        # with the commander in common (real-2, fake-2), and with the
        # claim in common (real-1, real-1-again).
        items = [pool[0], pool[1], again[1], pool[2], pool[8], pool[3],
                 pool[4], again[4], pool[5], pool[11]]
        graph = KnowledgeGraph()
        for i in range(6):
            for j in range(8):
                graph.add(f"Alpha{i}", "mentioned", f"Filler{i}-{j}", "filler")
        searches = SearchEngine.search_steps.__code__
        events = []

        def reader(name):
            real = getattr(KnowledgeGraph, name)

            def read(self, keys):
                # Every key the question read for can name, whatever the
                # graph's longest key, and the claim whose search is
                # running the read.
                frame = sys._getframe(1)
                text = frame.f_locals["text"]
                named = set(word_spans(text, len(text)))
                while frame.f_code is not searches:
                    frame = frame.f_back
                events.append(("read", frame.f_locals["claim_id"], named))
                return real(self, keys)
            return read

        add = KnowledgeGraph.add

        def insert(self, subject, relation, obj, source_id=""):
            inserted = add(self, subject, relation, obj, source_id)
            if inserted:
                t = self.triples[-1]
                events.append(("insert", source_id,
                               {t.subject.key, t.object.key}))
            return inserted

        updating = []

        def update(claim_id, *args, **kwargs):
            updating.append(claim_id)
            return extract_new_knowledge(claim_id, *args, **kwargs)

        declare = _ClaimAhead.declare_writes

        def declared(self, keys):
            events.append(("declare", updating[-1], set(keys)))
            return declare(self, keys)

        for name in ("match_entities", "one_hop_subgraph"):
            monkeypatch.setattr(KnowledgeGraph, name, reader(name))
        monkeypatch.setattr(KnowledgeGraph, "add", insert)
        monkeypatch.setattr("verity.run.extract_new_knowledge", update)
        monkeypatch.setattr(_ClaimAhead, "declare_writes", declared)
        gateway = Gateway(RuleBasedOracle(table))
        record, _, grown = run_detection(items, graph, EngineConfig(n=8, h=3, b=2, seed=0),
                                         gateway, updates=True)
        gateway.close()
        monkeypatch.undo()
        assert len(grown) > len(graph)
        assert {claim for kind, claim, _ in events if kind == "read"} == \
            {item.id for item in items}
        early = waited = 0
        for before, item in zip(items, items[1:]):
            mine = [i for i, (kind, claim, _) in enumerate(events)
                    if kind == "insert" and claim == before.id]
            last_insert = max(mine, default=-1)
            declarations = [(i, keys) for i, (kind, claim, keys)
                            in enumerate(events)
                            if kind == "declare" and claim == before.id]
            written = set().union(*(events[i][2] for i in mine),
                                  *(keys for _, keys in declarations))
            assert len(declarations) <= 1
            reads = [(i, keys) for i, (kind, claim, keys) in enumerate(events)
                     if kind == "read" and claim == item.id]
            for i, keys in reads:
                if i < last_insert:
                    assert declarations and declarations[0][0] < i
                    assert keys.isdisjoint(written)
            if reads[0][0] < last_insert:
                early += 1
            elif mine:
                waited += 1
            if item.claim.split()[0] == before.claim.split()[0]:
                # The claims share a commander, so the first question does.
                assert reads[0][0] > last_insert
        # Both branches ran: some claims read while the claim before was
        # still updating, and some waited for its inserts.
        assert early and waited
        alone = Gateway(RuleBasedOracle(table))
        results, kg_after = one_claim_at_a_time(items, graph,
                                                EngineConfig(n=8, h=3, b=2, seed=0), alone)
        alone.close()
        assert [r.as_record() for r in record.results] == results
        assert record.kg_after == kg_after
        assert gateway.call_counts == alone.call_counts
        assert gateway.memo_hits == alone.memo_hits
        # The claims did run ahead: fewer round-trips than one at a time.
        assert gateway.round_trips < alone.round_trips

    def test_blank_claim_raises_when_pulled(self):
        table, items = tabled_world(2, 0)
        blank = dataclasses.replace(items[0], id="blank", claim="  ")
        oracle = RuleBasedOracle(table)
        asked = []

        def reply(req, prompt):
            asked.append(req.kind)
            return oracle.generate(req, prompt)

        with pytest.raises(ValidationError,
                           match="blank: claim must be non-empty"):
            self._run([items[0], items[1], blank], small_config(), reply)
        assert asked == []


def _fault_world(order, seeded):
    """tabled_world(2, 2)'s claims in ``order``, and a start graph with
    enough one-hop neighbours of each claim that retrieval asks the model
    to rank them, plus the triples ``seeded``."""
    table, pool = tabled_world(num_real=2, num_fake=2)
    graph = start_graph([(f"Alpha{i}", "visited", f"Town{j}")
                         for i in range(2) for j in range(6)] + list(seeded))
    return table, [pool[k] for k in order], graph


@functools.cache
def _fault_free_results(n: int, order, seeded) -> tuple[str, ...]:
    table, items, graph = _fault_world(order, seeded)
    gateway = Gateway(RuleBasedOracle(table))
    record, _, _ = run_detection(items, graph, small_config(n=n, h=9, b=3),
                                 gateway, updates=False)
    gateway.close()
    return tuple(json.dumps(r.as_record(), sort_keys=True)
                 for r in record.results)


def one_claim_at_a_time(items, graph, config, gateway, updates=True):
    """The result records and final graph digest ``run_detection`` gives,
    computed by searching and updating one claim at a time, with no claim's
    steps sent with the claim before."""
    graph = graph.copy()
    engine = SearchEngine(gateway, config)
    results = []
    for item in items:
        result = ClaimResult(id=item.id, gold=item.gold)
        try:
            verdict, paths, _ = engine.search(item.claim, graph,
                                              claim_id=item.id)
            if updates and verdict == Verdict.REAL:
                stats = apply_update(graph, extract_new_knowledge(
                    item.id, item.claim, paths, gateway, seed=config.seed),
                    claim_id=item.id)
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


class TestFaultInjection:
    def test_faults_stay_with_their_claims(self):
        """The claims come in a drawn order, so neighbours share an entity
        (real-0, fake-0) or none (real-0, real-1), on a drawn start graph:
        a claim ahead's graph reads both pass and wait, and with updates
        off they pass at once."""
        branches = collections.Counter()

        # One iteration sends nothing, and two use the root's verdict,
        # asked in the first step, in the second.
        @settings(max_examples=60, deadline=None)
        @given(salt=st.integers(0, 2**32), percent=st.integers(0, 25),
               kinds=st.lists(st.sampled_from(FAULTS), min_size=1,
                              max_size=3, unique=True),
               updates=st.booleans(), n=st.sampled_from((1, 2, 20)),
               order=st.permutations(range(4)).map(tuple),
               seeded=seed_triples.map(tuple))
        # real-0, real-1 share no entity; real-1, fake-1 share Alpha1.
        @example(salt=0, percent=0, kinds=["hard"], updates=True, n=20,
                 order=(0, 1, 3, 2), seeded=(("Beta0", "visited", "Town"),))
        # The same with updates off: every read passes at once.
        @example(salt=0, percent=0, kinds=["hard"], updates=False, n=20,
                 order=(0, 1, 3, 2), seeded=(("Beta0", "visited", "Town"),))
        def check(salt, percent, kinds, updates, n, order, seeded):
            with read_branches() as seen:
                self._check(salt, percent, kinds, updates, n, order, seeded)
            branches.update(seen)
            for branch in seen:
                event(f"graph read {branch}")

        check()
        assert branches["released"] and branches["waited"]
        assert branches["unwritten"]

    def test_relation_wave_fails_hard_after_a_release(self):
        """real-0's update declares its keys, real-1's graph read shares
        none of them and passes, and real-1's ranking step rides with
        real-0's relation batch, whose request fails for good: real-0 is
        abandoned, its update never lands, and real-1, which read the graph
        before that, decides as when each claim runs alone."""
        table, items, graph = _fault_world((0, 1), ())
        oracle = RuleBasedOracle(table)
        ranked_in, failed_in = [], []

        def reply(req, prompt):
            batch = len(log.batches) - 1
            if req.kind is PromptKind.RANK_TRIPLES:
                ranked_in.append(batch)
            if req.kind is PromptKind.GENERATE_RELATIONS and \
                    items[0].claim in req.context["document"]:
                failed_in.append(batch)
                raise GatewayHardError("relations down")
            return oracle.generate(req, prompt)

        gateway = Gateway(ScriptedBackend(reply), max_retries=0)
        log = BatchLog(gateway)
        with read_branches() as seen:
            record, _, grown = run_detection(items, graph, small_config(),
                                             gateway)
        gateway.close()
        assert seen == {"released": 1}
        assert len(failed_in) == 1 and failed_in[0] in ranked_in
        first, second = record.results
        assert first.error == "relations down" and first.verdict is None
        assert first.triples_added == []
        assert second.error is None and second.triples_added
        assert len(grown) == len(graph) + len(second.triples_added)
        alone = Gateway(ScriptedBackend(reply), max_retries=0)
        log = BatchLog(alone)  # reply numbers this gateway's batches now
        results, kg_after = one_claim_at_a_time(items, graph, small_config(),
                                                alone)
        alone.close()
        assert [r.as_record() for r in record.results] == results
        assert record.kg_after == kg_after
        assert gateway.call_counts == alone.call_counts
        assert gateway.memo_hits == alone.memo_hits

    def _check(self, salt, percent, kinds, updates, n, order, seeded):
        table, items, graph = _fault_world(order, seeded)
        before = [t.canonical_line() for t in graph.triples]
        backend = FaultyOracle(table, salt, percent, kinds)
        config = small_config(n=n, h=9, b=3)
        with tempfile.TemporaryDirectory() as scratch:
            transcript = os.path.join(scratch, "transcript.jsonl")
            gateway = Gateway(RecordingBackend(ScriptedBackend(backend.generate),
                                               transcript),
                              max_retries=1, backoff=0.0)
            with backend.track(items):
                record, _, grown = run_detection(items, graph, config, gateway,
                                                 updates=updates)
            gateway.close()
            replay = ReplayBackend.from_path(transcript)
        # Running the next claim ahead changes nothing: the same faults hit
        # the same claims, with the same record and counts.
        alone = FaultyOracle(table, salt, percent, kinds)
        one_by_one = Gateway(ScriptedBackend(alone.generate), max_retries=1,
                             backoff=0.0)
        with alone.track(items):
            results, kg_after = one_claim_at_a_time(items, graph, config,
                                                    one_by_one, updates)
        one_by_one.close()
        assert [r.as_record() for r in record.results] == results
        assert record.kg_after == kg_after
        assert alone.hit == backend.hit and alone.sent == backend.sent
        assert one_by_one.call_counts == gateway.call_counts
        assert one_by_one.memo_hits == gateway.memo_hits
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
        for result, clean in zip(record.results,
                                 _fault_free_results(n, order, seeded)):
            if result.id not in touched:
                assert json.dumps(result.as_record(), sort_keys=True) == clean


@functools.cache
def _carryover_run():
    """run_sequential over carryover_world(12) at n8 h3 b2, seed 0, with
    updates, on the graph build_graph made from subset 1's evidence: the
    cells, that graph, its build report, the gateway and the round-trips
    the build took."""
    table, subset1, subset2 = carryover_world(num_linked=12)
    gateway = Gateway(RuleBasedOracle(table))
    # One document per evidence sentence, so that no document names a
    # commander with their aide and only the updates add "superior of".
    corpus = [SourceDocument(f"{item.id}-{i}", sentence)
              for item in subset1
              for i, sentence in enumerate(item.evidence)]
    base, report = build_graph(corpus, gateway)
    built = gateway.round_trips
    cells = run_sequential([subset1, subset2], base,
                           small_config(n=8, h=3, b=2), gateway)
    gateway.close()
    return cells, base, report, gateway, built


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
        cells, base, report, _, _ = _carryover_run()
        assert report.docs_processed == 24 and len(base) == 24
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

    def test_carryover_round_trips(self):
        """Each Real claim's update declares the keys it can write, and the
        next claim, which names other entities, reads the graph and sends
        its answer step with that update's relation batch. The pristine
        cells run with updates off, so there the claim ahead reads the
        graph at the next batch of the claim before it: 3.28 round-trips
        per claim (118 for 36 claims), where passing reads only under an
        update's declared keys took 3.44 (124) and waiting for every
        update took 4.06 (146). Calls and memo hits are those of one claim
        at a time. The build sends its 24 documents together, in 2
        round-trips where one document at a time took 48."""
        cells, _, _, gateway, built = _carryover_run()
        claims = sum(len(c.record.results) for c in cells)
        assert built == 2 and claims == 36
        assert gateway.round_trips - built == 118
        assert {k: n for k, n in gateway.call_counts.items() if n} == {
            PromptKind.EXTRACT_ENTITIES: 48,
            PromptKind.GENERATE_RELATIONS: 48,
            PromptKind.EXTRACT_EVENT_TRIPLES: 48,
            PromptKind.GENERATE_SUBQUESTION: 48,
            PromptKind.ANSWER_SUBQUESTION: 48,
            PromptKind.FINAL_VERDICT: 72}
        assert sum(gateway.memo_hits.values()) == 156

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
