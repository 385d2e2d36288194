import collections
import math
from dataclasses import asdict, replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from synth import (FAULTS, BatchLog, FaultyOracle, build_one_by_one,
                   carryover_world, closed_book_world, tabled_world)

from verity import kg_builder
from verity.errors import GatewayHardError, TransportError, ValidationError
from verity.gateway import (Gateway, LLMRequest, PromptKind, RecordingBackend,
                            ReplayBackend, ScriptedBackend, drive)
from verity.kg_builder import (BUILD_WINDOW, CHUNK_CHARS, BuildReport,
                               SourceDocument, build_graph, document_steps)
from verity.kg_store import Entity, Triple
from verity.oracle import RuleBasedOracle


def doc(body, id="doc-1"):
    return SourceDocument(id=id, body=body)


def named_entities(body, table):
    """The entity lists that ``document_steps`` over ``body`` names in its
    relation requests, and the gateway it ran on."""
    oracle = RuleBasedOracle(table)
    named = []

    def reply(req, prompt):
        if req.kind is PromptKind.GENERATE_RELATIONS:
            named.append(req.context["entities"])
        return oracle.generate(req, prompt)

    gateway = Gateway(ScriptedBackend(reply))
    drive(document_steps(doc(body)), gateway)
    gateway.close()
    return named, gateway


class TestExtractEntities:
    """The entities the document extraction finds, as its relation wave
    names them."""

    def test_sentence(self, tunisia_table):
        named, _ = named_entities("Eisenhower commanded Anderson in Tunisia.",
                                  tunisia_table)
        assert named == ["Eisenhower, Anderson, Tunisia"]

    def test_empty_document(self, tunisia_table):
        named, gateway = named_entities("", tunisia_table)
        assert named == []
        assert gateway.round_trips == 0

    def test_duplicate_mentions_single_entry(self, tunisia_table):
        named, _ = named_entities("Anderson met ANDERSON; anderson agreed.",
                                  tunisia_table)
        assert named == ["Anderson"]


class TestExtractEntityRelations:
    def test_relation_found(self, oracle_gateway):
        d = doc("Eisenhower commanded Anderson in Tunisia.")
        triples, dropped = drive(document_steps(d), oracle_gateway)
        identities = {t.identity for t in triples}
        assert ("eisenhower", "commanded", "anderson") in identities

    def test_unknown_entity_triples_dropped(self, tunisia_table):
        # The oracle still emits the Anderson/Tunisia relation, but it does
        # not extract Tunisia as an entity, so the relation must be dropped.
        table = replace(tunisia_table, entities=[
            e for e in tunisia_table.entities if e != "Tunisia"])
        d = doc("Eisenhower commanded Anderson. Anderson fought in Tunisia.")
        triples, dropped = drive(document_steps(d),
                                 Gateway(RuleBasedOracle(table)))
        assert dropped >= 1
        assert all(t.subject.key != "anderson" or t.object.key != "tunisia"
                   for t in triples)


class TestExtractEventTriples:
    """Event triples, whose endpoints may be multi-word phrases, as the
    document extraction returns them."""

    def test_event_sentence(self, oracle_gateway):
        triples, _ = drive(document_steps(
            doc("The landing occurred in November 1942.")), oracle_gateway)
        assert [t.identity for t in triples] == \
            [("the landing", "occurred in", "november 1942")]

    def test_empty(self, oracle_gateway):
        assert drive(document_steps(doc("")), oracle_gateway) == ([], 0)

    def test_no_event(self, oracle_gateway):
        triples, _ = drive(document_steps(doc("Quiet day.")), oracle_gateway)
        assert triples == []


class TestBuildGraph:
    def test_overlapping_docs_dedup(self, oracle_gateway):
        corpus = [
            doc("Eisenhower commanded Anderson.", id="a"),
            doc("Eisenhower commanded Anderson in Tunisia.", id="b"),
        ]
        graph, report = build_graph(corpus, oracle_gateway)
        identities = [t.identity for t in graph.triples]
        assert len(identities) == len(set(identities))
        assert report.triples_duplicate >= 1

    def test_empty_corpus(self, oracle_gateway):
        graph, report = build_graph([], oracle_gateway)
        assert len(graph) == 0
        assert report.docs_processed == 0

    def test_untrusted_doc_rejected(self, oracle_gateway):
        with pytest.raises(ValidationError):
            build_graph([SourceDocument("x", "body", trusted=False)],
                        oracle_gateway)

    def test_provenance_points_into_corpus(self, oracle_gateway):
        corpus = [doc("Eisenhower commanded Anderson.", id="only-doc")]
        graph, _ = build_graph(corpus, oracle_gateway)
        assert graph.triples
        assert all(t.source_id == "only-doc" for t in graph.triples)

    def test_order_insensitive_triple_set(self, oracle_gateway):
        docs = [doc("Eisenhower commanded Anderson.", id="a"),
                doc("The landing occurred in November 1942.", id="b")]
        g1, _ = build_graph(docs, oracle_gateway)
        g2, _ = build_graph(list(reversed(docs)), oracle_gateway)
        assert {t.identity for t in g1.triples} == \
            {t.identity for t in g2.triples}

    def test_transcript_replay_builds_identical_file(self, tmp_path,
                                                     tunisia_table):
        """The documents of a window complete in any order, so the
        transcript's lines do too; it holds the lines of a build one
        document at a time, and replaying it builds the same file."""
        corpus = [doc("Eisenhower commanded Anderson in Tunisia.", id="a"),
                  doc("The landing occurred in November 1942.", id="b"),
                  doc("Eisenhower commanded Anderson in Tunisia.", id="c"),
                  doc("Anderson fought in Tunisia.", id="d"),
                  doc("", id="e")]
        saved = []
        for build in (build_graph, build_one_by_one):
            transcript = tmp_path / f"{build.__name__}.jsonl"
            recording = Gateway(RecordingBackend(
                RuleBasedOracle(tunisia_table), str(transcript)))
            graph, _ = build(corpus, recording)
            recording.close()
            graph.save(str(tmp_path / "kg.jsonl"))
            saved.append((sorted(transcript.read_text().splitlines()),
                          (tmp_path / "kg.jsonl").read_bytes()))
        assert saved[0] == saved[1]
        replayed = Gateway(ReplayBackend.from_path(
            str(tmp_path / "build_graph.jsonl")))
        graph2, _ = build_graph(corpus, replayed)
        replayed.close()
        graph2.save(str(tmp_path / "replayed.jsonl"))
        assert (tmp_path / "replayed.jsonl").read_bytes() == saved[0][1]


def single_chunk_corpus(n):
    """``n`` one-sentence documents, each naming its own entities, and an
    oracle table that knows them."""
    table, _ = tabled_world(n, 0)
    return table, [doc(f"Alpha{i} commanded Gamma{i}.", id=f"d{i}")
                   for i in range(n)]


class TestBuildRoundTrips:
    @pytest.mark.parametrize("n", [1, 2, BUILD_WINDOW, BUILD_WINDOW + 1,
                                   2 * BUILD_WINDOW + 3])
    def test_two_round_trips_per_window(self, n):
        table, corpus = single_chunk_corpus(n)
        gateway = Gateway(RuleBasedOracle(table))
        log = BatchLog(gateway)
        graph, report = build_graph(corpus, gateway)
        gateway.close()
        windows = math.ceil(n / BUILD_WINDOW)
        assert gateway.round_trips == 2 * windows
        assert log.batches == [
            {PromptKind.EXTRACT_ENTITIES, PromptKind.EXTRACT_EVENT_TRIPLES},
            {PromptKind.GENERATE_RELATIONS}] * windows
        assert log.sizes[:2] == [2 * min(n, BUILD_WINDOW),
                                 min(n, BUILD_WINDOW)]
        assert report.docs_processed == len(graph) == n
        # One document at a time takes two round-trips per document.
        alone = Gateway(RuleBasedOracle(table))
        graph1, report1 = build_one_by_one(corpus, alone)
        alone.close()
        assert alone.round_trips == 2 * n
        assert graph.content_digest() == graph1.content_digest()
        assert report == report1
        assert gateway.call_counts == alone.call_counts

    @pytest.mark.parametrize("world, alone_trips", [
        ("carryover", 48), ("closed_book", 100)])
    def test_worlds_build_as_one_document_at_a_time(self, world,
                                                   alone_trips):
        if world == "carryover":
            table, subset1, _ = carryover_world(12)
            corpus = [SourceDocument(f"{item.id}-{i}", sentence)
                      for item in subset1
                      for i, sentence in enumerate(item.evidence)]
        else:
            table, _, corpus = closed_book_world()
        sides = []
        for build in (build_graph, build_one_by_one):
            gateway = Gateway(RuleBasedOracle(table))
            graph, report = build(corpus, gateway)
            gateway.close()
            sides.append((graph.content_digest(), report, gateway.call_counts,
                          gateway.memo_hits, gateway.round_trips))
        assert sides[0][:4] == sides[1][:4]
        assert (sides[0][4], sides[1][4]) == (2, alone_trips)

    def test_repeated_documents_wait_for_the_memo(self, tunisia_table):
        """A document whose requests an earlier one sends waits a round and
        then reads them from the memo, as it would after that document."""
        body = "Eisenhower commanded Anderson in Tunisia."
        corpus = [doc(body, id=str(i)) for i in range(3)]
        gateway = Gateway(RuleBasedOracle(tunisia_table))
        log = BatchLog(gateway)
        _, report = build_graph(corpus, gateway)
        gateway.close()
        assert report.docs_processed == 3 and report.triples_duplicate > 0
        assert log.sizes == [2, 1] and gateway.round_trips == 2
        assert sum(gateway.call_counts.values()) == 3
        assert sum(gateway.memo_hits.values()) == 6

    def test_a_waiting_document_keeps_its_place(self, tunisia_table):
        """b waits for a's first chunk, and e, which shares only b's second
        chunk, waits behind b: that chunk's first call, which fails, is
        b's, as it is one document at a time, and e's second call
        succeeds."""
        first, second = ("Eisenhower commanded Anderson.",
                         " Anderson fought in Tunisia.")
        corpus = [doc(first, id="a"), doc(first + second, id="b"),
                  doc("The landing occurred in November 1942." + second,
                      id="e")]

        def gateway():
            oracle = RuleBasedOracle(tunisia_table)
            sent = collections.Counter()

            def reply(req, prompt):
                sent[prompt] += 1
                if "fought" in req.context["document"] and \
                        req.kind is PromptKind.EXTRACT_ENTITIES and \
                        sent[prompt] == 1:
                    raise GatewayHardError("down once")
                return oracle.generate(req, prompt)

            return Gateway(ScriptedBackend(reply), max_retries=0)

        with mock.patch.object(kg_builder, "CHUNK_CHARS", len(first) + 1):
            assert kg_builder._chunks(first + second) == [first, second]
            batched, alone = gateway(), gateway()
            graph, report = build_graph(corpus, batched)
            graph1, report1 = build_one_by_one(corpus, alone)
        batched.close()
        alone.close()
        assert report.docs_failed == report1.docs_failed == ["b"]
        assert graph.content_digest() == graph1.content_digest()
        assert batched.call_counts == alone.call_counts
        assert batched.memo_hits == alone.memo_hits


# The oracle table of carryover_world(3), with one event it can extract.
BUILD_TABLE = replace(carryover_world(3)[0], event_facts=[
    ("the landing", "occurred in", "november 1942")])
SENTENCES = ("Cmdr0 commanded Camp0.", "Aide0 served in Camp0.",
             "Cmdr1 commanded Camp1.", "Cmdr0 met Aide0.",
             "The landing occurred in November 1942.", "Quiet day.")
# Longer than CHUNK_CHARS, so it is extracted in several chunks.
LONG_BODY = " ".join(SENTENCES[:4] * (CHUNK_CHARS // 80 + 1))
BODIES = st.one_of(
    st.lists(st.sampled_from(SENTENCES), min_size=1, max_size=3).map(
        " ".join),
    st.sampled_from(("", " \n", LONG_BODY)))


class TestBuildGraphEqualsOneDocumentAtATime:
    def test_property(self):
        """``build_graph`` gives the graph, report, calls, memo hits and
        per-request sends of ``build_one_by_one``, in no more round-trips,
        over corpora with repeated, blank and long bodies, windows smaller
        than the corpus, and calls that fail for good. With 30-character
        chunks every sentence after a body's first is a chunk that other
        bodies share, so a document held back by one chunk has a later
        document's shared chunk behind it."""
        seen = collections.Counter()

        @settings(max_examples=300, deadline=None)
        @given(bodies=st.lists(BODIES, max_size=BUILD_WINDOW + 4),
               window=st.sampled_from((BUILD_WINDOW, 2, 3)),
               chunk=st.sampled_from((30, CHUNK_CHARS)),
               salt=st.integers(0, 2**32), percent=st.integers(0, 50),
               kinds=st.lists(st.sampled_from(FAULTS), min_size=1,
                              max_size=3, unique=True),
               retries=st.integers(0, 1))
        @example(bodies=[SENTENCES[i % 3] for i in range(BUILD_WINDOW + 3)],
                 window=BUILD_WINDOW, chunk=CHUNK_CHARS, salt=0, percent=10,
                 kinds=["hard"], retries=0)
        # d3 shares only d0's chunk, whose requests the memo holds, and d2
        # shares d1's second chunk too: d3 must not reach the relation
        # request of that chunk while d2 waits on its first step.
        @example(bodies=[SENTENCES[0], SENTENCES[0] + " " + SENTENCES[0],
                         SENTENCES[0] + " " + SENTENCES[0], SENTENCES[0]],
                 window=BUILD_WINDOW, chunk=30, salt=221, percent=36,
                 kinds=["transport", "garbage"], retries=0)
        def check(bodies, window, chunk, salt, percent, kinds, retries):
            corpus = [doc(body, id=f"d{i}") for i, body in enumerate(bodies)]
            sides = []
            for build in (build_graph, build_one_by_one):
                faulty = FaultyOracle(BUILD_TABLE, salt, percent, kinds)
                gateway = Gateway(ScriptedBackend(faulty.generate),
                                  max_retries=retries, backoff=0.0)
                with mock.patch.object(kg_builder, "BUILD_WINDOW", window), \
                        mock.patch.object(kg_builder, "CHUNK_CHARS", chunk):
                    graph, report = build(corpus, gateway)
                gateway.close()
                sides.append((graph.content_digest(), asdict(report),
                              gateway.call_counts, gateway.memo_hits,
                              faulty.sent, gateway.round_trips))
            batched, alone = sides
            assert batched[:5] == alone[:5]
            assert batched[5] <= alone[5]
            seen["failed"] += bool(batched[1]["docs_failed"])
            seen["repeated"] += len(set(bodies)) < len(bodies)
            seen["windows"] += len(bodies) > window

        check()
        assert seen["failed"] and seen["repeated"] and seen["windows"]


def test_report_saved_as_indented_json(tmp_path):
    path = tmp_path / "kg.jsonl.report.json"
    BuildReport(docs_processed=2, docs_failed=["döc"],
                triples_added=3).save(str(path))
    assert path.read_text() == (
        '{\n  "docs_processed": 2,\n  "docs_failed": [\n    "d\\u00f6c"\n  ],'
        '\n  "triples_added": 3,\n  "triples_duplicate": 0,'
        '\n  "triples_dropped": 0\n}')


class TestChunking:
    def test_long_document_chunks_resend_entities(self, tunisia_table):
        calls = []

        class CountingOracle(RuleBasedOracle):
            def generate(self, req, prompt):
                calls.append(req.kind)
                return super().generate(req, prompt)

        gateway = Gateway(CountingOracle(tunisia_table))
        body = ("Eisenhower commanded Anderson. " * 300).strip()
        drive(document_steps(doc(body)), gateway)
        relation_calls = calls.count(PromptKind.GENERATE_RELATIONS)
        assert relation_calls >= 2


def sequential_extract(doc, gateway):
    """``document_steps`` one request at a time: all entity requests,
    then the relations, then the event triples, chunk by chunk."""
    chunks = kg_builder._chunks(doc.body)
    entities, keys = [], set()
    for chunk in chunks:
        resp = gateway.complete(LLMRequest(PromptKind.EXTRACT_ENTITIES,
                                           {"document": chunk}))
        for surface in resp.parsed:
            entity = Entity(surface)
            if entity.key and entity.key not in keys:
                keys.add(entity.key)
                entities.append(entity)
    triples, dropped = [], 0
    entity_list = ", ".join(e.surface for e in entities)
    for chunk in chunks if entities else []:
        resp = gateway.complete(LLMRequest(
            PromptKind.GENERATE_RELATIONS,
            {"document": chunk, "entities": entity_list}))
        dropped += resp.warnings
        for s, r, o in resp.parsed:
            triple = Triple(Entity(s), r, Entity(o), source_id=doc.id)
            if triple.subject.key in keys and triple.object.key in keys:
                triples.append(triple)
            else:
                dropped += 1
    for chunk in chunks:
        resp = gateway.complete(LLMRequest(PromptKind.EXTRACT_EVENT_TRIPLES,
                                           {"document": chunk}))
        dropped += resp.warnings
        triples += [Triple(Entity(s), r, Entity(o), source_id=doc.id)
                    for s, r, o in resp.parsed]
    first = {}
    for triple in triples:
        first.setdefault(triple.identity, triple)
    return list(first.values()), dropped


def noisy_oracle(table):
    """The oracle, with a malformed line after every triple answer and a
    relation to an entity no document names."""
    oracle = RuleBasedOracle(table)

    def generate(req, prompt):
        raw = oracle.generate(req, prompt)
        if req.kind is PromptKind.GENERATE_RELATIONS:
            raw += "\n(Eisenhower | met | Nobody)"
        if req.kind in (PromptKind.GENERATE_RELATIONS,
                        PromptKind.EXTRACT_EVENT_TRIPLES):
            raw += "\nnot a triple"
        return raw

    return ScriptedBackend(generate)


def records(triples):
    return [t.as_record() for t in triples]


class TestExtractDocument:
    SENTENCES = ("Eisenhower commanded Anderson.\n"
                 "Anderson fought in Tunisia.\n"
                 "The landing occurred in November 1942.\n")

    def test_single_chunk_takes_two_round_trips(self, tunisia_table):
        gateway = Gateway(noisy_oracle(tunisia_table))
        log = BatchLog(gateway)
        triples, dropped = drive(document_steps(doc(self.SENTENCES)), gateway)
        gateway.close()
        assert log.batches == [
            {PromptKind.EXTRACT_ENTITIES, PromptKind.EXTRACT_EVENT_TRIPLES},
            {PromptKind.GENERATE_RELATIONS}]
        expected, expected_dropped = sequential_extract(
            doc(self.SENTENCES), Gateway(noisy_oracle(tunisia_table)))
        assert records(triples) == records(expected) and len(triples) == 4
        assert dropped == expected_dropped == 3

    def test_repeated_chunk_asked_once_counted_twice(self, tunisia_table,
                                                     monkeypatch):
        body = self.SENTENCES * 2
        monkeypatch.setattr(kg_builder, "CHUNK_CHARS", len(self.SENTENCES))
        assert kg_builder._chunks(body) == [self.SENTENCES] * 2
        gateway = Gateway(noisy_oracle(tunisia_table))
        triples, dropped = drive(document_steps(doc(body)), gateway)
        gateway.close()
        expected, expected_dropped = sequential_extract(
            doc(body), Gateway(noisy_oracle(tunisia_table)))
        assert records(triples) == records(expected)
        assert dropped == expected_dropped == 6
        assert sum(gateway.call_counts.values()) == 3

    def test_empty_document_sends_nothing(self, oracle_gateway):
        assert drive(document_steps(doc(" \n")), oracle_gateway) == ([], 0)
        assert sum(oracle_gateway.call_counts.values()) == 0


def failing_gateway(table, kind, text=""):
    """A gateway whose backend fails every ``kind`` request whose prompt
    holds ``text``, with no retry, and the kinds it was asked, in order."""
    oracle = RuleBasedOracle(table)
    asked = []

    def generate(req, prompt):
        asked.append(req.kind)
        if req.kind is kind and text in prompt:
            raise TransportError("injected")
        return oracle.generate(req, prompt)

    return Gateway(ScriptedBackend(generate), max_retries=0), asked


class TestExtractionFailure:
    BODY = ("Eisenhower commanded Anderson. "
            "The landing occurred in November 1942.")

    def test_entities_failure_names_extract_entities(self, tunisia_table):
        gateway, asked = failing_gateway(tunisia_table,
                                         PromptKind.EXTRACT_ENTITIES)
        with pytest.raises(GatewayHardError,
                           match="^extract_entities failed after 1 "):
            drive(document_steps(doc(self.BODY)), gateway)
        gateway.close()
        assert PromptKind.GENERATE_RELATIONS not in asked

    def test_event_failure_sends_no_relations(self, tunisia_table):
        gateway, asked = failing_gateway(tunisia_table,
                                         PromptKind.EXTRACT_EVENT_TRIPLES)
        with pytest.raises(GatewayHardError,
                           match="^extract_event_triples failed after 1 "):
            drive(document_steps(doc(self.BODY)), gateway)
        gateway.close()
        assert sorted(k.value for k in asked) == \
            ["extract_entities", "extract_event_triples"]

    def test_build_graph_skips_only_the_failing_document(self, tunisia_table):
        gateway, _ = failing_gateway(tunisia_table,
                                     PromptKind.EXTRACT_EVENT_TRIPLES,
                                     "landing")
        corpus = [doc("Eisenhower commanded Anderson.", id="a"),
                  doc("The landing occurred in November 1942.", id="b"),
                  doc("Anderson fought in Tunisia.", id="c")]
        graph, report = build_graph(corpus, gateway)
        gateway.close()
        assert report.docs_failed == ["b"] and report.docs_processed == 2
        assert {t.source_id for t in graph.triples} == {"a", "c"}
