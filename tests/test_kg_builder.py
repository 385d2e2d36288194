from dataclasses import replace

import pytest
from synth import BatchLog

from verity import kg_builder
from verity.errors import GatewayHardError, TransportError, ValidationError
from verity.gateway import (Gateway, LLMRequest, PromptKind, RecordingBackend,
                            ScriptedBackend, drive)
from verity.kg_builder import (BuildReport, SourceDocument, build_graph,
                               document_steps)
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
        from verity.gateway import ReplayBackend
        corpus = [doc("Eisenhower commanded Anderson in Tunisia.", id="a"),
                  doc("The landing occurred in November 1942.", id="b")]
        transcript = tmp_path / "transcript.jsonl"
        recording = Gateway(RecordingBackend(RuleBasedOracle(tunisia_table),
                                             str(transcript)))
        graph, _ = build_graph(corpus, recording)
        first = tmp_path / "first.jsonl"
        graph.save(str(first))
        replayed = Gateway(ReplayBackend.from_path(str(transcript)))
        graph2, _ = build_graph(corpus, replayed)
        second = tmp_path / "second.jsonl"
        graph2.save(str(second))
        assert first.read_bytes() == second.read_bytes()


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
