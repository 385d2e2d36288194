import pytest

from verity.errors import ValidationError
from verity.gateway import Gateway, LLMRequest, PromptKind, RecordingBackend
from verity.kg_builder import (BuildReport, SourceDocument, build_graph,
                               extract_entities, extract_entity_relations,
                               extract_event_triples)
from verity.oracle import RuleBasedOracle


def doc(body, id="doc-1"):
    return SourceDocument(id=id, body=body)


class TestExtractEntities:
    def test_sentence(self, oracle_gateway):
        entities = extract_entities(
            doc("Eisenhower commanded Anderson in Tunisia."), oracle_gateway)
        assert [e.surface for e in entities] == \
            ["Eisenhower", "Anderson", "Tunisia"]

    def test_empty_document(self, oracle_gateway):
        assert extract_entities(doc(""), oracle_gateway) == []

    def test_duplicate_mentions_single_entry(self, oracle_gateway):
        entities = extract_entities(
            doc("Anderson met ANDERSON; anderson agreed."), oracle_gateway)
        assert len(entities) == 1


class TestExtractEntityRelations:
    def test_relation_found(self, oracle_gateway):
        d = doc("Eisenhower commanded Anderson in Tunisia.")
        entities = extract_entities(d, oracle_gateway)
        triples, dropped = extract_entity_relations(d, entities, oracle_gateway)
        identities = {t.identity for t in triples}
        assert ("eisenhower", "commanded", "anderson") in identities

    def test_unknown_entity_triples_dropped(self, oracle_gateway):
        # The oracle can see Anderson/Tunisia in the text and emits their
        # relation, but the caller restricted the entity list to Eisenhower
        # and Anderson, so the Tunisia triple must be dropped.
        d = doc("Eisenhower commanded Anderson. Anderson fought in Tunisia.")
        entities = [e for e in extract_entities(d, oracle_gateway)
                    if e.key != "tunisia"]
        triples, dropped = extract_entity_relations(d, entities, oracle_gateway)
        assert dropped >= 1
        assert all(t.subject.key != "anderson" or t.object.key != "tunisia"
                   for t in triples)

    def test_empty_entity_list_rejected(self, oracle_gateway):
        with pytest.raises(ValidationError):
            extract_entity_relations(doc("text"), [], oracle_gateway)


class TestExtractEventTriples:
    def test_event_sentence(self, oracle_gateway):
        triples, _ = extract_event_triples(
            doc("The landing occurred in November 1942."), oracle_gateway)
        assert [t.identity for t in triples] == \
            [("the landing", "occurred in", "november 1942")]

    def test_empty(self, oracle_gateway):
        assert extract_event_triples(doc(""), oracle_gateway) == ([], 0)

    def test_no_event(self, oracle_gateway):
        triples, _ = extract_event_triples(doc("Quiet day."), oracle_gateway)
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
        entities = extract_entities(doc(body), gateway)
        extract_entity_relations(doc(body), entities, gateway)
        relation_calls = calls.count(PromptKind.GENERATE_RELATIONS)
        assert relation_calls >= 2
