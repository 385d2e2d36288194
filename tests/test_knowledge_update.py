import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verity.gateway import Gateway, PromptKind, ScriptedBackend, Stepper, drive
from verity.kg_builder import SourceDocument, document_steps
from verity.kg_store import KnowledgeGraph, make_triple
from verity.knowledge_update import apply_update, extract_new_knowledge
from verity.mcts import ActionKind, ReasoningPath
from verity.verdict import Verdict


def path(verdict, steps=()):
    return ReasoningPath(steps=list(steps), verdict=verdict, node_ids=[])


class TestExtractNewKnowledge:
    def test_case_study_relation_extracted(self, oracle_gateway):
        claim = ("Dwight D. Eisenhower commanded Anderson. "
                 "Anderson fought in Tunisia.")
        steps = [
            (ActionKind.A1, "Is it true that Eisenhower commanded Anderson?"),
            (ActionKind.A2, "Yes, Eisenhower commanded Anderson."),
        ]
        triples = extract_new_knowledge("news-1", claim,
                                        [path(Verdict.REAL, steps)],
                                        oracle_gateway)
        identities = {t.identity for t in triples}
        assert ("eisenhower", "superior of", "anderson") in identities

    def test_fake_paths_excluded(self, oracle_gateway):
        # Only the Real-verdict path mentions Tunisia, so the fought-in
        # triple must come exclusively from it.
        claim = "Eisenhower commanded Anderson."
        fake_steps = [(ActionKind.A2, "Anderson fought in Tunisia.")]
        triples = extract_new_knowledge(
            "c", claim, [path(Verdict.FAKE, fake_steps)], oracle_gateway)
        assert all(t.identity != ("anderson", "fought in", "tunisia")
                   for t in triples)

    def test_no_agreeing_paths_uses_claim_alone(self, oracle_gateway):
        triples = extract_new_knowledge("c", "Eisenhower commanded Anderson.",
                                        [], oracle_gateway)
        assert {t.identity for t in triples} >= \
            {("eisenhower", "commanded", "anderson")}

    def test_shared_steps_written_once(self):
        documents = []

        def reply(req, prompt):
            if req.kind is PromptKind.EXTRACT_ENTITIES:
                documents.append(req.context["document"])
            return ""

        q1, a1 = (ActionKind.A1, "Q one?"), (ActionKind.A2, "A one.")
        q2, a2 = (ActionKind.A1, "Q two?"), (ActionKind.A2, "A two.")
        q3, a3 = (ActionKind.A1, "Q three?"), (ActionKind.A2, "A three.")
        verdict = (ActionKind.A3, "Answer: Real")
        paths = [path(Verdict.REAL, [q1, a1, q2, a2, verdict]),
                 path(Verdict.REAL, [q1, a1, q3, a3, verdict])]
        extract_new_knowledge("c", "The claim.", paths,
                              Gateway(ScriptedBackend(reply)))
        assert documents == ["The claim.\nQ one?\nA one.\nQ two?\nA two.\n"
                             "Q three?\nA three."]


class TestApplyUpdate:
    def test_dedup_accounting(self):
        g = KnowledgeGraph()
        g.add("a", "r", "b")
        batch = [make_triple("a", "r", "b"), make_triple("c", "r", "d"),
                 make_triple("e", "r", "f"), make_triple("g", "r", "h")]
        stats = apply_update(g, batch, claim_id="c1")
        assert (stats.added, stats.duplicates) == (3, 1)
        assert len(g) == 4

    def test_idempotent(self):
        g = KnowledgeGraph()
        batch = [make_triple("a", "r", "b"), make_triple("c", "r", "d")]
        apply_update(g, batch)
        stats = apply_update(g, batch)
        assert stats.added == 0
        assert stats.duplicates == 2

    def test_empty_batch(self):
        g = KnowledgeGraph()
        g.add("a", "r", "b")
        stats = apply_update(g, [])
        assert (stats.added, stats.duplicates) == (0, 0)
        assert len(g) == 1

    def test_monotone_and_preserving(self):
        g = KnowledgeGraph()
        g.add("a", "r", "b")
        before = list(g.triples)
        apply_update(g, [make_triple("c", "r", "d")], claim_id="c9")
        assert g.triples[:1] == before
        assert len(g) == 2
        assert g.triples[1].source_id == "c9"

    def test_invalid_triples_counted_not_fatal(self):
        g = KnowledgeGraph()
        stats = apply_update(g, [make_triple("", "r", "b"),
                                 make_triple("a", "r", "b")])
        assert stats.rejected == 1
        assert stats.added == 1

    def test_non_validation_error_propagates(self):
        class BrokenGraph(KnowledgeGraph):
            def add(self, *args, **kwargs):
                raise RuntimeError("index corrupted")

        with pytest.raises(RuntimeError, match="index corrupted"):
            apply_update(BrokenGraph(), [make_triple("a", "r", "b")])


# One name written several ways, other names, and text that is no name.
NAMES = ("Alpha", " alpha ", "ALPHA", "al\tpha", "Alpha  Camp", "alpha camp",
         "Beta", "beta.", "", "  ", "-", "()", "|")
name = st.sampled_from(NAMES) | st.text(max_size=6)
entity_line = name | st.sampled_from(("- Alpha", "1. beta", "* ", "•",
                                      "(Alpha | met | Beta)"))
triple_line = st.one_of(
    st.builds("({} | {} | {})".format, name,
              st.sampled_from(("met", " served in ", "")), name),
    st.sampled_from(("(Alpha | met)", "Alpha | met | Beta", "(|||)", "()",
                     "(Alpha | met | Beta | Gamma)")),
    st.text(max_size=12))


def lines(strategy):
    return st.lists(strategy, max_size=6).map("\n".join)


class TestWriteDeclaration:
    @settings(max_examples=150, deadline=None)
    @given(entities=lines(entity_line), events=lines(triple_line),
           relations=lines(triple_line), chunks=st.integers(1, 2),
           seeded=st.lists(st.tuples(name, name), max_size=4))
    def test_declared_keys_cover_every_write(self, entities, events,
                                             relations, chunks, seeded):
        """Whatever the model answers, every triple a document's extraction
        returns, and every triple the update then inserts, has both keys
        among those the extraction declared between its two waves."""
        answers = {PromptKind.EXTRACT_ENTITIES: entities,
                   PromptKind.EXTRACT_EVENT_TRIPLES: events,
                   PromptKind.GENERATE_RELATIONS: relations}
        gateway = Gateway(ScriptedBackend(
            lambda req, prompt: answers[req.kind]))
        # Two chunks once the body passes kg_builder.CHUNK_CHARS.
        body = "Alpha met Beta. " * (1 if chunks == 1 else 300)
        walk = Stepper(document_steps(SourceDocument("doc", body)))
        triples, _ = drive(walk, gateway)
        gateway.close()
        keys = walk.writes
        assert keys is not None
        for t in triples:
            assert {t.subject.key, t.object.key} <= keys
        graph = KnowledgeGraph()
        for s, o in seeded:
            if s.strip() and o.strip():
                graph.add(s, "knows", o, "seed")
        before = len(graph)
        stats = apply_update(graph, triples, claim_id="claim")
        assert len(graph) == before + stats.added
        for t in graph.triples[before:]:
            assert {t.subject.key, t.object.key} <= keys
