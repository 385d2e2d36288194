import logging
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import carryover_world, closed_book_world, tabled_world

from verity.errors import ValidationError
from verity.gateway import Gateway, LLMRequest, PromptKind, ScriptedBackend
from verity.kg_builder import SourceDocument, build_graph
from verity.kg_store import Entity, KnowledgeGraph, Triple, normalize_entity
from verity.mcts import EngineConfig
from verity.oracle import RuleBasedOracle
from verity.retrieval import (RANK_CANDIDATE_CAP, render_triples,
                              retrieve_context, word_spans)
from verity.run import run_detection


def graph_with(n):
    g = KnowledgeGraph()
    for i in range(n):
        g.add("Anderson", f"relation {i}", f"thing {i}")
    return g


# Word characters, separators, and letters whose lower case is longer
# (\u0130) or depends on the letters around it (\u03a3).
KEY_CHARS = "aZ_9 .'-\u00e9\u00df\u0130\u03a3\t"


def graph_keys(graph):
    return {key for t in graph.triples for key in (t.subject.key, t.object.key)}


def linked(graph, question):
    """The graph keys retrieval looks up and finds for ``question``."""
    return graph.match_entities(word_spans(normalize_entity(question),
                                           graph.longest_key))


def scanned(graph, question):
    """The graph keys that the oracle's ``(?<!\\w)key(?!\\w)`` scan finds
    in ``question``, tried one by one."""
    text = normalize_entity(question)
    return {key for key in graph_keys(graph)
            if re.search(r"(?<!\w)" + re.escape(key) + r"(?!\w)", text)}


class TestQuestionEntities:
    """The graph keys retrieval matches for a question."""

    @pytest.fixture
    def graph(self, tunisia_table):
        graph = KnowledgeGraph()
        for s, r, o in tunisia_table.facts + [
                ("Anderson", "fought in", "World War II"),
                ("Anders", "fought in", "Tunisia")]:
            graph.add(s, r, o)
        return graph

    def test_oracle_entities(self, graph):
        # The keys the oracle names as the question's entities; "anders"
        # is a graph key too, but the question holds it only inside a word.
        keys = linked(graph,
                      "Who was Anderson's superior during World War II?")
        assert keys == {"anderson", "world war ii"}

    def test_empty_question(self, graph):
        assert list(word_spans("", graph.longest_key)) == []
        assert linked(graph, "") == set()

    def test_repeated_entity_single_key(self, graph):
        keys = linked(graph, "Anderson, yes Anderson himself.")
        assert keys == {"anderson"}

    def test_spans_between_word_boundaries(self):
        # No span starts at the apostrophe, which follows a word character,
        # or ends before the "s", which is one.
        text = normalize_entity("  Alpha1's\twar ")
        assert set(word_spans(text, len(text))) == {
            "alpha1", "alpha1's", "alpha1's war", "s", "s war", "war"}
        # None longer than the bound.
        assert set(word_spans(text, 6)) == {"alpha1", "s", "s war", "war"}

    def test_long_question_looks_up_no_span_longer_than_a_key(
            self, graph, monkeypatch):
        """A runaway sub-question of 400 words links the keys it names, at
        both ends, and retrieval looks up only spans up to the graph's
        longest key, one at a time: every span of it, held at once, would
        take about 100 MiB."""
        question = ("Anderson " + " ".join(f"word{i}" for i in range(400))
                    + " World War II")
        lookup = graph.match_entities

        def match(keys):
            def checked():
                for key in keys:
                    assert len(key) <= graph.longest_key
                    yield key
            return lookup(checked())

        monkeypatch.setattr(graph, "match_entities", match)
        gateway = Gateway(ScriptedBackend(None))
        tracemalloc.start()
        try:
            result = retrieve_context(question, graph, len(graph), gateway)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gateway.close()
        assert result.matched_keys == {"anderson", "world war ii"}
        assert peak < 1 << 20

    @settings(max_examples=300, deadline=None)
    @given(surfaces=st.lists(st.text(KEY_CHARS, min_size=1, max_size=6),
                             min_size=1, max_size=6),
           data=st.data())
    def test_matches_a_scan_of_every_key(self, surfaces, data):
        """Over any graph and question, looking the question's spans up in
        the graph finds exactly the keys that scanning for each key does."""
        graph = KnowledgeGraph()
        for subject, obj in zip(surfaces, surfaces[1:] + surfaces[:1]):
            if normalize_entity(subject) and normalize_entity(obj):
                graph.add(subject, "near", obj)
        parts = st.one_of(st.sampled_from(surfaces),
                          st.text(KEY_CHARS, max_size=4))
        question = "".join(data.draw(st.lists(parts, max_size=8)))
        assert graph.longest_key == max(map(len, graph_keys(graph)),
                                        default=0)
        assert linked(graph, question) == scanned(graph, question)


def oracle_world(name):
    """The world's table, its claims and the graph a run on it starts
    from."""
    if name == "tabled":
        table, items = tabled_world(25, 25)
        return table, items, KnowledgeGraph()
    if name == "carryover":
        table, subset1, subset2 = carryover_world(12)
        # One document per evidence sentence, so that only the updates add
        # "superior of".
        corpus = [SourceDocument(f"{item.id}-{i}", sentence)
                  for item in subset1
                  for i, sentence in enumerate(item.evidence)]
        items = subset1 + subset2
    else:
        table, items, corpus = closed_book_world()
    gateway = Gateway(RuleBasedOracle(table))
    start, _ = build_graph(corpus, gateway)
    gateway.close()
    return table, items, start


@pytest.mark.parametrize("name", ["tabled", "carryover", "closed-book"])
def test_lexical_keys_equal_the_oracle_entities(name):
    """For every sub-question the oracle generates in a run at the
    defaults with updates on, a graph that holds every key of the world's
    table, and so every graph the world can build or update, matches the
    same keys by lexical lookup as from the oracle's ``EXTRACT_ENTITIES``
    answer."""
    table, items, start = oracle_world(name)
    oracle = RuleBasedOracle(table)
    questions = set()

    def reply(req, prompt):
        text = oracle.generate(req, prompt)
        if req.kind is PromptKind.GENERATE_SUBQUESTION:
            questions.add(text.strip())
        return text

    gateway = Gateway(ScriptedBackend(reply))
    run_detection(items, start, EngineConfig(seed=0), gateway)
    world = KnowledgeGraph()
    for s, r, o in table.facts + table.extraction_facts + table.event_facts:
        world.add(s, r, o)
    for surface in table.entities:
        world.add(surface, "named", surface)
    assert len(questions) >= len(items)
    for question in sorted(questions):
        resp = gateway.complete(LLMRequest(PromptKind.EXTRACT_ENTITIES,
                                           {"document": question}))
        keys = linked(world, question)
        assert keys
        assert keys == world.match_entities(
            Entity(surface).key for surface in resp.parsed)
    gateway.close()


class TestRetrieveContext:
    def test_under_budget_no_ranking_call(self, oracle_gateway):
        g = graph_with(3)
        result = retrieve_context("Is it true that Anderson won?", g, 5,
                                  oracle_gateway)
        assert result.selected == result.candidates
        assert len(result.selected) == 3
        assert not result.ranked_by_llm
        assert oracle_gateway.call_counts[PromptKind.RANK_TRIPLES] == 0

    def test_no_match_empty_result(self, oracle_gateway):
        g = KnowledgeGraph()
        g.add("someone else", "did", "something")
        result = retrieve_context("Is it true that Anderson won?", g, 5,
                                  oracle_gateway)
        assert result.matched_keys == set()
        assert result.selected == []

    def test_over_budget_uses_ranked_order(self):
        def script(req, prompt):
            if req.kind == PromptKind.RANK_TRIPLES:
                return ", ".join(str(i) for i in reversed(range(8)))
            raise AssertionError(req.kind)

        gateway = Gateway(ScriptedBackend(script))
        g = graph_with(8)
        result = retrieve_context("Anderson?", g, 5, gateway)
        assert result.ranked_by_llm
        assert [t.relation for t in result.selected] == \
            [f"relation {i}" for i in (7, 6, 5, 4, 3)]

    def test_ranking_failure_falls_back_to_insertion_order(self):
        def script(req, prompt):
            return "not a ranking at all"

        gateway = Gateway(ScriptedBackend(script))
        result = retrieve_context("Anderson?", graph_with(8), 5, gateway)
        assert not result.ranked_by_llm
        assert [t.relation for t in result.selected] == \
            [f"relation {i}" for i in range(5)]

    def test_ranking_fallback_warning_names_the_sub_question(self, caplog):
        def script(req, prompt):
            return "not a ranking at all"

        gateway = Gateway(ScriptedBackend(script))
        with caplog.at_level(logging.WARNING, logger="verity.retrieval"):
            retrieve_context("Who did Anderson serve?", graph_with(80), 5,
                             gateway)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        assert "'Who did Anderson serve?'" in message
        assert f"{RANK_CANDIDATE_CAP} candidates" in message

    def test_ranking_never_invents_triples(self):
        def script(req, prompt):
            return "0, 1, 2, 3, 4, 5, 6, 99"  # invalid permutation

        gateway = Gateway(ScriptedBackend(script))
        result = retrieve_context("Anderson?", graph_with(8), 5, gateway)
        assert not result.ranked_by_llm
        candidate_ids = {t.identity for t in result.candidates}
        assert all(t.identity in candidate_ids for t in result.selected)

    def test_candidate_cap_respected(self):
        seen = {}

        def script(req, prompt):
            seen["lines"] = req.context["candidates"].count("\n") + 1
            return ", ".join(str(i) for i in range(RANK_CANDIDATE_CAP))

        gateway = Gateway(ScriptedBackend(script))
        result = retrieve_context("Anderson?", graph_with(80), 5, gateway)
        assert seen["lines"] == RANK_CANDIDATE_CAP
        assert len(result.selected) == 5

    def test_k_must_be_positive(self, oracle_gateway):
        with pytest.raises(ValidationError):
            retrieve_context("q", KnowledgeGraph(), 0, oracle_gateway)

    def test_selection_bounded_by_k(self, oracle_gateway):
        result = retrieve_context("Is it true that Anderson won?",
                                  graph_with(4), 2, oracle_gateway)
        assert len(result.selected) == 2
        assert set(t.identity for t in result.selected) <= \
            set(t.identity for t in result.candidates)


class TestClosedBookWorld:
    """Only the graph knows the facts, so retrieval is what lets the model
    affirm one."""

    def test_answers_need_the_retrieved_facts(self):
        table, _, corpus = closed_book_world()
        facts = table.extraction_facts
        assert len(facts) == 50 and not table.facts
        gateway = Gateway(RuleBasedOracle(table))
        graph, report = build_graph(corpus, gateway)
        assert report.docs_failed == [] and report.triples_dropped == 0
        assert sorted(t.identity for t in graph.triples) == sorted(
            Triple(Entity(s), r, Entity(o)).identity for s, r, o in facts)

        def affirmed(fact, triples):
            question = "Is it true that {} {} {}?".format(*fact)
            resp = gateway.complete(LLMRequest(
                PromptKind.ANSWER_SUBQUESTION,
                {"claim": "{} {} {}.".format(*fact), "transcript": "(none)",
                 "triples": triples, "question": question}))
            return resp.raw.startswith("Yes")

        def retrieved(fact):
            question = "Is it true that {} {} {}?".format(*fact)
            return render_triples(
                retrieve_context(question, graph, 5, gateway).selected)

        assert all(affirmed(fact, retrieved(fact)) for fact in facts)
        assert not any(affirmed(fact, "(none)") for fact in facts)
