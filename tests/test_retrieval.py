import logging

import pytest
from synth import closed_book_world

from verity.errors import ValidationError
from verity.gateway import (Gateway, LLMRequest, PromptKind, ScriptedBackend,
                            drive)
from verity.kg_builder import SourceDocument, build_graph, entity_steps
from verity.kg_store import Entity, KnowledgeGraph, Triple
from verity.oracle import RuleBasedOracle
from verity.retrieval import (RANK_CANDIDATE_CAP, render_triples,
                              retrieve_context)


def graph_with(n):
    g = KnowledgeGraph()
    for i in range(n):
        g.add("Anderson", f"relation {i}", f"thing {i}")
    return g


def question_entities(question, gateway):
    """The entity keys retrieval matches for ``question``."""
    entities = drive(entity_steps(SourceDocument("question", question)),
                     gateway)
    return {e.key for e in entities}


class TestQuestionEntities:
    def test_oracle_entities(self, oracle_gateway):
        keys = question_entities(
            "Who was Anderson's superior during World War II?", oracle_gateway)
        assert keys == {"anderson", "world war ii"}

    def test_empty_question(self, oracle_gateway):
        assert question_entities("", oracle_gateway) == set()

    def test_repeated_entity_single_key(self, oracle_gateway):
        keys = question_entities("Anderson, yes Anderson himself.",
                                 oracle_gateway)
        assert keys == {"anderson"}


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
            if req.kind == PromptKind.EXTRACT_ENTITIES:
                return "Anderson"
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
            if req.kind == PromptKind.EXTRACT_ENTITIES:
                return "Anderson"
            return "not a ranking at all"

        gateway = Gateway(ScriptedBackend(script))
        result = retrieve_context("Anderson?", graph_with(8), 5, gateway)
        assert not result.ranked_by_llm
        assert [t.relation for t in result.selected] == \
            [f"relation {i}" for i in range(5)]

    def test_ranking_fallback_warning_names_the_sub_question(self, caplog):
        def script(req, prompt):
            if req.kind == PromptKind.EXTRACT_ENTITIES:
                return "Anderson"
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
            if req.kind == PromptKind.EXTRACT_ENTITIES:
                return "Anderson"
            return "0, 1, 2, 3, 4, 5, 6, 99"  # invalid permutation

        gateway = Gateway(ScriptedBackend(script))
        result = retrieve_context("Anderson?", graph_with(8), 5, gateway)
        assert not result.ranked_by_llm
        candidate_ids = {t.identity for t in result.candidates}
        assert all(t.identity in candidate_ids for t in result.selected)

    def test_candidate_cap_respected(self):
        seen = {}

        def script(req, prompt):
            if req.kind == PromptKind.EXTRACT_ENTITIES:
                return "Anderson"
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
