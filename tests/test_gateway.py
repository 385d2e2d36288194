import json
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import tabled_world
from verity.errors import (FormatError, GatewayHardError, ReplayMissError,
                           TransportError, ValidationError)
from verity.gateway import (MAX_IN_FLIGHT, Gateway, GraphRead, GraphWrite,
                            HttpChatBackend, LLMRequest, PromptKind,
                            RecordingBackend, ReplayBackend, ScriptedBackend,
                            Stepper, drive, drive_all, parse_entities,
                            parse_ranking,
                            parse_triples, parse_verdict, render_prompt,
                            request_hash)
from verity.kg_store import KnowledgeGraph
from verity.mcts import EngineConfig
from verity.run import run_detection
from verity.verdict import Verdict

# The {name} slots of each prompt kind's template.
PROMPT_SLOTS = {
    PromptKind.EXTRACT_ENTITIES: ("document",),
    PromptKind.GENERATE_RELATIONS: ("document", "entities"),
    PromptKind.EXTRACT_EVENT_TRIPLES: ("document",),
    PromptKind.GENERATE_SUBQUESTION: ("claim", "transcript", "branch"),
    PromptKind.ANSWER_SUBQUESTION: ("claim", "transcript", "triples", "question"),
    PromptKind.FINAL_VERDICT: ("claim", "transcript"),
    PromptKind.RANK_TRIPLES: ("question", "candidates"),
}


class TestParseVerdict:
    def test_real_token(self):
        assert parse_verdict("Answer: REAL") is Verdict.REAL

    def test_fake_token(self):
        assert parse_verdict("Answer: fake") is Verdict.FAKE

    def test_both_tokens_fail(self):
        assert parse_verdict("Answer: It is real, not fake") is None

    def test_neither_token_fails(self):
        assert parse_verdict("Answer: maybe") is None

    def test_no_answer_field_fails(self):
        assert parse_verdict("the claim is real") is None

    def test_last_answer_line_wins(self):
        raw = "Answer: fake\nOn reflection:\nAnswer: Real"
        assert parse_verdict(raw) is Verdict.REAL

    def test_reasoning_before_answer_ignored(self):
        raw = "The evidence is fake-looking but checks out.\nAnswer: Real"
        assert parse_verdict(raw) is Verdict.REAL


class TestParseTriples:
    def test_two_lines(self):
        triples, malformed = parse_triples("(A | led | B)\n(B | joined | C)")
        assert triples == [("A", "led", "B"), ("B", "joined", "C")]
        assert malformed == 0

    def test_empty(self):
        assert parse_triples("") == ([], 0)

    def test_wrong_arity_counts_warning(self):
        triples, malformed = parse_triples("(A | led)")
        assert triples == []
        assert malformed == 1

    def test_mixed(self):
        triples, malformed = parse_triples(
            "(A | led | B)\ngarbage\n( C | d | )\n\n(E | f | G)")
        assert triples == [("A", "led", "B"), ("E", "f", "G")]
        assert malformed == 2


class TestParseMisc:
    def test_entities_strip_bullets(self):
        assert parse_entities("- Paris\n1. France\n\n* Nice") == \
            ["Paris", "France", "Nice"]

    def test_ranking(self):
        assert parse_ranking("2, 0, 1") == [2, 0, 1]
        assert parse_ranking("") == []


class TestTemplates:
    def test_purity(self):
        req = LLMRequest(PromptKind.FINAL_VERDICT,
                         {"claim": "c", "transcript": "(none)"})
        assert render_prompt(req) == render_prompt(req)
        other = LLMRequest(PromptKind.FINAL_VERDICT,
                           {"claim": "c2", "transcript": "(none)"})
        assert render_prompt(req) != render_prompt(other)
        assert request_hash(req) != request_hash(other)

    @pytest.mark.parametrize("kind,slot", [
        pytest.param(kind, slot, id=f"{kind.value}-{slot}")
        for kind in PromptKind for slot in PROMPT_SLOTS[kind]])
    def test_missing_slot_rejected(self, kind, slot):
        context = {name: "x" for name in PROMPT_SLOTS[kind]}
        render_prompt(LLMRequest(kind, context))
        del context[slot]
        with pytest.raises(ValidationError, match=f"missing slot '{slot}'"):
            render_prompt(LLMRequest(kind, context))

    def test_context_braces_are_inert(self):
        req = LLMRequest(PromptKind.FINAL_VERDICT,
                         {"claim": "uses {transcript} literally",
                          "transcript": "(none)"})
        assert "uses {transcript} literally" in render_prompt(req)


class TestGatewayRetry:
    def test_bounded_retries_then_success(self):
        attempts = []

        def flaky(req, prompt):
            attempts.append(1)
            if len(attempts) < 3:
                raise TransportError("boom")
            return "Answer: Real"

        gw = Gateway(ScriptedBackend(flaky), max_retries=3, backoff=0.0)
        resp = gw.complete(LLMRequest(PromptKind.FINAL_VERDICT,
                                      {"claim": "c", "transcript": "(none)"}))
        assert resp.parsed is Verdict.REAL
        assert len(attempts) == 3

    def test_hard_failure_after_retries(self):
        def dead(req, prompt):
            raise TransportError("down")

        gw = Gateway(ScriptedBackend(dead), max_retries=2, backoff=0.0)
        with pytest.raises(GatewayHardError):
            gw.complete(LLMRequest(PromptKind.FINAL_VERDICT,
                                   {"claim": "c", "transcript": "(none)"}))

    def test_unparseable_sets_flag(self):
        gw = Gateway(ScriptedBackend(lambda r, p: "no verdict here"))
        resp = gw.complete(LLMRequest(PromptKind.FINAL_VERDICT,
                                      {"claim": "c", "transcript": "(none)"}))
        assert not resp.parse_ok
        assert resp.parsed is None
        assert resp.raw == "no verdict here"

    def test_call_counts(self):
        gw = Gateway(ScriptedBackend(lambda r, p: "x"))
        gw.complete(LLMRequest(PromptKind.EXTRACT_ENTITIES, {"document": "d"}))
        assert gw.call_counts[PromptKind.EXTRACT_ENTITIES] == 1
        assert gw.call_counts[PromptKind.RANK_TRIPLES] == 0


class TestGatewayMemo:
    VERDICT = LLMRequest(PromptKind.FINAL_VERDICT,
                         {"claim": "c", "transcript": "(none)"})

    def test_repeats_reach_backend_once(self):
        prompts = []
        gw = Gateway(ScriptedBackend(lambda r, p: prompts.append(p) or
                                     "Answer: Real"))
        for _ in range(3):
            assert gw.complete(self.VERDICT).parsed is Verdict.REAL
        assert len(prompts) == 1
        assert gw.call_counts[PromptKind.FINAL_VERDICT] == 1
        assert gw.memo_hits[PromptKind.FINAL_VERDICT] == 2
        # The seed is part of the key.
        gw.complete(LLMRequest(PromptKind.FINAL_VERDICT, self.VERDICT.context,
                               seed=1))
        assert len(prompts) == 2

    def test_unparseable_not_memoized(self):
        answers = iter(["   ", "Who led?"])
        gw = Gateway(ScriptedBackend(lambda r, p: next(answers)))
        req = LLMRequest(PromptKind.GENERATE_SUBQUESTION,
                         {"claim": "c", "transcript": "(none)", "branch": "1"})
        assert not gw.complete(req).parse_ok
        # The caller's retry reaches the backend and gets the new answer.
        assert gw.complete(req).parsed == "Who led?"
        assert gw.complete(req).parsed == "Who led?"
        assert gw.call_counts[PromptKind.GENERATE_SUBQUESTION] == 2
        assert gw.memo_hits[PromptKind.GENERATE_SUBQUESTION] == 1

    def test_success_after_transport_error_is_memoized(self):
        attempts = []

        def flaky(req, prompt):
            attempts.append(1)
            if len(attempts) == 1:
                raise TransportError("boom")
            return "Answer: Fake"

        gw = Gateway(ScriptedBackend(flaky), backoff=0.0)
        assert gw.complete(self.VERDICT).parsed is Verdict.FAKE
        assert gw.complete(self.VERDICT).parsed is Verdict.FAKE
        assert len(attempts) == 2
        assert gw.memo_hits[PromptKind.FINAL_VERDICT] == 1

    @pytest.mark.parametrize("error", [GatewayHardError("HTTP 401"),
                                       TransportError("down")])
    def test_hard_error_stores_nothing(self, error):
        attempts = []

        def failing_once(req, prompt):
            attempts.append(1)
            if len(attempts) == 1:
                raise error
            return "Answer: Real"

        gw = Gateway(ScriptedBackend(failing_once), max_retries=0)
        with pytest.raises(GatewayHardError):
            gw.complete(self.VERDICT)
        assert gw.complete(self.VERDICT).parsed is Verdict.REAL
        assert len(attempts) == 2
        assert gw.memo_hits[PromptKind.FINAL_VERDICT] == 0

    def test_hit_returns_fresh_parsed_list(self):
        gw = Gateway(ScriptedBackend(lambda r, p: "Paris\nFrance"))
        req = LLMRequest(PromptKind.EXTRACT_ENTITIES, {"document": "d"})
        first = gw.complete(req)
        first.parsed.append("Nice")
        second = gw.complete(req)
        assert second.parsed == ["Paris", "France"]
        assert second.parsed is not first.parsed
        assert gw.memo_hits[PromptKind.EXTRACT_ENTITIES] == 1


class TestRecordReplay:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        inner = ScriptedBackend(lambda r, p: f"echo:{r.context['document']}")
        recorder = RecordingBackend(inner, str(path))
        gw = Gateway(recorder)
        req = LLMRequest(PromptKind.EXTRACT_ENTITIES, {"document": "Paris"})
        first = gw.complete(req)
        # Replays are byte-identical and require no inner backend.
        replay_gw = Gateway(ReplayBackend.from_path(str(path)))
        assert replay_gw.complete(req).raw == first.raw

    def test_duplicate_requests_recorded_once(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        gw = Gateway(RecordingBackend(ScriptedBackend(lambda r, p: "y"),
                                      str(path)))
        req = LLMRequest(PromptKind.EXTRACT_ENTITIES, {"document": "d"})
        gw.complete(req)
        gw.complete(req)
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert set(record) == {"hash", "kind", "prompt", "response"}

    def test_every_answer_recorded(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        answers = iter([" ", "q1"])
        gw = Gateway(RecordingBackend(
            ScriptedBackend(lambda r, p: next(answers)), str(path)))
        req = _subquestion(0)
        assert not gw.complete(req).parse_ok
        assert gw.complete(req).parsed == "q1"
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["response"] for r in records] == [" ", "q1"]
        assert {r["hash"] for r in records} == {request_hash(req)}

    def test_errors_recorded_and_replayed_in_order(self, tmp_path):
        """A transport or hard error of the inner backend gets a line and
        is raised again; replay raises it again, in the recorded order,
        with its text and class, so a replayed retry fails and succeeds
        where the recorded one did."""
        path = tmp_path / "transcript.jsonl"
        outcomes = iter([TransportError("busy"),
                         "Answer: Real", GatewayHardError("HTTP 401: no")])

        def reply(req, prompt):
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        recorded = Gateway(RecordingBackend(ScriptedBackend(reply), str(path)),
                           max_retries=1, backoff=0.0)
        verdict, other = TestGatewayMemo.VERDICT, _subquestion(0)
        assert recorded.complete(verdict).raw == "Answer: Real"
        with pytest.raises(GatewayHardError, match="HTTP 401: no"):
            recorded.complete(other)
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert [{k: r[k] for k in r if k not in ("hash", "prompt")}
                for r in records] == [
            {"kind": "final_verdict", "error": "busy", "retryable": True},
            {"kind": "final_verdict", "response": "Answer: Real"},
            {"kind": "generate_subquestion", "error": "HTTP 401: no",
             "retryable": False}]
        assert [r["hash"] for r in records] == \
            [request_hash(verdict)] * 2 + [request_hash(other)]
        replay = ReplayBackend.from_path(str(path))
        prompt = render_prompt(verdict)
        with pytest.raises(TransportError, match="^busy$"):
            replay.generate(verdict, prompt)
        assert replay.generate(verdict, prompt) == "Answer: Real"
        # The last outcome repeats, an error as an answer does.
        for _ in range(2):
            with pytest.raises(GatewayHardError) as err:
                replay.generate(other, render_prompt(other))
            assert type(err.value) is GatewayHardError
            assert str(err.value) == "HTTP 401: no"
        with pytest.raises(ReplayMissError):
            replay.generate(_subquestion(1), render_prompt(_subquestion(1)))

    def test_replay_serves_answers_in_order_then_repeats_last(self, tmp_path):
        req = _subquestion(0)
        path = tmp_path / "transcript.jsonl"
        path.write_text("".join(
            json.dumps({"hash": request_hash(req), "response": text}) + "\n"
            for text in ("first", "second")))
        replay = ReplayBackend.from_path(str(path))
        prompt = render_prompt(req)
        assert [replay.generate(req, prompt) for _ in range(3)] == \
            ["first", "second", "second"]

    def test_seed_is_part_of_request_hash(self):
        seeded = LLMRequest(PromptKind.GENERATE_SUBQUESTION,
                            _subquestion(0).context, seed=1)
        assert request_hash(seeded) != request_hash(_subquestion(0))
        assert render_prompt(seeded) == render_prompt(_subquestion(0))

    @pytest.mark.parametrize("record", [
        {"hash": "h"}, {"hash": 1, "response": "r"},
        {"hash": "h", "error": "e"}, {"hash": "h", "error": 1, "retryable": True},
        {"hash": "h", "error": "e", "retryable": "yes"},
        {"hash": 1, "error": "e", "retryable": False}])
    def test_replay_rejects_record_without_string_fields(self, tmp_path,
                                                         record):
        path = tmp_path / "transcript.jsonl"
        path.write_text('{"hash": "a", "response": "r"}\n'
                        + json.dumps(record) + "\n")
        with pytest.raises(FormatError) as err:
            ReplayBackend.from_path(str(path))
        assert err.value.line == 2

    def test_replay_miss_is_hard_error(self, tmp_path):
        gw = Gateway(ReplayBackend({}))
        with pytest.raises(ReplayMissError):
            gw.complete(LLMRequest(PromptKind.EXTRACT_ENTITIES,
                                   {"document": "unseen"}))


class _FakeResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        return self.responses.pop(0)


class TestHttpBackend:
    def _req(self):
        return LLMRequest(PromptKind.FINAL_VERDICT,
                          {"claim": "c", "transcript": "(none)"})

    def test_success_path(self):
        session = _FakeSession([_FakeResponse(200, {
            "choices": [{"message": {"content": "Answer: Real"}}]})])
        backend = HttpChatBackend("http://api.test", "test-model",
                                  api_key="k", session=session)
        assert backend.generate(self._req(), "prompt") == "Answer: Real"
        call = session.calls[0]
        assert call["url"] == "http://api.test/v1/chat/completions"
        assert call["json"]["messages"] == [{"role": "user", "content": "prompt"}]
        assert call["headers"]["Authorization"] == "Bearer k"
        assert (call["json"]["temperature"], call["json"]["seed"]) == (0.0, 0)

    def test_server_error_is_retryable(self):
        session = _FakeSession([_FakeResponse(503)])
        backend = HttpChatBackend("http://api.test", "m", session=session)
        with pytest.raises(TransportError):
            backend.generate(self._req(), "p")

    def test_client_error_is_hard(self):
        session = _FakeSession([_FakeResponse(401, text="no auth")])
        backend = HttpChatBackend("http://api.test", "m", session=session)
        with pytest.raises(GatewayHardError):
            backend.generate(self._req(), "p")

    # JSON text of a completion's content: not a string, or a lone surrogate.
    @pytest.mark.parametrize("content", ["null", "5", '["x"]', '"\\ud800"'])
    def test_content_that_is_not_text_is_hard(self, content):
        payload = json.loads('{"choices": [{"message": {"content": %s}}]}'
                             % content)
        session = _FakeSession([_FakeResponse(200, payload)])
        backend = HttpChatBackend("http://api.test", "m", session=session)
        with pytest.raises(GatewayHardError,
                           match="malformed completion response"):
            backend.generate(self._req(), "p")

    def test_content_that_is_not_text_ends_its_claim(self, tmp_path):
        """Behind the recorder too, the run goes on, and each claim it
        reached is recorded with the error."""
        table, items = tabled_world(1, 1)
        payload = json.loads(
            '{"choices": [{"message": {"content": "\\ud800"}}]}')
        session = _FakeSession([_FakeResponse(200, payload)] * 100)
        gateway = Gateway(RecordingBackend(
            HttpChatBackend("http://api.test", "m", session=session),
            str(tmp_path / "transcript.jsonl")))
        record, _, _ = run_detection(items, KnowledgeGraph(),
                                     EngineConfig(n=2, h=3), gateway)
        gateway.close()
        assert [r.verdict for r in record.results] == [None, None]
        assert all(r.error.startswith("malformed completion response")
                   for r in record.results)

    def test_rate_limit_carries_retry_after(self):
        later = datetime.now(timezone.utc) + timedelta(seconds=30)
        session = _FakeSession([
            _FakeResponse(429, headers={"Retry-After": "7"}),
            _FakeResponse(429, headers={"Retry-After":
                                        format_datetime(later, usegmt=True)}),
            _FakeResponse(429, headers={"Retry-After": "soon"}),
            _FakeResponse(429)])
        backend = HttpChatBackend("http://api.test", "m", session=session)
        waits = []
        for _ in range(4):
            with pytest.raises(TransportError) as info:
                backend.generate(self._req(), "p")
            waits.append(info.value.retry_after)
        assert waits[0] == 7.0
        assert 20 < waits[1] <= 30
        assert waits[2:] == [None, None]


def _subquestion(branch, claim="c"):
    return LLMRequest(PromptKind.GENERATE_SUBQUESTION,
                      {"claim": claim, "transcript": "(none)",
                       "branch": str(branch)})


def _echo_branch(req, prompt):
    return f"Q{req.context['branch']} of {req.context['claim']}?"


class TestBackoff:
    def _sleeps(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("verity.gateway.time.sleep", sleeps.append)
        return sleeps

    def test_gateway_waits_what_retry_after_asks(self, monkeypatch):
        sleeps = self._sleeps(monkeypatch)
        session = _FakeSession([
            _FakeResponse(429, headers={"Retry-After": "5"}),
            _FakeResponse(200, {"choices": [
                {"message": {"content": "Answer: Fake"}}]})])
        gw = Gateway(HttpChatBackend("http://api.test", "m", session=session),
                     backoff=0.25)
        resp = gw.complete(TestGatewayMemo.VERDICT)
        assert resp.parsed is Verdict.FAKE
        assert sleeps == [5.0]
        assert gw.call_counts[PromptKind.FINAL_VERDICT] == 1

    def test_backoff_is_jittered_exponential(self, monkeypatch):
        sleeps = self._sleeps(monkeypatch)
        outputs = []
        for _ in range(20):
            attempts = []

            def flaky(req, prompt):
                attempts.append(1)
                if len(attempts) <= 3:
                    raise TransportError("busy")
                return "Answer: Real"

            gw = Gateway(ScriptedBackend(flaky), max_retries=3, backoff=1.0)
            outputs.append((gw.complete(TestGatewayMemo.VERDICT).raw,
                            dict(gw.call_counts)))
        assert len(sleeps) == 60
        for attempt in range(3):
            step = 2.0 ** attempt
            waits = sleeps[attempt::3]
            assert all(step / 2 <= w <= step for w in waits)
            assert len(set(waits)) > 1
        # Jitter moves timing only.
        assert all(out == outputs[0] for out in outputs)


class TestCompleteAll:
    def test_siblings_are_in_flight_together(self):
        barrier = threading.Barrier(3, timeout=10)

        def meet(req, prompt):
            barrier.wait()
            return _echo_branch(req, prompt)

        gw = Gateway(ScriptedBackend(meet))
        try:
            resps = gw.complete_all([_subquestion(b) for b in range(3)])
        finally:
            gw.close()
        assert [r.parsed for r in resps] == ["Q0 of c?", "Q1 of c?", "Q2 of c?"]
        assert gw.call_counts[PromptKind.GENERATE_SUBQUESTION] == 3

    def test_calls_go_out_max_in_flight_at_a_time(self):
        """2 x MAX_IN_FLIGHT equal-latency calls take two latency units: the
        calling thread takes calls from the workers' queue. Had it run only
        the first call, the other calls would need three waves."""
        latency = 0.25
        lock = threading.Lock()
        in_flight = [0, 0]  # now, most

        def slow(req, prompt):
            with lock:
                in_flight[0] += 1
                in_flight[1] = max(in_flight)
            time.sleep(latency)
            with lock:
                in_flight[0] -= 1
            return _echo_branch(req, prompt)

        gw = Gateway(ScriptedBackend(slow))
        reqs = [_subquestion(b) for b in range(2 * MAX_IN_FLIGHT)]
        start = time.monotonic()
        try:
            resps = gw.complete_all(reqs)
        finally:
            elapsed = time.monotonic() - start
            gw.close()
        assert [r.parsed for r in resps] == \
            [f"Q{b} of c?" for b in range(2 * MAX_IN_FLIGHT)]
        assert in_flight[1] == MAX_IN_FLIGHT
        assert 2 * latency <= elapsed < 3 * latency

    def test_repeated_request_in_batch_is_rejected(self):
        prompts = []
        gw = Gateway(ScriptedBackend(lambda r, p: prompts.append(p) or
                                     _echo_branch(r, p)))
        with pytest.raises(ValidationError, match="distinct"):
            gw.complete_all([_subquestion(0), _subquestion(1),
                             _subquestion(0)])
        assert prompts == []
        assert sum(gw.call_counts.values()) == sum(gw.memo_hits.values()) == 0
        # A memoized request may come back in a later batch, once.
        gw.complete(_subquestion(0))
        resps = gw.complete_all([_subquestion(0), _subquestion(1)])
        gw.close()
        assert [r.parsed for r in resps] == ["Q0 of c?", "Q1 of c?"]
        assert len(prompts) == 2
        assert gw.call_counts[PromptKind.GENERATE_SUBQUESTION] == 2
        assert gw.memo_hits[PromptKind.GENERATE_SUBQUESTION] == 1
        # The seed is part of a request's identity.
        seeded = LLMRequest(PromptKind.GENERATE_SUBQUESTION,
                            _subquestion(0).context, seed=1)
        gw.complete_all([_subquestion(0), seeded])
        assert len(prompts) == 3

    def test_responses_come_back_in_request_order(self):
        def slow_first(req, prompt):
            # Branch 0 answers last, branch 3 first.
            time.sleep(0.02 * (3 - int(req.context["branch"])))
            return _echo_branch(req, prompt)

        gw = Gateway(ScriptedBackend(slow_first))
        resps = gw.complete_all([_subquestion(b) for b in range(4)])
        gw.close()
        assert [r.parsed for r in resps] == \
            [f"Q{b} of c?" for b in range(4)]

    def test_hard_error_from_one_sibling_propagates(self):
        def one_fails(req, prompt):
            if req.context["branch"] == "1":
                raise GatewayHardError("HTTP 400")
            return _echo_branch(req, prompt)

        gw = Gateway(ScriptedBackend(one_fails))
        with pytest.raises(GatewayHardError, match="HTTP 400"):
            gw.complete_all([_subquestion(b) for b in range(3)])
        gw.close()
        # The siblings that succeeded were counted and memoized.
        assert gw.call_counts[PromptKind.GENERATE_SUBQUESTION] == 2
        assert gw.complete(_subquestion(2)).parsed == "Q2 of c?"
        assert gw.memo_hits[PromptKind.GENERATE_SUBQUESTION] == 1

    def test_single_request_batch_starts_no_thread(self):
        before = set(threading.enumerate())
        gw = Gateway(ScriptedBackend(_echo_branch))
        gw.complete_all([_subquestion(0)])
        gw.complete_all([_subquestion(1)])
        # Memo hits send nothing.
        gw.complete_all([_subquestion(0), _subquestion(1)])
        assert gw._pool is None
        assert set(threading.enumerate()) <= before

    def test_close_stops_workers(self):
        before = set(threading.enumerate())
        gw = Gateway(ScriptedBackend(_echo_branch))
        gw.complete_all([_subquestion(b) for b in range(3)])
        assert set(threading.enumerate()) - before
        gw.close()
        assert set(threading.enumerate()) <= before
        # A closed gateway still serves batches.
        resps = gw.complete_all([_subquestion(b) for b in range(3, 6)])
        assert [r.parsed for r in resps] == ["Q3 of c?", "Q4 of c?", "Q5 of c?"]
        gw.close()

    def test_discarded_gateways_do_not_leak_threads(self):
        before = threading.active_count()
        for i in range(200):
            gw = Gateway(ScriptedBackend(_echo_branch))
            gw.complete_all([_subquestion(b, claim=str(i)) for b in range(3)])
            del gw
        deadline = time.monotonic() + 10
        while threading.active_count() > before and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before

    def test_stress_counts_add_up(self):
        lock = threading.Lock()
        sent = []

        def record(req, prompt):
            with lock:
                sent.append(request_hash(req, prompt))
            return _echo_branch(req, prompt)

        gw = Gateway(ScriptedBackend(record))
        width = 4 * MAX_IN_FLIGHT
        requests = 0
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 1.0
            batch = 0
            while time.monotonic() < deadline:
                # Half of each batch repeats the previous batch's requests.
                reqs = [_subquestion(b - b % 2, claim=str(batch - b % 2))
                        for b in range(width)]
                resps = gw.complete_all(reqs)
                assert [r.parsed for r in resps] == \
                    [_echo_branch(r, "") for r in reqs]
                requests += len(reqs)
                batch += 1
        finally:
            sys.setswitchinterval(old_interval)
            gw.close()
        calls = sum(gw.call_counts.values())
        assert calls + sum(gw.memo_hits.values()) == requests
        assert calls == len(sent) == len(set(sent))


def _waiting(reqs):
    """A ``Stepper`` waiting on ``reqs`` once; it ends with their responses
    as its ``result``, or with their first error as its ``error``."""
    def steps():
        return (yield list(reqs))
    return Stepper(steps())


def _spied(reply=_echo_branch, **kwargs):
    """A gateway over ``reply``, and the claim and branch of each request of
    each backend batch it sends."""
    gw = Gateway(ScriptedBackend(reply), **kwargs)
    jobs = []
    send = gw._send

    def spy(batch):
        jobs.append([req.context["claim"] + req.context["branch"]
                     for req, _ in batch])
        return send(batch)

    gw._send = spy
    return gw, jobs


class TestSendAhead:
    """A rider, another caller's step, goes out with a batch that sends."""

    def test_riders_follow_the_next_batch_that_sends(self):
        gw, jobs = _spied()
        gw.complete(_subquestion(0))
        riders = [_subquestion(0, "r"), _subquestion(1, "r")]
        rider = _waiting(riders)
        # A batch the memo answers in full carries no rider.
        own = gw.complete_all([_subquestion(0)], rider)
        assert [r.parsed for r in own] == ["Q0 of c?"]
        assert rider.pending == riders
        assert jobs == [["c0"]]
        own = gw.complete_all([_subquestion(1), _subquestion(2)], rider)
        gw.close()
        assert jobs[1] == ["c1", "c2", "r0", "r1"]
        assert [r.parsed for r in own] == ["Q1 of c?", "Q2 of c?"]
        assert [r.parsed for r in rider.result] == ["Q0 of r?", "Q1 of r?"]
        assert gw.call_counts[PromptKind.GENERATE_SUBQUESTION] == 5
        assert gw.round_trips == 2

    def test_hand_off_counts_as_sent_not_as_a_memo_hit(self):
        gw, jobs = _spied()
        gw.complete(_subquestion(0, "r"))
        rider = _waiting([_subquestion(0, "r"), _subquestion(1, "r")])
        gw.complete_all([_subquestion(0)], rider)
        assert [r.parsed for r in rider.result] == ["Q0 of r?", "Q1 of r?"]
        # The rider's memoized request is a memo hit, its other one a call.
        assert jobs == [["r0"], ["c0", "r1"]]
        assert gw.call_counts[PromptKind.GENERATE_SUBQUESTION] == 3
        assert gw.memo_hits[PromptKind.GENERATE_SUBQUESTION] == 1
        # The carried answer parsed, so it is memoized now.
        gw.complete(_subquestion(1, "r"))
        gw.close()
        assert gw.memo_hits[PromptKind.GENERATE_SUBQUESTION] == 2
        assert len(jobs) == 2

    def test_skipped_riders(self):
        gw, jobs = _spied()
        # A rider that would send a request the batch sends waits.
        rider = _waiting([_subquestion(1), _subquestion(2)])
        own = gw.complete_all([_subquestion(0), _subquestion(1)], rider)
        assert len(own) == 2
        assert rider.pending == [_subquestion(1), _subquestion(2)]
        assert jobs == [["c0", "c1"]]
        # A rider the memo holds in full is not answered on its own, nor
        # with a batch the memo answers too; it rides with one that sends.
        held = _waiting([_subquestion(1), _subquestion(0)])
        assert gw.complete_all((), held) == []
        assert held.pending == [_subquestion(1), _subquestion(0)]
        own = gw.complete_all([_subquestion(0)], held)
        assert [r.parsed for r in own] == ["Q0 of c?"]
        assert held.pending == [_subquestion(1), _subquestion(0)]
        own = gw.complete_all([_subquestion(2)], held)
        assert [r.parsed for r in own] == ["Q2 of c?"]
        assert [r.parsed for r in held.result] == ["Q1 of c?", "Q0 of c?"]
        # A rider's requests must be distinct too. The rider, not the batch,
        # gets the error, and the batch goes out alone.
        repeated = _waiting([_subquestion(4), _subquestion(4)])
        own = gw.complete_all([_subquestion(3)], repeated)
        assert [r.parsed for r in own] == ["Q3 of c?"]
        assert isinstance(repeated.error, ValidationError)
        assert "distinct" in str(repeated.error)
        gw.close()
        assert jobs == [["c0", "c1"], ["c2"], ["c3"]] and gw.round_trips == 3
        assert gw.call_counts[PromptKind.GENERATE_SUBQUESTION] == 4
        assert gw.memo_hits[PromptKind.GENERATE_SUBQUESTION] == 3

    def test_a_batch_the_memo_answers_renders_no_rider(self, monkeypatch):
        """Only a batch that sends renders its rider, so only such a batch
        finds that the rider's step fails validation."""
        gw, jobs = _spied()
        gw.complete(_subquestion(0))
        rendered = []
        render = render_prompt
        monkeypatch.setattr("verity.gateway.render_prompt", lambda req: (
            rendered.append(req.context["claim"] + req.context["branch"])
            or render(req)))
        repeated = _waiting([_subquestion(4, "r"), _subquestion(4, "r")])
        assert [r.parsed for r in gw.complete_all([_subquestion(0)],
                                                  repeated)] == ["Q0 of c?"]
        assert rendered == ["c0"] and repeated.error is None
        gw.complete_all([_subquestion(1)], repeated)
        gw.close()
        assert rendered == ["c0", "c1", "r4", "r4"]
        assert isinstance(repeated.error, ValidationError)
        assert jobs == [["c0"], ["c1"]]

    def test_rider_error_waits_for_its_request(self):
        attempts = {}

        def reply(req, prompt):
            branch = req.context["branch"]
            attempts[branch] = attempts.get(branch, 0) + 1
            if req.context["claim"] == "r" and branch == "1":
                raise GatewayHardError("r1 down")
            if req.context["claim"] == "r" and attempts[branch] == 1:
                raise TransportError("flaky")
            if req.context["claim"] == "r" and branch == "2":
                return " "
            return _echo_branch(req, prompt)

        gw, jobs = _spied(reply, max_retries=1, backoff=0.0)
        # The carrying batch does not raise its rider's error: the rider
        # is resumed with that error.
        rider = _waiting([_subquestion(b, "r") for b in (2, 1, 0)])
        own = gw.complete_all([_subquestion(9)], rider)
        assert [r.parsed for r in own] == ["Q9 of c?"]
        assert isinstance(rider.error, GatewayHardError)
        assert str(rider.error) == "r1 down"
        assert len(jobs) == 1
        # The rider's other calls were counted, and branch 0, after its
        # transport retry, memoized; branch 2 did not parse, so it is asked
        # again.
        assert gw.call_counts[PromptKind.GENERATE_SUBQUESTION] == 3
        assert gw.complete(_subquestion(0, "r")).parsed == "Q0 of r?"
        assert not gw.complete(_subquestion(2, "r")).parse_ok
        gw.close()
        assert jobs[1:] == [["r2"]]
        assert gw.memo_hits[PromptKind.GENERATE_SUBQUESTION] == 1

    def test_drop_riders(self):
        """The batch's own error is raised once its rider has been resumed
        with the rider's answers."""
        def reply(req, prompt):
            if req.context["claim"] == "c":
                raise GatewayHardError("c down")
            return _echo_branch(req, prompt)

        gw, jobs = _spied(reply)
        rider = _waiting([_subquestion(0, "r")])
        with pytest.raises(GatewayHardError, match="c down"):
            gw.complete_all([_subquestion(0)], rider)
        assert [r.parsed for r in rider.result] == ["Q0 of r?"]
        with pytest.raises(GatewayHardError, match="c down"):
            gw.complete_all([_subquestion(0)])
        gw.close()
        assert jobs == [["c0", "r0"], ["c0"]] and gw.round_trips == 2
        assert gw.call_counts[PromptKind.GENERATE_SUBQUESTION] == 1


    @settings(max_examples=200, deadline=None)
    @given(memo=st.sets(st.integers(0, 5)),
           reqs=st.lists(st.integers(0, 5), unique=True, max_size=4),
           step=st.lists(st.integers(0, 5), unique=True, max_size=4),
           down=st.sets(st.integers(0, 5), max_size=2),
           blank=st.sets(st.integers(0, 5), max_size=2))
    def test_a_ride_is_the_batch_then_the_step_alone(self, memo, reqs, step,
                                                     down, blank):
        """``complete_all(reqs, ahead)`` answers, fails and counts as
        completing ``reqs`` and then the step ``ahead`` waits on alone
        would, in no more round-trips. A request in ``down`` fails hard,
        one in ``blank`` does not parse; ``memo`` is answered beforehand."""
        armed = []

        def reply(req, prompt):
            branch = int(req.context["branch"])
            if armed and branch in down:
                raise GatewayHardError(f"down {branch}")
            if armed and branch in blank:
                return " "
            return _echo_branch(req, prompt)

        def outcome(call):
            try:
                return call()
            except GatewayHardError as exc:
                return exc

        def run(ride):
            armed.clear()
            gw = Gateway(ScriptedBackend(reply), max_retries=0)
            gw.complete_all([_subquestion(b) for b in sorted(memo)])
            before = gw.round_trips
            armed.append(True)
            walk = _waiting([_subquestion(b) for b in step])
            own = outcome(lambda: gw.complete_all(
                [_subquestion(b) for b in reqs], walk if ride else None))
            rode = walk.pending is None
            if not rode:
                # Left waiting on the same requests, then completed alone.
                assert walk.pending == [_subquestion(b) for b in step]
                walk.advance(outcome(lambda: gw.complete_all(walk.pending)))
            gw.close()
            return gw, own, walk, rode, gw.round_trips - before

        def plain(outcome):
            return repr(outcome) if isinstance(outcome, Exception) else outcome

        gw1, own1, walk1, _, trips1 = run(ride=False)
        gw2, own2, walk2, rode, trips2 = run(ride=True)
        assert plain(own2) == plain(own1)
        assert walk2.result == walk1.result
        assert plain(walk2.error) == plain(walk1.error)
        assert gw2.call_counts == gw1.call_counts
        assert gw2.memo_hits == gw1.memo_hits
        assert trips2 <= trips1
        sends = set(reqs) - memo
        assert rode == bool(sends and sends.isdisjoint(step))
        # Each side's error names one of its own requests.
        if isinstance(own2, Exception):
            assert int(str(own2).split()[1]) in reqs
        if walk2.error is not None:
            assert int(str(walk2.error).split()[1]) in step


class TestCompleteSteps:
    """Several callers' steps, each settled as it would be alone."""

    def test_each_step_gets_its_own_outcome(self):
        def reply(req, prompt):
            if req.context["claim"] == "down":
                raise GatewayHardError("down")
            return _echo_branch(req, prompt)

        gw, jobs = _spied(reply, max_retries=0)
        gw.complete(_subquestion(0, "b"))
        repeated = [_subquestion(5, "r"), _subquestion(5, "r")]
        unslotted = [LLMRequest(PromptKind.GENERATE_SUBQUESTION, {})]
        a, down, b, bad, gap = gw.complete_steps([
            [_subquestion(0, "a")], [_subquestion(0, "down")],
            [_subquestion(0, "b"), _subquestion(1, "b")], repeated,
            unslotted])
        gw.close()
        assert [r.parsed for r in a] == ["Q0 of a?"]
        assert str(down) == "down"
        assert [r.parsed for r in b] == ["Q0 of b?", "Q1 of b?"]
        assert isinstance(bad, ValidationError) and "distinct" in str(bad)
        assert isinstance(gap, ValidationError) and "slot" in str(gap)
        assert jobs == [["b0"], ["a0", "down0", "b1"]] and gw.round_trips == 2
        assert gw.call_counts[PromptKind.GENERATE_SUBQUESTION] == 3
        assert gw.memo_hits[PromptKind.GENERATE_SUBQUESTION] == 1

    def test_a_step_waits_behind_a_send_it_shares(self):
        gw, jobs = _spied()
        gw.complete(_subquestion(9))
        # The second step shares a send with the first, and the third one
        # with the waiting second; the fourth shares only a memo hit.
        outcomes = gw.complete_steps([
            [_subquestion(0), _subquestion(9)],
            [_subquestion(1, "x"), _subquestion(0)],
            [_subquestion(1, "x")],
            [_subquestion(9), _subquestion(2)]])
        assert outcomes[1] is None and outcomes[2] is None
        assert [r.parsed for r in outcomes[3]] == ["Q9 of c?", "Q2 of c?"]
        assert jobs[1:] == [["c0", "c2"]]
        # Asked again, the waiting steps go out in order.
        second, third = gw.complete_steps([[_subquestion(1, "x"),
                                            _subquestion(0)],
                                           [_subquestion(1, "x")]])
        assert [r.parsed for r in second] == ["Q1 of x?", "Q0 of c?"]
        assert third is None
        [third] = gw.complete_steps([[_subquestion(1, "x")]])
        gw.close()
        assert [r.parsed for r in third] == ["Q1 of x?"]
        assert jobs[2:] == [["x1"]] and gw.round_trips == 3
        assert gw.call_counts[PromptKind.GENERATE_SUBQUESTION] == 4
        assert gw.memo_hits[PromptKind.GENERATE_SUBQUESTION] == 4


class TestDriveAll:
    def test_generators_run_together(self):
        def steps(claim, rounds):
            got = []
            for b in range(rounds):
                if b == 1:
                    yield GraphWrite(frozenset({claim}))
                [resp] = yield [_subquestion(b, claim)]
                got.append(resp.parsed)
            return got

        def failing():
            yield [_subquestion(0, "down")]

        def reply(req, prompt):
            if req.context["claim"] == "down":
                raise GatewayHardError("down")
            return _echo_branch(req, prompt)

        gw = Gateway(ScriptedBackend(reply), max_retries=0)
        a, down, b, again = drive_all(
            [steps("a", 3), failing(), steps("b", 1), steps("a", 2)], gw)
        gw.close()
        assert a.result == ["Q0 of a?", "Q1 of a?", "Q2 of a?"]
        assert str(down.error) == "down" and down.result is None
        assert b.result == ["Q0 of b?"]
        # The repeat of a's first steps waited a round for each, so it read
        # both from the memo.
        assert again.result == ["Q0 of a?", "Q1 of a?"]
        assert gw.round_trips == 3
        assert gw.call_counts[PromptKind.GENERATE_SUBQUESTION] == 4
        assert gw.memo_hits[PromptKind.GENERATE_SUBQUESTION] == 2
        # Each Stepper keeps what its own generator declared, if anything.
        assert [w.writes for w in (a, down, b, again)] == \
            [frozenset({"a"}), None, None, frozenset({"a"})]

    def test_nothing_to_drive(self):
        gw = Gateway(ScriptedBackend(_echo_branch))
        assert drive_all([], gw) == []
        assert gw.round_trips == 0


class TestDrive:
    """A step generator yields request lists; ``drive`` answers them."""

    def test_failed_batch_raises_at_its_yield(self):
        def steps():
            try:
                yield [_subquestion(0, "down")]
            except GatewayHardError as exc:
                first = str(exc)
            [resp] = yield [_subquestion(1)]
            return first, resp.parsed

        def reply(req, prompt):
            if req.context["claim"] == "down":
                raise GatewayHardError("down")
            return _echo_branch(req, prompt)

        def uncaught():
            yield [_subquestion(0, "down")]

        gw = Gateway(ScriptedBackend(reply))
        assert drive(steps(), gw) == ("down", "Q1 of c?")
        with pytest.raises(GatewayHardError, match="down"):
            drive(uncaught(), gw)
        gw.close()

    def test_graph_read_sends_nothing(self):
        def steps():
            read = yield GraphRead("alpha")
            write = yield GraphWrite(frozenset({"beta"}))
            [resp] = yield [_subquestion(0)]
            return read, write, resp.parsed

        gw = Gateway(ScriptedBackend(_echo_branch))
        walk = Stepper(steps())
        assert walk.step == GraphRead("alpha")
        assert walk.pending is None
        assert walk.writes is None
        assert drive(walk, gw) == (None, None, "Q0 of c?")
        gw.close()
        assert gw.round_trips == 1
        # The Stepper keeps the declaration, and only that.
        assert walk.writes == frozenset({"beta"})

    def test_writes_hold_the_last_declaration(self):
        def steps():
            yield [_subquestion(0)]
            yield GraphWrite(frozenset({"alpha"}))
            yield [_subquestion(1)]
            yield GraphWrite(frozenset())
            [resp] = yield [_subquestion(2)]
            return resp.parsed

        gw = Gateway(ScriptedBackend(_echo_branch))
        walk = Stepper(steps())
        assert walk.pending is not None and walk.writes is None
        walk.advance(gw.complete_all(walk.pending))
        assert walk.step == GraphWrite(frozenset({"alpha"}))
        assert walk.writes == frozenset({"alpha"})
        walk.advance(None)
        # Kept while the generator goes on, until it declares again.
        assert walk.pending is not None
        assert walk.writes == frozenset({"alpha"})
        assert drive(walk, gw) == "Q2 of c?"
        gw.close()
        assert walk.writes == frozenset()

    def test_a_stepper_part_way_through_is_finished(self):
        asked = []

        def steps():
            for b in range(3):
                [resp] = yield [_subquestion(b)]
                asked.append(resp.parsed)
            return len(asked)

        walk = Stepper(steps())
        assert walk.pending == [_subquestion(0)]
        gw = Gateway(ScriptedBackend(_echo_branch))
        walk.advance(gw.complete_all(walk.pending))
        assert asked == ["Q0 of c?"] and walk.pending == [_subquestion(1)]
        assert drive(walk, gw) == 3
        gw.close()
        assert asked == ["Q0 of c?", "Q1 of c?", "Q2 of c?"]
        assert walk.step is None and walk.result == 3

    def test_an_error_that_escapes_stays_on_the_stepper(self):
        def steps():
            yield [_subquestion(0)]
            raise ValueError("bad step")

        walk = Stepper(steps())
        walk.advance(GatewayHardError("ignored"))
        assert walk.step is None and isinstance(walk.error, GatewayHardError)
        gw = Gateway(ScriptedBackend(_echo_branch))
        with pytest.raises(GatewayHardError, match="ignored"):
            drive(walk, gw)
        with pytest.raises(ValueError, match="bad step"):
            drive(steps(), gw)
        gw.close()
