"""Single choke-point for model interactions.

Renders one template per prompt kind, calls a chat backend, and parses the
structured output. Three backends are provided: a live chat-completion HTTP
endpoint, a transcript-replay backend keyed by request hash, and (in
:mod:`verity.oracle`) a deterministic rule-based backend for tests.
"""

from __future__ import annotations

import collections
import email.utils
import functools
import hashlib
import json
import math
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from importlib import resources
from typing import Any, Callable, Generator, Optional, Protocol, Sequence

import requests

from .errors import (FormatError, GatewayHardError, ReplayMissError,
                     TransportError, ValidationError)
from .jsonl import read_records, write_lines
from .verdict import Verdict


class PromptKind(Enum):
    EXTRACT_ENTITIES = "extract_entities"
    GENERATE_RELATIONS = "generate_relations"
    EXTRACT_EVENT_TRIPLES = "extract_event_triples"
    GENERATE_SUBQUESTION = "generate_subquestion"
    ANSWER_SUBQUESTION = "answer_subquestion"
    FINAL_VERDICT = "final_verdict"
    RANK_TRIPLES = "rank_triples"


@dataclass(frozen=True)
class LLMRequest:
    kind: PromptKind
    context: dict[str, str]
    seed: int = 0


@dataclass
class LLMResponse:
    raw: str
    parsed: Any
    parse_ok: bool
    warnings: int = 0


@functools.cache
def _template(kind: PromptKind) -> tuple[str, tuple[str, ...], re.Pattern]:
    """The kind's template text, its ``{name}`` slots in order, and one
    pattern matching any of them."""
    ref = resources.files("verity.templates").joinpath(kind.value + ".txt")
    text = ref.read_text(encoding="utf-8")
    slots = tuple(dict.fromkeys(re.findall(r"\{(\w+)\}", text)))
    pattern = re.compile("|".join(re.escape("{" + s + "}") for s in slots))
    return text, slots, pattern


def render_prompt(req: LLMRequest) -> str:
    """Pure function of (kind, context, template); raises on missing slots."""
    text, slots, pattern = _template(req.kind)
    for slot in slots:
        if slot not in req.context:
            raise ValidationError(f"{req.kind.value} request missing slot '{slot}'")
    # Single pass so slot values containing brace patterns stay inert.
    return pattern.sub(lambda m: req.context[m.group(0)[1:-1]], text)


def request_hash(req: LLMRequest, prompt: Optional[str] = None) -> str:
    """Memo and transcript key: a hash of the kind, seed and prompt."""
    if prompt is None:
        prompt = render_prompt(req)
    text = f"{req.kind.value}\x00{req.seed}\x00{prompt}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Output parsing

_ANSWER_LINE = re.compile(r"^\s*answer\s*:\s*(.*)$", re.IGNORECASE)


def parse_verdict(raw: str) -> Optional[Verdict]:
    """Find the two label tokens in the last 'Answer:' line.

    Exactly one of real/fake present -> that verdict; both or neither (or no
    answer line at all) -> None, signalling the caller's fallback rule.
    """
    answer_field = None
    for line in raw.splitlines():
        match = _ANSWER_LINE.match(line)
        if match:
            answer_field = match.group(1)
    if answer_field is None:
        return None
    has_real = re.search(r"\breal\b", answer_field, re.IGNORECASE) is not None
    has_fake = re.search(r"\bfake\b", answer_field, re.IGNORECASE) is not None
    if has_real == has_fake:
        return None
    return Verdict.REAL if has_real else Verdict.FAKE


def parse_triples(raw: str) -> tuple[list[tuple[str, str, str]], int]:
    """Parse '(subject | relation | object)' lines; skip malformed ones.

    Returns the triples plus the count of malformed non-empty lines.
    """
    triples: list[tuple[str, str, str]] = []
    malformed = 0
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("(") and line.endswith(")"):
            parts = [p.strip() for p in line[1:-1].split("|")]
            if len(parts) == 3 and all(parts):
                triples.append((parts[0], parts[1], parts[2]))
                continue
        malformed += 1
    return triples, malformed


_BULLET = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*")


def parse_entities(raw: str) -> list[str]:
    entities = []
    for line in raw.splitlines():
        line = _BULLET.sub("", line).strip()
        if line:
            entities.append(line)
    return entities


def parse_ranking(raw: str) -> list[int]:
    return [int(tok) for tok in re.findall(r"-?\d+", raw)]


def _parse_payload(kind: PromptKind, raw: str) -> LLMResponse:
    if kind == PromptKind.FINAL_VERDICT:
        verdict = parse_verdict(raw)
        return LLMResponse(raw, verdict, verdict is not None)
    if kind in (PromptKind.GENERATE_RELATIONS, PromptKind.EXTRACT_EVENT_TRIPLES):
        triples, malformed = parse_triples(raw)
        return LLMResponse(raw, triples, True, warnings=malformed)
    if kind == PromptKind.EXTRACT_ENTITIES:
        return LLMResponse(raw, parse_entities(raw), True)
    if kind == PromptKind.RANK_TRIPLES:
        indices = parse_ranking(raw)
        return LLMResponse(raw, indices, bool(indices))
    # Sub-question and answer payloads are the stripped text itself.
    text = raw.strip()
    return LLMResponse(raw, text if text else None, bool(text))


# ---------------------------------------------------------------------------
# Backends


class Backend(Protocol):
    def generate(self, req: LLMRequest, prompt: str) -> str: ...


def _retry_after(value: Optional[str]) -> Optional[float]:
    """Seconds to wait from a Retry-After header: delay-seconds or an HTTP date."""
    if not value:
        return None
    try:
        return float(max(0, int(value)))
    except ValueError:
        pass
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


class HttpChatBackend:
    """De-facto chat-completion HTTP endpoint: POST {base}/v1/chat/completions."""

    def __init__(self, base_url: str, model: str, api_key: str = "",
                 timeout: float = 60.0, session: Optional[requests.Session] = None):
        if not 0 < timeout < math.inf:
            raise ValidationError("timeout must be a positive, finite number "
                                  "of seconds")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.session = session or requests.Session()

    def generate(self, req: LLMRequest, prompt: str) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
            "seed": req.seed,
        }
        try:
            resp = self.session.post(f"{self.base_url}/v1/chat/completions",
                                     json=payload, headers=headers,
                                     timeout=self.timeout)
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransportError(
                f"HTTP {resp.status_code}",
                retry_after=_retry_after(resp.headers.get("Retry-After")))
        if resp.status_code != 200:
            raise GatewayHardError(f"HTTP {resp.status_code}: {resp.text[:500]}")
        try:
            content = resp.json()["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}, not text")
            # A lone surrogate fails here, not in a later request's hash.
            content.encode("utf-8")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise GatewayHardError(f"malformed completion response: {exc}") from exc
        return content


class ScriptedBackend:
    """Test backend driven by a plain function of (request, prompt)."""

    def __init__(self, fn: Callable[[LLMRequest, str], str]):
        self._fn = fn

    def generate(self, req: LLMRequest, prompt: str) -> str:
        return self._fn(req, prompt)


class ReplayBackend:
    """Replays recorded responses by request hash; misses are fatal.

    A hash's answers are served in recorded order, then the last repeats,
    so one transcript can serve several runs.
    """

    def __init__(self, records: dict[str, list[str]]):
        self._records = records

    @classmethod
    def from_path(cls, path: str) -> "ReplayBackend":
        records: dict[str, list[str]] = {}
        for lineno, record in read_records(path):
            key, response = record.get("hash"), record.get("response")
            if not isinstance(key, str) or not isinstance(response, str):
                raise FormatError(path, lineno, "needs a string hash and response")
            records.setdefault(key, []).append(response)
        return cls(records)

    def generate(self, req: LLMRequest, prompt: str) -> str:
        key = request_hash(req, prompt)
        answers = self._records.get(key)
        if not answers:
            raise ReplayMissError(f"no recorded response for {req.kind.value} "
                                  f"request {key[:12]}")
        return answers.pop(0) if len(answers) > 1 else answers[0]


class RecordingBackend:
    """Wraps another backend and appends a transcript line per answer it gives.

    A request asked again, because its answer did not parse, gets a line
    per answer in call order, since a Gateway never has one request in
    flight twice; ``ReplayBackend`` serves them back in that order.
    """

    def __init__(self, inner: Backend, path: str):
        self.inner = inner
        self.path = path
        self._lock = threading.Lock()
        # Start the transcript empty; each answer is appended.
        write_lines(path, ())

    def generate(self, req: LLMRequest, prompt: str) -> str:
        response = self.inner.generate(req, prompt)
        key = request_hash(req, prompt)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({
                    "hash": key,
                    "kind": req.kind.value,
                    "prompt": prompt,
                    "response": response,
                }, ensure_ascii=False) + "\n")
        return response


# ---------------------------------------------------------------------------

# Most backend calls one batch has in flight, the calling thread's included.
MAX_IN_FLIGHT = 8


class Gateway:
    """Front door for model requests: render, pace, retry, memoize, parse.

    Every request is sent at temperature 0, and responses are memoized for
    the life of the Gateway, keyed by ``request_hash``, which covers the
    kind, the seed and the prompt. The memo is the only dedup: backends,
    the recorder included, see every call that misses it. Only a raw
    response that parsed is stored; transport errors, hard errors and
    unparseable outputs are not, so a caller's retry still reaches the
    backend. A repeat is parsed again from the stored raw text, so callers
    never share a parsed value. Against a live endpoint this means a
    repeated request reuses the first answer instead of sampling a new one.

    ``complete_all`` takes a batch of distinct requests and sends its memo
    misses to the backend together, ``MAX_IN_FLIGHT`` at a time: the
    calling thread and a pool of at most ``MAX_IN_FLIGHT - 1`` worker
    threads take them from one queue. The pool is created on first need
    and stopped by ``close`` (or when the Gateway is discarded). Workers
    run only the backend call with its pacing and transport retries;
    counting, the memo and parsing stay on the calling thread, in request
    order. A Gateway therefore serves one calling thread
    at a time. ``min_interval`` spaces backend calls across all threads.
    Given a second caller's ``Stepper``, ``complete_all`` also sends the
    step it waits on in the same round-trip, when the batch reaches the
    backend and that step asks none of the batch's misses.
    ``complete_steps`` sends the misses of several callers' steps in one
    batch and settles each step as it would be settled alone.

    ``call_counts`` counts calls that reached the backend, by kind;
    ``memo_hits`` counts answers served from the memo; ``round_trips``
    counts backend batches.
    """

    def __init__(self, backend: Backend, max_retries: int = 3,
                 backoff: float = 0.25, min_interval: float = 0.0):
        if max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if not 0 <= min_interval < math.inf:
            raise ValidationError("min_interval must be a finite number of "
                                  "seconds >= 0")
        self.backend = backend
        self.max_retries = max_retries
        self.backoff = backoff
        self.min_interval = min_interval
        self._pace_lock = threading.Lock()
        self._last_call = 0.0
        # Jitter draws from its own generator: it moves timing, never outputs.
        self._jitter = random.Random()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._memo: dict[str, str] = {}
        self.call_counts: dict[PromptKind, int] = {k: 0 for k in PromptKind}
        self.memo_hits: dict[PromptKind, int] = {k: 0 for k in PromptKind}
        self.round_trips = 0

    def close(self) -> None:
        """Stop the worker threads; a later batch starts new ones."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _pace(self) -> None:
        if self.min_interval <= 0:
            return
        with self._pace_lock:
            wait = self._last_call + self.min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_call = time.monotonic()

    def _retry_delay(self, attempt: int, retry_after: Optional[float]) -> float:
        """Exponential backoff with equal jitter, at least the server's ask."""
        step = self.backoff * (2 ** attempt)
        return max(step / 2 + self._jitter.uniform(0, step / 2),
                   retry_after or 0.0)

    def _generate(self, req: LLMRequest, prompt: str) -> str:
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            self._pace()
            try:
                return self.backend.generate(req, prompt)
            except TransportError as exc:
                last_error = exc
                if attempt < self.max_retries:
                    time.sleep(self._retry_delay(attempt, exc.retry_after))
        raise GatewayHardError(
            f"{req.kind.value} failed after {self.max_retries + 1} "
            f"attempts: {last_error}")

    def _send(self, jobs: list[tuple[LLMRequest, str]]) -> list:
        """Backend answers to ``jobs`` in order; a failed job gives its error.

        The calling thread and up to ``MAX_IN_FLIGHT - 1`` workers each take
        the next job from one queue until it is empty, so ``MAX_IN_FLIGHT``
        calls are in flight while jobs remain. Waits for every job, so no
        call outlives the batch.
        """
        outcomes: list = [None] * len(jobs)
        queue = collections.deque(enumerate(jobs))

        def drain() -> None:
            while True:
                try:
                    i, job = queue.popleft()
                except IndexError:
                    return
                try:
                    outcomes[i] = self._generate(*job)
                except Exception as exc:
                    # The caller re-raises it once the other calls are done
                    # and counted.
                    outcomes[i] = exc

        futures = []
        if len(jobs) > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    MAX_IN_FLIGHT - 1, thread_name_prefix="verity-gateway")
            futures = [self._pool.submit(drain)
                       for _ in range(min(len(jobs), MAX_IN_FLIGHT) - 1)]
        drain()
        for future in futures:
            future.result()
        return outcomes

    def declare_writes(self, keys: frozenset[str]) -> None:
        """Note the entity keys the running update can still write; a
        Gateway runs no claim ahead, so it has no use for them."""

    def complete(self, req: LLMRequest) -> LLMResponse:
        return self.complete_all([req])[0]

    def complete_all(self, reqs: Sequence[LLMRequest],
                     ahead: Optional[Stepper] = None) -> list[LLMResponse]:
        """Responses to distinct ``reqs``, in order, backend calls overlapped.

        Against a deterministic backend this returns and counts what
        completing the requests one by one would. A request repeated within
        the batch raises ``ValidationError``: a caller that needs one answer
        several times asks once. If a backend call fails, the calls that
        succeeded are still counted and memoized, then the first failure in
        request order is raised.

        ``ahead`` is a later caller's ``Stepper``. The step it waits on
        rides along only when ``reqs`` misses the memo: it is then the
        second step of ``complete_steps``, which leaves it waiting if it
        would send a request that ``reqs`` sends. A step that rides is
        resumed with its responses or its first error, before any error of
        ``reqs`` is raised. A step that fails validation is resumed with its
        ``ValidationError``, and ``reqs`` go out without it. Any other step
        that does not ride is left waiting, with nothing of it sent or
        counted.
        """
        steps = [self._jobs(reqs)]
        if ahead is not None and ahead.pending is not None:
            try:
                ride = self._jobs(ahead.pending)
            except ValidationError as exc:
                ahead.advance(exc)
            else:
                if any(key not in self._memo for _, _, key in steps[0]):
                    steps.append(ride)
        outcomes = self._complete(steps)
        if len(outcomes) > 1 and outcomes[1] is not None:
            ahead.advance(outcomes[1])
        if isinstance(outcomes[0], Exception):
            raise outcomes[0]
        return outcomes[0]

    def complete_steps(self, steps: Sequence[Sequence[LLMRequest]]) -> list:
        """Each step's outcome, the memo misses of all steps sent in one
        backend batch.

        A step is a list of distinct requests, checked, counted and
        memoized as it would be alone: its outcome is its responses in
        order, or the first error among its calls, or the
        ``ValidationError`` of a repeated request or a missing template
        slot, in which case nothing of it is sent. A step that would send a
        request that an earlier step sends, or that an earlier waiting step
        would send, waits: its outcome is None and nothing of it is sent or
        counted. Asked again in a later batch, it reads that request from
        the memo, or sends it again if its answer failed or did not parse,
        so each request reaches the backend in step order, as if the steps
        had been completed one by one.
        """
        jobs: list = []
        for reqs in steps:
            try:
                jobs.append(self._jobs(reqs))
            except ValidationError as exc:
                jobs.append(exc)
        return self._complete(jobs)

    @staticmethod
    def _jobs(reqs: Sequence[LLMRequest]) -> list[tuple[LLMRequest, str, str]]:
        """Each request with its prompt and key; the keys must be distinct."""
        jobs = []
        for req in reqs:
            prompt = render_prompt(req)
            jobs.append((req, prompt, request_hash(req, prompt)))
        if len({key for _, _, key in jobs}) < len(jobs):
            raise ValidationError("a step needs distinct requests")
        return jobs

    def _complete(self, steps: list) -> list:
        """``complete_steps`` on steps already rendered (``_jobs``); a step
        that is an error is its own outcome."""
        outcomes: list = list(steps)
        sending: list[int] = []
        misses: list[tuple[int, int]] = []
        # The keys that an earlier step sends or waits to send.
        claimed: set[str] = set()
        for s, jobs in enumerate(steps):
            if isinstance(jobs, Exception):
                continue
            mine = [i for i, (_, _, key) in enumerate(jobs)
                    if key not in self._memo]
            keys = {jobs[i][2] for i in mine}
            if keys.isdisjoint(claimed):
                sending.append(s)
                misses += [(s, i) for i in mine]
            else:
                outcomes[s] = None
            claimed |= keys
        fresh: dict[tuple[int, int], Any] = {}
        if misses:
            self.round_trips += 1
            answers = self._send([steps[s][i][:2] for s, i in misses])
            fresh = dict(zip(misses, answers))
        for s in sending:
            outcomes[s] = self._settle(steps[s], {
                i: fresh[s, i] for i in range(len(steps[s])) if (s, i) in fresh})
        return outcomes

    def _settle(self, jobs: list[tuple[LLMRequest, str, str]],
                fresh: dict[int, Any]) -> list[LLMResponse] | Exception:
        """Count and memoize one step's backend answers, then read the rest
        from the memo; the first failed call's error if any failed."""
        sent: dict[int, LLMResponse] = {}
        error: Optional[Exception] = None
        for i in sorted(fresh):
            outcome = fresh[i]
            if isinstance(outcome, Exception):
                error = error or outcome
                continue
            req, _, key = jobs[i]
            self.call_counts[req.kind] += 1
            resp = sent[i] = _parse_payload(req.kind, outcome)
            if resp.parse_ok:
                self._memo[key] = outcome
        if error is not None:
            return error
        out: list[LLMResponse] = []
        for i, (req, _, key) in enumerate(jobs):
            if i in sent:
                out.append(sent[i])
            else:
                self.memo_hits[req.kind] += 1
                out.append(_parse_payload(req.kind, self._memo[key]))
        return out


# ---------------------------------------------------------------------------
# Step generators
#
# Search, retrieval and extraction are written as generators that hold no
# Gateway: each yields a list of distinct requests, receives their
# responses (or has the batch's error raised at that yield), and returns
# its result. Whoever drives one owns the round-trips, so a driver can send
# the steps of several generators in one batch (``drive_all``).


@dataclass(frozen=True)
class GraphRead:
    """Yielded just before a step generator reads the triples about every
    entity key that occurs in ``text``, a normalized question, between word
    boundaries (see :func:`verity.retrieval.word_spans`), which an earlier
    claim's update may still add to; the generator receives None."""
    text: str


@dataclass(frozen=True)
class GraphWrite:
    """Yielded by an update once it knows every entity key that a triple it
    may insert can have; the generator receives None."""
    keys: frozenset[str]


Steps = Generator[Any, Any, Any]


class Stepper:
    """A step generator driven one step at a time.

    ``step`` is what the generator waits on: a list of requests, a
    ``GraphRead`` or ``GraphWrite``, or None once it has ended, with its
    ``result`` or with the ``error`` it raised.
    """

    def __init__(self, steps: Steps):
        self._steps = steps
        self.step: Any = None
        self.result: Any = None
        self.error: Optional[Exception] = None
        self.advance(None)

    @property
    def pending(self) -> Optional[list[LLMRequest]]:
        """The requests the generator waits on, if it waits on requests."""
        return self.step if isinstance(self.step, list) else None

    def advance(self, outcome: Any) -> None:
        """Resume the generator with ``outcome``: the responses to its
        requests, None, or an error to raise at its yield."""
        try:
            if isinstance(outcome, Exception):
                self.step = self._steps.throw(outcome)
            else:
                self.step = self._steps.send(outcome)
        except StopIteration as stop:
            self.step, self.result = None, stop.value
        except Exception as exc:
            # Held, not raised: a claim run ahead fails at its own search,
            # not in the batch of the claim that carried its step.
            self.step, self.error = None, exc


def drive(steps: "Steps | Stepper", gateway: Gateway) -> Any:
    """Run ``steps`` to its result, asking ``gateway.complete_all`` for each
    batch it yields and passing each ``GraphWrite`` to
    ``gateway.declare_writes``; ``steps`` may be a ``Stepper`` part of the
    way through.

    An error the generator does not catch is raised here.
    """
    walk = steps if isinstance(steps, Stepper) else Stepper(steps)
    while walk.step is not None:
        outcome: Any = None
        if isinstance(walk.step, GraphWrite):
            gateway.declare_writes(walk.step.keys)
        elif walk.pending is not None:
            try:
                outcome = gateway.complete_all(walk.pending)
            except Exception as exc:
                # Raised inside the generator, at the yield that asked.
                outcome = exc
        walk.advance(outcome)
    if walk.error is not None:
        raise walk.error
    return walk.result


def drive_all(steps_list: Sequence[Steps], gateway: Gateway) -> list[Stepper]:
    """Run every generator of ``steps_list`` to its end together, and return
    each one's ended ``Stepper``, which holds its ``result`` or its
    ``error``.

    Each round passes every ``GraphWrite`` to ``gateway.declare_writes``,
    then sends the step every unfinished generator waits on in one
    ``gateway.complete_steps`` batch, and resumes each generator with its
    own responses or its own error. A step that batch leaves waiting is
    asked again in the next round. So a request that several generators
    reach in one round goes to the backend in list order. If no generator
    reaches a request in an earlier round than an earlier generator that
    asks it too, then, against a backend whose answer depends only on the
    request and on how often it was sent before, calls, memo hits and every
    generator's outcome are those of driving each generator alone, in list
    order.
    """
    walks = [Stepper(steps) for steps in steps_list]
    while True:
        for walk in walks:
            while walk.step is not None and walk.pending is None:
                if isinstance(walk.step, GraphWrite):
                    gateway.declare_writes(walk.step.keys)
                walk.advance(None)
        waiting = [walk for walk in walks if walk.pending is not None]
        if not waiting:
            return walks
        outcomes = gateway.complete_steps([walk.pending for walk in waiting])
        for walk, outcome in zip(waiting, outcomes):
            if outcome is not None:
                walk.advance(outcome)
