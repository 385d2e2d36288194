"""Single choke-point for model interactions.

Renders one template per prompt kind, calls a chat backend, and parses the
structured output. Three backends are provided: a live chat-completion HTTP
endpoint, a transcript-replay backend keyed by request hash, and (in
:mod:`verity.oracle`) a deterministic rule-based backend for tests.
"""

from __future__ import annotations

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
from typing import Any, Callable, Optional, Protocol, Sequence

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
def _template(kind: PromptKind) -> tuple[str, tuple[str, ...]]:
    """The kind's template text and its ``{name}`` slots, in order."""
    ref = resources.files("verity.templates").joinpath(kind.value + ".txt")
    text = ref.read_text(encoding="utf-8")
    return text, tuple(dict.fromkeys(re.findall(r"\{(\w+)\}", text)))


def render_prompt(req: LLMRequest) -> str:
    """Pure function of (kind, context, template); raises on missing slots."""
    text, slots = _template(req.kind)
    for slot in slots:
        if slot not in req.context:
            raise ValidationError(f"{req.kind.value} request missing slot '{slot}'")
    # Single pass so slot values containing brace patterns stay inert.
    pattern = re.compile("|".join(re.escape("{" + s + "}") for s in slots))
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
    misses to the backend together: the first on the calling thread, the
    rest on a pool of at most ``MAX_IN_FLIGHT - 1`` worker threads, created
    on first need and stopped by ``close`` (or when the Gateway is
    discarded). Workers run only the backend call with its pacing and
    transport retries; counting, the memo and parsing stay on the calling
    thread, in request order. A Gateway therefore serves one calling thread
    at a time. ``min_interval`` spaces backend calls across all threads.

    ``send_ahead`` queues requests a later batch will ask for, "riders".
    It skips a request already memoized or held, so a queued rider is never
    either: one that a batch asks for is a miss there, and any send clears
    the queue. Riders leave with the next ``complete_all`` that sends
    anything, after that batch's own requests, less those the batch asks
    itself. Each rider's outcome, its raw text or the error left after its
    transport retries, is held, and never raised by the batch that carried
    it. The first ``complete_all`` that asks for a held request takes its
    outcome as if it had just sent the request: it counts and parses it,
    memoizes it if it parses, and raises it in request order if it is an
    error. That is not a memo hit. Against a backend whose answer depends
    only on the request and how often it was sent before, riders change
    the timing of calls and the order of transcript lines, and nothing
    else, provided no request is asked between its rider's send and its
    hand-off. ``drop_riders`` empties the queue and the held outcomes; an
    outcome dropped unasked is never counted.

    ``call_counts`` counts calls that reached the backend, by kind;
    ``memo_hits`` counts answers served from the memo.
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
        # Riders by request hash: queued (request, prompt), then outcomes.
        self._riders: dict[str, tuple[LLMRequest, str]] = {}
        self._held: dict[str, str | Exception] = {}
        self.call_counts: dict[PromptKind, int] = {k: 0 for k in PromptKind}
        self.memo_hits: dict[PromptKind, int] = {k: 0 for k in PromptKind}

    def close(self) -> None:
        """Stop the worker threads; a later batch starts new ones."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def send_ahead(self, reqs: Sequence[LLMRequest]) -> None:
        """Queue ``reqs`` to ride along with the next batch that sends;
        a request already memoized or held is skipped."""
        for req in reqs:
            prompt = render_prompt(req)
            key = request_hash(req, prompt)
            if key not in self._memo and key not in self._held:
                self._riders[key] = (req, prompt)

    def drop_riders(self) -> None:
        """Forget queued riders and every outcome not yet asked for."""
        self._riders.clear()
        self._held.clear()

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

        Waits for every job, so no call outlives the batch.
        """
        futures = []
        if len(jobs) > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    MAX_IN_FLIGHT - 1, thread_name_prefix="verity-gateway")
            futures = [self._pool.submit(self._generate, *job)
                       for job in jobs[1:]]
        outcomes: list = []
        try:
            outcomes.append(self._generate(*jobs[0]))
        except Exception as exc:
            # Kept like a worker's error: the caller re-raises it once the
            # other calls are done and counted.
            outcomes.append(exc)
        for future in futures:
            exc = future.exception()
            outcomes.append(future.result() if exc is None else exc)
        return outcomes

    def complete(self, req: LLMRequest) -> LLMResponse:
        return self.complete_all([req])[0]

    def complete_all(self, reqs: Sequence[LLMRequest]) -> list[LLMResponse]:
        """Responses to distinct ``reqs``, in order, backend calls overlapped.

        Against a deterministic backend this returns and counts what
        completing the requests one by one would. A request repeated within
        the batch raises ``ValidationError``: a caller that needs one answer
        several times asks once. If a backend call fails, the calls that
        succeeded are still counted and memoized, then the first failure in
        request order is raised. A held rider's outcome counts as sent.
        """
        prompts = [render_prompt(req) for req in reqs]
        keys = [request_hash(req, prompt) for req, prompt in zip(reqs, prompts)]
        batch = set(keys)
        if len(batch) < len(keys):
            raise ValidationError("complete_all needs distinct requests")
        fresh = {i: self._held.pop(key) for i, key in enumerate(keys)
                 if key in self._held}
        misses = [i for i, key in enumerate(keys)
                  if key not in self._memo and i not in fresh]
        if misses:
            riders = [(key, job) for key, job in self._riders.items()
                      if key not in batch]
            self._riders.clear()
            outcomes = self._send([(reqs[i], prompts[i]) for i in misses]
                                  + [job for _, job in riders])
            fresh.update(zip(misses, outcomes))
            self._held.update(
                (key, outcome) for (key, _), outcome in
                zip(riders, outcomes[len(misses):]))
        sent: dict[int, LLMResponse] = {}
        error: Optional[Exception] = None
        for i in sorted(fresh):
            outcome = fresh[i]
            if isinstance(outcome, Exception):
                error = error or outcome
                continue
            kind = reqs[i].kind
            self.call_counts[kind] += 1
            resp = sent[i] = _parse_payload(kind, outcome)
            if resp.parse_ok:
                self._memo[keys[i]] = outcome
        if error is not None:
            raise error
        out: list[LLMResponse] = []
        for i, (req, key) in enumerate(zip(reqs, keys)):
            if i in sent:
                out.append(sent[i])
            else:
                self.memo_hits[req.kind] += 1
                out.append(_parse_payload(req.kind, self._memo[key]))
        return out
