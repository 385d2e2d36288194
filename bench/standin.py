"""Stand-in model: the rule-based oracle padded to a simulated latency.

Each ``generate`` call takes ``BASE_S + PER_KIB_S * prompt KiB`` of wall
time, so that both the number of model calls and the prompt size turn into
wall time the way they do against a live endpoint.

The oracle's own CPU time must not set the pace, but its entity and
relation extraction scans the whole fact table with one regex per entry and
takes 1-3 ms per call on these worlds, longer than the pad. The stand-in
therefore keeps each answer by request hash: the benchmark's warm-up round
asks the oracle, and the timed rounds, which repeat the same requests, are
answered from memory inside the pad. The oracle's time and the calls it
overran are counted whenever it is asked.
"""

from __future__ import annotations

import os
import time
from collections import Counter

from verity.gateway import LLMRequest, PromptKind, request_hash
from verity.oracle import RuleBasedOracle

BASE_S = 0.001        # round-trip cost of one call
PER_KIB_S = 0.00025   # added cost per KiB of prompt text


def pad_until(deadline: float) -> None:
    """Wait until ``deadline`` without sleeping.

    Waking from ``time.sleep`` overshot a 0.8 ms sleep by 0.1 ms at the
    median, 0.4 ms at p90 and 4.7 ms at p99 on a 2-vCPU VM; yielding in a
    loop overshot by 1 us at the median and 20 us at p99. ``sched_yield``
    releases the interpreter lock, as waiting on a socket would, so other
    threads can run during the pad.
    """
    while time.perf_counter() < deadline:
        os.sched_yield()


class StandInModel:
    """Gateway backend wrapping ``RuleBasedOracle`` with counters.

    Counts calls and prompt bytes by ``PromptKind`` and distinct request
    hashes; ``reset`` starts a new counting period.
    """

    def __init__(self, oracle: RuleBasedOracle):
        self.oracle = oracle
        self._answers: dict[str, str] = {}
        self.reset()

    def reset(self) -> None:
        """Start a new counting period; remembered answers are kept."""
        self.calls: Counter = Counter()
        self.prompt_bytes: Counter = Counter()
        self.hashes: set[str] = set()
        self.model_s = 0.0
        self.oracle_calls = 0
        self.oracle_s = 0.0
        self.oracle_over = 0

    def generate(self, req: LLMRequest, prompt: str) -> str:
        start = time.perf_counter()
        size = len(prompt.encode("utf-8"))
        deadline = start + BASE_S + PER_KIB_S * size / 1024
        key = request_hash(req, prompt)
        raw = self._answers.get(key)
        if raw is None:
            asked = time.perf_counter()
            raw = self._answers[key] = self.oracle.generate(req, prompt)
            answered = time.perf_counter()
            self.oracle_calls += 1
            self.oracle_s += answered - asked
            self.oracle_over += answered > deadline
        self.calls[req.kind] += 1
        self.prompt_bytes[req.kind] += size
        self.hashes.add(key)
        pad_until(deadline)
        self.model_s += time.perf_counter() - start
        return raw

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.prompt_bytes.values())

    def check_counts(self, gateway_counts: dict[PromptKind, int]) -> list[str]:
        """Mismatches between these counts and ``Gateway.call_counts``."""
        return [f"{kind.value}: stand-in saw {self.calls[kind]}, gateway "
                f"counted {gateway_counts.get(kind, 0)}"
                for kind in PromptKind
                if self.calls[kind] != gateway_counts.get(kind, 0)]
