"""verity benchmark: claims decided, model calls and time per claim.

    python3 bench/run.py --workload deep --seed 1 --trace 0
    python3 bench/run.py                      # all three workloads in turn

One call runs one workload in this process, single-threaded, as a closed
loop with one client: a child process generates the workload's input files
from ``--seed``, then this process repeats whole rounds (set-up, every
claim, the writes) until ``--seconds`` (by default BENCHMARK.json's
``run_seconds``) have passed, at least two rounds have run and at least 100
claims are decided. Each round is checked for correctness outside its timed
window. The last line of standard output is one JSON object with
``correct``, ``attempted`` and ``failed`` (claims) and ``metrics``: the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics of the
traced rounds, which alternate with untraced ones.

The exit code is 0 only when every check passed. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("carryover", "deep", "bigkg")
MIN_TIMED_ROUNDS = 2
MIN_CLAIMS = 100
# Short set-ups are repeated within a round until this much time is spent.
# setup_s is the fastest set-up of the run, not the median: on a 2-vCPU VM
# the CPU flipped between two speeds every 0.3-1 s (the same set-up took 2.0
# or 3.6 ms), so a run's median landed on either mode and moved by 58%
# between two sets of ten runs. Interference only adds time. A burst of
# 0.6 s per round spans such a flip; bursts of 0.1-0.2 s often did not.
SETUP_BUDGET_S = 0.6
SETUP_MAX_REPEATS = 2000

END_TO_END_UNITS = {
    "setup_s": "s", "claims_per_s": "claims/s", "claim_s_p50": "s",
    "claim_s_p90": "s", "model_calls_per_claim": "calls",
    "prompt_kib_per_claim": "KiB", "peak_rss_mib": "MiB",
}


def _import_program() -> None:
    """Put this checkout's ``src`` first and refuse any other verity."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import verity
    if Path(verity.__file__).resolve().parent != (src / "verity").resolve():
        raise SystemExit(f"verity imported from {verity.__file__}, "
                         f"not from {src}")


def _fingerprint(cells) -> list[str]:
    """Record digests and saved-graph hashes; equal for every round."""
    out = []
    for cell in cells:
        out.append(f"{cell.name}:{cell.record.digest()}")
        if cell.graph_path is not None:
            out.append(hashlib.sha256(cell.graph_path.read_bytes()).hexdigest())
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from verity.gateway import Gateway
    from verity.oracle import FactTable, RuleBasedOracle

    import spans as tracing
    import standin
    import worlds
    from workloads import (WORKLOADS, ClaimClock, check_cells,
                           check_saved_graphs)

    workload = WORKLOADS[name]
    workdir = BENCH / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans_path = BENCH / "results" / f"spans-{name}.jsonl"
    if trace:
        # A fresh checkout has no results directory: it is not committed.
        spans_path.parent.mkdir(exist_ok=True)
    clock = ClaimClock()
    tracer = tracing.Tracer() if trace else None
    setups: list[float] = []
    rates: dict[bool, list[float]] = {False: [], True: []}  # claims/s by traced
    layer_rounds: list[dict[str, float]] = []
    claims = excluded = calls = completed = timed_claims = timed_calls = 0
    prompt_bytes = 0
    problems: list[str] = []
    reference = peak_rss_mib = warmup = None
    round_no = 0
    try:
        world = worlds.generate(name, seed, workdir)
        model = standin.StandInModel(
            RuleBasedOracle(FactTable.from_path(str(world.files["facts"]))))
        config = workload.config(seed)
        start = time.perf_counter()
        # Round 0 warms up: it fills the stand-in's answers and gives the
        # outputs later rounds must repeat; it is checked, and only its
        # set-ups are timed (setup_s keeps the fastest, so a cold first read
        # cannot raise it).
        while (round_no <= MIN_TIMED_ROUNDS or timed_claims < MIN_CLAIMS
               or time.perf_counter() - start < seconds):
            traced = tracer is not None and round_no > 0 and round_no % 2 == 0
            # Every round starts with no garbage from the last, as a fresh
            # process would; otherwise a full collection of the previous
            # round's graphs lands inside every other timed window.
            inputs = cells = None
            gc.collect()
            if traced:
                tracer.reset()
                tracer.install(standin.StandInModel)
            samples = []
            for _ in range(1 if traced else SETUP_MAX_REPEATS):
                began = time.perf_counter()
                inputs = workload.setup(world)
                samples.append(time.perf_counter() - began)
                if sum(samples) >= SETUP_BUDGET_S:
                    break
            model.reset()
            gateway = Gateway(model)
            durations_before = len(clock.durations)
            began = time.perf_counter()
            cells = workload.execute(inputs, config, gateway, clock, workdir)
            window = time.perf_counter() - began
            if traced:
                tracer.uninstall()
            decided = sum(len(c.items) for c in cells)
            claims += decided
            excluded += sum(c.record.exclusions for c in cells)
            calls += model.total_calls
            completed += sum(gateway.call_counts.values())
            print(f"{name}: round {round_no}{' traced' if traced else ''}: "
                  f"set-up {min(samples):.4f}-{max(samples):.4f} s "
                  f"x{len(samples)}, {decided} claims in {window:.4f} s",
                  flush=True)
            if round_no == 0:
                warmup = (model.oracle_s, model.oracle_over)
                del clock.durations[durations_before:]
                start = time.perf_counter()
            else:
                if peak_rss_mib is None:
                    peak_rss_mib = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024
                rates[traced].append(decided / window)
                timed_claims += decided
                timed_calls += model.total_calls
                prompt_bytes += model.total_bytes
            if traced:
                del clock.durations[durations_before:]
                layer_rounds.append(tracing.layer_metrics(tracer, model, window))
                tracer.write(spans_path, round_no,
                             "w" if len(layer_rounds) == 1 else "a")
            else:
                setups += samples

            problems += model.check_counts(gateway.call_counts)
            if round_no > 0 and model.oracle_calls:
                problems.append(f"round {round_no} asked the oracle "
                                f"{model.oracle_calls} times: the stand-in, "
                                "not the program, set the pace")
            problems += check_cells(world, cells)
            problems += workload.extra_checks(world, inputs, cells, False)
            fingerprint = _fingerprint(cells)
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                problems.append(f"round {round_no} output differs from round 0 "
                                "with the same seed")
            round_no += 1
            if problems:
                break
        # The checks that hold a second copy of a graph run once, after the
        # last round, so that they never set the peak memory reported.
        if not problems:
            problems += check_saved_graphs(cells)
            problems += workload.extra_checks(world, inputs, cells, True)
    finally:
        clock.remove()
        shutil.rmtree(workdir, ignore_errors=True)

    if problems:
        metrics, units = {}, {}
    elif trace:
        metrics = {k: statistics.fmean(r[k] for r in layer_rounds)
                   for k in layer_rounds[0]}
        metrics["oracle.cpu_s"], metrics["oracle.over_latency"] = warmup
        plain_cps = statistics.median(rates[False])
        traced_cps = statistics.median(rates[True])
        metrics["trace.claims_per_s"] = traced_cps
        metrics["trace.untraced_claims_per_s"] = plain_cps
        metrics["trace.overhead"] = 1 - traced_cps / plain_cps
        units = {k: tracing.layer_unit(k) for k in metrics}
        print(f"{name}: spans of {len(layer_rounds)} traced rounds in "
              f"{spans_path.relative_to(ROOT)}")
    else:
        durations = clock.durations
        metrics = {
            "setup_s": min(setups),
            "claims_per_s": statistics.median(rates[False]),
            "claim_s_p50": statistics.median(durations),
            "claim_s_p90": statistics.quantiles(durations, n=10)[8],
            "model_calls_per_claim": timed_calls / timed_claims,
            "prompt_kib_per_claim": prompt_bytes / 1024 / timed_claims,
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END_UNITS
    for key, value in metrics.items():
        print(f"{name}: {key} = {value:.6g} {units[key]}")
    if reference:
        digest = hashlib.sha256("\n".join(reference).encode()).hexdigest()
        print(f"{name}: output digest {digest[:16]}, the same in every round")
    print(f"{name}: {round_no} rounds, the first a warm-up; claims attempted "
          f"{claims}, failed {excluded}; model calls attempted {calls}, "
          f"failed {calls - completed}")
    for problem in problems:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": claims, "failed": excluded,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        sys.stdout.flush()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)], check=False)
        status = status or proc.returncode
    return status


def _stop(signum, frame):
    # Let ``finally`` blocks remove the work directory on SIGTERM too.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Another length is for quick checks, such as steady.py's determinism run.
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
