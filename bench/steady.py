"""Steadiness check: run a workload once per seed and compare the spread of
each end-to-end metric with its bound in BENCHMARK.json.

    python3 bench/steady.py --workload deep --runs 10
    python3 bench/steady.py --runs 5            # every workload

Seeds run from 1 to ``--runs``, each for BENCHMARK.json's ``run_seconds``.
For each metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the distance
between the quartiles as a share of the median. A spread above the bound
fails; the aim is a spread below a third of the bound. It also checks that
every run was correct and that the share of failed claims was the same in
every run.

Determinism across processes: run ``n`` gets ``PYTHONHASHSEED=n``, and seed 1
is run once more, briefly, under another hash seed. The two output digests
must match, so that set or hash order in the program cannot change its
output unseen. Raw values go to bench/results/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGEST = re.compile(r"output digest ([0-9a-f]+)")


def run_once(workload: str, seed: int, seconds: int,
             hash_seed: int) -> tuple[dict, str]:
    """One run's JSON result and its printed output digest."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), DIGEST.search(proc.stdout).group(1)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    names = ([w["name"] for w in spec["workloads"]]
             if args.workload == "all" else [args.workload])
    status = 0
    for name in names:
        results, digests = [], []
        for seed in range(1, args.runs + 1):
            result, digest = run_once(name, seed, spec["run_seconds"], seed)
            results.append(result)
            digests.append(digest)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
                flush=True)
        _, again = run_once(name, 1, 1, args.runs + 1)
        if again != digests[0]:
            print(f"{name}: seed 1 gave output digest {digests[0]} under "
                  f"PYTHONHASHSEED=1 and {again} under {args.runs + 1}")
            status = 1
        (BENCH / "results").mkdir(exist_ok=True)
        (BENCH / "results" / f"steady-{name}.json").write_text(
            json.dumps(results, indent=1), encoding="utf-8")
        if not all(r["correct"] for r in results):
            print(f"{name}: a run reported incorrect output")
            status = 1
        shares = {(r["failed"], r["attempted"]) for r in results}
        if len({f / a for f, a in shares}) != 1:
            print(f"{name}: failed share differs between runs: {shares}")
            status = 1
        print(f"{'metric':<24}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            bound = metric["bound"]
            verdict = ("ok" if spread < bound / 3 else
                       "wide" if spread <= bound else "FAIL")
            if verdict == "FAIL":
                status = 1
            print(f"{metric['name']:<24}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.4f}{bound:>7.2f}  {verdict}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
