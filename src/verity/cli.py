"""Command-line entry point.

Subcommands: build-kg, detect, evaluate, sequential-run. Backend selection:
live (chat-completion HTTP endpoint, API key from VERITY_API_KEY), replay
(recorded transcript), or oracle (rule-based fact table).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .dataset import NewsItem, load_dataset, split_subsets
from .errors import FormatError, VerityError
from .gateway import (Gateway, HttpChatBackend, RecordingBackend,
                      ReplayBackend)
from .jsonl import read_object, read_records, write_lines
from .kg_builder import SourceDocument, build_graph
from .kg_store import KnowledgeGraph
from .mcts import EngineConfig
from .metrics import compute_metrics, format_metrics
from .oracle import FactTable, RuleBasedOracle
from .run import format_cells, run_detection, run_sequential
from .verdict import Verdict

API_KEY_ENV = "VERITY_API_KEY"

# Engine flag (and config key) -> (EngineConfig field, type).
ENGINE_KEYS = {"n": ("n", int), "height": ("h", int), "branch": ("b", int),
               "alpha": ("alpha", float), "topk": ("top_k", int),
               "seed": ("seed", int)}

CONFIG_KEYS = (*ENGINE_KEYS, "model", "base_url", "timeout", "max_retries",
               "min_interval")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    config = read_object(path)
    unknown = set(config) - set(CONFIG_KEYS)
    if unknown:
        raise VerityError(f"unknown config keys: {sorted(unknown)}")
    for key in ("model", "base_url"):
        if not isinstance(config.get(key, ""), str):
            raise VerityError(f"bad value for {key}: must be a string")
    return config


def _given(values: dict, params: dict) -> dict:
    """Cast keyword arguments for the keys of ``params`` set in ``values``;
    a boolean, or a fraction that ``int`` would truncate, is refused."""
    kwargs = {}
    for key, (name, cast) in params.items():
        value = values.get(key)
        if value is None:
            continue
        try:
            if isinstance(value, bool) or (cast is int and isinstance(
                    value, float) and not value.is_integer()):
                raise ValueError(f"{value!r} is not a valid {cast.__name__}")
            kwargs[name] = cast(value)
        except (TypeError, ValueError) as exc:
            raise VerityError(f"bad value for {key}: {exc}") from exc
    return kwargs


def _engine_config(args, config: dict) -> EngineConfig:
    """Flags win over config values; unset ones keep EngineConfig's defaults."""
    flags = {key: value for key, value in vars(args).items() if value is not None}
    engine = EngineConfig(**_given({**config, **flags}, ENGINE_KEYS))
    # Checked before a backend starts, or a --record transcript is emptied.
    engine.validate()
    return engine


def _build_backend(args, config: dict):
    if args.backend == "oracle":
        if not args.facts:
            raise VerityError("--facts is required with the oracle backend")
        backend = RuleBasedOracle(FactTable.from_path(args.facts))
    elif args.backend == "replay":
        if not args.transcript:
            raise VerityError("--transcript is required with the replay backend")
        backend = ReplayBackend.from_path(args.transcript)
    else:
        backend = HttpChatBackend(
            base_url=config.get("base_url", "https://api.openai.com"),
            model=config.get("model", "gpt-4o-mini"),
            api_key=os.environ.get(API_KEY_ENV, ""),
            **_given(config, {"timeout": ("timeout", float)}),
        )
    if args.record:
        backend = RecordingBackend(backend, args.record)
    return Gateway(backend, **_given(config, {
        "max_retries": ("max_retries", int),
        "min_interval": ("min_interval", float)}))


def _print_model_calls(gateway: Gateway) -> None:
    print(f"model calls: {sum(gateway.call_counts.values())} sent, "
          f"{sum(gateway.memo_hits.values())} served from memo")


def _load_items(path: str) -> list[NewsItem]:
    """The dataset's items; the items dropped are counted on stderr."""
    report = load_dataset(path)
    if report.dropped:
        print(f"dropped {report.dropped} items with non-sentence evidence",
              file=sys.stderr)
    return report.items


def _load_corpus(path: str) -> list[SourceDocument]:
    docs = []
    for lineno, record in read_records(path):
        trusted = record.get("trusted", True)
        if (type(record.get("id")) not in (str, int)
                or not isinstance(record.get("body"), str)
                or not isinstance(trusted, bool)):
            raise FormatError(path, lineno, "needs a string or integer id, a "
                              "string body and, if any, a boolean trusted")
        docs.append(SourceDocument(id=str(record["id"]), body=record["body"],
                                   trusted=trusted))
    return docs


def _load_scores(path: str) -> tuple[list[Verdict], list[Verdict]]:
    """Predicted and gold verdicts of a run file's scoreable records."""
    predictions, golds = [], []
    for lineno, record in read_records(path):
        if record.get("error") is not None or record.get("gold") is None:
            continue
        try:
            predictions.append(Verdict(record["verdict"]))
            golds.append(Verdict(record["gold"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(path, lineno, f"bad verdict: {exc}") from exc
    return predictions, golds


def _add_backend_args(sub):
    sub.add_argument("--backend", choices=("live", "replay", "oracle"),
                     default="live")
    sub.add_argument("--facts", help="fact table JSON for the oracle backend")
    sub.add_argument("--transcript", help="transcript file for the replay backend")
    sub.add_argument("--record", help="record all requests to this transcript file")
    sub.add_argument("--config", help="JSON config file")


def _add_engine_args(sub):
    sub.add_argument("--n", type=int, help="search iterations per claim")
    sub.add_argument("--height", type=int, help="tree height limit")
    sub.add_argument("--branch", type=int, help="children per expansion")
    sub.add_argument("--alpha", type=float, help="exploration constant")
    sub.add_argument("--topk", type=int, help="retrieval cutoff")
    sub.add_argument("--seed", type=int, help="search and subset-split seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="verity",
                                     description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("build-kg", help="build a knowledge graph from a corpus")
    p.add_argument("--corpus", required=True, help="JSONL corpus: id, body, trusted")
    p.add_argument("--out", required=True, help="output KG file")
    p.add_argument("--report", help="build report JSON (default: <out>.report.json)")
    _add_backend_args(p)

    p = commands.add_parser("detect", help="run detection over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--kg", required=True, help="knowledge graph file")
    p.add_argument("--updates", choices=("on", "off"), default="on")
    p.add_argument("--out", help="run record output (JSONL)")
    p.add_argument("--kg-out", help="write the updated graph here")
    p.add_argument("--metrics-out", help="metrics JSON output")
    _add_backend_args(p)
    _add_engine_args(p)

    p = commands.add_parser("evaluate", help="metrics for a saved run record")
    p.add_argument("--run", required=True, help="run record JSONL from detect")

    p = commands.add_parser("sequential-run",
                            help="subset-by-subset carry-over evaluation")
    p.add_argument("--dataset", required=True)
    p.add_argument("--subsets", type=int, default=3)
    p.add_argument("--updates", choices=("on", "off"), default="on")
    p.add_argument("--out", help="machine-readable cell table (JSON)")
    _add_backend_args(p)
    _add_engine_args(p)

    return parser


def _cmd_build_kg(args) -> int:
    config = _load_config(args.config)
    corpus = _load_corpus(args.corpus)
    gateway = _build_backend(args, config)
    graph, report = build_graph(corpus, gateway)
    graph.save(args.out)
    report.save(args.report or args.out + ".report.json")
    print(f"built graph with {len(graph)} triples from "
          f"{report.docs_processed} documents "
          f"({len(report.docs_failed)} failed)")
    return 0


def _cmd_detect(args) -> int:
    config = _load_config(args.config)
    engine_config = _engine_config(args, config)
    items = _load_items(args.dataset)
    graph = KnowledgeGraph.load(args.kg)
    # Inputs are read before the backend starts a --record transcript.
    gateway = _build_backend(args, config)
    record, metrics, out_graph = run_detection(
        items, graph, engine_config, gateway,
        updates=args.updates == "on")
    if args.out:
        record.save(args.out)
    if args.kg_out:
        out_graph.save(args.kg_out)
    print(f"run digest: {record.digest()}")
    _print_model_calls(gateway)
    if record.exclusions:
        print(f"excluded {record.exclusions} claims due to detection errors")
    if metrics:
        print(format_metrics(metrics))
        if args.metrics_out:
            write_lines(args.metrics_out,
                        [json.dumps(asdict(metrics), indent=2)])
    return 0


def _cmd_evaluate(args) -> int:
    predictions, golds = _load_scores(args.run)
    if not predictions:
        print("no scoreable records in run file", file=sys.stderr)
        return 1
    print(format_metrics(compute_metrics(predictions, golds)))
    return 0


def _cmd_sequential(args) -> int:
    config = _load_config(args.config)
    engine_config = _engine_config(args, config)
    split = split_subsets(_load_items(args.dataset), args.subsets,
                          seed=engine_config.seed)
    gateway = _build_backend(args, config)
    base_graph, _ = build_graph(split.corpora[0], gateway)
    cells = run_sequential(split.subsets, base_graph, engine_config, gateway,
                           updates=args.updates == "on")
    print(format_cells(cells))
    _print_model_calls(gateway)
    if args.out:
        write_lines(args.out, [json.dumps(
            [{"setting": c.setting, "accuracy": c.accuracy,
              "population": c.population} for c in cells], indent=2)])
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "build-kg": _cmd_build_kg,
        "detect": _cmd_detect,
        "evaluate": _cmd_evaluate,
        "sequential-run": _cmd_sequential,
    }[args.command]
    try:
        return handler(args)
    except (VerityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
