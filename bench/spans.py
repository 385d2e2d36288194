"""Span tracing for the traced run, installed from outside the program.

The tracer rebinds the program's public functions and methods to wrappers
that record one span each: name, start, end, parent span and the claim being
decided. Spans stay in memory and are written as JSONL when the run ends;
self times and the per-layer metrics are derived from them afterwards.

A name that no longer exists in the program raises ``MissingTarget``
instead of being skipped, so a renamed layer never reads as zero work.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

from verity.gateway import PromptKind
from verity.kg_store import KnowledgeGraph
from verity.mcts import ActionKind

Hook = Optional[Callable[..., None]]


class MissingTarget(RuntimeError):
    """A function or method the tracer wraps is gone from the program."""


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, current value) for ``module.qualname``."""
    module = sys.modules.get(module_name)
    if module is None:
        raise MissingTarget(f"module {module_name} is not loaded")
    owner: Any = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingTarget(f"{module_name}.{qualname} no longer exists")
    attr = parts[-1]
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None:
        raise MissingTarget(f"{module_name}.{qualname} no longer exists")
    return owner, attr, raw


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent, claim]
        self.stack: list[int] = []
        self.claim: Optional[str] = None
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._undo: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Forget what was recorded; installed wrappers keep recording."""
        del self.spans[:]
        del self.stack[:]
        self.claim = None
        self.counts.clear()
        self.samples.clear()

    # -- installing ---------------------------------------------------------

    def _wrapper(self, name: str, fn: Callable, before: Hook, after: Hook):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self.claim])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, module_name: str, qualname: str, span: str,
             before: Hook = None, after: Hook = None) -> None:
        owner, attr, raw = _resolve(module_name, qualname)
        if isinstance(raw, classmethod):
            self._patch(owner, attr, classmethod(
                self._wrapper(span, raw.__func__, before, after)))
            return
        wrapped = self._wrapper(span, raw, before, after)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapped)
            return
        # A module-level function is also bound, by name, in every module
        # that imported it; rebind each of those references.
        for mod_name, module in list(sys.modules.items()):
            if (mod_name == "verity" or mod_name.startswith("verity.")) \
                    and getattr(module, attr, None) is raw:
                self._patch(module, attr, wrapped)

    def install(self, model_cls: type) -> None:
        """Wrap every traced layer; ``model_cls`` is the stand-in's class."""
        w = self.wrap
        w("verity.gateway", "Gateway.complete", "gateway.complete",
          after=_after_complete)
        w("verity.gateway", "render_prompt", "gateway.render")
        w(model_cls.__module__, f"{model_cls.__name__}.generate", "model")
        w("verity.mcts", "SearchEngine.search", "mcts.search",
          before=_before_search, after=_after_search)
        w("verity.mcts", "select", "mcts.select")
        w("verity.mcts", "SearchEngine.expand", "mcts.expand")
        w("verity.mcts", "backpropagate", "mcts.backprop")
        w("verity.retrieval", "retrieve_context", "retrieval.retrieve",
          after=_after_retrieve)
        for method in ("load", "copy", "content_digest_lines",
                       "one_hop_subgraph", "match_entities", "add", "save"):
            w("verity.kg_store", f"KnowledgeGraph.{method}", f"kg.{method}")
        w("verity.knowledge_update", "extract_new_knowledge", "update.extract")
        w("verity.knowledge_update", "apply_update", "update.apply",
          after=_after_apply)
        w("verity.kg_builder", "build_graph", "builder.build",
          after=_after_build)
        w("verity.run", "run_detection", "run.detection", after=_after_run)
        w("verity.run", "RunRecord.save", "run.record_save")
        w("verity.dataset", "load_dataset", "dataset.load")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading ------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Total and self time by span name, and span counts."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        calls: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return total, own, calls

    def write(self, path, round_no: int, mode: str = "a") -> None:
        with open(path, mode, encoding="utf-8") as fh:
            for name, start, end, parent, claim in self.spans:
                fh.write(json.dumps({"round": round_no, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "claim": claim}) + "\n")


# -- hooks that read the values the traced calls return ----------------------

def _after_complete(tr: Tracer, resp, args, kwargs) -> None:
    if not resp.parse_ok:
        tr.counts["gateway.parse_failures"] += 1


def _before_search(tr: Tracer, args, kwargs) -> None:
    tr.claim = kwargs.get("claim_id", args[3] if len(args) > 3 else "")


def _after_search(tr: Tracer, result, args, kwargs) -> None:
    _, paths, tree = result
    tr.samples["tree_nodes"].append(len(tree.nodes))
    tr.counts["paths"] += len(paths)
    tr.counts["evidence_paths"] += sum(
        1 for p in paths if any(a == ActionKind.A2 for a, _ in p.steps))


def _after_retrieve(tr: Tracer, result, args, kwargs) -> None:
    k = kwargs.get("k", args[2] if len(args) > 2 else 0)
    tr.samples["candidates"].append(len(result.candidates))
    if result.ranked_by_llm:
        tr.counts["ranked"] += 1
    elif len(result.candidates) > k:
        tr.counts["rank_fallbacks"] += 1


def _after_apply(tr: Tracer, stats, args, kwargs) -> None:
    tr.counts["added"] += stats.added
    tr.counts["duplicates"] += stats.duplicates
    tr.counts["rejected"] += stats.rejected


def _after_build(tr: Tracer, result, args, kwargs) -> None:
    tr.counts["dropped"] += result[1].triples_dropped


def _after_run(tr: Tracer, result, args, kwargs) -> None:
    tr.claim = None
    graph: KnowledgeGraph = result[2]
    tr.counts["triples"] = len(graph)


def layer_metrics(tr: Tracer, model, window_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``model`` is the stand-in with this round's counts; ``window_s`` is the
    round's claims window, from the first program call to the last write.
    """
    total, own, calls = tr.totals()
    c = tr.counts
    ncalls = model.total_calls
    claims = max(1, calls["mcts.search"])
    out = {
        "gateway.calls": ncalls,
        "gateway.unique_requests": len(model.hashes),
        "gateway.unique_ratio": len(model.hashes) / ncalls if ncalls else 0.0,
        "gateway.model_s": total["model"],
        "gateway.self_s": own["gateway.complete"],
        "gateway.render_s": total["gateway.render"],
        "gateway.parse_failures": c["gateway.parse_failures"],
        "gateway.retries": ncalls - calls["gateway.complete"],
        "oracle.timed_calls": model.oracle_calls,
        "mcts.select_s": total["mcts.select"],
        "mcts.select_calls": calls["mcts.select"],
        "mcts.expand_self_s": own["mcts.expand"],
        "mcts.backprop_s": total["mcts.backprop"],
        "mcts.tree_nodes": sum(tr.samples["tree_nodes"]) / claims,
        "mcts.paths": c["paths"] / claims,
        "mcts.evidence_path_share": (c["evidence_paths"] / c["paths"]
                                     if c["paths"] else 0.0),
        "retrieval.calls": calls["retrieval.retrieve"],
        "retrieval.self_s": own["retrieval.retrieve"],
        "retrieval.candidates_mean": (sum(tr.samples["candidates"])
                                      / len(tr.samples["candidates"])
                                      if tr.samples["candidates"] else 0.0),
        "retrieval.ranked": c["ranked"],
        "retrieval.rank_fallbacks": c["rank_fallbacks"],
        "kg_store.load_s": total["kg.load"],
        "kg_store.copy_s": total["kg.copy"],
        "kg_store.digest_s": total["kg.content_digest_lines"],
        "kg_store.one_hop_s": total["kg.one_hop_subgraph"],
        "kg_store.one_hop_calls": calls["kg.one_hop_subgraph"],
        "kg_store.insert_s": total["kg.add"],
        "kg_store.save_s": total["kg.save"],
        "kg_store.triples": c["triples"],
        "knowledge_update.extract_self_s": own["update.extract"],
        "knowledge_update.apply_s": total["update.apply"],
        "knowledge_update.added": c["added"],
        "knowledge_update.duplicates": c["duplicates"],
        "knowledge_update.rejected": c["rejected"],
        "kg_builder.build_self_s": own["builder.build"],
        "kg_builder.dropped": c["dropped"],
        "run.self_s": own["run.detection"],
        "run.program_s": window_s - total["model"],
        "run.record_save_s": total["run.record_save"],
        "dataset.load_s": total["dataset.load"],
        "trace.spans": len(tr.spans),
    }
    for kind in PromptKind:
        out[f"gateway.calls.{kind.value}"] = model.calls[kind]
        out[f"gateway.prompt_kib.{kind.value}"] = model.prompt_bytes[kind] / 1024
    return out


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("claims_per_s"):
        return "claims/s"
    if name.endswith("_s"):
        return "s"
    if ".prompt_kib." in name:
        return "KiB"
    if name.endswith(("_ratio", "_share", "overhead")):
        return "ratio"
    return "count"
