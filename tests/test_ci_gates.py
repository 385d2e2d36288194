"""Tier-1 copies of benchmark gates that otherwise run only in CI.

The traced benchmark pass wraps program functions by name, the hash-seed
pass compares outputs under two ``PYTHONHASHSEED`` values, the claim clock
times each claim from one search call to the next, and the pinned ``bigkg``
output digest hashes a graph saved by copying its loaded file. All are
cheap enough to check here on a small world, and so is a hash-seed pass
over ``verity build-kg``, whose documents finish in any order. So is the
rule that the benchmark's pinned calls per claim rest on: only graph
extraction asks the model for entities, never a search. The file also
holds two lint
gates that need only the standard library: no module in ``src/`` or
``tests/`` imports a name it never uses, and every backticked
``Class.attr`` in ``src/verity/`` and README names something the class has.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

from synth import (build_one_by_one, carryover_world, save_dataset,
                   tabled_world, write_facts)

# Importing any verity module loads the package, and with it every module
# the tracer wraps.
import verity
from verity.cli import main
from verity.errors import GatewayHardError
import verity.kg_builder as vbuilder
import verity.run as vrun
from verity.gateway import Gateway, PromptKind, ScriptedBackend
from verity.kg_builder import BUILD_WINDOW, SourceDocument
from verity.kg_store import KnowledgeGraph
from verity.mcts import EngineConfig, SearchEngine
from verity.oracle import RuleBasedOracle
from verity.run import run_detection

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
KG_METHODS = ("load", "copy", "content_digest_lines", "one_hop_subgraph",
              "match_entities", "add", "save")


def _load_bench_module(name, monkeypatch):
    """Import ``bench/<name>.py`` under its own name, as ``bench/run.py`` does."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target(monkeypatch):
    spans = _load_bench_module("spans", monkeypatch)
    standin = _load_bench_module("standin", monkeypatch)
    originals = {m: KnowledgeGraph.__dict__[m] for m in KG_METHODS}
    generate = standin.StandInModel.generate
    tracer = spans.Tracer()
    try:
        tracer.install(standin.StandInModel)
        for method in KG_METHODS:
            wrapped = KnowledgeGraph.__dict__[method]
            assert wrapped is not originals[method]
            inner = getattr(wrapped, "__func__", wrapped).__wrapped__
            assert inner is getattr(originals[method], "__func__",
                                    originals[method])
        assert standin.StandInModel.generate.__wrapped__ is generate
    finally:
        tracer.uninstall()
    assert {m: KnowledgeGraph.__dict__[m] for m in KG_METHODS} == originals
    assert standin.StandInModel.generate is generate


# Runs subset 1 with updates on an empty graph, saves it, reloads it and
# runs subset 2, which only the carried knowledge decides, with updates on.
# It prints the record digests, the graph's size, the Real verdicts and the
# backend round-trips, so that the schedule must match as well.
_CARRYOVER_RUN = """
import sys
from synth import carryover_world
from verity.gateway import Gateway
from verity.kg_store import KnowledgeGraph
from verity.mcts import EngineConfig
from verity.oracle import RuleBasedOracle
from verity.run import run_detection
from verity.verdict import Verdict

table, subset1, subset2 = carryover_world(num_linked=4)
gateway = Gateway(RuleBasedOracle(table))
config = EngineConfig(n=8, h=3, b=2, seed=1)
first, _, grown = run_detection(subset1, KnowledgeGraph(), config, gateway)
grown.save(sys.argv[1])
carried, _, final = run_detection(
    subset2, KnowledgeGraph.load(sys.argv[1]), config, gateway)
final.save(sys.argv[1])
real = sum(r.verdict == Verdict.REAL for r in carried.results)
print(first.digest(), carried.digest(), len(final), real, gateway.round_trips)
"""


def test_outputs_do_not_depend_on_hash_seed(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    outputs = []
    for seed in ("1", "2"):
        graph = tmp_path / f"kg-{seed}.jsonl"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", _CARRYOVER_RUN, str(graph)], env=env,
            capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, graph.read_bytes()))
    assert outputs[0] == outputs[1]
    triples, real, round_trips = map(int, outputs[0][0].split()[2:])
    # Updates wrote the graph, and subset 2 was decided from what they wrote.
    assert triples > 0 and real == 4 and round_trips > 0


_BUILD_KG = "import sys\nfrom verity.cli import main\nsys.exit(main(sys.argv[1:]))"


def test_build_kg_bytes_do_not_depend_on_completion_order(tmp_path):
    """``build_graph`` sends the documents of a window together, so their
    calls finish in any order; ``verity build-kg`` over more than one
    window must still write the same graph and report under either hash
    seed, and the bytes of a build one document at a time."""
    table, _ = tabled_world(num_real=BUILD_WINDOW, num_fake=0)
    bodies = [f"Alpha{i} commanded Gamma{i}. Beta{i} served in Gamma{i}."
              for i in range(BUILD_WINDOW)]
    docs = [SourceDocument(f"d{i}", body)
            for i, body in enumerate(bodies + bodies[:5] + [""])]
    facts, corpus = tmp_path / "facts.json", tmp_path / "corpus.jsonl"
    write_facts(facts, table)
    corpus.write_text("".join(json.dumps({"id": d.id, "body": d.body}) + "\n"
                              for d in docs))
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    outputs = []
    for seed in ("1", "2"):
        kg = tmp_path / f"kg-{seed}.jsonl"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", _BUILD_KG, "build-kg", "--corpus",
             str(corpus), "--out", str(kg), "--backend", "oracle",
             "--facts", str(facts)],
            env=env, capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs.append((kg.read_bytes(),
                        Path(f"{kg}.report.json").read_bytes()))
    gateway = Gateway(RuleBasedOracle(table))
    graph, report = build_one_by_one(docs, gateway)
    gateway.close()
    graph.save(str(tmp_path / "alone.jsonl"))
    report.save(str(tmp_path / "alone.report.json"))
    assert outputs[0] == outputs[1] == (
        (tmp_path / "alone.jsonl").read_bytes(),
        (tmp_path / "alone.report.json").read_bytes())
    assert report.docs_processed == len(docs) and report.triples_duplicate


def test_search_is_called_once_per_claim_in_order():
    """``bench/workloads.py::ClaimClock`` stamps each ``SearchEngine.search``
    call and times a claim up to the next one, so ``claim_s_p50`` and
    ``claim_s_p90`` hold only while ``run_detection`` calls ``search`` once
    per item, in dataset order, a claim that fails hard included."""
    table, items = tabled_world(num_real=2, num_fake=2)
    oracle = RuleBasedOracle(table)
    doomed = items[1].claim

    def reply(req, prompt):
        if req.context.get("claim") == doomed:
            raise GatewayHardError("down")
        return oracle.generate(req, prompt)

    searched = []
    search = SearchEngine.search

    def stamped(engine, claim, graph, claim_id="", **kwargs):
        searched.append(claim_id)
        return search(engine, claim, graph, claim_id, **kwargs)

    gateway = Gateway(ScriptedBackend(reply), max_retries=0)
    with mock.patch.object(SearchEngine, "search", stamped):
        record, _, _ = run_detection(items, KnowledgeGraph(),
                                     EngineConfig(n=8, h=3, b=2), gateway)
    gateway.close()
    assert searched == [item.id for item in items]
    assert [r.id for r in record.results if r.error] == [items[1].id]


def test_only_extraction_asks_for_entities():
    """Retrieval links a question to the graph by looking its spans up in
    the graph's keys, so a search sends no ``EXTRACT_ENTITIES`` request:
    each one a run sends extracts a document that ``build_graph`` or a
    knowledge update hands to ``document_steps``, and a run without
    updates sends none."""
    table, subset1, subset2 = carryover_world(num_linked=3)
    corpus = [SourceDocument(f"{item.id}-{i}", sentence)
              for item in subset1 for i, sentence in enumerate(item.evidence)]
    oracle = RuleBasedOracle(table)
    extracted, asked = [], []
    document_steps = vbuilder.document_steps

    def recorded(doc, seed=0):
        extracted.append(doc.body)
        return document_steps(doc, seed)

    def reply(req, prompt):
        if req.kind is PromptKind.EXTRACT_ENTITIES:
            asked.append(req.context["document"])
        return oracle.generate(req, prompt)

    config = EngineConfig(n=8, h=3, b=2)
    gateway = Gateway(ScriptedBackend(reply))
    with mock.patch.object(vbuilder, "document_steps", recorded), \
            mock.patch("verity.knowledge_update.document_steps", recorded):
        base, _ = vbuilder.build_graph(corpus, gateway)
        record, _, _ = run_detection(subset1 + subset2, base, config,
                                     gateway)
    gateway.close()
    # Updates ran, and extracted documents beyond the corpus.
    assert any(r.triples_added for r in record.results)
    assert set(extracted) - {s for item in subset1 for s in item.evidence}
    assert set(asked) == set(extracted)
    searched = Gateway(ScriptedBackend(reply))
    run_detection(subset1 + subset2, base, config, searched, updates=False)
    searched.close()
    assert searched.call_counts[PromptKind.EXTRACT_ENTITIES] == 0
    assert searched.memo_hits[PromptKind.EXTRACT_ENTITIES] == 0


def test_kg_out_equals_a_full_reserialization(tmp_path, capsys):
    """``detect --kg-out`` saves a loaded graph by copying the ``--kg`` file
    and serializing only what the updates added; the saved file must hold
    the bytes a full serialization of its own reload gives, whether it is a
    new file or the ``--kg`` file itself."""
    table, subset1, _ = carryover_world(num_linked=3)
    facts, corpus = tmp_path / "facts.json", tmp_path / "corpus.jsonl"
    write_facts(facts, table)
    corpus.write_text("".join(
        json.dumps({"id": item.id, "body": " ".join(item.evidence)}) + "\n"
        for item in subset1[:2]))
    dataset = tmp_path / "claims.jsonl"
    save_dataset(subset1, str(dataset))
    backend = ["--backend", "oracle", "--facts", str(facts)]
    kg = tmp_path / "kg.jsonl"
    assert main(["build-kg", "--corpus", str(corpus), "--out", str(kg),
                 *backend]) == 0
    built = len(KnowledgeGraph.load(str(kg)))
    saved = []
    for out in (tmp_path / "kg-out.jsonl", kg):
        assert main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--updates", "on", "--kg-out", str(out), "--n", "8",
                     "--height", "3", "--branch", "2", *backend]) == 0
        reloaded = KnowledgeGraph.load(str(out))
        assert out.read_bytes() == "".join(
            line + "\n" for line in reloaded.content_digest_lines()
        ).encode("utf-8")
        saved.append((len(reloaded), out.read_bytes()))
    capsys.readouterr()
    # The third claim's update grew the graph, and both saves agree.
    assert built > 0 and saved[0][0] > built and saved[0] == saved[1]


def test_traced_run_reads_its_layers(monkeypatch, tmp_path):
    """CI's traced benchmark pass installs ``bench/spans.py``'s tracer and
    reads its hooks' values after every round. A reshaped ``search``,
    ``build_graph`` or ``apply_update`` return breaks those hooks; this
    runs them on a small carry-over world with updates on, through the
    stand-in model, and checks that tracing changes no output."""
    spans = _load_bench_module("spans", monkeypatch)
    standin = _load_bench_module("standin", monkeypatch)
    table, subset1, _ = carryover_world(num_linked=2)
    corpus = [SourceDocument(f"{item.id}-{i}", sentence)
              for item in subset1 for i, sentence in enumerate(item.evidence)]
    config = EngineConfig(n=8, h=3, b=2, seed=1)

    def detect():
        # Called through their modules, as bench/workloads.py does, so the
        # tracer's wrappers run.
        model = standin.StandInModel(RuleBasedOracle(table))
        gateway = Gateway(model)
        base, report = vbuilder.build_graph(corpus, gateway)
        assert report.docs_processed == len(corpus)
        record, _, grown = vrun.run_detection(subset1, base, config, gateway)
        grown.save(str(tmp_path / "kg.jsonl"))
        gateway.close()
        return model, gateway, record, grown

    tracer = spans.Tracer()
    tracer.install(standin.StandInModel)
    try:
        model, gateway, record, grown = detect()
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer, model, 1.0)
    _, _, untraced, _ = detect()
    assert record.digest() == untraced.digest()
    added = sum(len(r.triples_added) for r in record.results)
    assert added > 0 and metrics["knowledge_update.added"] == added
    assert metrics["kg_store.triples"] == len(grown)
    assert metrics["kg_builder.dropped"] == 0
    assert metrics["gateway.calls"] == sum(gateway.call_counts.values())
    assert metrics["mcts.tree_nodes"] > 1 and metrics["mcts.paths"] > 0
    assert metrics["kg_store.save_s"] > 0
    # Hooks known to be dark (CHANGES.md, the FOUND line on bench/spans.py):
    # the search runs retrieval_steps, never the wrapped retrieve_context,
    # and nothing calls the wrapped Gateway.complete. The run retrieves all
    # the same. Whatever brings these back must change this check, and a
    # further hook going dark fails the checks above. mcts.expand_self_s
    # went near 0 the same way but is a timing, so it is not pinned here.
    dark = ("retrieval.calls", "retrieval.self_s",
            "retrieval.candidates_mean", "retrieval.ranked",
            "retrieval.rank_fallbacks", "gateway.parse_failures")
    assert metrics["kg_store.one_hop_calls"] > 0
    assert {name: metrics[name] for name in dark} == dict.fromkeys(dark, 0)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name ``source`` imports and never uses. A
    ``from __future__`` import and a name listed in ``__all__`` count as
    used."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from typing import Any, Optional\n"
              "import json\n"
              "from .x import exported\n"
              "__all__ = ['exported']\n"
              "def f(a: Optional[int]) -> None:\n"
              "    os.getcwd()\n")
    assert unused_imports(source) == [(2, "osp"), (3, "Any"), (4, "json")]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in ("src", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def class_attributes() -> dict[str, set[str]]:
    """Each class the verity package defines, by name, with the names it
    has: its attributes, its dataclass fields and every ``self`` attribute
    an ``__init__`` of it or of a verity base class assigns."""
    found: dict[str, set[str]] = {}
    for info in pkgutil.iter_modules(verity.__path__):
        module = importlib.import_module(f"verity.{info.name}")
        for name, cls in vars(module).items():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            names = found.setdefault(name, set())
            names.update(dir(cls), getattr(cls, "__dataclass_fields__", ()))
            for base in cls.__mro__:
                if (not base.__module__.startswith("verity.")
                        or "__init__" not in vars(base)):
                    continue
                try:
                    source = inspect.getsource(base.__init__)
                except OSError:
                    # Generated, as a dataclass's is: it sets only fields.
                    continue
                names.update(
                    node.attr
                    for node in ast.walk(ast.parse(textwrap.dedent(source)))
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self")
    return found


def unknown_attributes(text: str,
                       classes: dict[str, set[str]]) -> list[str]:
    """Each backticked ``Class.attr`` in ``text`` whose ``Class`` is in
    ``classes`` and has no ``attr``."""
    unknown = []
    for dotted in re.findall(r"`([\w.]+)", text):
        parts = dotted.split(".")
        for owner, attr in zip(parts, parts[1:]):
            if owner in classes and attr not in classes[owner]:
                unknown.append(f"{owner}.{attr}")
    return unknown


def test_unknown_attributes_are_found():
    classes = class_attributes()
    text = ("``Gateway.complete_all`` and ``Stepper.error``, ``EngineConfig.n``"
            " and `PromptKind.FINAL_VERDICT`, ``TransportError.retry_after``,"
            " ``verity.gateway.drive`` and ``json.dumps``; but\n"
            "``Gateway.complete_riding(reqs)`` and `Stepper.done`.")
    assert unknown_attributes(text, classes) == \
        ["Gateway.complete_riding", "Stepper.done"]


def test_every_cited_class_attribute_exists():
    classes = class_attributes()
    found = [f"{path.relative_to(ROOT)}: {name}"
             for path in [*sorted((ROOT / "src" / "verity").glob("*.py")),
                          ROOT / "README.md"]
             for name in unknown_attributes(path.read_text(encoding="utf-8"),
                                            classes)]
    assert found == []
