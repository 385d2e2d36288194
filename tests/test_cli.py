import hashlib
import http.server
import inspect
import json
import re
import socket
import threading

import pytest
from synth import save_dataset, tabled_world, write_facts

from verity.cli import _build_backend, _engine_config, build_parser, main
from verity.dataset import load_dataset
from verity.errors import VerityError
from verity.gateway import Gateway, HttpChatBackend, ScriptedBackend
from verity.kg_store import KnowledgeGraph
from verity.mcts import EngineConfig
from verity.oracle import RuleBasedOracle
from verity.run import run_detection


def write_corpus(path, docs):
    path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")


class TestBuildKg:
    def test_builds_graph_file(self, tmp_path, capsys):
        table, _ = tabled_world(num_real=2, num_fake=0)
        facts = tmp_path / "facts.json"
        write_facts(facts, table)
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, [
            {"id": "d1", "body": "Alpha0 commanded Gamma0."},
            {"id": "d2", "body": "Beta1 served in Gamma1."},
        ])
        out = tmp_path / "kg.jsonl"
        code = main(["build-kg", "--corpus", str(corpus), "--out", str(out),
                     "--backend", "oracle", "--facts", str(facts)])
        assert code == 0
        graph = KnowledgeGraph.load(str(out))
        assert len(graph) == 2
        assert (tmp_path / "kg.jsonl.report.json").exists()
        assert "built graph with 2 triples" in capsys.readouterr().out

    def test_oracle_requires_facts(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, [{"id": "d", "body": "x"}])
        code = main(["build-kg", "--corpus", str(corpus),
                     "--out", str(tmp_path / "kg.jsonl"),
                     "--backend", "oracle"])
        assert code == 2
        assert "facts" in capsys.readouterr().err


class TestDetect:
    def _setup(self, tmp_path):
        table, items = tabled_world(num_real=2, num_fake=2)
        facts = tmp_path / "facts.json"
        write_facts(facts, table)
        dataset = tmp_path / "claims.jsonl"
        save_dataset(items, str(dataset))
        kg = tmp_path / "kg.jsonl"
        KnowledgeGraph().save(str(kg))
        return facts, dataset, kg

    def test_detect_reports_metrics(self, tmp_path, capsys):
        facts, dataset, kg = self._setup(tmp_path)
        out = tmp_path / "run.jsonl"
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts),
                     "--n", "3", "--height", "3", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "run digest:" in printed
        assert re.search(r"^model calls: [1-9]\d* sent, \d+ served from memo$",
                         printed, re.MULTILINE)
        assert "accuracy" in printed
        assert len(out.read_text().strip().splitlines()) == 4

    def test_metrics_out_is_indented_json(self, tmp_path, capsys):
        facts, dataset, kg = self._setup(tmp_path)
        out = tmp_path / "metrics.json"
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts),
                     "--n", "3", "--height", "3", "--metrics-out", str(out)])
        assert code == 0
        metrics = json.loads(out.read_text())
        assert list(metrics) == ["tp", "fp", "tn", "fn", "accuracy",
                                 "precision", "recall", "f1"]
        assert out.read_text() == json.dumps(metrics, indent=2)

    def test_kg_out_may_overwrite_kg(self, tmp_path, capsys):
        facts, dataset, kg = self._setup(tmp_path)
        before = set(tmp_path.iterdir())
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts),
                     "--n", "3", "--height", "3", "--kg-out", str(kg)])
        assert code == 0
        assert len(KnowledgeGraph.load(str(kg))) > 0
        assert set(tmp_path.iterdir()) == before

    def test_evaluate_saved_run(self, tmp_path, capsys):
        facts, dataset, kg = self._setup(tmp_path)
        out = tmp_path / "run.jsonl"
        main(["detect", "--dataset", str(dataset), "--kg", str(kg),
              "--backend", "oracle", "--facts", str(facts),
              "--n", "3", "--height", "3", "--out", str(out)])
        capsys.readouterr()
        assert main(["evaluate", "--run", str(out)]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_population_counts_only_labelled_claims(self, tmp_path, capsys):
        facts, dataset, kg = self._setup(tmp_path)
        _, items = tabled_world(num_real=2, num_fake=2)
        for item in items[1::2]:
            item.gold = None
        save_dataset(items, str(dataset))
        out = tmp_path / "run.jsonl"
        main(["detect", "--dataset", str(dataset), "--kg", str(kg),
              "--backend", "oracle", "--facts", str(facts),
              "--n", "3", "--height", "3", "--out", str(out)])
        detected = capsys.readouterr().out
        assert main(["evaluate", "--run", str(out)]) == 0
        evaluated = capsys.readouterr().out
        pattern = r"^population\s+2$"
        assert re.search(pattern, detected, re.MULTILINE)
        assert re.search(pattern, evaluated, re.MULTILINE)

    def test_evaluate_skips_record_with_empty_error(self, tmp_path, capsys):
        facts, dataset, kg = self._setup(tmp_path)
        out = tmp_path / "run.jsonl"
        main(["detect", "--dataset", str(dataset), "--kg", str(kg),
              "--backend", "oracle", "--facts", str(facts),
              "--n", "3", "--height", "3", "--out", str(out)])
        capsys.readouterr()
        errored = {**json.loads(out.read_text().splitlines()[0]),
                   "verdict": None, "error": ""}
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(errored) + "\n")
        assert main(["evaluate", "--run", str(out)]) == 0
        assert re.search(r"^population\s+4$", capsys.readouterr().out,
                         re.MULTILINE)

    def test_record_then_replay_same_digest(self, tmp_path, capsys):
        facts, dataset, kg = self._setup(tmp_path)
        transcript = tmp_path / "transcript.jsonl"
        main(["detect", "--dataset", str(dataset), "--kg", str(kg),
              "--backend", "oracle", "--facts", str(facts),
              "--n", "3", "--height", "3", "--record", str(transcript)])
        first = capsys.readouterr().out
        code = main(["detect", "--backend", "replay",
                     "--dataset", str(dataset), "--kg", str(kg),
                     "--transcript", str(transcript),
                     "--n", "3", "--height", "3"])
        assert code == 0
        second = capsys.readouterr().out
        digest = [l for l in first.splitlines() if l.startswith("run digest")]
        assert digest == \
            [l for l in second.splitlines() if l.startswith("run digest")]

    def test_seed_flag_sets_the_run_seed(self, tmp_path, capsys):
        facts, dataset, kg = self._setup(tmp_path)
        table, _ = tabled_world(num_real=2, num_fake=2)
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts),
                     "--n", "3", "--height", "3", "--seed", "1"])
        assert code == 0
        record, _, _ = run_detection(
            load_dataset(str(dataset)).items, KnowledgeGraph(),
            EngineConfig(n=3, h=3, seed=1), Gateway(RuleBasedOracle(table)))
        assert f"run digest: {record.digest()}" in capsys.readouterr().out

    def test_build_kg_has_no_seed_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["build-kg", "--corpus", "c.jsonl", "--out", "kg.jsonl",
                  "--seed", "1"])
        assert exit_.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_missing_kg_file(self, tmp_path, capsys):
        facts, dataset, _ = self._setup(tmp_path)
        code = main(["detect", "--dataset", str(dataset),
                     "--kg", str(tmp_path / "absent.jsonl"),
                     "--backend", "oracle", "--facts", str(facts)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_config_file_with_unknown_key(self, tmp_path, capsys):
        facts, dataset, kg = self._setup(tmp_path)
        config = tmp_path / "config.json"
        config.write_text('{"temperture": 0.5}')
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts),
                     "--config", str(config)])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_temperature_key_rejected(self, tmp_path, capsys):
        # Every request is sent at temperature 0; a key that would be
        # silently ignored is refused instead.
        facts, dataset, kg = self._setup(tmp_path)
        config = tmp_path / "config.json"
        config.write_text('{"temperature": 0.7}')
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts),
                     "--config", str(config)])
        assert code == 2
        assert "unknown config keys: ['temperature']" in capsys.readouterr().err


class TestSequentialRun:
    def test_cell_table_printed(self, tmp_path, capsys):
        table, items = tabled_world(num_real=4, num_fake=2)
        facts = tmp_path / "facts.json"
        write_facts(facts, table)
        for item in items:
            item.evidence = [item.claim]
        dataset = tmp_path / "claims.jsonl"
        save_dataset(items, str(dataset))
        out = tmp_path / "cells.json"
        code = main(["sequential-run", "--dataset", str(dataset),
                     "--subsets", "2", "--backend", "oracle",
                     "--facts", str(facts), "--n", "3", "--height", "3",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "subset2+kg1" in printed
        assert re.search(r"^model calls: [1-9]\d* sent, \d+ served from memo$",
                         printed, re.MULTILINE)
        cells = json.loads(out.read_text())
        assert [c["setting"] for c in cells] == \
            ["subset1", "subset2", "subset2+kg1"]


    def test_dropped_items_are_counted(self, tmp_path, capsys):
        table, items = tabled_world(num_real=2, num_fake=2)
        facts = tmp_path / "facts.json"
        write_facts(facts, table)
        dataset = tmp_path / "claims.jsonl"
        save_dataset(items, str(dataset))
        with dataset.open("a") as fh:
            fh.write(json.dumps({"id": "cell", "claim": "c",
                                 "evidence": [{"type": "cell"}]}) + "\n")
        code = main(["sequential-run", "--dataset", str(dataset),
                     "--subsets", "2", "--backend", "oracle",
                     "--facts", str(facts), "--n", "3", "--height", "3"])
        assert code == 0
        assert capsys.readouterr().err == \
            "dropped 1 items with non-sentence evidence\n"


def _stub_reply(prompt):
    """A model that answers from the prompt alone: a verdict line that
    parses for every kind, after a triple and a question."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    label = "Real" if digest[0] % 2 else "Fake"
    return (f"(Alpha{digest[1] % 3} | met | Beta{digest[2] % 3})\n"
            f"Was it so?\nAnswer: {label}")


class _Completions(http.server.BaseHTTPRequestHandler):
    """POST /v1/chat/completions: the server's next queued status, then 200
    with ``_stub_reply`` of the user message."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.posts += 1
            status = self.server.statuses.pop(0) if self.server.statuses \
                else 200
        payload = {"error": "busy"}
        if status == 200 and self.path == "/v1/chat/completions":
            content = _stub_reply(body["messages"][0]["content"])
            payload = {"choices": [{"message": {"content": content}}]}
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_endpoint():
    """A chat-completion endpoint on a free local port, served on threads."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Completions)
    server.lock, server.posts, server.statuses = threading.Lock(), 0, []
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


class TestLiveEndpoint:
    """``--backend live`` through ``requests`` against a local stub."""

    def _detect(self, tmp_path, base_url, items):
        dataset, kg = tmp_path / "claims.jsonl", tmp_path / "kg.jsonl"
        save_dataset(items, str(dataset))
        KnowledgeGraph().save(str(kg))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"base_url": base_url, "max_retries": 1}))
        out = tmp_path / "run.jsonl"
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "live", "--config", str(config),
                     "--n", "3", "--height", "3", "--out", str(out)])
        assert code == 0
        return out

    @pytest.mark.parametrize("statuses", [[], [503]])
    def test_record_equals_a_scripted_run(self, tmp_path, capsys,
                                          stub_endpoint, statuses):
        """A 503 is retried, and the run is the one a scripted backend
        answering the same way gives."""
        _, items = tabled_world(num_real=2, num_fake=2)
        stub_endpoint.statuses += statuses
        host, port = stub_endpoint.server_address
        out = self._detect(tmp_path, f"http://{host}:{port}/", items)
        sent = int(re.search(r"^model calls: (\d+) sent",
                             capsys.readouterr().out, re.MULTILINE).group(1))
        assert stub_endpoint.posts == sent + len(statuses)
        gateway = Gateway(ScriptedBackend(lambda req, prompt:
                                          _stub_reply(prompt)))
        record, _, _ = run_detection(items, KnowledgeGraph(),
                                     EngineConfig(n=3, h=3), gateway)
        gateway.close()
        assert not record.exclusions
        record.save(str(tmp_path / "scripted.jsonl"))
        assert out.read_bytes() == (tmp_path / "scripted.jsonl").read_bytes()
        assert sum(gateway.call_counts.values()) == sent

    def test_closed_port_fails_each_claim(self, tmp_path, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        _, items = tabled_world(num_real=1, num_fake=1)
        out = self._detect(tmp_path, f"http://127.0.0.1:{port}", items)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 2
        assert all(r["verdict"] is None and re.fullmatch(
            r"\w+ failed after 2 attempts: .+", r["error"]) for r in records)
        assert "excluded 2 claims" in capsys.readouterr().out


class TestDefaults:
    def _args(self, *flags):
        return build_parser().parse_args(
            ["detect", "--dataset", "d", "--kg", "k", *flags])

    def test_unset_engine_values_keep_class_defaults(self):
        assert _engine_config(self._args(), {}) == EngineConfig()
        assert _engine_config(self._args("--n", "9"),
                              {"n": 7, "alpha": "1.5"}) == \
            EngineConfig(n=9, alpha=1.5)

    def test_bad_config_value_is_an_error(self):
        with pytest.raises(VerityError, match="bad value for height"):
            _engine_config(self._args(), {"height": "tall"})

    def test_unset_backend_values_keep_class_defaults(self):
        def default(cls, name):
            return inspect.signature(cls).parameters[name].default

        gateway = _build_backend(self._args(), {})
        assert gateway.max_retries == default(Gateway, "max_retries")
        assert gateway.min_interval == default(Gateway, "min_interval")
        assert gateway.backend.timeout == default(HttpChatBackend, "timeout")
        gateway = _build_backend(self._args(), {"timeout": 5, "max_retries": 1})
        assert (gateway.backend.timeout, gateway.max_retries) == (5.0, 1)


class TestMalformedInput:
    """A malformed or cut input stops the command with one error line."""

    def _assert_error(self, code, capsys, path, line):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{path} line {line}: " in err

    @pytest.mark.parametrize("content,line", [
        ('{"id": "d1", "body": "Alpha0 commanded Gamma0."}\n'
         '{"id": "d2", "body": "Beta1 serv', 2),
        ('{"id": "d1", "text": "Alpha0 commanded Gamma0."}\n', 1),
        ('{"id": 1, "body": "Alpha0 commanded Gamma0."}\n'
         '{"id": "d2", "body": "Beta1 served in Gamma1.",'
         ' "trusted": "false"}\n', 2),
        ('{"id": "d1", "body": "Alpha0 commanded Gamma0.", "trusted": true}\n'
         '{"id": {"x": 1}, "body": "Beta1 served in Gamma1."}\n', 2),
    ], ids=["cut", "no-body", "trusted-not-boolean", "id-not-string-or-int"])
    def test_build_kg_corpus(self, tmp_path, capsys, content, line):
        table, _ = tabled_world(num_real=2, num_fake=0)
        facts = tmp_path / "facts.json"
        write_facts(facts, table)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(content)
        code = main(["build-kg", "--corpus", str(corpus),
                     "--out", str(tmp_path / "kg.jsonl"),
                     "--backend", "oracle", "--facts", str(facts)])
        self._assert_error(code, capsys, corpus, line)
        assert not (tmp_path / "kg.jsonl").exists()

    @pytest.mark.parametrize("mangle,line", [
        (lambda lines: lines[:-1] + [lines[-1][:-9]], 4),
        (lambda lines: [lines[0].replace('"Real"', '"Maybe"')
                        .replace('"Fake"', '"Maybe"')] + lines[1:], 1),
    ], ids=["cut", "bad-verdict"])
    def test_evaluate_run_file(self, tmp_path, capsys, mangle, line):
        facts, dataset, kg = TestDetect()._setup(tmp_path)
        run = tmp_path / "run.jsonl"
        main(["detect", "--dataset", str(dataset), "--kg", str(kg),
              "--backend", "oracle", "--facts", str(facts),
              "--n", "3", "--height", "3", "--out", str(run)])
        capsys.readouterr()
        run.write_text("\n".join(mangle(run.read_text().splitlines())))
        self._assert_error(main(["evaluate", "--run", str(run)]), capsys,
                           run, line)

    def test_replay_cut_transcript(self, tmp_path, capsys):
        facts, dataset, kg = TestDetect()._setup(tmp_path)
        transcript = tmp_path / "transcript.jsonl"
        main(["detect", "--dataset", str(dataset), "--kg", str(kg),
              "--backend", "oracle", "--facts", str(facts),
              "--n", "3", "--height", "3", "--record", str(transcript)])
        capsys.readouterr()
        data = transcript.read_bytes()
        transcript.write_bytes(data[:-40])
        code = main(["detect", "--backend", "replay",
                     "--dataset", str(dataset), "--kg", str(kg),
                     "--transcript", str(transcript)])
        self._assert_error(code, capsys, transcript,
                           data[:-40].count(b"\n") + 1)

    def test_bad_input_keeps_earlier_transcript(self, tmp_path, capsys):
        facts, dataset, kg = TestDetect()._setup(tmp_path)
        dataset.write_text('{"id": "a", "claim": "c"}\n{"id": "b", "cl')
        transcript = tmp_path / "transcript.jsonl"
        transcript.write_text('{"hash": "h", "response": "r"}\n')
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts),
                     "--record", str(transcript)])
        self._assert_error(code, capsys, dataset, 2)
        assert transcript.read_text() == '{"hash": "h", "response": "r"}\n'

    def test_detect_config(self, tmp_path, capsys):
        facts, dataset, kg = TestDetect()._setup(tmp_path)
        config = tmp_path / "config.json"
        config.write_text('{\n  "n": 3,\n  "height"')
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts),
                     "--config", str(config)])
        self._assert_error(code, capsys, config, 3)

    @pytest.mark.parametrize("target", ["dataset", "transcript", "facts"])
    def test_lone_surrogate_escape(self, tmp_path, capsys, target):
        facts, dataset, kg = TestDetect()._setup(tmp_path)
        transcript = tmp_path / "transcript.jsonl"
        main(["detect", "--dataset", str(dataset), "--kg", str(kg),
              "--backend", "oracle", "--facts", str(facts),
              "--n", "3", "--height", "3", "--record", str(transcript)])
        capsys.readouterr()
        if target == "facts":
            table = json.loads(facts.read_text())
            table["relations"][-1] = "\udc00"
            text = json.dumps(table, indent=2)
            facts.write_text(text)
            path, line = facts, text[:text.index("\\udc00")].count("\n") + 1
        else:
            path, field = {"dataset": (dataset, "claim"),
                           "transcript": (transcript, "response")}[target]
            lines = path.read_text().splitlines()
            record = json.loads(lines[1])
            record[field] = "\ud800" + record[field]
            lines[1] = json.dumps(record)
            path.write_text("\n".join(lines) + "\n")
            line = 2
        backend = (["--backend", "replay", "--transcript", str(transcript)]
                   if target == "transcript" else
                   ["--backend", "oracle", "--facts", str(facts)])
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     *backend])
        self._assert_error(code, capsys, path, line)

    @pytest.mark.parametrize("item_id", [{"x": 1}, True, 1.5],
                             ids=["object", "boolean", "fraction"])
    def test_dataset_id_must_be_string_or_int(self, tmp_path, capsys,
                                              item_id):
        facts, dataset, kg = TestDetect()._setup(tmp_path)
        lines = dataset.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "id": item_id})
        dataset.write_text("\n".join(lines) + "\n")
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts)])
        self._assert_error(code, capsys, dataset, 2)

    def test_detect_facts(self, tmp_path, capsys):
        facts, dataset, kg = TestDetect()._setup(tmp_path)
        facts.write_bytes(facts.read_bytes()[:-7])
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts)])
        self._assert_error(code, capsys, facts, 1)


class TestIllTypedInput:
    """An ill-typed or out-of-range field stops the command with one error
    line, exit 2."""

    def _assert_error(self, code, capsys, *words):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(word in err for word in words)

    def test_dataset_group_must_be_a_string(self, tmp_path, capsys):
        facts, dataset, _ = TestDetect()._setup(tmp_path)
        lines = dataset.read_text().splitlines()
        record = json.loads(lines[1])
        record["group"] = ["g"]
        lines[1] = json.dumps(record)
        dataset.write_text("\n".join(lines) + "\n")
        code = main(["sequential-run", "--dataset", str(dataset),
                     "--subsets", "2", "--backend", "oracle",
                     "--facts", str(facts), "--n", "3", "--height", "3"])
        self._assert_error(code, capsys, f"{dataset} line 2: ", "group")

    def test_dataset_evidence_must_be_a_list(self, tmp_path, capsys):
        facts, dataset, _ = TestDetect()._setup(tmp_path)
        lines = dataset.read_text().splitlines()
        record = json.loads(lines[1])
        record["evidence"] = "Anderson fought in Tunisia."
        lines[1] = json.dumps(record)
        dataset.write_text("\n".join(lines) + "\n")
        code = main(["sequential-run", "--dataset", str(dataset),
                     "--subsets", "2", "--backend", "oracle",
                     "--facts", str(facts), "--n", "3", "--height", "3"])
        self._assert_error(code, capsys, f"{dataset} line 2: ", "evidence")

    def test_a_directory_for_an_input_file(self, tmp_path, capsys):
        facts, _, kg = TestDetect()._setup(tmp_path)
        code = main(["evaluate", "--run", str(tmp_path)])
        self._assert_error(code, capsys, str(tmp_path))
        code = main(["detect", "--dataset", str(tmp_path), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts)])
        self._assert_error(code, capsys, str(tmp_path))

    def test_fact_table_fields_must_be_lists(self, tmp_path, capsys):
        _, dataset, kg = TestDetect()._setup(tmp_path)
        facts = tmp_path / "facts.json"
        facts.write_text('{"facts": 5}')
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts)])
        self._assert_error(code, capsys, str(facts), "'facts'")

    def test_config_base_url_must_be_a_string(self, tmp_path, capsys):
        _, dataset, kg = TestDetect()._setup(tmp_path)
        config = tmp_path / "config.json"
        config.write_text('{"base_url": 7}')
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--config", str(config)])
        self._assert_error(code, capsys, "base_url")

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_alpha_must_be_finite(self, tmp_path, capsys, alpha):
        facts, dataset, kg = TestDetect()._setup(tmp_path)
        record = tmp_path / "transcript.jsonl"
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts),
                     "--alpha", alpha, "--record", str(record)])
        self._assert_error(code, capsys, "alpha")
        assert not record.exists()

    def test_max_retries_must_not_be_negative(self, tmp_path, capsys):
        facts, dataset, kg = TestDetect()._setup(tmp_path)
        config = tmp_path / "config.json"
        config.write_text('{"max_retries": -1}')
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts),
                     "--config", str(config)])
        self._assert_error(code, capsys, "max_retries")

    @pytest.mark.parametrize("interval", ["-1", "NaN", "Infinity"])
    def test_min_interval_must_be_finite_and_not_negative(self, tmp_path,
                                                          capsys, interval):
        facts, dataset, kg = TestDetect()._setup(tmp_path)
        config = tmp_path / "config.json"
        config.write_text('{"min_interval": %s}' % interval)
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts),
                     "--config", str(config)])
        self._assert_error(code, capsys, "min_interval")

    @pytest.mark.parametrize("key, value", [
        ("n", "2.7"), ("height", "3.5"), ("branch", "2.5"), ("topk", "1.9"),
        ("seed", "0.5"), ("max_retries", "1.5"), ("n", "Infinity"),
        ("n", "true"), ("seed", "false"), ("alpha", "true"),
        ("min_interval", "false")])
    def test_numeric_keys_take_numbers_of_their_type(self, tmp_path, capsys,
                                                     key, value):
        facts, dataset, kg = TestDetect()._setup(tmp_path)
        config = tmp_path / "config.json"
        config.write_text('{"%s": %s}' % (key, value))
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--backend", "oracle", "--facts", str(facts),
                     "--config", str(config)])
        self._assert_error(code, capsys, f"bad value for {key}")

    @pytest.mark.parametrize("timeout", ["0", "-1", "NaN", "Infinity"])
    def test_timeout_must_be_positive_and_finite(self, tmp_path, capsys,
                                                 timeout):
        _, dataset, kg = TestDetect()._setup(tmp_path)
        config = tmp_path / "config.json"
        config.write_text('{"timeout": %s, "base_url": "http://127.0.0.1:9"}'
                          % timeout)
        # The live backend is refused before it sends anything.
        code = main(["detect", "--dataset", str(dataset), "--kg", str(kg),
                     "--config", str(config)])
        self._assert_error(code, capsys, "timeout")
