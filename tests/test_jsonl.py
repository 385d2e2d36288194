import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import save_dataset

from verity.cli import _load_corpus, _load_scores
from verity.dataset import NewsItem, load_dataset
from verity.errors import FormatError
from verity.gateway import (LLMRequest, PromptKind, RecordingBackend,
                            ReplayBackend, ScriptedBackend, render_prompt,
                            request_hash)
from verity.jsonl import read_object, read_records
from verity.kg_builder import SourceDocument
from verity.kg_store import KnowledgeGraph
from verity.run import ClaimResult, RunRecord
from verity.verdict import Verdict


class TestReadRecords:
    def test_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'# header\n\n  {"a": 1}  \r\n\t\n{"b": "\xc3\xa9"}')
        assert list(read_records(str(path))) == [(3, {"a": 1}),
                                                 (5, {"b": "é"})]

    def test_torn_character_reported_on_its_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes('{"a": "ok"}\n{"a": "東'.encode("utf-8")[:-1])
        with pytest.raises(FormatError) as err:
            list(read_records(str(path)))
        assert err.value.line == 2
        assert err.value.path == str(path)
        assert "not UTF-8" in str(err.value)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n[1, 2]\n')
        with pytest.raises(FormatError, match=r"line 2: not a JSON object"):
            list(read_records(str(path)))

    def test_lone_surrogate_escape_names_its_line(self, tmp_path):
        # A surrogate pair, an escaped backslash before "u" and an escaped
        # quote are text; a lone surrogate, in a key or a value, is not.
        path = tmp_path / "r.jsonl"
        good = r'{"a": "\ud83d\ude00", "b": "\\ud800", "\"c": "\\\"\\udc00"}'
        path.write_text(good + "\n")
        assert list(read_records(str(path))) == [
            (1, {"a": "\U0001f600", "b": "\\ud800", '"c': '\\"\\udc00'})]
        for bad in (r'{"a": "x\ud800"}', r'{"\udc00": 1}',
                    r'{"a": ["ok", {"b": "\ude00\ud83d"}]}'):
            path.write_text(good + "\n" + bad + "\n")
            with pytest.raises(FormatError, match="line 2: lone surrogate"):
                list(read_records(str(path)))


class TestReadObject:
    def test_reads_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{\n  "n": 3\n}\n')
        assert read_object(str(path)) == {"n": 3}

    def test_bad_json_names_its_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{\n  "n": 3,\n  "height"')
        with pytest.raises(FormatError) as err:
            read_object(str(path))
        assert err.value.line == 3

    def test_torn_character_names_its_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes('{\n"model": "東京"}'.encode("utf-8")[:13])
        with pytest.raises(FormatError, match="not UTF-8") as err:
            read_object(str(path))
        assert err.value.line == 2

    def test_lone_surrogate_escape_names_its_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{\n  "n": 3,\n  "model": "\\udc00"\n}\n')
        with pytest.raises(FormatError, match="lone surrogate") as err:
            read_object(str(path))
        assert err.value.line == 3

    def test_non_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1]")
        with pytest.raises(FormatError, match="not a JSON object"):
            read_object(str(path))


# -- cut files ---------------------------------------------------------------
#
# Each writer puts one record per line and returns, per line, what its
# reader gives back for that line (None when the reader skips it). Every
# text carries multi-byte characters, so cuts also fall inside them.

texts = st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                         max_size=12), min_size=1, max_size=6)


def write_kg(path, words):
    g = KnowledgeGraph()
    for i, w in enumerate(words):
        g.add(f"Zoë {i} {w}", f"liegt in {w}", f"東京 {w}", w)
    g.save(path)
    return g.triples, lambda: KnowledgeGraph.load(path).triples


def write_dataset(path, words):
    items = [NewsItem(f"n{i}", f"Zoë sagt {w}.",
                      Verdict.REAL if i % 2 else Verdict.FAKE,
                      [w] if w else [], f"g{w}")
             for i, w in enumerate(words)]
    save_dataset(items, path)
    return items, lambda: load_dataset(path).items


def write_corpus(path, words):
    docs = [SourceDocument(f"d{i}", f"東京 {w}", i % 2 == 0)
            for i, w in enumerate(words)]
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps({"id": d.id, "body": d.body,
                                 "trusted": d.trusted},
                                ensure_ascii=False) + "\n")
    return docs, lambda: _load_corpus(path)


def write_transcript(path, words):
    backend = RecordingBackend(
        ScriptedBackend(lambda req, prompt: "Antwort ü: " + prompt[-20:]), path)
    expected = []
    for i, w in enumerate(words):
        req = LLMRequest(PromptKind.EXTRACT_ENTITIES, {"document": f"{i} {w}"})
        prompt = render_prompt(req)
        expected.append((request_hash(req, prompt),
                         [backend.generate(req, prompt)]))
    return expected, \
        lambda: list(ReplayBackend.from_path(path)._records.items())


def write_run(path, words):
    results = []
    for i, w in enumerate(words):
        verdict = Verdict.REAL if i % 2 else Verdict.FAKE
        results.append(ClaimResult(
            id=f"Zoë {w}", verdict=None if i % 3 == 2 else verdict,
            gold=Verdict.REAL, error="Zeitüberschreitung" if i % 3 == 2
            else None, paths_digest=w,
            triples_added=[{"subject": w, "object": "東京"}]))
    RunRecord(results=results).save(path)
    expected = [None if r.error else (r.verdict, r.gold) for r in results]

    def read():
        predictions, golds = _load_scores(path)
        return list(zip(predictions, golds))
    return expected, read


@pytest.mark.parametrize("write", [write_kg, write_dataset, write_corpus,
                                   write_transcript, write_run])
def test_cut_file_gives_whole_lines_or_names_the_cut(write, tmp_path_factory):
    """Cut anywhere, a file reads as its whole lines or fails on the cut one."""
    path = str(tmp_path_factory.mktemp("cut") / "file.jsonl")

    @settings(max_examples=60, deadline=None)
    @given(words=texts, data=st.data())
    def check(words, data):
        expected, read = write(path, words)
        with open(path, "rb") as fh:
            content = fh.read()
        lines = content.split(b"\n")[:-1]
        assert len(lines) == len(expected)
        cut = data.draw(st.integers(0, len(content)), label="cut")
        with open(path, "wb") as fh:
            fh.write(content[:cut])
        head = content[:cut]
        whole = head.count(b"\n")
        tail = head[head.rfind(b"\n") + 1:]
        if whole < len(lines) and tail == lines[whole]:
            whole, tail = whole + 1, b""
        if tail:
            with pytest.raises(FormatError) as err:
                read()
            assert err.value.line == whole + 1
        else:
            assert read() == [e for e in expected[:whole] if e is not None]

    check()
