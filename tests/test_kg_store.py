import hashlib
import json
import os
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verity import jsonl, kg_store
from verity.errors import FormatError, ValidationError
from verity.kg_store import (Entity, KnowledgeGraph, Triple, make_triple,
                             normalize_entity)


def reference_line(triple):
    """The per-triple serialization used before ``canonical_line``."""
    return json.dumps(triple.as_record(), ensure_ascii=False, sort_keys=True)


def reference_digest(graph):
    payload = "\n".join(reference_line(t) for t in graph.triples)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Text that JSON must escape or that ASCII-only encoders would mangle.
awkward_text = st.text(alphabet=st.one_of(
    st.characters(blacklist_categories=("Cs",)),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t",
                     "\u2028", "\u2029", "é", "东", "\U0001f600"])),
    max_size=12)


def json_only_load(path):
    """Load ``path`` with ``json.loads`` on every line and no fast path."""
    graph = KnowledgeGraph()
    with open(path, "rb") as fh:
        for raw in fh:
            line = raw.decode("utf-8").strip()
            if not line or line.startswith("#"):
                continue
            record = json.loads(line)
            graph.insert_triple(Triple(
                Entity(record["subject"]), record["relation"],
                Entity(record["object"]), record.get("source_id", ""),
                record.get("seq", 0)))
    return graph


def reference_bytes(graph):
    """What ``save`` must write: each triple's reference line, in order."""
    return "".join(reference_line(t) + "\n"
                   for t in graph.triples).encode("utf-8")


def needs_no_escape(text):
    return json.dumps(text, ensure_ascii=False) == f'"{text}"'


def brute_force_one_hop(graph, keys):
    return [t for t in graph.triples
            if t.subject.key in keys or t.object.key in keys]


class TestNormalizeEntity:
    def test_collapses_and_lowercases(self):
        assert normalize_entity("Dwight  D. Eisenhower ") == "dwight d. eisenhower"

    def test_identity_case(self):
        assert normalize_entity("abc") == "abc"

    def test_tabs_collapse(self):
        assert normalize_entity("WORLD WAR\tII") == "world war ii"

    def test_empty(self):
        assert normalize_entity("   ") == ""


# Surfaces drawn from a small alphabet with mixed case and several kinds of
# whitespace, so that distinct surfaces often share one normalized key.
surfaces = st.text(alphabet="aAbB \t\n\u00a0", max_size=8)


class TestEntity:
    @given(surfaces, surfaces)
    @settings(max_examples=200, deadline=None)
    def test_cached_key_keeps_contract(self, a, b):
        ea, eb = Entity(a), Entity(b)
        assert ea.key == normalize_entity(a)
        assert eb.key == normalize_entity(b)
        assert (ea == eb) == (a == b)
        assert (hash(ea) == hash(eb)) == (a == b)
        assert repr(ea) == f"Entity(surface={a!r})"

    def test_key_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            Entity("Eisenhower", key="other")


class TestInsert:
    def test_insert_into_empty(self):
        g = KnowledgeGraph()
        assert g.insert_triple(make_triple("eisenhower", "superior of", "anderson"))
        assert len(g) == 1

    def test_duplicate_rejected(self):
        g = KnowledgeGraph()
        t = make_triple("eisenhower", "superior of", "anderson")
        assert g.insert_triple(t)
        assert not g.insert_triple(t)
        assert len(g) == 1

    def test_distinct_relation_distinct_identity(self):
        g = KnowledgeGraph()
        g.insert_triple(make_triple("eisenhower", "superior of", "anderson"))
        assert g.insert_triple(make_triple("eisenhower", "commanded", "anderson"))
        assert len(g) == 2

    def test_dedup_is_normalized(self):
        g = KnowledgeGraph()
        g.insert_triple(make_triple("Eisenhower", "Superior Of", "ANDERSON"))
        assert not g.insert_triple(make_triple("eisenhower ", "superior  of", "anderson"))

    @pytest.mark.parametrize("s,r,o", [
        ("", "r", "b"), ("a", "", "b"), ("a", "r", ""), ("  ", "r", "b"),
    ])
    def test_invalid_triples_rejected(self, s, r, o):
        g = KnowledgeGraph()
        with pytest.raises(ValidationError):
            g.insert_triple(make_triple(s, r, o))

    @pytest.mark.parametrize("seq", [1.5, True, "7", None])
    def test_non_integer_seq_rejected(self, seq):
        g = KnowledgeGraph()
        with pytest.raises(ValidationError, match="seq must be an integer"):
            g.insert_triple(make_triple("a", "r", "b", seq=seq))
        assert len(g) == 0


class TestQueries:
    def test_match_entities_is_intersection(self):
        g = KnowledgeGraph()
        g.add("a", "r1", "b")
        g.add("b", "r2", "c")
        assert g.match_entities({"b", "d"}) == {"b"}
        assert g.match_entities(set()) == set()
        assert g.match_entities({"a", "b", "c"}) == {"a", "b", "c"}

    def test_one_hop_examples(self):
        g = KnowledgeGraph()
        g.add("a", "r1", "b")
        g.add("b", "r2", "c")
        g.add("c", "r3", "d")
        hop = g.one_hop_subgraph({"b"})
        assert [(t.subject.key, t.object.key) for t in hop] == [("a", "b"), ("b", "c")]
        assert g.one_hop_subgraph(set()) == []
        assert [(t.subject.key, t.object.key) for t in g.one_hop_subgraph({"d"})] \
            == [("c", "d")]

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5),
                              st.integers(0, 30)), max_size=60),
           st.sets(st.integers(0, 30), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_one_hop_equals_brute_force(self, raw, raw_keys):
        g = KnowledgeGraph()
        for s, r, o in raw:
            g.insert_triple(make_triple(f"e{s}", f"r{r}", f"e{o}"))
        keys = {f"e{k}" for k in raw_keys}
        assert g.one_hop_subgraph(keys) == brute_force_one_hop(g, keys)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 3),
                              st.integers(0, 20)), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_insert_idempotent_and_index_consistent(self, raw):
        g = KnowledgeGraph()
        for s, r, o in raw:
            t = make_triple(f"e{s}", f"r{r}", f"e{o}")
            g.insert_triple(t)
            size = len(g)
            assert not g.insert_triple(t)
            assert len(g) == size
        # Rebuilt-from-scratch index equals the incrementally maintained one.
        rebuilt = KnowledgeGraph()
        for t in g.triples:
            rebuilt.insert_triple(t)
        assert rebuilt._entity_index == g._entity_index
        for key in g._entity_index:
            assert any(key in (t.subject.key, t.object.key)
                       for t in g.one_hop_subgraph({key}))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        g = KnowledgeGraph()
        g.add("Eisenhower", "superior of", "Anderson", "doc-1")
        g.add("Anderson", "fought in", "Tunisia", "doc-1")
        g.add("The Landing", "occurred in", "November 1942", "doc-2")
        path = tmp_path / "kg.jsonl"
        g.save(str(path))
        loaded = KnowledgeGraph.load(str(path))
        assert loaded.triples == g.triples

    def test_round_trip_random(self, tmp_path):
        rng = random.Random(7)
        g = KnowledgeGraph()
        for i in range(500):
            g.add(f"e{rng.randrange(200)}", f"rel {rng.randrange(20)}",
                  f"e{rng.randrange(200)}", source_id=f"src{i % 13}")
        path = tmp_path / "kg.jsonl"
        g.save(str(path))
        assert KnowledgeGraph.load(str(path)).triples == g.triples

    def test_load_empty_file(self, tmp_path):
        path = tmp_path / "kg.jsonl"
        path.write_text("")
        assert len(KnowledgeGraph.load(str(path))) == 0

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "kg.jsonl"
        path.write_text('# header\n{"subject": "a", "relation": "r", '
                        '"object": "b", "source_id": "", "seq": 0}\n')
        assert len(KnowledgeGraph.load(str(path))) == 1

    def test_truncated_record_reports_line(self, tmp_path):
        path = tmp_path / "kg.jsonl"
        path.write_text('{"subject": "a", "relation": "r", "object": "b", '
                        '"source_id": "", "seq": 0}\n{"subject": "a"\n')
        with pytest.raises(FormatError) as err:
            KnowledgeGraph.load(str(path))
        assert err.value.line == 2

    @pytest.mark.parametrize("field,value", [
        ("subject", 5), ("relation", None), ("object", ["b"]),
        ("source_id", 7), ("seq", "first"), ("seq", 1.5), ("seq", True),
        ("seq", "7")])
    def test_ill_typed_field_reports_line(self, tmp_path, field, value):
        good = {"subject": "a", "relation": "r", "object": "b",
                "source_id": "", "seq": 0}
        path = tmp_path / "kg.jsonl"
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps({**good, field: value}) + "\n")
        with pytest.raises(FormatError) as err:
            KnowledgeGraph.load(str(path))
        assert err.value.line == 2

    @pytest.mark.parametrize("field", ["subject", "relation", "object"])
    def test_blank_field_on_canonical_line_reports_line(self, tmp_path, field):
        good = {"subject": "a", "relation": "r", "object": "b",
                "source_id": "", "seq": 0}
        lines = [json.dumps(record, ensure_ascii=False, sort_keys=True)
                 for record in (good, {**good, field: " ", "seq": 1})]
        assert kg_store._CANONICAL_LINE.fullmatch(lines[1])
        path = tmp_path / "kg.jsonl"
        path.write_text("# header\n" + "\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="bad record") as err:
            KnowledgeGraph.load(str(path))
        assert err.value.line == 3

    def test_missing_file_is_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            KnowledgeGraph.load(str(tmp_path / "absent.jsonl"))


# Names with case and spacing variants of one key, so identities repeat.
load_names = st.one_of(
    st.sampled_from(["Obama", "obama", " Obama", "Köln", 'Zoë "Q"', "a\\b",
                     "x\u2028y", "tab\there", "\x7f"]),
    awkward_text).filter(normalize_entity)
load_relations = st.one_of(st.sampled_from(["met", "Met", "said\\wrote"]),
                           awkward_text).filter(str.strip)
load_seqs = st.one_of(st.just(0), st.integers(-5, 5),
                      st.integers(-2**70, 2**70))
line_styles = st.sampled_from(["save", "ascii", "reordered", "spaced",
                               "padded", "no_source_id"])
# What may precede a line: mostly nothing, else a comment or a blank line.
line_extras = st.sampled_from(["", "", "", "# note", "   "])


def write_record(record, style):
    """``record`` as one line, as ``save`` writes it or in another form."""
    if style == "save":
        return json.dumps(record, ensure_ascii=False, sort_keys=True)
    if style == "ascii":
        return json.dumps(record, sort_keys=True)
    if style == "reordered":
        return json.dumps(dict(sorted(record.items(), reverse=True)),
                          ensure_ascii=False)
    if style == "spaced":
        return json.dumps(record, ensure_ascii=False, sort_keys=True,
                          separators=(" ,  ", " : "))
    if style == "padded":
        return " \t" + json.dumps(record, ensure_ascii=False,
                                   sort_keys=True) + "  "
    assert style == "no_source_id"
    return json.dumps({k: v for k, v in record.items() if k != "source_id"},
                      ensure_ascii=False, sort_keys=True)


def graph_file_bytes(rows):
    """A triple file of ``(subject, relation, object, source_id, seq, style,
    extra)`` rows, each line in its ``write_record`` style after its
    ``extra`` line, if any."""
    lines = []
    for subject, relation, obj, source_id, seq, style, extra in rows:
        if extra:
            lines.append(extra)
        lines.append(write_record(
            {"subject": subject, "relation": relation, "object": obj,
             "source_id": source_id, "seq": seq}, style))
    return "".join(line + "\n" for line in lines).encode("utf-8")


class TestLoadFastPath:
    """``load`` takes canonical lines from a pattern match, others by JSON."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        load_names, load_relations, load_names, awkward_text, load_seqs,
        line_styles, line_extras), max_size=25),
        st.integers(min_value=1, max_value=4))
    def test_equals_json_only_load(self, tmp_path_factory, rows, chunk):
        path = tmp_path_factory.mktemp("load") / "kg.jsonl"
        path.write_bytes(graph_file_bytes(rows))
        with mock.patch.object(kg_store, "_LINE_CHUNK", chunk):
            loaded = KnowledgeGraph.load(str(path))
        expected = json_only_load(str(path))
        assert loaded.triples == expected.triples
        assert [type(t.seq) for t in loaded.triples] == \
            [int] * len(expected.triples)
        assert loaded._hashed == len(loaded.triples)
        assert loaded.content_digest() == reference_digest(expected)
        assert loaded._entity_index == expected._entity_index

    @settings(max_examples=200, deadline=None)
    @given(awkward_text, awkward_text, awkward_text, awkward_text,
           st.integers(min_value=-2**70, max_value=2**70))
    def test_pattern_matches_exactly_the_unescaped_lines(
            self, subject, relation, obj, source, seq):
        triple = Triple(Entity(subject), relation, Entity(obj), source, seq)
        match = kg_store._CANONICAL_LINE.fullmatch(triple.canonical_line())
        plain = all(map(needs_no_escape, (subject, relation, obj, source)))
        assert bool(match) == plain
        if match:
            assert match.groups() == (obj, relation, str(seq), source,
                                      subject)

    def test_negative_zero_seq_takes_json_path(self, tmp_path):
        line = ('{"object": "b", "relation": "r", "seq": -0, '
                '"source_id": "", "subject": "a"}')
        assert not kg_store._CANONICAL_LINE.fullmatch(line)
        path = tmp_path / "kg.jsonl"
        path.write_text(line + "\n")
        loaded = KnowledgeGraph.load(str(path))
        assert loaded.triples == [make_triple("a", "r", "b", seq=0)]
        assert loaded.content_digest() == reference_digest(loaded)


class TestInterning:
    """One ``Entity`` per surface string, never one per normalized key."""

    ROWS = [("Obama", "met", "Merkel"), ("Merkel", "met", "obama"),
            ("obama", "visited", "Berlin"), ("Obama", "toured", "Berlin "),
            ("Berlin", "is in", "Germany")]

    def _added(self):
        g = KnowledgeGraph()
        for i, (s, r, o) in enumerate(self.ROWS):
            assert g.add(s, r, o, source_id=f"doc-{i % 2}")
        return g

    def _loaded(self, tmp_path, graph):
        path = tmp_path / "kg.jsonl"
        graph.save(str(path))
        return KnowledgeGraph.load(str(path))

    @staticmethod
    def _by_surface(graph):
        """Every Entity object of the graph's triples, grouped by surface."""
        seen: dict[str, set[int]] = {}
        objects = {}
        for t in graph.triples:
            for e in (t.subject, t.object):
                seen.setdefault(e.surface, set()).add(id(e))
                objects[e.surface] = e
        return seen, objects

    def test_shared_surface_is_one_entity(self, tmp_path):
        added = self._added()
        for graph in (added, self._loaded(tmp_path, added)):
            seen, objects = self._by_surface(graph)
            assert all(len(ids) == 1 for ids in seen.values()), seen
            t = graph.triples
            assert t[0].subject is t[3].subject       # "Obama"
            assert t[0].object is t[1].subject        # "Merkel"

    def test_case_variants_stay_distinct_with_one_key(self, tmp_path):
        added = self._added()
        for graph in (added, self._loaded(tmp_path, added)):
            _, objects = self._by_surface(graph)
            upper, lower = objects["Obama"], objects["obama"]
            assert upper is not lower and upper != lower
            assert upper.key == lower.key == "obama"
            assert objects["Berlin"] is not objects["Berlin "]
            hop = graph.one_hop_subgraph({"obama"})
            assert [t.subject.surface for t in hop] == \
                ["Obama", "Merkel", "obama", "Obama"]

    def test_save_load_save_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._added().save(str(first))
        KnowledgeGraph.load(str(first)).save(str(second))
        assert first.read_bytes() == second.read_bytes()
        assert b'"subject": "obama"' in first.read_bytes()

    def test_loaded_digest_equals_added_digest(self, tmp_path):
        added = self._added()
        loaded = self._loaded(tmp_path, added)
        assert loaded.triples == added.triples
        assert loaded.content_digest() == added.content_digest() \
            == reference_digest(added)

    def test_new_surface_in_a_copy_leaves_the_original(self):
        g = self._added()
        digest, triples = g.content_digest(), list(g.triples)
        index = {k: set(v) for k, v in g._entity_index.items()}
        snap = g.copy()
        assert snap.add("Biden", "met", "OBAMA")
        assert snap.add("obama", "met", "Biden")
        assert g.triples == triples and len(g) == len(self.ROWS)
        assert g._entity_index == index
        assert g.match_entities({"biden"}) == set()
        assert g.content_digest() == digest == reference_digest(g)
        # The original makes its own Entity for a surface first seen in the copy.
        assert g.add("Biden", "met", "Merkel")
        assert g.triples[-1].subject is not snap.triples[-2].subject
        assert snap.content_digest() == reference_digest(snap)



class TestCopyOnWrite:
    """A copy shares the entity index until a key is written on either side."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["add", "add", "add", "copy"]),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["a", "A", "b", "c ", "d"]),
        st.sampled_from(["r", "s"]),
        st.sampled_from(["a", "b", "B", "e"])), max_size=40))
    def test_each_graph_equals_its_rebuild(self, ops):
        graphs, expected = [KnowledgeGraph()], [[]]
        for op, which, subject, relation, obj in ops:
            i = which % len(graphs)
            if op == "copy":
                graphs.append(graphs[i].copy())
                expected.append(list(expected[i]))
            elif graphs[i].add(subject, relation, obj):
                expected[i].append(graphs[i].triples[-1])
        # Each graph, the base included, equals a rebuild from its own
        # triples: no write to another graph reached it.
        keys = {normalize_entity(name) for name in "abcde"}
        for graph, triples in zip(graphs, expected):
            assert graph.triples == triples
            rebuilt = KnowledgeGraph()
            for t in triples:
                assert rebuilt.insert_triple(t)
            assert graph._entity_index == rebuilt._entity_index
            assert graph.longest_key == rebuilt.longest_key
            for key in keys:
                assert graph.one_hop_subgraph({key}) == \
                    rebuilt.one_hop_subgraph({key})
            assert graph.content_digest() == rebuilt.content_digest() \
                == reference_digest(graph)
            # A set a graph owns is held by no other graph.
            for key in graph._owned:
                assert not any(other._entity_index.get(key)
                               is graph._entity_index[key]
                               for other in graphs if other is not graph)


def test_copy_is_independent():
    g = KnowledgeGraph()
    g.add("a", "r", "b")
    snap = g.copy()
    g.add("c", "r", "d")
    assert len(snap) == 1
    assert len(g) == 2
    assert snap.match_entities({"c"}) == set()


def test_longest_key_is_kept_per_copy(tmp_path):
    g = KnowledgeGraph()
    assert g.longest_key == 0
    g.add("a", "r", "B  b")
    snap = g.copy()
    g.add("Cc  cc", "r", "d")
    snap.add("ee", "r", "a")
    assert (g.longest_key, snap.longest_key) == (5, 3)
    path = tmp_path / "g.jsonl"
    g.save(str(path))
    assert KnowledgeGraph.load(str(path)).longest_key == 5


class TestCanonicalLine:
    @settings(max_examples=200, deadline=None)
    @given(awkward_text, awkward_text, awkward_text, awkward_text,
           st.integers(min_value=-2**70, max_value=2**70))
    def test_equals_sorted_json_dumps(self, subject, relation, obj, source,
                                      seq):
        triple = Triple(Entity(subject), relation, Entity(obj), source, seq)
        assert triple.canonical_line() == reference_line(triple)


class TestContentDigest:
    def test_empty_graph(self):
        assert KnowledgeGraph().content_digest() == hashlib.sha256(b"").hexdigest()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["add", "copy", "digest"]),
                              st.integers(min_value=0, max_value=7),
                              awkward_text, awkward_text),
                    max_size=40),
           st.integers(min_value=1, max_value=5))
    def test_running_digest_equals_from_scratch(self, ops, chunk):
        # A small chunk makes short graphs cross chunk boundaries.
        with mock.patch.object(kg_store, "_LINE_CHUNK", chunk):
            graphs = [KnowledgeGraph()]
            for op, which, a, b in ops:
                graph = graphs[which % len(graphs)]
                if op == "add":
                    try:
                        graph.add(a, "rel " + b, b + "x", source_id=a)
                    except ValidationError:
                        pass
                elif op == "copy":
                    graphs.append(graph.copy())
                else:
                    assert graph.content_digest() == reference_digest(graph)
            for graph in graphs:
                assert graph.content_digest() == reference_digest(graph)

    def test_appends_to_a_copy_leave_the_original_digest(self):
        g = KnowledgeGraph()
        for i in range(10):
            g.add(f"e{i}", "r", f"e{i + 1}")
        before = g.content_digest()
        snap = g.copy()
        snap.add("new", "r", "triple")
        assert snap.content_digest() != before
        assert g.content_digest() == before == reference_digest(g)
        g.add("other", "r", "triple")
        assert snap.content_digest() == reference_digest(snap)
        assert g.content_digest() == reference_digest(g)

    def test_crosses_default_chunk_boundaries(self):
        g = KnowledgeGraph()
        checkpoints = {0, 1, 4095, 4096, 4097, 8193, 9000}
        for i in range(9001):
            if i in checkpoints:
                assert g.content_digest() == reference_digest(g)
            g.add(f"s{i}", "r", f"o{i}")
        assert g.content_digest() == reference_digest(g)

    def test_lines_take_a_slice(self):
        g = KnowledgeGraph()
        for i in range(5):
            g.add(f"e{i}", "r", f"e{i + 1}")
        assert g.content_digest_lines(1, 3) == \
            [reference_line(t) for t in g.triples[1:3]]
        assert g.content_digest_lines() == [reference_line(t) for t in g.triples]


class TestSave:
    def _graph(self):
        g = KnowledgeGraph()
        g.add("Zoë \"Q\"", "said\\wrote\u2028", "東京", "doc\x01")
        g.add("a", "r", "b")
        return g

    def test_bytes_equal_per_line_json_dumps(self, tmp_path):
        g = self._graph()
        path = tmp_path / "kg.jsonl"
        g.save(str(path))
        expected = "".join(reference_line(t) + "\n" for t in g.triples)
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_chunked_write_keeps_every_line(self, tmp_path, monkeypatch,
                                            chunk):
        monkeypatch.setattr(kg_store, "_LINE_CHUNK", chunk)
        g = self._graph()
        g.add("c", "r", "d")
        path = tmp_path / "kg.jsonl"
        g.save(str(path))
        expected = "".join(reference_line(t) + "\n" for t in g.triples)
        assert path.read_bytes() == expected.encode("utf-8")

    def _fail_on_second_line(self, monkeypatch):
        real = Triple.canonical_line
        calls = []

        def flaky(self):
            calls.append(self)
            if len(calls) == 2:
                raise OSError("disk went away")
            return real(self)

        monkeypatch.setattr(Triple, "canonical_line", flaky)

    def test_failure_mid_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "kg.jsonl"
        old = KnowledgeGraph()
        old.add("old", "r", "graph")
        old.save(str(path))
        before = path.read_bytes()
        self._fail_on_second_line(monkeypatch)
        with pytest.raises(OSError, match="disk went away"):
            self._graph().save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["kg.jsonl"]

    def test_failure_mid_write_creates_nothing(self, tmp_path, monkeypatch):
        self._fail_on_second_line(monkeypatch)
        with pytest.raises(OSError):
            self._graph().save(str(tmp_path / "kg.jsonl"))
        assert os.listdir(tmp_path) == []

    def test_save_over_own_input(self, tmp_path):
        path = tmp_path / "kg.jsonl"
        self._graph().save(str(path))
        g = KnowledgeGraph.load(str(path))
        g.add("c", "r", "d")
        g.save(str(path))
        assert KnowledgeGraph.load(str(path)).triples == g.triples
        assert os.listdir(tmp_path) == ["kg.jsonl"]

    # -- a loaded graph saves by copying its source file ----------------------

    @staticmethod
    def _source(tmp_path, graph=None):
        """A file of canonical lines, as ``save`` writes them."""
        if graph is None:
            graph = KnowledgeGraph()
            for i in range(6):
                graph.add(f"e{i}", "r", f"e{i + 1}", "doc")
        path = tmp_path / "kg.jsonl"
        graph.save(str(path))
        return path

    @staticmethod
    def _grow(graph):
        graph.add("Zoë \"Q\"", "quoted\\in\t", "東京", "doc\x01")
        graph.add("new", "r", "e0")

    @staticmethod
    def _count_lines(monkeypatch):
        """The triples whose ``canonical_line`` runs from now on."""
        real = Triple.canonical_line
        calls = []

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(Triple, "canonical_line", counted)
        return calls

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        load_names, load_relations, load_names, awkward_text, load_seqs,
        line_styles, line_extras), max_size=12),
        st.booleans(),
        st.lists(st.tuples(load_names, load_relations, load_names,
                           awkward_text), max_size=6),
        st.integers(min_value=1, max_value=64))
    def test_loaded_and_grown_saves_the_reference_bytes(
            self, tmp_path_factory, rows, canonical, added, chunk):
        if canonical:
            rows = [row[:5] + ("save", "") for row in rows]
        directory = tmp_path_factory.mktemp("save")
        source = directory / "kg.jsonl"
        source.write_bytes(graph_file_bytes(rows))
        g = KnowledgeGraph.load(str(source))
        for subject, relation, obj, source_id in added:
            g.add(subject, relation, obj, source_id)
        out = directory / "out.jsonl"
        with mock.patch.object(kg_store, "_COPY_CHUNK", chunk):
            g.save(str(out))
        assert out.read_bytes() == reference_bytes(g)

    @pytest.mark.parametrize("escaped", [False, True],
                             ids=["plain", "escaped"])
    def test_loaded_graph_serializes_only_its_growth(
            self, tmp_path, monkeypatch, escaped):
        # Escaped strings take load's JSON path, but their lines are
        # canonical, so the file is still copied.
        source = self._source(tmp_path, self._graph() if escaped else None)
        monkeypatch.setattr(kg_store, "_COPY_CHUNK", 16)
        g = KnowledgeGraph.load(str(source)).copy()
        self._grow(g)
        calls = self._count_lines(monkeypatch)
        out = tmp_path / "out.jsonl"
        g.save(str(out))
        assert calls == g.triples[-2:]
        assert out.read_bytes() == reference_bytes(g)

    def test_save_onto_the_source_copies_it(self, tmp_path, monkeypatch):
        source = self._source(tmp_path)
        g = KnowledgeGraph.load(str(source))
        self._grow(g)
        calls = self._count_lines(monkeypatch)
        g.save(str(source))
        assert calls == g.triples[-2:]
        assert source.read_bytes() == reference_bytes(g)
        assert os.listdir(tmp_path) == ["kg.jsonl"]

    @pytest.mark.parametrize("mangle", [
        lambda text: "# header\n" + text,
        lambda text: text.replace("\n", "\n\n", 1),
        lambda text: text.replace("\n", "\r\n"),
        lambda text: " " + text,
        lambda text: text + text.splitlines(keepends=True)[2],
        lambda text: text[:-1],
    ], ids=["comment", "blank", "crlf", "padded", "duplicate",
            "no-final-newline"])
    def test_source_not_in_canonical_form_is_reserialized(
            self, tmp_path, monkeypatch, mangle):
        source = self._source(tmp_path)
        source.write_text(mangle(source.read_text()), newline="")
        g = KnowledgeGraph.load(str(source))
        self._grow(g)
        calls = self._count_lines(monkeypatch)
        out = tmp_path / "out.jsonl"
        g.save(str(out))
        assert len(calls) == len(g.triples) == 8
        assert out.read_bytes() == reference_bytes(g)

    @pytest.mark.parametrize("mangle", [
        lambda text: "# header\n" + text,
        lambda text: text.replace("\n", "\n\n", 1),
        lambda text: text.replace("\n", "\r\n"),
        lambda text: " " + text,
        lambda text: text[:-1],
    ], ids=["comment", "blank", "crlf", "padded", "no-final-newline"])
    def test_failed_copy_is_not_tried_again(self, tmp_path, monkeypatch,
                                            mangle):
        source = self._source(tmp_path)
        source.write_text(mangle(source.read_text()), newline="")
        g = KnowledgeGraph.load(str(source))
        opened = []

        def spied_open(path, *args, **kwargs):
            opened.append(os.path.abspath(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(kg_store, "open", spied_open, raising=False)
        g.save(str(tmp_path / "first.jsonl"))
        assert opened == [str(source)]
        del opened[:]
        self._grow(g)
        for graph in (g, g.copy()):
            out = tmp_path / "again.jsonl"
            graph.save(str(out))
            assert out.read_bytes() == reference_bytes(graph)
        assert opened == []

    def test_source_edited_after_load_is_reserialized(self, tmp_path,
                                                      monkeypatch):
        source = self._source(tmp_path)
        g = KnowledgeGraph.load(str(source))
        data = source.read_bytes()
        assert data.count(b'"e3"') == 2
        # Same length, one byte changed.
        source.write_bytes(data.replace(b'"e3"', b'"e9"', 1))
        self._grow(g)
        calls = self._count_lines(monkeypatch)
        out = tmp_path / "out.jsonl"
        g.save(str(out))
        assert len(calls) == len(g.triples)
        assert out.read_bytes() == reference_bytes(g)

    def test_source_deleted_after_load_is_reserialized(self, tmp_path):
        source = self._source(tmp_path)
        g = KnowledgeGraph.load(str(source))
        source.unlink()
        self._grow(g)
        out = tmp_path / "out.jsonl"
        g.save(str(out))
        assert out.read_bytes() == reference_bytes(g)
        assert os.listdir(tmp_path) == ["out.jsonl"]

    @staticmethod
    def _flaky_opens(monkeypatch, module, modes, fail_at):
        """Make ``module``'s ``open`` in any of ``modes`` return a file whose
        ``fail_at``-th read or write raises OSError; returns those files."""
        opened = []

        def flaky_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            if mode not in modes:
                return fh
            opened.append(FlakyFile(fh, fail_at))
            return opened[-1]

        monkeypatch.setattr(module, "open", flaky_open, raising=False)
        return opened

    @pytest.mark.parametrize("onto_source", [False, True],
                             ids=["new-path", "source-path"])
    def test_write_failure_mid_copy_keeps_old_target(
            self, tmp_path, monkeypatch, onto_source):
        source = self._source(tmp_path)
        target = source if onto_source else tmp_path / "out.jsonl"
        if not onto_source:
            target.write_text("old\n")
        before, names = target.read_bytes(), sorted(os.listdir(tmp_path))
        g = KnowledgeGraph.load(str(source))
        self._grow(g)
        monkeypatch.setattr(kg_store, "_COPY_CHUNK", 16)
        writes = self._flaky_opens(monkeypatch, jsonl, ("xb",), fail_at=3)
        reads = self._flaky_opens(monkeypatch, kg_store, ("rb",), fail_at=0)
        with pytest.raises(OSError, match="injected") as raised:
            g.save(str(target))
        # Both files are closed by the time save raises, though the
        # traceback still holds save's frame.
        assert raised.tb is not None
        assert all(f.fh.closed for f in writes + reads)
        assert [f.calls for f in writes] == [3] and reads[0].calls >= 3
        assert target.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == names

    def test_read_failure_mid_copy_falls_back(self, tmp_path, monkeypatch):
        source = self._source(tmp_path)
        g = KnowledgeGraph.load(str(source))
        self._grow(g)
        monkeypatch.setattr(kg_store, "_COPY_CHUNK", 16)
        reads = self._flaky_opens(monkeypatch, kg_store, ("rb",), fail_at=3)
        out = tmp_path / "out.jsonl"
        g.save(str(out))
        assert out.read_bytes() == reference_bytes(g)
        assert sorted(os.listdir(tmp_path)) == ["kg.jsonl", "out.jsonl"]
        assert [f.calls for f in reads] == [3] and reads[0].fh.closed


class FlakyFile:
    """A file whose ``fail_at``-th read or write raises OSError; 0 never."""

    def __init__(self, fh, fail_at):
        self.fh, self.fail_at, self.calls = fh, fail_at, 0

    def _tick(self):
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError("injected failure")

    def read(self, size):
        self._tick()
        return self.fh.read(size)

    def write(self, data):
        self._tick()
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
