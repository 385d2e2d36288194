import json

import pytest
from synth import save_dataset

from verity.dataset import NewsItem, load_dataset, parse_label, split_subsets
from verity.errors import FormatError, ValidationError
from verity.verdict import Verdict


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


class TestLabels:
    @pytest.mark.parametrize("token,expected", [
        ("SUPPORTED", Verdict.REAL), ("supports", Verdict.REAL),
        ("true", Verdict.REAL), ("real", Verdict.REAL),
        ("REFUTED", Verdict.FAKE), ("refutes", Verdict.FAKE),
        ("false", Verdict.FAKE), ("fake", Verdict.FAKE),
        ("NOT_SUPPORTED", Verdict.FAKE),
    ])
    def test_mapping(self, token, expected):
        assert parse_label(token) is expected

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            parse_label("maybe")


class TestLoadDataset:
    def test_native_round_trip(self, tmp_path):
        items = [
            NewsItem("a", "Claim one.", Verdict.REAL, ["ev one"], "g1"),
            NewsItem("b", "Claim two.", Verdict.FAKE),
            NewsItem("c", "Claim three."),
        ]
        path = tmp_path / "data.jsonl"
        save_dataset(items, str(path))
        report = load_dataset(str(path))
        assert report.items == items
        assert report.dropped == 0

    def test_label_mapping_applied(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "x", "claim": "c", "label": "SUPPORTED"}])
        assert load_dataset(str(path)).items[0].gold is Verdict.REAL

    def test_feverous_cell_evidence_dropped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": "keep", "claim": "c1", "label": "SUPPORTS",
             "evidence": [{"type": "sentence", "text": "s"}]},
            {"id": "drop", "claim": "c2", "label": "REFUTES",
             "evidence": [{"type": "cell", "text": "cell_0_1"}]},
        ])
        report = load_dataset(str(path))
        assert [i.id for i in report.items] == ["keep"]
        assert report.dropped == 1

    def test_typed_non_sentence_evidence_dropped_in_any_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": "strings", "claim": "c1", "evidence": ["s1", "s2"]},
            {"id": "untyped", "claim": "c2", "evidence": [{"text": "s3"}]},
            {"id": "table", "claim": "c3", "evidence": ["s4", {"type": "table"}]},
        ])
        report = load_dataset(str(path))
        assert [(i.id, i.evidence) for i in report.items] == \
            [("strings", ["s1", "s2"]), ("untyped", ["s3"])]
        assert report.dropped == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        report = load_dataset(str(path))
        assert report.items == [] and report.dropped == 0

    def test_unknown_label_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "a", "claim": "c", "label": "real"},
                           {"id": "b", "claim": "c", "label": "sideways"}])
        with pytest.raises(FormatError) as err:
            load_dataset(str(path))
        assert err.value.line == 2

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "claim": "c"}\n{broken\n')
        with pytest.raises(FormatError) as err:
            load_dataset(str(path))
        assert err.value.line == 2

    def test_evidence_not_a_list_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "a", "claim": "c"},
                           {"id": "b", "claim": "c", "evidence": 5}])
        with pytest.raises(FormatError) as err:
            load_dataset(str(path))
        assert err.value.line == 2

    @pytest.mark.parametrize("evidence, words", [
        ("Anderson fought in Tunisia.", "evidence must be a list"),
        ({"Anderson fought in Tunisia.": 1}, "evidence must be a list"),
        ([{"text": 5}], "text must be a string"),
        ([{"type": "sentence", "text": None}], "text must be a string"),
        (["s1", {"text": ["s2"]}], "text must be a string"),
        ([5], "entries must be strings or objects"),
        ([["s"]], "entries must be strings or objects"),
        (["s1", None], "entries must be strings or objects"),
        ([{"type": "table"}, 5], "entries must be strings or objects"),
    ], ids=["string", "dict", "int-text", "null-text", "list-text",
            "int-entry", "list-entry", "null-entry", "entry-after-table"])
    def test_ill_typed_evidence_reports_line(self, tmp_path, evidence, words):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "a", "claim": "c"},
                           {"id": "b", "claim": "c", "evidence": evidence}])
        with pytest.raises(FormatError, match=words) as err:
            load_dataset(str(path))
        assert err.value.line == 2

    @pytest.mark.parametrize("label", [True, False, 1, ["real"]],
                             ids=["true", "false", "int", "list"])
    def test_ill_typed_label_reports_line(self, tmp_path, label):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "a", "claim": "c", "label": "real"},
                           {"id": "b", "claim": "c", "label": label}])
        with pytest.raises(FormatError, match="label must be a string") as err:
            load_dataset(str(path))
        assert err.value.line == 2

    def test_missing_or_null_evidence_is_none(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "a", "claim": "c"},
                           {"id": "b", "claim": "c", "evidence": None},
                           {"id": "c", "claim": "c", "evidence": []}])
        report = load_dataset(str(path))
        assert [i.evidence for i in report.items] == [[], [], []]
        assert report.dropped == 0

    def test_missing_claim_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "a"}])
        with pytest.raises(FormatError):
            load_dataset(str(path))


class TestSplitSubsets:
    def _items(self, n, group=None):
        return [NewsItem(f"i{j}", f"claim {j}",
                         evidence=[f"evidence {j}"],
                         group=group(j) if group else None)
                for j in range(n)]

    def test_equal_split(self):
        split = split_subsets(self._items(9), 3, seed=1)
        assert sorted(len(s) for s in split.subsets) == [3, 3, 3]

    def test_remainder_rule(self):
        split = split_subsets(self._items(10), 3, seed=1)
        assert sorted((len(s) for s in split.subsets), reverse=True) == [4, 3, 3]

    def test_deterministic(self):
        items = self._items(20)
        a = split_subsets(list(items), 3, seed=7)
        b = split_subsets(list(items), 3, seed=7)
        assert [[i.id for i in s] for s in a.subsets] == \
            [[i.id for i in s] for s in b.subsets]

    def test_partition_property(self):
        for seed in range(5):
            items = self._items(23)
            split = split_subsets(items, 4, seed=seed)
            ids = [i.id for s in split.subsets for i in s]
            assert sorted(ids) == sorted(i.id for i in items)
            assert len(set(ids)) == len(ids)

    def test_groups_stay_together(self):
        items = self._items(12, group=lambda j: f"g{j % 4}")
        split = split_subsets(items, 3, seed=0)
        for subset in split.subsets:
            groups_here = {i.group for i in subset}
            for other in split.subsets:
                if other is not subset:
                    assert groups_here.isdisjoint({i.group for i in other})

    def test_group_name_never_joins_an_ungrouped_id(self):
        # A group named like an id, and ungrouped items, are still apart.
        items = [NewsItem("a", "claim a", group="~5"), NewsItem("5", "claim 5"),
                 NewsItem("b", "claim b", group="5")]
        split = split_subsets(items, 3, seed=0)
        assert sorted(len(s) for s in split.subsets) == [1, 1, 1]

    def test_subset_tags_and_corpora(self):
        split = split_subsets(self._items(6), 2, seed=0)
        for subset, corpus in zip(split.subsets, split.corpora):
            assert [(d.id, d.body) for d in corpus] == \
                [(f"{i.id}-evidence", "\n".join(i.evidence)) for i in subset]
        assert sum(len(c) for c in split.corpora) == 6
        assert all(d.trusted for c in split.corpora for d in c)

    def test_too_many_subsets_rejected(self):
        with pytest.raises(ValidationError):
            split_subsets(self._items(2), 3)
