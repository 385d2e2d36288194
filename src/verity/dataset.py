"""Claim dataset loading, label normalization, and sequential-subset splits.

One JSON object per line with fields id (a string or an integer; the line
number names an item without one), claim, label (optional string),
evidence (optional list; missing or null means none) and group (optional).
Labels may use any of the native, HoVer or FEVEROUS tokens. An evidence
entry is a sentence text or an object; an item whose evidence holds an
object typed other than ``"sentence"`` (a FEVEROUS table or cell) is
dropped, with the drop count reported; any other object's ``text``, if
given, must be a string.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import FormatError, ValidationError
from .jsonl import read_records
from .kg_builder import SourceDocument
from .verdict import Verdict

_REAL_TOKENS = {"real", "true", "supported", "supports"}
_FAKE_TOKENS = {"fake", "false", "refuted", "refutes", "not_supported",
                "not supported"}


def parse_label(token: str) -> Verdict:
    norm = token.strip().lower()
    if norm in _REAL_TOKENS:
        return Verdict.REAL
    if norm in _FAKE_TOKENS:
        return Verdict.FAKE
    raise ValueError(f"unknown label token: {token!r}")


@dataclass
class NewsItem:
    id: str
    claim: str
    gold: Optional[Verdict] = None
    evidence: list[str] = field(default_factory=list)
    group: Optional[str] = None


@dataclass
class LoadReport:
    items: list[NewsItem]
    dropped: int = 0


@dataclass
class DatasetSplit:
    subsets: list[list[NewsItem]]
    corpora: list[list[SourceDocument]]


def _sentence_evidence(raw_evidence) -> tuple[list[str], bool]:
    """Normalize one record's evidence; False means non-sentence evidence.

    Raises ``TypeError`` if the evidence is not a list, an entry is neither
    a string nor an object, or a sentence object's ``text`` is not a string.
    """
    if raw_evidence is None:
        return [], True
    if not isinstance(raw_evidence, list):
        raise TypeError("evidence must be a list")
    sentences: list[str] = []
    sentence_only = True
    for item in raw_evidence:
        if isinstance(item, str):
            sentences.append(item)
        elif not isinstance(item, dict):
            raise TypeError("evidence entries must be strings or objects")
        elif item.get("type", "sentence") != "sentence":
            sentence_only = False
        else:
            text = item.get("text", "")
            if not isinstance(text, str):
                raise TypeError("evidence text must be a string")
            if text:
                sentences.append(text)
    return (sentences, True) if sentence_only else ([], False)


def load_dataset(path: str) -> LoadReport:
    items: list[NewsItem] = []
    dropped = 0
    for lineno, record in read_records(path):
        claim = record.get("claim", "")
        if not isinstance(claim, str) or not claim.strip():
            raise FormatError(path, lineno, "missing or empty claim")
        item_id = record.get("id", f"item-{lineno}")
        if type(item_id) not in (str, int):
            raise FormatError(path, lineno, "id must be a string or an integer")
        group = record.get("group")
        if group is not None and not isinstance(group, str):
            raise FormatError(path, lineno, "group must be a string")
        label = record.get("label")
        if label is not None and not isinstance(label, str):
            raise FormatError(path, lineno, "label must be a string")
        try:
            gold = parse_label(label) if label is not None else None
            evidence, ok = _sentence_evidence(record.get("evidence"))
        except (TypeError, ValueError) as exc:
            raise FormatError(path, lineno, str(exc)) from exc
        if not ok:
            dropped += 1
            continue
        items.append(NewsItem(
            id=str(item_id),
            claim=claim,
            gold=gold,
            evidence=evidence,
            group=group,
        ))
    return LoadReport(items, dropped)


def split_subsets(items: list[NewsItem], k: int, seed: int = 0) -> DatasetSplit:
    """Seeded split into k near-equal subsets.

    Items sharing a group key stay together; groups are shuffled and then
    assigned greedily to the currently smallest subset (ties to the lowest
    index), which gives near-equal sizes when groups are singletons.
    """
    if k < 1:
        raise ValidationError("subset count must be >= 1")
    if k > len(items):
        raise ValidationError(f"cannot split {len(items)} items into {k} subsets")
    # An ungrouped item is a group of its own, keyed apart from every
    # group name, whatever the names and ids.
    groups: dict[tuple[bool, str], list[NewsItem]] = {}
    for item in items:
        key = (True, item.group) if item.group is not None \
            else (False, item.id)
        groups.setdefault(key, []).append(item)
    keys = list(groups)
    random.Random(seed).shuffle(keys)
    subsets: list[list[NewsItem]] = [[] for _ in range(k)]
    for key in keys:
        target = min(range(k), key=lambda i: (len(subsets[i]), i))
        subsets[target].extend(groups[key])
    corpora: list[list[SourceDocument]] = [[] for _ in range(k)]
    for idx, subset in enumerate(subsets):
        for item in subset:
            if item.evidence:
                corpora[idx].append(SourceDocument(
                    id=f"{item.id}-evidence",
                    body="\n".join(item.evidence),
                    trusted=True))
    return DatasetSplit(subsets, corpora)
