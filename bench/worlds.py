"""Seeded input generators for the three benchmark workloads.

Each generator writes the files the program reads (dataset JSONL, fact table
JSON and, where the workload starts from a stored graph, a KG JSONL file) and
returns what the checks need to judge the program's outputs: the gold labels,
the base graph a build must give and the hub names.

``generate`` runs the generator in a child process, so that the generator's
working set (at 100k triples, the row list and 20k filler names) never counts
toward the benchmark process's peak memory. The child writes the ground
truth to ``world.json``; the checks that need the whole triple list read it
back from the KG file with ``graph_rows`` after the last round.

    python3 bench/worlds.py <workload> <seed> <directory>

Claims follow the controlled grammar of the rule-based oracle: one statement
per sentence, "<subject> <relation> <object>.". Entity names are two
invented words, so no name contains a relation phrase or another name.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

Fact = tuple[str, str, str]

# Every name word is three two-letter syllables, so prompt sizes depend on
# the seed only through the structure of the claims, not through name length.
_SYLLABLES = ("ka", "lo", "mi", "re", "tu", "sa", "vo", "di", "ne", "qu",
              "br", "go", "ha", "ju", "pe", "zo", "wi", "fe", "ul", "ca")

# Relations the claims use. "superior of" is only ever derived by extraction.
CLAIM_RELATIONS = ("commanded", "served in", "advised", "funded", "visited",
                   "negotiated with")
DERIVED_RELATION = "superior of"
FILLER_RELATIONS = ("mentioned", "reported on", "located near", "allied with",
                    "traded with", "criticised", "praised", "hosted")

# Workload sizes: claims per dataset, linked carry-over groups, and the make-up
# of the large graph.
NUM_REAL = 50
NUM_FAKE = 50
NUM_LINKED = 34
BIG_TRIPLES = 100_000
BIG_HUBS = 40
HUB_DEGREE = 60
NUM_FILLER = 20_000


@dataclass
class World:
    """Generator output: paths of the files written plus the ground truth."""

    files: dict[str, Path]
    gold: dict[str, dict[str, str]]          # dataset name -> claim id -> label
    expected_base: set[Fact] = field(default_factory=set)
    hubs: list[str] = field(default_factory=list)
    seed: int = 0

    def save(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"files": {k: str(v) for k, v in self.files.items()},
                       "gold": self.gold,
                       "expected_base": sorted(self.expected_base),
                       "hubs": self.hubs, "seed": self.seed}, fh)

    @classmethod
    def load(cls, path: Path) -> "World":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return cls({k: Path(v) for k, v in data["files"].items()},
                   data["gold"], {tuple(f) for f in data["expected_base"]},
                   data["hubs"], data["seed"])


class _Names:
    """Unique two-word names drawn from a seeded syllable alphabet."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[str] = set()

    def word(self) -> str:
        return "".join(self.rng.choice(_SYLLABLES) for _ in range(3)).capitalize()

    def take(self) -> str:
        while True:
            name = f"{self.word()} {self.word()}"
            if name.lower() not in self.seen:
                self.seen.add(name.lower())
                return name


def norm_key(text: str) -> str:
    return " ".join(text.split()).lower()


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _write_table(path: Path, entities: list[str], facts: list[Fact],
                 extraction_facts: list[Fact] = ()) -> None:
    relations = sorted(set(CLAIM_RELATIONS) | {DERIVED_RELATION})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"entities": entities, "facts": [list(f) for f in facts],
                   "extraction_facts": [list(f) for f in extraction_facts],
                   "event_facts": [], "relations": relations}, fh)


def _kg_record(fact: Fact, source_id: str, seq: int) -> dict:
    # The field layout KnowledgeGraph.save writes.
    return {"object": fact[2], "relation": fact[1], "seq": seq,
            "source_id": source_id, "subject": fact[0]}


def tabled_claims(rng: random.Random, names: _Names,
                  subjects: list[str] | None = None):
    """Real claims state two tabled facts; fake claims state one untabled fact.

    Returns (items, facts, derived, entities), where ``derived`` holds the
    untabled "superior of" triple each Real claim lets extraction find. When
    ``subjects`` is given, claim subjects are drawn from it (the hubs of the
    large graph) and are not listed again in ``entities``.
    """
    items, facts, derived, entities = [], [], [], []
    for i in range(NUM_REAL):
        subj = subjects[i % len(subjects)] if subjects else names.take()
        aide, place = names.take(), names.take()
        r1, r2 = rng.sample(CLAIM_RELATIONS, 2)
        entities += ([] if subjects else [subj]) + [aide, place]
        facts += [(subj, r1, place), (aide, r2, place)]
        derived.append((subj, DERIVED_RELATION, aide))
        items.append({"id": f"real-{i}", "claim": f"{subj} {r1} {place}. "
                      f"{aide} {r2} {place}.", "label": "Real"})
    for i in range(NUM_FAKE):
        subj = subjects[(i * 7 + 3) % len(subjects)] if subjects else names.take()
        if not subjects:
            entities.append(subj)
        wrong = names.take()
        items.append({"id": f"fake-{i}", "claim":
                      f"{subj} {rng.choice(CLAIM_RELATIONS)} {wrong}.",
                      "label": "Fake"})
    rng.shuffle(items)
    return items, facts, derived, entities


def graph_rows(path: Path) -> list[tuple]:
    """(subject, relation, object, source_id, seq) of each line of a KG file,
    read with ``json`` alone, not with the program's loader."""
    with open(path, encoding="utf-8") as fh:
        return [(r["subject"], r["relation"], r["object"], r["source_id"],
                 r["seq"]) for r in map(json.loads, fh)]


def deep_world(seed: int, workdir: Path) -> World:
    """Tabled world; the graph file holds exactly the tabled facts."""
    rng = random.Random(seed)
    names = _Names(rng)
    items, facts, _, entities = tabled_claims(rng, names)
    files = {"dataset": workdir / "deep-claims.jsonl",
             "facts": workdir / "deep-facts.json",
             "kg": workdir / "deep-kg.jsonl"}
    _write_jsonl(files["dataset"], items)
    _write_table(files["facts"], entities, facts)
    _write_jsonl(files["kg"], [_kg_record(f, "world", seq)
                               for seq, f in enumerate(facts)])
    return World(files, {"deep": {it["id"]: it["label"] for it in items}},
                 seed=seed)


def carryover_world(seed: int, workdir: Path) -> World:
    """Two subsets; each subset-2 claim needs a triple a subset-1 update writes.

    A subset-1 claim states two tabled facts, and its evidence states only
    the first, so the base graph built from that evidence never holds the
    commander and the aide in one document. Once the claim is judged Real,
    extraction over the claim text yields the untabled "superior of" triple,
    which is exactly what the matching subset-2 claim states.
    """
    rng = random.Random(seed)
    names = _Names(rng)
    entities, facts, derived = [], [], []
    subset1, subset2 = [], []
    expected_base: set[Fact] = set()
    for i in range(NUM_LINKED):
        cmdr, aide, camp = names.take(), names.take(), names.take()
        r1, r2 = rng.sample(CLAIM_RELATIONS, 2)
        entities += [cmdr, aide, camp]
        facts += [(cmdr, r1, camp), (aide, r2, camp)]
        derived.append((cmdr, DERIVED_RELATION, aide))
        expected_base.add((norm_key(cmdr), norm_key(r1), norm_key(camp)))
        subset1.append({"id": f"s1-{i}", "claim": f"{cmdr} {r1} {camp}. "
                        f"{aide} {r2} {camp}.", "label": "Real",
                        "evidence": [f"{cmdr} {r1} {camp}."]})
        subset2.append({"id": f"s2-{i}", "label": "Real",
                        "claim": f"{cmdr} {DERIVED_RELATION} {aide}."})
    rng.shuffle(subset1)
    rng.shuffle(subset2)
    files = {"subset1": workdir / "carry-subset1.jsonl",
             "subset2": workdir / "carry-subset2.jsonl",
             "facts": workdir / "carry-facts.json"}
    _write_jsonl(files["subset1"], subset1)
    _write_jsonl(files["subset2"], subset2)
    _write_table(files["facts"], entities, facts, derived)
    return World(files, {"subset1": {it["id"]: "Real" for it in subset1},
                         "subset2": {it["id"]: "Real" for it in subset2}},
                 expected_base=expected_base, seed=seed)


def bigkg_world(seed: int, workdir: Path) -> World:
    """``BIG_TRIPLES`` triples written straight to JSONL.

    Claim subjects are hubs: each hub gets many filler triples, so its
    one-hop candidate set exceeds the retrieval cutoff and the answer step
    asks the model to rank. The tabled claim facts are in the graph too, and
    each Real claim also yields one derived "superior of" triple on update.
    """
    rng = random.Random(seed)
    names = _Names(rng)
    hubs = [names.take() for _ in range(BIG_HUBS)]
    items, facts, derived, entities = tabled_claims(
        rng, names, subjects=hubs)
    filler = [f"{names.word()} {n}" for n in range(NUM_FILLER)]
    seen: set[Fact] = set()
    rows: list[tuple[str, str, str, str]] = []

    def put(fact: Fact, source: str) -> None:
        key = (norm_key(fact[0]), norm_key(fact[1]), norm_key(fact[2]))
        if key not in seen:
            seen.add(key)
            rows.append((*fact, source))

    for fact in facts:
        put(fact, "world")
    for hub in hubs:
        for _ in range(HUB_DEGREE):
            other = rng.choice(filler)
            rel = rng.choice(FILLER_RELATIONS)
            put((hub, rel, other) if rng.random() < 0.5 else (other, rel, hub),
                "filler")
    while len(rows) < BIG_TRIPLES:
        put((rng.choice(filler), rng.choice(FILLER_RELATIONS),
             rng.choice(filler)), "filler")
    rng.shuffle(rows)
    files = {"dataset": workdir / "bigkg-claims.jsonl",
             "facts": workdir / "bigkg-facts.json",
             "kg": workdir / "bigkg-kg.jsonl"}
    _write_jsonl(files["dataset"], items)
    _write_table(files["facts"], hubs + entities, facts, derived)
    with open(files["kg"], "w", encoding="utf-8") as fh:
        for seq, (s, r, o, src) in enumerate(rows):
            fh.write(json.dumps(_kg_record((s, r, o), src, seq),
                                ensure_ascii=False) + "\n")
    return World(files, {"bigkg": {it["id"]: it["label"] for it in items}},
                 hubs=hubs, seed=seed)


GENERATORS = {"carryover": carryover_world, "deep": deep_world,
              "bigkg": bigkg_world}


def generate(name: str, seed: int, workdir: Path) -> World:
    """Run the generator in a child process and read back its ground truth."""
    subprocess.run([sys.executable, __file__, name, str(seed), str(workdir)],
                   check=True)
    return World.load(workdir / "world.json")


if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:]
    GENERATORS[name](int(seed), Path(workdir)).save(Path(workdir) / "world.json")
