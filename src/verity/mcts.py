"""Per-claim search tree over decomposition steps.

Three edge kinds: generate a sub-question (A1), answer it (A2), emit a final
verdict (A3). A2 only follows A1; A3 only follows the root or A2. Each
search iteration is one select -> expand -> back-propagate round; leaves
register reasoning paths, rewards follow the majority of completed-path
verdicts, and the final verdict is a majority vote with ties broken to Fake.
Each of the last ``LOOKAHEAD`` iterations first asks whether any outcome of
its expansion and of the iterations left after it can complete a path
(``can_finish``); if none can, the search ends, since nothing would ever
read the children those iterations added.

The search and its expansions are step generators (see
:func:`verity.gateway.drive`): they yield the requests each step needs and
hold no gateway. A node's sub-question step also asks its verdict, once
per transcript, for its A3 to take later, so the search's first step holds
the root's sub-questions and its evidence-free verdict. An answer step
yields a ``GraphRead`` of its normalized sub-question
(``retrieval.retrieval_steps``) before its retrieval reads the graph.
``SearchEngine.search`` drives one claim's steps through the engine's
gateway. ``run_detection`` chains each claim's update after its search in
one step generator, runs the next claim's ahead, past only the graph reads
that the claim before cannot change, and hands each claim's begun steps
to its ``search`` call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import ValidationError
from .gateway import (Gateway, LLMRequest, LLMResponse, PromptKind, Steps,
                      Stepper, drive)
from .kg_store import KnowledgeGraph
from .retrieval import render_triples, retrieval_steps
from .verdict import Verdict


class ActionKind(Enum):
    A1 = "subquestion"
    A2 = "answer"
    A3 = "verdict"


@dataclass
class SearchNode:
    id: int
    parent: Optional[int]
    action: Optional[ActionKind]
    text: str
    depth: int
    q: float = 0.0
    v: int = 0
    children: list[int] = field(default_factory=list)
    verdict: Optional[Verdict] = None
    # Legal actions not yet expanded, in expansion order; an action leaves
    # `pending` with its first child.
    pending: list[ActionKind] = field(default_factory=list)
    # Whether this node or a descendant still has a pending action.
    open: bool = False


@dataclass
class ReasoningPath:
    steps: list[tuple[ActionKind, str]]
    verdict: Verdict
    node_ids: list[int]  # root inclusive, for bookkeeping

    def digest_record(self) -> dict:
        return {
            "steps": [(a.name, t) for a, t in self.steps],
            "verdict": self.verdict.value,
        }


@dataclass
class EngineConfig:
    n: int = 5            # search iterations
    h: int = 5            # tree height limit (9 suits long, multi-fact claims)
    b: int = 2            # children generated per expansion
    alpha: float = 2.0    # exploration constant
    top_k: int = 5        # retrieval cutoff
    seed: int = 0

    def validate(self) -> None:
        if (min(self.n, self.b, self.top_k) < 1
                or not 0 <= self.alpha < math.inf):
            raise ValidationError("engine parameters must be positive, "
                                  "and alpha finite and >= 0")
        if self.h < 2:
            raise ValidationError("height limit must be >= 2")


class SearchTree:
    def __init__(self, claim: str, config: EngineConfig):
        config.validate()
        self.claim = claim
        self.config = config
        root = SearchNode(id=0, parent=None, action=None, text=claim, depth=0)
        root.pending = legal_actions(self, root)
        root.open = True
        self.nodes: list[SearchNode] = [root]
        self.completed_paths: list[ReasoningPath] = []
        # Verdicts asked in an A1 step, by transcript, held until the first
        # A3 of that transcript takes them; a taken one is None, so each
        # transcript is asked ahead at most once.
        self.early_verdicts: dict[str, Optional[LLMResponse]] = {}

    @property
    def root(self) -> SearchNode:
        return self.nodes[0]

    def node(self, node_id: int) -> SearchNode:
        return self.nodes[node_id]

    def add_child(self, parent: SearchNode, action: ActionKind,
                  text: str) -> SearchNode:
        child = SearchNode(id=len(self.nodes), parent=parent.id, action=action,
                           text=text, depth=parent.depth + 1)
        child.pending = legal_actions(self, child)
        child.open = bool(child.pending)
        self.nodes.append(child)
        parent.children.append(child.id)
        if action in parent.pending:
            parent.pending.remove(action)
        # Close the ancestors whose subtrees can no longer grow.
        cur: Optional[SearchNode] = parent
        while cur is not None and not cur.pending and not any(
                self.nodes[cid].open for cid in cur.children):
            cur.open = False
            cur = self.node(cur.parent) if cur.parent is not None else None
        return child

    def path_to(self, node: SearchNode) -> list[SearchNode]:
        """Nodes from root (inclusive) down to ``node``."""
        chain = []
        cur: Optional[SearchNode] = node
        while cur is not None:
            chain.append(cur)
            cur = self.node(cur.parent) if cur.parent is not None else None
        return list(reversed(chain))


def legal_actions(tree: SearchTree, node: SearchNode) -> list[ActionKind]:
    """Legal actions in expansion order: A2 after A1; A3 after the root or A2."""
    if node.depth >= tree.config.h or node.action == ActionKind.A3:
        return []
    if node.action == ActionKind.A1:
        return [ActionKind.A2]
    if node.depth == tree.config.h - 1:
        return [ActionKind.A3]
    return [ActionKind.A1, ActionKind.A3]


# Iterations left at which the search starts to ask ``can_finish``: the
# longest run of expansions a pending node needs to complete a path (an A2,
# an A1 under its child, then that child's A3). It bounds a lookahead to
# (b+1) + (b+1)**2 replayed selects.
LOOKAHEAD = 3


def can_finish(tree: SearchTree, node: SearchNode, rng_state: tuple,
               left: int, scratch: Optional[random.Random] = None) -> bool:
    """Whether, for some replies of the model, expanding ``node`` and the
    ``left - 1`` iterations after it complete a path.

    An A3 always completes one, and an A2 at the height limit does unless
    its answer fails. Otherwise each structural outcome of the expansion
    (0..b children for an A1, where 0 leaves the action pending, and 0 or
    b for an A2) is grown on the tree, ``select`` is replayed on a copy of
    ``rng_state``, the claim's rng after this iteration's select, and the
    outcome is undone. Until a path completes nothing is back-propagated,
    so the replay sees the q and v the search would. The replays draw from
    ``scratch``, one ``Random`` that the outermost call makes and passes
    down, never from the claim's rng.
    """
    action = node.pending[0]
    if action == ActionKind.A3 or (
            action == ActionKind.A2 and node.depth + 1 == tree.config.h):
        return True
    if left == 1:
        return False
    b = tree.config.b
    pending = list(node.pending)
    chain = tree.path_to(node)
    opened = [n.open for n in chain]
    rng = random.Random() if scratch is None else scratch
    for k in range(b + 1) if action == ActionKind.A1 else (0, b):
        for _ in range(k):
            tree.add_child(node, action, "")
        try:
            rng.setstate(rng_state)
            nxt = select(tree, rng)
            if nxt is not None and can_finish(tree, nxt, rng.getstate(),
                                              left - 1, rng):
                return True
        finally:
            del tree.nodes[len(tree.nodes) - k:]
            del node.children[len(node.children) - k:]
            node.pending[:] = pending
            for n, was_open in zip(chain, opened):
                n.open = was_open
    return False


def uct_score(q: float, v: int, v_parent: int, alpha: float) -> float:
    """Exploitation mean plus exploration bonus; defined only for visited nodes."""
    if v < 1 or v_parent < 1:
        raise ValidationError("uct_score requires visit counts >= 1")
    return q / v + alpha * math.sqrt(math.log(v_parent) / v)


def path_reward(p_major: int, p_minor: int) -> float:
    """Majority share of completed-path verdicts; always in [0.5, 1]."""
    if p_major < p_minor or p_minor < 0 or p_major + p_minor < 1:
        raise ValidationError("invalid majority/minority counts")
    return p_major / (p_major + p_minor)


def select(tree: SearchTree, rng: random.Random) -> Optional[SearchNode]:
    """Descend from the root to the first node with expansion capacity.

    Unvisited children are chosen uniformly at random; otherwise the child
    maximizing the UCT score wins, ties broken by lowest child index.
    """
    node = tree.root
    while True:
        if node.pending:
            return node
        options = [c for c in map(tree.node, node.children) if c.open]
        if not options:
            return None
        unvisited = [c for c in options if c.v == 0]
        if unvisited:
            node = rng.choice(unvisited)
        else:
            node = max(options,
                       key=lambda c: (uct_score(c.q, c.v, node.v,
                                                tree.config.alpha), -c.id))


def backpropagate(tree: SearchTree, leaf: SearchNode) -> None:
    """Apply the majority-agreement reward to the new leaf's path.

    The majority is recomputed over all completed paths including the new
    one. An agreeing (or tie-completing) leaf adds the reward to Q on every
    path node except the root; visit counts increment root included.
    """
    counts = {Verdict.REAL: 0, Verdict.FAKE: 0}
    for path in tree.completed_paths:
        counts[path.verdict] += 1
    p_major = max(counts.values())
    p_minor = min(counts.values())
    reward = path_reward(p_major, p_minor)
    agrees = counts[leaf.verdict] == p_major
    for node in tree.path_to(leaf):
        if agrees and node.parent is not None:
            node.q += reward
        node.v += 1


def _render_transcript(path: list[SearchNode]) -> str:
    lines = []
    for node in path:
        if node.action == ActionKind.A1:
            lines.append(f"Q: {node.text}")
        elif node.action == ActionKind.A2:
            lines.append(f"A: {node.text}")
    return "\n".join(lines) if lines else "(none)"


class SearchEngine:
    """Runs the select/expand/back-propagate loop for one claim at a time.

    It holds no search between calls: a search begun early, for a claim
    run ahead, is its caller's until it is passed to ``search``.
    """

    def __init__(self, gateway: Gateway, config: Optional[EngineConfig] = None):
        self.gateway = gateway
        self.config = config or EngineConfig()
        self.config.validate()

    def _rng_for(self, claim_id: str) -> random.Random:
        digest = hashlib.sha256(
            f"{self.config.seed}:{claim_id}".encode("utf-8")).hexdigest()
        return random.Random(int(digest[:16], 16))

    def _complete_leaf(self, tree: SearchTree, leaf: SearchNode,
                       verdict: Verdict) -> None:
        leaf.verdict = verdict
        chain = tree.path_to(leaf)
        tree.completed_paths.append(ReasoningPath(
            steps=[(n.action, n.text) for n in chain if n.action is not None],
            verdict=verdict,
            node_ids=[n.id for n in chain]))
        backpropagate(tree, leaf)

    def _subquestion_requests(self, claim: str,
                              transcript: str) -> list[LLMRequest]:
        return [LLMRequest(PromptKind.GENERATE_SUBQUESTION, {
            "claim": claim,
            "transcript": transcript,
            "branch": str(branch),
        }, seed=self.config.seed) for branch in range(self.config.b)]

    def _verdict_request(self, claim: str, transcript: str) -> LLMRequest:
        return LLMRequest(PromptKind.FINAL_VERDICT, {
            "claim": claim,
            "transcript": transcript,
        }, seed=self.config.seed)

    @staticmethod
    def _verdict(resp: LLMResponse) -> Verdict:
        # Unparseable verdicts default to Fake: insufficient information.
        return resp.parsed if resp.parse_ok else Verdict.FAKE

    def expand(self, tree: SearchTree, node: SearchNode,
               graph: KnowledgeGraph) -> Steps:
        """Add the ``b`` children of the first pending action under ``node``.

        A step generator (see :func:`verity.gateway.drive`) that returns the
        new children. Only the A1 prompt has a ``branch`` slot, so an A1
        expansion asks once per branch, with the requests in one step, and
        an A2 or A3 expansion asks once and gives the answer to all ``b``
        children. An A1 step also asks the node's verdict, for its A3 to
        take, unless that transcript's verdict was asked ahead before
        (``SearchTree.early_verdicts``); the first A3 of the transcript
        takes it and sends nothing, and a later one asks again.
        A2 children at the height limit share one forced verdict request. An
        A1 branch or A2 answer that fails its one retry adds no child; an
        action leaves ``pending`` with its first child, so it is not asked
        again unless every branch failed. Children are attached, and leaves
        completed, in branch order.
        """
        if not node.pending:
            raise ValidationError("node has no expansion capacity")
        action = node.pending[0]
        parent_path = tree.path_to(node)
        transcript = _render_transcript(parent_path)
        if action == ActionKind.A1:
            reqs = self._subquestion_requests(tree.claim, transcript)
        elif action == ActionKind.A2:
            # A2 answers with retrieved knowledge in context.
            result = yield from retrieval_steps(node.text, graph,
                                                self.config.top_k,
                                                self.config.seed)
            reqs = [LLMRequest(PromptKind.ANSWER_SUBQUESTION, {
                "claim": tree.claim,
                "transcript": transcript,
                "triples": render_triples(result.selected),
                "question": node.text,
            }, seed=self.config.seed)]
        else:
            reqs = [self._verdict_request(tree.claim, transcript)]
        early = tree.early_verdicts
        held = early.get(transcript) if action == ActionKind.A3 else None
        if held is not None:
            early[transcript] = None
            resps = [held]
        elif action == ActionKind.A1 and transcript not in early:
            # Every node that can take an A1 has its A3 pending after it.
            resps = yield reqs + [self._verdict_request(tree.claim,
                                                        transcript)]
            early[transcript] = resps.pop()
        else:
            resps = yield reqs
        if action != ActionKind.A3:
            # One retry for unparseable generations, then give up on the child.
            failed = [i for i, resp in enumerate(resps) if not resp.parse_ok]
            if failed:
                retried = yield [reqs[i] for i in failed]
                for i, resp in zip(failed, retried):
                    resps[i] = resp
        created: list[SearchNode] = []
        for resp in resps:
            if action != ActionKind.A3 and not resp.parse_ok:
                continue
            text = resp.raw if action == ActionKind.A3 else resp.parsed
            children = [tree.add_child(node, action, text) for _ in
                        range(1 if action == ActionKind.A1 else tree.config.b)]
            created += children
            if action == ActionKind.A3:
                verdict = self._verdict(resp)
            elif node.depth + 1 == tree.config.h:
                # Forced termination: depth-limit children carry a verdict,
                # and the clones share one transcript, so they ask once.
                [forced] = yield [self._verdict_request(
                    tree.claim, _render_transcript(tree.path_to(children[0])))]
                verdict = self._verdict(forced)
            else:
                continue
            for child in children:
                self._complete_leaf(tree, child, verdict)
        return created

    def search_steps(self, claim: str, graph: KnowledgeGraph,
                     claim_id: str = "") -> Steps:
        """``search`` as a step generator.

        Its first step is the root's A1 step, so it holds the root's ``b``
        sub-questions and the root's evidence-free verdict: both read only
        the claim and the seed. With ``LOOKAHEAD`` or fewer iterations left,
        the search goes on only if some outcome of the selected node's
        expansion lets a path complete before the budget runs out
        (``can_finish``). Otherwise it ends there: the iterations left would
        complete no path, and no verdict, path or update reads the children
        they add. So a search with ``n`` = 1
        sends nothing.
        """
        if not claim.strip():
            raise ValidationError("claim must be non-empty")
        tree = SearchTree(claim, self.config)
        rng = self._rng_for(claim_id or claim)
        for i in range(self.config.n):
            node = select(tree, rng)
            left = self.config.n - i
            if node is None or (left <= LOOKAHEAD and not can_finish(
                    tree, node, rng.getstate(), left)):
                break
            yield from self.expand(tree, node, graph)
        return (majority_verdict(tree.completed_paths), tree.completed_paths,
                tree)

    def search(self, claim: str, graph: KnowledgeGraph, claim_id: str = "",
               begun: Optional[Stepper] = None,
               ) -> tuple[Verdict, list[ReasoningPath], SearchTree]:
        """Decide ``claim`` with ``n`` select/expand/back-propagate rounds.

        ``begun``, when given, is a ``Stepper`` over this claim's steps,
        which may be part of the way through: a generator that runs
        ``self.search_steps(claim, graph, claim_id)`` on the graph it was
        given, possibly with steps chained after it, such as the claim's
        extraction, and returns the search's result. It is driven to its
        end, so any chained steps run within this call, and a timer that
        wraps the call, such as the benchmark's ``mcts.search`` span,
        counts them. Otherwise a new search begins. A blank claim raises
        ``ValidationError`` before anything is sent.
        """
        return drive(self.search_steps(claim, graph, claim_id)
                     if begun is None else begun, self.gateway)


def majority_verdict(paths: list[ReasoningPath]) -> Verdict:
    """Majority vote over leaf verdicts; ties and the empty case go to Fake."""
    real = sum(1 for p in paths if p.verdict == Verdict.REAL)
    fake = len(paths) - real
    return Verdict.REAL if real > fake else Verdict.FAKE


def paths_digest(paths: list[ReasoningPath]) -> str:
    payload = json.dumps([p.digest_record() for p in paths],
                         ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
