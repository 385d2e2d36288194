import hashlib
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synth import BatchLog, tabled_world
from verity import mcts
from verity.dataset import NewsItem
from verity.errors import GatewayHardError, ValidationError
from verity.gateway import (Gateway, PromptKind, ScriptedBackend, drive,
                            request_hash)
from verity.kg_store import KnowledgeGraph
from verity.mcts import (LOOKAHEAD, ActionKind, EngineConfig, ReasoningPath,
                         SearchEngine, SearchTree, backpropagate, can_finish,
                         legal_actions, majority_verdict, path_reward,
                         paths_digest, select, uct_score)
from verity.oracle import RuleBasedOracle
from verity.run import run_detection
from verity.verdict import Verdict


def make_tree(h=5, b=2, **kw):
    return SearchTree("claim", EngineConfig(h=h, b=b, **kw))


def detect_one(item, config, gateway):
    """``run_detection`` over ``[item]`` without updates: the claim's
    result and the tree its search grew, or None if the search failed."""
    trees = []
    search = SearchEngine.search

    def kept(engine, *args, **kwargs):
        verdict, paths, tree = search(engine, *args, **kwargs)
        trees.append(tree)
        return verdict, paths, tree

    with mock.patch.object(SearchEngine, "search", kept):
        record, _, _ = run_detection([item], KnowledgeGraph(), config, gateway,
                                     updates=False)
    return record.results[0], (trees[0] if trees else None)


class TestLegalActions:
    def test_root(self):
        tree = make_tree()
        assert legal_actions(tree, tree.root) == [ActionKind.A1, ActionKind.A3]

    def test_after_a1_only_a2(self):
        tree = make_tree()
        node = tree.add_child(tree.root, ActionKind.A1, "q")
        assert legal_actions(tree, node) == [ActionKind.A2]

    def test_after_a2(self):
        tree = make_tree()
        a1 = tree.add_child(tree.root, ActionKind.A1, "q")
        a2 = tree.add_child(a1, ActionKind.A2, "a")
        assert legal_actions(tree, a2) == [ActionKind.A1, ActionKind.A3]

    def test_a3_terminal(self):
        tree = make_tree()
        a3 = tree.add_child(tree.root, ActionKind.A3, "v")
        assert legal_actions(tree, a3) == []

    def test_depth_limit_restricts_to_a3(self):
        tree = make_tree(h=2)
        a1 = tree.add_child(tree.root, ActionKind.A1, "q")
        a2 = tree.add_child(a1, ActionKind.A2, "a")
        # a2 sits at depth h, so nothing further is legal under it
        assert legal_actions(tree, a2) == []
        # an A2 node at depth h-1 may only produce verdict children
        tree3 = make_tree(h=3)
        a1b = tree3.add_child(tree3.root, ActionKind.A1, "q")
        a2b = tree3.add_child(a1b, ActionKind.A2, "a")
        assert a2b.depth == 2
        assert legal_actions(tree3, a2b) == [ActionKind.A3]

    def test_completes_path(self):
        """With one iteration left, an A3 and the A2 whose children take the
        forced verdict can complete a path; an A1 and an A2 above the height
        limit cannot."""
        tree = make_tree(h=4)
        state = random.Random(0).getstate()

        def completes(node):
            return can_finish(tree, node, state, 1)

        assert tree.root.pending[0] is ActionKind.A1
        assert not completes(tree.root)
        a1 = tree.add_child(tree.root, ActionKind.A1, "q")
        assert not completes(a1)
        assert tree.root.pending == [ActionKind.A3]
        assert completes(tree.root)
        a2 = tree.add_child(a1, ActionKind.A2, "a")
        assert not completes(a2)
        last_a1 = tree.add_child(a2, ActionKind.A1, "q")
        assert last_a1.depth + 1 == tree.config.h
        assert completes(last_a1)
        assert a2.pending == [ActionKind.A3]
        assert completes(a2)


class TestUctScore:
    def test_worked_value(self):
        expected = 3.0 / 4 + 2 * math.sqrt(math.log(16) / 4)
        assert uct_score(3.0, 4, 16, 2.0) == pytest.approx(expected, abs=1e-12)
        assert uct_score(3.0, 4, 16, 2.0) == pytest.approx(2.4151092, abs=1e-6)

    def test_ln_one_is_zero(self):
        assert uct_score(0.0, 1, 1, 2.0) == 0.0

    def test_alpha_zero_disables_exploration(self):
        assert uct_score(5.0, 5, 5, 0.0) == 1.0

    def test_unvisited_rejected(self):
        with pytest.raises(ValidationError):
            uct_score(1.0, 0, 4, 2.0)


class TestPathReward:
    def test_three_two(self):
        assert path_reward(3, 2) == pytest.approx(0.6)

    def test_unanimous(self):
        assert path_reward(1, 0) == 1.0

    def test_tie(self):
        assert path_reward(2, 2) == 0.5

    def test_range_property(self):
        rng = random.Random(0)
        for _ in range(500):
            minor = rng.randrange(0, 50)
            major = minor + rng.randrange(0, 50)
            if major + minor == 0:
                continue
            assert 0.5 <= path_reward(major, minor) <= 1.0

    def test_invalid_counts(self):
        with pytest.raises(ValidationError):
            path_reward(0, 0)
        with pytest.raises(ValidationError):
            path_reward(1, 2)


class TestBackpropagate:
    def _leafed_tree(self, verdicts):
        """Chain root -> A1 -> A2 -> A3(first verdict), then sibling A3 leaves
        under the A2 node for the remaining verdicts."""
        tree = make_tree(b=8)
        a1 = tree.add_child(tree.root, ActionKind.A1, "q")
        a2 = tree.add_child(a1, ActionKind.A2, "a")
        leaves = []
        for verdict in verdicts:
            leaf = tree.add_child(a2, ActionKind.A3, "v")
            leaf.verdict = verdict
            leaves.append(leaf)
        return tree, a1, a2, leaves

    def _complete(self, tree, leaf):
        chain = tree.path_to(leaf)
        tree.completed_paths.append(ReasoningPath(
            steps=[(n.action, n.text) for n in chain if n.action],
            verdict=leaf.verdict, node_ids=[n.id for n in chain]))
        backpropagate(tree, leaf)

    def test_first_path_gets_full_reward(self):
        tree, a1, a2, leaves = self._leafed_tree([Verdict.REAL])
        self._complete(tree, leaves[0])
        assert a1.q == a2.q == leaves[0].q == 1.0
        assert tree.root.q == 0.0
        assert tree.root.v == a1.v == a2.v == leaves[0].v == 1

    def test_minority_leaf_gets_no_reward(self):
        tree, a1, a2, leaves = self._leafed_tree(
            [Verdict.REAL, Verdict.REAL, Verdict.FAKE])
        for leaf in leaves[:2]:
            self._complete(tree, leaf)
        q_before = a2.q
        self._complete(tree, leaves[2])
        assert leaves[2].q == 0.0
        assert a2.q == q_before  # no Q update from a minority path
        assert a2.v == 3

    def test_tie_completion_counts_as_agreeing(self):
        tree, a1, a2, leaves = self._leafed_tree(
            [Verdict.REAL, Verdict.REAL, Verdict.FAKE, Verdict.FAKE])
        for leaf in leaves[:3]:
            self._complete(tree, leaf)
        self._complete(tree, leaves[3])
        assert leaves[3].q == 0.5  # the 2-2 tie rewards 0.5


class TestSelect:
    def test_fresh_tree_selects_root(self):
        tree = make_tree()
        assert select(tree, random.Random(0)) is tree.root

    def test_unvisited_child_preferred(self):
        tree2 = make_tree(b=2)
        a3a = tree2.add_child(tree2.root, ActionKind.A3, "v")
        a3b = tree2.add_child(tree2.root, ActionKind.A3, "v")
        visited = tree2.add_child(tree2.root, ActionKind.A1, "q1")
        visited.v = 3
        unvisited = tree2.add_child(tree2.root, ActionKind.A1, "q2")
        tree2.root.v = 3
        assert select(tree2, random.Random(1)) is unvisited

    def test_uct_argmax_used_when_all_visited(self):
        tree = make_tree(b=2)
        for _ in range(2):
            tree.add_child(tree.root, ActionKind.A3, "v")
        strong = tree.add_child(tree.root, ActionKind.A1, "q1")
        strong.q, strong.v = 9.0, 4   # uct ~ 2.25 + bonus
        weak = tree.add_child(tree.root, ActionKind.A1, "q2")
        weak.q, weak.v = 1.0, 4
        tree.root.v = 8
        assert select(tree, random.Random(0)) is strong

    def test_uct_argmax_matches_brute_force(self):
        rng = random.Random(42)
        for _ in range(300):
            nchildren = rng.randrange(2, 7)
            tree = make_tree(b=nchildren)
            for _ in range(nchildren):
                tree.add_child(tree.root, ActionKind.A3, "v")
            children = []
            for i in range(nchildren):
                child = tree.add_child(tree.root, ActionKind.A1, f"q{i}")
                child.q = rng.uniform(0, 10)
                child.v = rng.randrange(1, 101)
                children.append(child)
            tree.root.v = sum(c.v for c in children)
            picked = select(tree, rng)
            scores = [uct_score(c.q, c.v, tree.root.v, 2.0) for c in children]
            best = max(range(nchildren),
                       key=lambda i: (scores[i], -children[i].id))
            assert picked is children[best]


def structural_check(tree, config):
    for node in tree.nodes:
        assert node.depth <= config.h
        if node.action == ActionKind.A2:
            assert tree.node(node.parent).action == ActionKind.A1
        if node.action == ActionKind.A3:
            parent = tree.node(node.parent)
            assert parent.action in (None, ActionKind.A2)
            assert not node.children
        if node.verdict is not None:
            assert not node.children
    # visit accounting: v equals completed paths through the node
    through = {n.id: 0 for n in tree.nodes}
    for path in tree.completed_paths:
        for node_id in path.node_ids:
            through[node_id] += 1
    for node in tree.nodes:
        assert node.v == through[node.id]
        if node.v > 0:
            assert 0.0 <= node.q / node.v <= 1.0 + 1e-12
    assert tree.root.v == len(tree.completed_paths)


def subtree_expandable(tree, node):
    """Reference for ``SearchNode.open``: a legal action without children
    here or anywhere below."""
    taken = {tree.node(cid).action for cid in node.children}
    if set(legal_actions(tree, node)) - taken:
        return True
    return any(subtree_expandable(tree, tree.node(cid)) for cid in node.children)


class TestBookkeeping:
    def test_pending_and_open_match_the_recursive_definition(self, monkeypatch):
        add_child = SearchTree.add_child
        checked = []

        def checked_add_child(tree, parent, action, text):
            child = add_child(tree, parent, action, text)
            for node in tree.nodes:
                taken = {tree.node(cid).action for cid in node.children}
                assert node.pending == [a for a in legal_actions(tree, node)
                                        if a not in taken]
                assert node.open == subtree_expandable(tree, node)
            checked.append(child.id)
            return child

        monkeypatch.setattr(SearchTree, "add_child", checked_add_child)
        table, items = tabled_world(4, 4)
        gateway = Gateway(RuleBasedOracle(table))
        rng = random.Random(10)
        for _ in range(200):
            config = EngineConfig(n=rng.randrange(1, 25), h=rng.randrange(2, 13),
                                  b=rng.randrange(1, 4),
                                  seed=rng.randrange(10_000))
            item = rng.choice(items)
            SearchEngine(gateway, config).search(item.claim, KnowledgeGraph(),
                                                 claim_id=item.id)
        assert len(checked) > 1000


class TestSearch:
    def _gateway(self):
        table, items = tabled_world(3, 3)
        return Gateway(RuleBasedOracle(table)), items

    def test_tabled_claim_real(self):
        gateway, items = self._gateway()
        engine = SearchEngine(gateway, EngineConfig(seed=1))
        verdict, paths, _ = engine.search(items[0].claim, KnowledgeGraph(),
                                          claim_id=items[0].id)
        assert verdict is Verdict.REAL
        assert paths

    def test_untabled_claim_fake(self):
        gateway, items = self._gateway()
        engine = SearchEngine(gateway, EngineConfig(seed=1))
        fake = next(i for i in items if i.gold is Verdict.FAKE)
        verdict, _, _ = engine.search(fake.claim, KnowledgeGraph(),
                                      claim_id=fake.id)
        assert verdict is Verdict.FAKE

    def test_majority_vote_rules(self):
        def path(verdict):
            return ReasoningPath([], verdict, [])

        assert majority_verdict([]) is Verdict.FAKE
        assert majority_verdict([path(Verdict.REAL), path(Verdict.FAKE)]) \
            is Verdict.FAKE
        assert majority_verdict([path(Verdict.REAL), path(Verdict.REAL),
                                 path(Verdict.FAKE)]) is Verdict.REAL

    def test_majority_vote_matches_brute_force_random(self):
        rng = random.Random(5)
        for _ in range(200):
            verdicts = [rng.choice([Verdict.REAL, Verdict.FAKE])
                        for _ in range(rng.randrange(0, 9))]
            paths = [ReasoningPath([], v, []) for v in verdicts]
            real = verdicts.count(Verdict.REAL)
            fake = len(verdicts) - real
            expected = Verdict.REAL if real > fake else Verdict.FAKE
            assert majority_verdict(paths) is expected

    @pytest.mark.parametrize("h", range(2, 13))
    def test_structural_legality_across_heights(self, h):
        gateway, items = self._gateway()
        config = EngineConfig(n=6, h=h, seed=h)
        engine = SearchEngine(gateway, config)
        for item in items:
            _, _, tree = engine.search(item.claim, KnowledgeGraph(),
                                       claim_id=item.id)
            structural_check(tree, config)

    def test_determinism_with_fixed_seed(self):
        gateway, items = self._gateway()
        engine = SearchEngine(gateway, EngineConfig(seed=9))
        runs = []
        for _ in range(2):
            verdict, paths, tree = engine.search(items[0].claim,
                                                 KnowledgeGraph(),
                                                 claim_id=items[0].id)
            runs.append((verdict, [(p.verdict, tuple(p.node_ids)) for p in paths],
                         [(n.id, n.q, n.v) for n in tree.nodes]))
        assert runs[0] == runs[1]

    def test_empty_claim_rejected(self):
        gateway, _ = self._gateway()
        engine = SearchEngine(gateway)
        with pytest.raises(ValidationError):
            engine.search("  ", KnowledgeGraph())

    def test_search_sends_nothing_ahead(self):
        table, items = tabled_world(3, 3)
        oracle = RuleBasedOracle(table)
        batches = []
        gateway = Gateway(oracle)
        complete_all = gateway.complete_all

        def spy(reqs):
            batches.append([(r.kind, r.context.get("claim")) for r in reqs])
            return complete_all(reqs)

        gateway.complete_all = spy
        engine = SearchEngine(gateway, EngineConfig(n=20, h=9, b=3))
        engine.search(items[0].claim, KnowledgeGraph(), claim_id=items[0].id)
        gateway.close()
        # The first step holds the root's sub-questions and its verdict, and
        # no step asks for another claim.
        assert batches[0] == \
            [(PromptKind.GENERATE_SUBQUESTION, items[0].claim)] * 3 + \
            [(PromptKind.FINAL_VERDICT, items[0].claim)]
        assert {claim for batch in batches for _, claim in batch} == \
            {items[0].claim}
        assert gateway.round_trips < len(batches)


def garbled_search(n, h, b, seed, pick, salt, percent):
    """One search of ``tabled_world(3, 3)``'s claim ``pick`` in which
    ``percent`` of the asks, chosen by a hash of the salt, the request and
    how often it was asked, get garbage. Returns the verdict, paths and
    digest, the backend calls, and the tree."""
    table, items = tabled_world(3, 3)
    item = items[pick]
    oracle = RuleBasedOracle(table)
    asked: dict[str, int] = {}

    def reply(req, prompt):
        key = request_hash(req, prompt)
        asked[key] = asked.get(key, -1) + 1
        draw = hashlib.sha256(f"{salt}:{key}:{asked[key]}".encode()).digest()
        if draw[0] * 100 < percent * 256:
            return " \n "
        return oracle.generate(req, prompt)

    gateway = Gateway(ScriptedBackend(reply))
    engine = SearchEngine(gateway, EngineConfig(n=n, h=h, b=b, seed=seed))
    verdict, paths, tree = engine.search(item.claim, KnowledgeGraph(),
                                         claim_id=item.id)
    gateway.close()
    structural_check(tree, engine.config)
    return ((verdict, [(p.steps, p.verdict, p.node_ids) for p in paths],
             paths_digest(paths)), sum(gateway.call_counts.values()), tree)


class RootVerdictOnly(dict):
    """``SearchTree.early_verdicts`` that holds every transcript but the
    root's as asked already, so only the root's verdict rides an A1 step."""

    def __contains__(self, transcript):
        return transcript != "(none)" or super().__contains__(transcript)


def root_verdict_only():
    """Patch each new tree to ask only the root's verdict ahead, as the
    search did before every node asked its own."""
    init = SearchTree.__init__

    def patched(tree, *args, **kwargs):
        init(tree, *args, **kwargs)
        tree.early_verdicts = RootVerdictOnly()

    return mock.patch.object(SearchTree, "__init__", patched)


def transcript_of(tree, node):
    return mcts._render_transcript(tree.path_to(node))


def tree_state(tree):
    return [(n.id, n.parent, n.action, n.text, n.depth, n.q, n.v,
             list(n.children), n.verdict, list(n.pending), n.open)
            for n in tree.nodes], len(tree.completed_paths)


class TestLastIteration:
    """A search ends once no path can complete in its remaining
    iterations."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 10), h=st.integers(2, 6), b=st.integers(1, 3),
           seed=st.integers(0, 2**16), pick=st.integers(0, 5),
           salt=st.integers(0, 2**32), percent=st.integers(0, 40))
    # Only the lookahead's outcome of a failed answer completes a path here.
    @example(n=7, h=6, b=2, seed=10401, pick=2, salt=2447378075, percent=30)
    def test_skipping_changes_no_output(self, n, h, b, seed, pick, salt,
                                        percent):
        """Against the search that runs every iteration, as it did before
        the rule: the same verdict, paths and digest, and no more backend
        calls."""
        shipped, calls, _ = garbled_search(n, h, b, seed, pick, salt, percent)
        with mock.patch("verity.mcts.can_finish", lambda *args: True):
            forced, forced_calls, _ = garbled_search(n, h, b, seed, pick, salt,
                                                     percent)
        assert shipped == forced
        assert calls <= forced_calls

    def test_lookahead_leaves_tree_and_rng_as_they_were(self, monkeypatch):
        """Every lookahead, the nested ones included, returns the tree and
        the claim's rng in the state it found them."""
        rngs = []
        rng_for = SearchEngine._rng_for
        lookahead = mcts.can_finish
        horizons = []

        def kept_rng(engine, claim_id):
            rngs.append(rng_for(engine, claim_id))
            return rngs[-1]

        def checked(tree, node, rng_state, left, *scratch):
            before = tree_state(tree), rngs[-1].getstate()
            result = lookahead(tree, node, rng_state, left, *scratch)
            assert (tree_state(tree), rngs[-1].getstate()) == before
            horizons.append(left)
            return result

        monkeypatch.setattr(SearchEngine, "_rng_for", kept_rng)
        monkeypatch.setattr(mcts, "can_finish", checked)
        rng = random.Random(28)
        for _ in range(40):
            garbled_search(n=rng.randrange(1, 11), h=rng.randrange(2, 7),
                           b=rng.randrange(1, 4), seed=rng.randrange(10_000),
                           pick=rng.randrange(6), salt=rng.randrange(2**32),
                           percent=rng.randrange(41))
        assert set(horizons) == set(range(1, LOOKAHEAD + 1))

    def test_only_a_failed_answer_can_finish(self):
        """The root's two sub-questions, one answered twice, and its two
        verdicts: the search picks the unanswered A1 with three iterations
        left. With its ``b`` answers grown, no path completes in the two
        iterations after; with its answer failed, one does."""
        tree = make_tree(h=6, b=2)
        answered = tree.add_child(tree.root, ActionKind.A1, "q0")
        unanswered = tree.add_child(tree.root, ActionKind.A1, "q1")
        for _ in range(2):
            leaf = tree.add_child(tree.root, ActionKind.A3, "Real")
            leaf.q, leaf.v = 1.0, 1
        tree.root.v = 2
        clones = [tree.add_child(answered, ActionKind.A2, "a")
                  for _ in range(2)]
        for _ in range(2):
            tree.add_child(clones[1], ActionKind.A1, "q")
        rng_state = random.Random(47).getstate()
        before = tree_state(tree)
        assert can_finish(tree, unanswered, rng_state, 3)
        assert tree_state(tree) == before

        def finishes_after(answers):
            for _ in range(answers):
                tree.add_child(unanswered, ActionKind.A2, "a")
            rng = random.Random()
            rng.setstate(rng_state)
            return can_finish(tree, select(tree, rng), rng.getstate(), 2)

        assert finishes_after(0)
        assert not finishes_after(tree.config.b)


class TestExpand:
    """Only A1 requests carry a branch; A2 and A3 children share one answer."""

    def _engine(self, answer=None, b=3):
        """Engine over the oracle; ``answer(req)`` may override a reply."""
        table, items = tabled_world(3, 3)
        oracle = RuleBasedOracle(table)
        sent = []

        def reply(req, prompt):
            sent.append(req.kind)
            text = answer(req) if answer else None
            return oracle.generate(req, prompt) if text is None else text

        engine = SearchEngine(Gateway(ScriptedBackend(reply)),
                              EngineConfig(n=20, h=9, b=b))
        return engine, items, sent

    def test_search_batches_hold_distinct_requests(self):
        engine, items, _ = self._engine()
        batches = []
        complete_all = engine.gateway.complete_all

        def spy(reqs):
            batches.append(list(reqs))
            return complete_all(reqs)

        engine.gateway.complete_all = spy
        firsts = set()
        for item in items:
            firsts.add(len(batches))
            _, _, tree = engine.search(item.claim, KnowledgeGraph(),
                                       claim_id=item.id)
            structural_check(tree, engine.config)
        engine.gateway.close()
        with_subquestions = [PromptKind.GENERATE_SUBQUESTION] * 3 + \
            [PromptKind.FINAL_VERDICT]
        for i, batch in enumerate(batches):
            hashes = [request_hash(r) for r in batch]
            assert len(set(hashes)) == len(hashes)
            kinds = [r.kind for r in batch]
            if i in firsts:
                # The root's sub-questions, then its evidence-free verdict.
                assert kinds == with_subquestions
                assert {r.context["transcript"] for r in batch} == {"(none)"}
            elif PromptKind.ANSWER_SUBQUESTION in kinds:
                assert len(batch) == 1
            elif PromptKind.FINAL_VERDICT in kinds:
                # A verdict alone, or a node's sub-questions and its verdict.
                assert kinds in ([PromptKind.FINAL_VERDICT], with_subquestions)
                assert len({r.context["transcript"] for r in batch}) == 1
        kinds = [r.kind for batch in batches for r in batch]
        assert kinds.count(PromptKind.ANSWER_SUBQUESTION) > 0
        assert kinds.count(PromptKind.FINAL_VERDICT) > len(items)
        assert max(len(batch) for i, batch in enumerate(batches)
                   if i not in firsts) == 3 + 1

    def test_unparseable_answer_is_retried_once_and_adds_no_child(self):
        engine, items, sent = self._engine(
            lambda req: "  " if req.kind is PromptKind.ANSWER_SUBQUESTION
            else None)
        tree = SearchTree(items[0].claim, engine.config)
        a1 = tree.add_child(tree.root, ActionKind.A1,
                            "Is it true that Alpha0 commanded Gamma0?")
        assert drive(engine.expand(tree, a1, KnowledgeGraph()),
                     engine.gateway) == []
        assert sent.count(PromptKind.ANSWER_SUBQUESTION) == 2
        assert a1.children == []
        assert engine.gateway.memo_hits[PromptKind.ANSWER_SUBQUESTION] == 0

    def test_unparseable_verdict_gives_every_child_fake(self):
        engine, items, sent = self._engine(
            lambda req: "no verdict" if req.kind is PromptKind.FINAL_VERDICT
            else None)
        tree = SearchTree(items[0].claim, engine.config)
        for i in range(3):
            tree.add_child(tree.root, ActionKind.A1, f"q{i}")
        leaves = drive(engine.expand(tree, tree.root, KnowledgeGraph()),
                       engine.gateway)
        assert sent == [PromptKind.FINAL_VERDICT]
        assert [leaf.action for leaf in leaves] == [ActionKind.A3] * 3
        assert [leaf.verdict for leaf in leaves] == [Verdict.FAKE] * 3
        assert [p.verdict for p in tree.completed_paths] == [Verdict.FAKE] * 3
        assert engine.gateway.memo_hits[PromptKind.FINAL_VERDICT] == 0

    def test_failed_branch_leaves_no_clone(self):
        def reply(req, prompt):
            if req.kind is PromptKind.GENERATE_SUBQUESTION:
                # Root branch 0 never parses.
                if (req.context["transcript"], req.context["branch"]) == \
                        ("(none)", "0"):
                    return ""
                return "alternative " + req.context["branch"]
            if req.kind is PromptKind.FINAL_VERDICT:
                return "Answer: Real"
            return "yes"

        engine = SearchEngine(Gateway(ScriptedBackend(reply)),
                              EngineConfig(n=3, h=9, b=3))
        _, _, tree = engine.search("claim", KnowledgeGraph())
        root = tree.root
        assert [tree.node(c).text for c in root.children
                if tree.node(c).action is ActionKind.A1] == \
            ["alternative 1", "alternative 2"]
        assert root.pending == []
        structural_check(tree, engine.config)

    def test_depth_limit_clones_ask_for_one_verdict(self):
        table, items = tabled_world(3, 3)
        oracle = RuleBasedOracle(table)
        sent = []

        def reply(req, prompt):
            sent.append(req.kind)
            if req.kind is PromptKind.FINAL_VERDICT:
                return "no verdict"
            return oracle.generate(req, prompt)

        engine = SearchEngine(Gateway(ScriptedBackend(reply)),
                              EngineConfig(n=3, h=2, b=3))
        _, paths, tree = engine.search(items[0].claim, KnowledgeGraph())
        # One root verdict expansion, then one A2 expansion at the limit.
        assert sent.count(PromptKind.FINAL_VERDICT) == 2
        assert [p.verdict for p in paths] == [Verdict.FAKE] * 6
        structural_check(tree, engine.config)


class TestRootVerdictLookahead:
    """A node's A3 verdict is asked in its A1 step, with its sub-questions,
    once per transcript; the root's is asked in the search's first step."""

    # tabled_world(25, 25) on an empty graph, with updates off and on. The
    # pins are the backend batches per claim of a run in which each claim's
    # first steps ride with the claim before it, and the calls, memo hits
    # and run digest, which are those of a run that sends nothing ahead and
    # asks each request when a step needs it, save the verdicts asked in an
    # A1 step that no A3 took: n12-h9-b3 asks 16 (551 calls before the
    # rule, 567 with it), the others none.
    @pytest.mark.parametrize(
        "config, updates, round_trips, calls, memo_hits, digest", [
            (EngineConfig(), False, 0.70,
             {PromptKind.GENERATE_SUBQUESTION: 114,
              PromptKind.ANSWER_SUBQUESTION: 7, PromptKind.FINAL_VERDICT: 57},
             0, "754eec37d5421d71ef408750ae08cf9172aceae0c45cd678446ee95c930e500f"),
            (EngineConfig(n=20, h=9, b=3), False, 2.08,
             {PromptKind.GENERATE_SUBQUESTION: 375,
              PromptKind.ANSWER_SUBQUESTION: 75,
              PromptKind.FINAL_VERDICT: 125},
             1335, "bf021130c4b19ce0ae20361ba638d43494ba0bb4632b8f9827e00e1ec07c0e68"),
            (EngineConfig(), True, 1.24,
             {PromptKind.EXTRACT_ENTITIES: 25,
              PromptKind.GENERATE_RELATIONS: 25,
              PromptKind.EXTRACT_EVENT_TRIPLES: 25,
              PromptKind.GENERATE_SUBQUESTION: 114,
              PromptKind.ANSWER_SUBQUESTION: 7, PromptKind.FINAL_VERDICT: 57},
             0, "3517b2d806978da2b0be1a07eccd7c14a6227882053ee00b7f52a185abab9bf2"),
            (EngineConfig(n=20, h=9, b=3), True, 3.52,
             {PromptKind.EXTRACT_ENTITIES: 25,
              PromptKind.GENERATE_RELATIONS: 25,
              PromptKind.EXTRACT_EVENT_TRIPLES: 25,
              PromptKind.GENERATE_SUBQUESTION: 375,
              PromptKind.ANSWER_SUBQUESTION: 75,
              PromptKind.FINAL_VERDICT: 125},
             1335, "ecfa7ed5a649ca95fd07c38395eac06de44b706fc09a65fbada64da7c216b2b9"),
            (EngineConfig(n=12, h=9, b=3), False, 2.06,
             {PromptKind.GENERATE_SUBQUESTION: 369,
              PromptKind.ANSWER_SUBQUESTION: 75,
              PromptKind.FINAL_VERDICT: 123},
             537, "e343126e3ca3b60163e0463fb7bf4f6d8239a1b512de7ac31db4aa994524c9a8"),
        ], ids=["defaults", "n20-h9-b3", "defaults-updates",
                "n20-h9-b3-updates", "n12-h9-b3"])
    def test_one_round_trip_fewer_same_calls(self, config, updates,
                                             round_trips, calls, memo_hits,
                                             digest):
        table, items = tabled_world(25, 25)
        gateway = Gateway(RuleBasedOracle(table))
        record, _, _ = run_detection(items, KnowledgeGraph(), config, gateway,
                                     updates=updates)
        gateway.close()
        assert gateway.round_trips / len(items) == pytest.approx(round_trips)
        assert {k: n for k, n in gateway.call_counts.items() if n} == calls
        assert sum(gateway.memo_hits.values()) == memo_hits
        assert record.digest() == digest

    def test_first_batch_holds_subquestions_and_verdict(self):
        table, items = tabled_world(3, 3)
        gateway = Gateway(RuleBasedOracle(table))
        log = BatchLog(gateway)
        for item in items:
            first = len(log.batches)
            detect_one(item, EngineConfig(n=20, h=9, b=3), gateway)
            assert log.batches[first] == {PromptKind.GENERATE_SUBQUESTION,
                                          PromptKind.FINAL_VERDICT}
        gateway.close()

    def test_single_iteration_asks_no_verdict(self):
        """The one iteration is the root's A1, which completes no path, so
        the search sends nothing."""
        table, items = tabled_world(3, 3)
        gateway = Gateway(RuleBasedOracle(table))
        engine = SearchEngine(gateway, EngineConfig(n=1))
        for item in items:
            verdict, paths, tree = engine.search(item.claim, KnowledgeGraph(),
                                                 claim_id=item.id)
            assert verdict is Verdict.FAKE and paths == []
            assert [n.id for n in tree.nodes] == [0]
        assert set(gateway.call_counts.values()) == {0}
        assert gateway.round_trips == 0

    @pytest.mark.parametrize("failures", [2, 1000])
    def test_failed_root_subquestions_ask_verdict_once(self, failures):
        """Each root branch fails its first ``failures`` asks: with 2 the
        second root A1 expansion succeeds, and with 1000 none does."""
        asked: dict[str, int] = {}
        sent = []
        verdict_transcripts = []

        def reply(req, prompt):
            sent.append(req.kind)
            if req.kind is PromptKind.GENERATE_SUBQUESTION:
                key = req.context["transcript"] + req.context["branch"]
                asked[key] = asked.get(key, 0) + 1
                if req.context["transcript"] == "(none)" and \
                        asked[key] <= failures:
                    return " "
                return "sub " + req.context["branch"]
            if req.kind is PromptKind.FINAL_VERDICT:
                verdict_transcripts.append(req.context["transcript"])
                return "Answer: Real"
            return "yes"

        config = EngineConfig(n=5, h=5, b=2)
        gateway = Gateway(ScriptedBackend(reply))
        _, tree = detect_one(NewsItem(id="claim", claim="claim"), config,
                             gateway)
        gateway.close()
        paths = tree.completed_paths
        assert verdict_transcripts.count("(none)") == 1
        root_votes = [p for p in paths if len(p.steps) == 1]
        if failures == 2:
            # The first expansion and its retry fail; the second succeeds,
            # and the root's A3 uses the verdict the first batch asked.
            assert [tree.node(c).action for c in tree.root.children][:2] == \
                [ActionKind.A1, ActionKind.A1]
            assert len(root_votes) == 2
            assert all(p.verdict is Verdict.REAL for p in root_votes)
        else:
            assert tree.root.children == [] and paths == []
            # Asked, with a retry, in every iteration but the last.
            assert sent.count(PromptKind.GENERATE_SUBQUESTION) == 2 * 2 * 4
        structural_check(tree, config)

    def test_hard_subquestion_failure_keeps_its_error(self):
        sent = []

        def reply(req, prompt):
            sent.append(req.kind)
            if req.kind is PromptKind.GENERATE_SUBQUESTION:
                raise GatewayHardError("subquestion down")
            return "Answer: Real"

        gateway = Gateway(ScriptedBackend(reply))
        result, tree = detect_one(NewsItem(id="claim", claim="claim"),
                                  EngineConfig(n=5, h=5, b=2), gateway)
        gateway.close()
        assert result.error == "subquestion down" and tree is None
        # The verdict went out in the same batch and was answered, so it is
        # counted, though no step used it.
        assert sent.count(PromptKind.FINAL_VERDICT) == 1
        assert gateway.call_counts[PromptKind.FINAL_VERDICT] == 1

    def test_clones_ask_their_verdict_once(self):
        """Clones share a transcript: the first one's A1 step asks its
        verdict, and no other clone's does. The memo then answers what it
        answered when only the root's verdict was asked ahead."""
        table, items = tabled_world(3, 3)
        config = EngineConfig(n=20, h=9, b=3)

        def run():
            gateway = Gateway(RuleBasedOracle(table))
            batches = []
            complete_all = gateway.complete_all

            def spy(reqs, ahead=None):
                batches.append(list(reqs))
                return complete_all(reqs, ahead)

            gateway.complete_all = spy
            engine = SearchEngine(gateway, config)
            out = [engine.search(item.claim, KnowledgeGraph(),
                                 claim_id=item.id) for item in items]
            gateway.close()
            return out, batches, gateway

        out, batches, gateway = run()
        with root_verdict_only():
            before, _, gateway_before = run()
        ahead = [(r.context["claim"], r.context["transcript"])
                 for batch in batches for r in batch
                 if r.kind is PromptKind.FINAL_VERDICT and len(batch) > 1]
        assert len(ahead) == len(set(ahead))
        clones = 0
        for _, _, tree in out:
            expanded = [transcript_of(tree, node) for node in tree.nodes
                        if node.action is ActionKind.A2 and any(
                            tree.node(c).action is ActionKind.A1
                            for c in node.children)]
            clones += len(expanded) - len(set(expanded))
            assert {(tree.claim, t) for t in expanded} <= set(ahead)
        assert clones > 0
        assert gateway.memo_hits == gateway_before.memo_hits
        assert gateway.call_counts == gateway_before.call_counts
        assert [(v, paths_digest(p)) for v, p, _ in out] == \
            [(v, paths_digest(p)) for v, p, _ in before]

    def test_unparseable_verdict_asked_ahead_gives_fake(self):
        """The A3 takes the unparseable verdict its A1 step asked, and
        sends nothing."""
        sent = []

        def reply(req, prompt):
            sent.append(req.kind)
            if req.kind is PromptKind.FINAL_VERDICT:
                return "no verdict"
            return "sub " + req.context["branch"]

        engine = SearchEngine(Gateway(ScriptedBackend(reply)),
                              EngineConfig(h=5, b=1))
        tree = SearchTree("claim", engine.config)
        a1 = tree.add_child(tree.root, ActionKind.A1, "q")
        a2 = tree.add_child(a1, ActionKind.A2, "a")
        assert drive(engine.expand(tree, a2, KnowledgeGraph()),
                     engine.gateway)[0].action is ActionKind.A1
        assert sorted(sent, key=str) == [PromptKind.FINAL_VERDICT,
                                         PromptKind.GENERATE_SUBQUESTION]
        leaves = drive(engine.expand(tree, a2, KnowledgeGraph()),
                       engine.gateway)
        engine.gateway.close()
        assert [leaf.verdict for leaf in leaves] == [Verdict.FAKE]
        assert len(sent) == 2
        assert tree.early_verdicts == {transcript_of(tree, a2): None}
        assert engine.gateway.memo_hits[PromptKind.FINAL_VERDICT] == 0

    def test_hard_failure_of_a_verdict_asked_ahead_ends_the_claim(self):
        """The error ends the claim at the A1 step that asked the verdict,
        as the root's verdict, asked in the first step, always did."""
        batches = []

        def reply(req, prompt):
            if req.kind is PromptKind.GENERATE_SUBQUESTION:
                return "sub " + req.context["branch"]
            if req.kind is PromptKind.ANSWER_SUBQUESTION:
                return "yes"
            if req.context["transcript"] != "(none)":
                raise GatewayHardError("verdict down")
            return "Answer: Real"

        gateway = Gateway(ScriptedBackend(reply))
        complete_all = gateway.complete_all

        def spy(reqs, ahead=None):
            batches.append([(r.kind, r.context["transcript"]) for r in reqs])
            return complete_all(reqs, ahead)

        gateway.complete_all = spy
        result, tree = detect_one(NewsItem(id="claim", claim="claim"),
                                  EngineConfig(n=8, h=5, b=2), gateway)
        gateway.close()
        assert result.error == "verdict down" and tree is None
        [transcript] = {transcript for _, transcript in batches[-1]}
        assert transcript.startswith("Q: sub ") and "\nA: yes" in transcript
        assert [kind for kind, _ in batches[-1]] == \
            [PromptKind.GENERATE_SUBQUESTION] * 2 + [PromptKind.FINAL_VERDICT]
        assert gateway.call_counts[PromptKind.GENERATE_SUBQUESTION] == 2 + 2

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 20), h=st.integers(2, 7), b=st.integers(1, 3),
           seed=st.integers(0, 2**16), pick=st.integers(0, 5),
           salt=st.integers(0, 2**32), percent=st.integers(0, 40))
    # A verdict below the root is asked and never taken.
    @example(n=7, h=4, b=2, seed=10190, pick=0, salt=3068582685, percent=19)
    def test_unused_verdicts_belong_to_pending_a3s(self, n, h, b, seed, pick,
                                                   salt, percent):
        """Every verdict asked ahead that no A3 took is that of a node whose
        A3 is still pending. Against the search that asks only the root's
        verdict ahead: the same verdict, paths and digest, and one more
        backend call per such verdict below the root."""
        shipped, calls, tree = garbled_search(n, h, b, seed, pick, salt,
                                              percent)
        with root_verdict_only():
            before, calls_before, _ = garbled_search(n, h, b, seed, pick,
                                                     salt, percent)
        unused = {t for t, held in tree.early_verdicts.items()
                  if held is not None}
        assert unused <= {transcript_of(tree, node) for node in tree.nodes
                          if ActionKind.A3 in node.pending}
        assert shipped == before
        assert calls == calls_before + len(unused - {"(none)"})
