import dataclasses
import heapq
import itertools
import math
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from support import build_parser, fixture_sentences, fixture_trees, random_corpus, reference_apply_rule
from tdparse.grammar import left_factor_tree, log_tree_probability, unfactor_tree
from tdparse.oracle import derivation_tree, enumerate_derivations
from tdparse import conditioning
from tdparse.conditioning import LEFT
from tdparse import parser as parser_module
from tdparse.parser import Analysis, BeamParser, ParseError, ParserConfig, Unreachable, beam_threshold, queue_mass
from tdparse.treebank import AXIOM, END_TOKEN, Tree, augment_with_stop, parse_trees


@pytest.fixture(scope="module")
def g1_parser(g1_trees):
    return build_parser(g1_trees)


@pytest.fixture(scope="module")
def g2_parser():
    return build_parser(fixture_trees("g2.trees"))


def _sent(text):
    return text.split() + [END_TOKEN]


def test_config_validation():
    with pytest.raises(ParseError, match="base_beam"):
        ParserConfig(base_beam=1.0)
    with pytest.raises(ParseError, match="base_beam"):
        ParserConfig(base_beam=-0.1)
    with pytest.raises(ParseError, match="max_pops"):
        ParserConfig(max_pops=0)
    with pytest.raises(ParseError, match="lap_floor"):
        ParserConfig(lap_floor=-1e-3)
    for field in ("base_beam", "lap_floor"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParseError, match=field):
                ParserConfig(**{field: value})
    ParserConfig(base_beam=0.0)  # exact mode is legal


def test_beam_threshold_values():
    # gamma * |H|^3 scaling in log space
    assert beam_threshold(0.0, 100, 1e-11) == pytest.approx(math.log(1e-5), rel=1e-9)
    assert beam_threshold(0.0, 1000, 1e-11) == pytest.approx(math.log(1e-2), rel=1e-9)
    assert beam_threshold(-7.0, 1, 1e-11) == pytest.approx(-7.0 + math.log(1e-11), rel=1e-9)
    # exact search is the same loop with nothing below the threshold
    assert beam_threshold(-7.0, 3, 0.0) == -math.inf


def test_unambiguous_sentence(g1_parser):
    r = g1_parser.parse(_sent("Spot ran"))
    assert not r.failed and r.fallback_from is None
    assert len(r.completed) == 1
    assert r.best_logp == pytest.approx(math.log(0.2025), rel=1e-12)
    want = augment_with_stop(parse_trees("(S (NP (NN Spot)) (VP (VBD ran)))")[0])
    assert r.tree == want


def test_queue_masses_match_exact_prefix_masses(g1_parser):
    r = g1_parser.parse(_sent("Spot ran"))
    assert r.masses == pytest.approx([1.0, 0.36, 0.27, 0.2025], rel=1e-12)
    o = enumerate_derivations(g1_parser.grammar, _sent("Spot ran"))
    assert r.masses == pytest.approx(o.prefix_mass, rel=1e-12)
    r2 = g1_parser.parse(_sent("the dog ran"))
    assert r2.masses == pytest.approx([1.0, 0.4, 0.08, 0.06, 0.045], rel=1e-12)


def test_unseen_subject_object_swap(g1_parser):
    # "ball chased": P = (3/5)(1/5)(3/4)(1/4)
    r = g1_parser.parse(_sent("ball chased"))
    assert not r.failed
    assert r.best_logp == pytest.approx(math.log(0.0225), rel=1e-12)


def test_logp_matches_tree_probability(g1_parser):
    for text in ("Spot ran", "the dog ran", "Spot chased the ball", "ball chased"):
        r = g1_parser.parse(_sent(text))
        for c in r.completed:
            want = log_tree_probability(g1_parser.grammar, left_factor_tree(c.tree))
            assert c.logp == pytest.approx(want, rel=1e-9)


def test_completed_tree_agrees_with_derivation_route(g1_parser, g2_parser):
    jobs = [(g1_parser, _sent("Spot chased the ball"))]
    jobs += [(g2_parser, s + [END_TOKEN]) for s in fixture_sentences("g2.sents")]
    for parser, words in jobs:
        r = parser.parse(words)
        assert not r.failed
        for c in r.completed:
            rebuilt = unfactor_tree(derivation_tree(parser.grammar, c.rules))
            assert rebuilt == c.tree


def test_exact_mode_matches_oracle_on_ambiguity(g2_parser):
    for sent in fixture_sentences("g2.sents"):
        words = sent + [END_TOKEN]
        r = g2_parser.parse(words)
        o = enumerate_derivations(g2_parser.grammar, words)
        assert len(r.completed) == len(o.complete)
        for got, (lp, rids) in zip(r.completed, o.complete):
            assert got.logp == pytest.approx(lp, rel=1e-9)
            assert got.rules == rids
        assert r.masses == pytest.approx(o.prefix_mass, rel=1e-9)


def test_garden_path_fallback(g1_parser):
    r = g1_parser.parse(_sent("the the"))
    assert r.failed and r.completed == []
    assert r.fallback_from == 1
    assert r.tree.yield_tokens() == ["the", "the", END_TOKEN]
    assert r.tree.label == AXIOM


def test_pop_budget_exhaustion_falls_back(g1_trees):
    parser = build_parser(g1_trees, base_beam=1e-11, max_pops=1)
    r = parser.parse(_sent("Spot ran"))
    assert r.failed
    assert r.fallback_from == 0
    assert r.tree.yield_tokens() == ["Spot", "ran", END_TOKEN]


def test_empty_sentence_rejected(g1_parser):
    with pytest.raises(ParseError, match="empty"):
        g1_parser.parse([])


def test_mismatched_context_rejected(g1_trees):
    a = build_parser(g1_trees)
    b = build_parser(g1_trees)
    with pytest.raises(ParseError, match="different grammar"):
        type(a)(a.grammar, b.context, a.lookahead, a.config)


def test_pruned_masses_never_exceed_exact(g1_trees):
    exact = build_parser(g1_trees, base_beam=0.0)
    for gamma in (1e-11, 1e-7, 1e-3):
        pruned = build_parser(g1_trees, base_beam=gamma)
        for text in ("Spot ran", "the dog ran", "Spot chased the ball"):
            em = exact.parse(_sent(text)).masses
            pm = pruned.parse(_sent(text)).masses
            assert len(pm) == len(em)
            for got, cap in zip(pm, em):
                assert got <= cap


def test_tighter_beam_never_gains_mass(g2_parser):
    trees = fixture_trees("g2.trees")
    sents = fixture_sentences("g2.sents")
    loose = build_parser(trees, base_beam=1e-7)
    tight = build_parser(trees, base_beam=1e-3)
    for sent in sents:
        words = sent + [END_TOKEN]
        lm = loose.parse(words).masses
        tm = tight.parse(words).masses
        assert all(t <= l for t, l in zip(tm, lm))


def test_prefix_entries_and_masses(g1_parser):
    entries = g1_parser.prefix_entries(["the"])
    assert queue_mass(entries) == pytest.approx(0.4, rel=1e-12)
    assert g1_parser.advance_mass(entries, "dog") == pytest.approx(0.08, rel=1e-12)
    assert g1_parser.advance_mass(entries, "ball") == pytest.approx(0.08, rel=1e-12)
    assert g1_parser.advance_mass(entries, "the") == 0.0


def test_deterministic_across_runs(g2_parser):
    words = fixture_sentences("g2.sents")[0] + [END_TOKEN]
    a = g2_parser.parse(words)
    b = g2_parser.parse(words)
    assert [c.rules for c in a.completed] == [c.rules for c in b.completed]
    assert a.masses == b.masses
    assert a.pops == b.pops and a.pushes == b.pushes
    assert a.tree == b.tree


def _effort(parser, sents):
    """Summed (pops, pushes, completed parses) over a list of sentences."""
    runs = [parser.parse(words) for words in sents]
    return (
        sum(r.pops for r in runs),
        sum(r.pushes for r in runs),
        sum(len(r.completed) for r in runs),
    )


@pytest.mark.parametrize(
    "gamma, max_pops, want",
    [
        (1e-11, 10_000, (4905, 5130, 92)),
        (1e-7, 10_000, (3392, 3551, 64)),
        (1e-3, 10_000, (2231, 2379, 60)),
        (1e-11, 20, (4872, 5102, 92)),  # the pop budget binds
    ],
)
def test_search_effort_on_desk(desk, gamma, max_pops, want):
    m = desk.models["all"]
    config = ParserConfig(base_beam=gamma, max_pops=max_pops)
    parser = BeamParser(m.grammar, m.context, m.lookahead, config)
    assert _effort(parser, desk.sents) == want


@pytest.mark.parametrize(
    "name, want",
    [
        ("g1", (60, 56, 4)),
        ("g2", (117, 113, 5)),
        ("g3", (138, 133, 9)),
        ("g4", (72, 68, 4)),
        ("g5", (124, 121, 6)),
    ],
)
def test_exact_search_effort(name, want):
    parser = build_parser(fixture_trees(f"{name}.trees"))
    sents = [s + [END_TOKEN] for s in fixture_sentences(f"{name}.sents")]
    assert _effort(parser, sents) == want
    # exact search has no pop budget
    assert _effort(_rebuild(BeamParser, parser, max_pops=1), sents) == want


def test_exact_mode_rejects_left_recursion(desk):
    m = desk.models["all"]
    with pytest.raises(ParseError, match="'NP' is its own left corner"):
        BeamParser(m.grammar, m.context, m.lookahead, ParserConfig(base_beam=0.0))
    BeamParser(m.grammar, m.context, m.lookahead, ParserConfig(base_beam=1e-11))


def test_exact_mode_rejects_unary_cycle():
    trees = parse_trees("(S (X (Y (X (NN a)))))\n(S (X (NN b)))")
    with pytest.raises(ParseError, match="'X' is its own left corner"):
        build_parser(trees)
    build_parser(trees, base_beam=1e-11)


class UnfilteredParser(BeamParser):
    """The kernel with the reachability filter off: the reference the filter must match.

    Its spine steps call ``reference_apply_rule``, so it shares no spine
    code with the kernel it checks.
    """

    def __init__(self, *args):
        super().__init__(*args)
        rules = self.grammar.rules
        self._lexical = {
            key: (rid, partial(reference_apply_rule, rule=rules[rid])) for key, (rid, _) in self._lexical.items()
        }
        self._phrasal = {
            lhs: tuple((rid, pushed, partial(reference_apply_rule, rule=rules[rid])) for rid, pushed, _ in entries)
            for lhs, entries in self._phrasal.items()
        }

    def _reaches(self, stack, tags):
        return True


def _rebuild(cls, parser, **config):
    """A ``cls`` parser on ``parser``'s model, with some config fields replaced."""
    return cls(parser.grammar, parser.context, parser.lookahead, dataclasses.replace(parser.config, **config))


def test_first_pos_and_nullable_on_g1(g1_parser):
    assert g1_parser.nullable == {"NP-DT,NN", "NP-NN", "S-NP,VP", "TOP-S,STOP", "VP-VBD", "VP-VBD,NP"}
    first = {sym: set(tags) for sym, tags in g1_parser.first_pos.items() if tags}
    assert first == {
        "DT": {"DT"}, "NN": {"NN"}, "VBD": {"VBD"}, "STOP": {"STOP"},
        "NP": {"DT", "NN"}, "NP-DT": {"NN"}, "S": {"DT", "NN"}, "S-NP": {"VBD"},
        "TOP": {"DT", "NN"}, "TOP-S": {"STOP"}, "VP": {"VBD"}, "VP-VBD": {"DT", "NN"},
    }
    assert {sym for sym, tags in g1_parser.first_pos.items() if not tags} == g1_parser.nullable - {"VP-VBD"}
    assert g1_parser.grammar.word_pos["ball"] == {"NN"} and "zebra" not in g1_parser.grammar.word_pos


def test_reachability_scans_through_erasable_symbols(g1_parser):
    reaches, word_pos = g1_parser._reaches, g1_parser.grammar.word_pos
    # top of stack at the end: VP-VBD,NP and S-NP,VP erase, TOP-S starts with STOP
    stack = ("TOP-S", "S-NP,VP", "VP-VBD,NP")
    assert reaches(stack, word_pos["</s>"])
    assert not reaches(stack, word_pos["ran"])
    # VP-VBD erases or starts an NP; S-NP cannot erase, so the scan stops there
    assert reaches(("TOP-S", "S-NP", "VP-VBD"), word_pos["the"])
    assert reaches(("TOP-S", "S-NP", "NP-NN"), word_pos["ran"])
    assert not reaches(("TOP-S", "S-NP", "NP-NN"), word_pos["</s>"])
    assert not reaches(("S-NP,VP",), word_pos["ran"])
    assert not reaches((), word_pos["ran"])


def _same_parse(parser, reference, words):
    """The filtered parse equals the reference's and costs no more."""
    got, want = parser.parse(words), reference.parse(words)
    assert got.masses == want.masses
    assert [(c.logp, c.rules) for c in got.completed] == [(c.logp, c.rules) for c in want.completed]
    assert got.tree == want.tree and got.failed == want.failed
    assert got.pops <= want.pops and got.pushes <= want.pushes


def _queues_agree(parser, reference, words):
    """Run both kernels on the reference's queue at each position.

    The reference's goals always come first, in order, among the filtered
    kernel's goals.  Where the reference did not use up its budget, the
    goals are equal.  Returns whether the budget bound any queue.
    """
    exact = parser.config.base_beam == 0.0
    bound = False
    entries = reference.initial_entries(words[0])
    for i, w in enumerate(words):
        nxt = words[i + 1] if i + 1 < len(words) else None
        got, pops, _ = parser.advance(entries, w, nxt)
        want, ref_pops, _ = reference.advance(entries, w, nxt)
        assert [g.rules for g in got[: len(want)]] == [g.rules for g in want]
        if exact or ref_pops < reference.config.max_pops:
            assert [(g.rules, g.logp, g.logf) for g in got] == [(g.rules, g.logp, g.logf) for g in want]
            assert pops <= ref_pops
        else:
            bound = True
        entries = want
    return bound


@pytest.mark.parametrize("gamma", [1e-11, 1e-3])
def test_filter_matches_unfiltered_kernel_on_desk(desk, gamma):
    m = desk.models["all"]
    parser = BeamParser(m.grammar, m.context, m.lookahead, ParserConfig(base_beam=gamma))
    reference = _rebuild(UnfilteredParser, parser)
    for words in desk.sents:
        _same_parse(parser, reference, words)
        assert not _queues_agree(parser, reference, words)


def test_filter_keeps_every_goal_when_the_budget_binds(desk):
    m = desk.models["all"]
    parser = BeamParser(m.grammar, m.context, m.lookahead, ParserConfig(max_pops=20))
    reference = _rebuild(UnfilteredParser, parser)
    assert sum(_queues_agree(parser, reference, words) for words in desk.sents) > 0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_filter_matches_unfiltered_kernel_on_random_grammars(n, seed):
    trees = random_corpus(n, seed)
    try:
        parser = build_parser(trees)
    except ParseError:  # left recursion: exact mode would not terminate
        parser = build_parser(trees, base_beam=1e-11, max_pops=500)
    reference = _rebuild(UnfilteredParser, parser)
    # Short sentences only: exact mode enumerates every derivation.
    sents = [t.yield_tokens() + [END_TOKEN] for t in trees if len(t.yield_tokens()) <= 5][:3]
    sents += [s[-2::-1] + [END_TOKEN] for s in sents[:1]]    # reversed, often ungrammatical
    for words in sents:
        if not _queues_agree(parser, reference, words):
            _same_parse(parser, reference, words)


class ScanningParser(BeamParser):
    """The kernel before the lexical index: the reference the index must match.

    Each pop walks every expansion of the popped symbol in rule order and
    skips the lexical rules whose word does not match.  Spine steps go
    through ``reference_apply_rule``.
    """

    def _expand(self, entries, word, next_word):
        ending = word is None
        base_beam = self.config.base_beam
        exact = base_beam == 0.0
        if not ending:
            reaches = self._reaches
            tags = self.grammar.word_pos.get(word, frozenset())
            entries = [e for e in entries if reaches(e.stack, tags)]
        tie = itertools.count()
        heap = [(-e.logf, next(tie), e) for e in entries]
        heapq.heapify(heap)
        goals = []
        best = -math.inf
        pops = pushes = 0
        while heap:
            if not exact:
                if goals and -heap[0][0] < beam_threshold(best, len(goals), base_beam):
                    break
                if pops >= self.config.max_pops:
                    break
            a = heapq.heappop(heap)[2]
            pops += 1
            if not a.stack:
                if ending and a.tree is not None:
                    goals.append(a)
                    best = max(best, a.logp)
                continue
            top = a.stack[-1]
            rest = a.stack[:-1]
            score = self.context.scorer(a.spine, top)
            for rule, rid, _ in self.grammar.by_lhs[top]:
                if rule.lexical:
                    if rule.rhs[0] != word:
                        continue
                    stack = rest
                else:
                    stack = rest + (rule.rhs[1], rule.rhs[0]) if rule.rhs else rest
                    if not ending and not reaches(stack, tags):
                        continue
                lp = score(rid)
                if lp == -math.inf:
                    continue
                logp = a.logp + lp
                rules = a.rules + (rid,)
                if rule.lexical:
                    logf = logp + self._lap_log(stack, next_word)
                    if not exact and goals and logf < beam_threshold(best, len(goals), base_beam):
                        continue
                    spine, done = reference_apply_rule(a.spine, rule)
                    goals.append(Analysis(stack, spine, logp, logf, rules, done))
                    pushes += 1
                    best = max(best, logf)
                    continue
                spine, done = reference_apply_rule(a.spine, rule)
                if not stack:
                    if ending:
                        goals.append(Analysis((), None, logp, logp, rules, done))
                        best = max(best, logp)
                    continue
                logf = logp + self._lap_log(stack, word)
                heapq.heappush(heap, (-logf, next(tie), Analysis(stack, spine, logp, logf, rules)))
                pushes += 1
        if ending:
            goals.sort(key=lambda c: (-c.logp, c.rules))
        return goals, pops, pushes


def _same_search(parser, reference, words):
    """The indexed parse equals the scanning one, search effort included."""
    got, want = parser.parse(words), reference.parse(words)
    assert got.masses == want.masses
    assert [(c.logp, c.rules) for c in got.completed] == [(c.logp, c.rules) for c in want.completed]
    assert [c.tree for c in got.completed] == [c.tree for c in want.completed]
    assert got.tree == want.tree and got.failed == want.failed
    assert (got.pops, got.pushes) == (want.pops, want.pushes)


@pytest.mark.parametrize("gamma, max_pops", [(1e-11, 10_000), (1e-3, 10_000), (1e-11, 20)])
def test_lexical_index_matches_scanning_kernel_on_desk(desk, gamma, max_pops):
    m = desk.models["all"]
    parser = BeamParser(m.grammar, m.context, m.lookahead, ParserConfig(base_beam=gamma, max_pops=max_pops))
    reference = _rebuild(ScanningParser, parser)
    for words in desk.sents:
        _same_search(parser, reference, words)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_lexical_index_matches_scanning_kernel_on_random_grammars(n, seed):
    trees = random_corpus(n, seed)
    try:
        parser = build_parser(trees)
    except ParseError:  # left recursion: exact mode would not terminate
        parser = build_parser(trees, base_beam=1e-11, max_pops=500)
    # Short sentences only: exact mode enumerates every derivation.
    sents = [t.yield_tokens() + [END_TOKEN] for t in trees if len(t.yield_tokens()) <= 5][:3]
    sents += [s[-2::-1] + [END_TOKEN] for s in sents[:1]]    # reversed, often ungrammatical
    for config in ({}, {"base_beam": 1e-3, "max_pops": 20}):
        indexed = _rebuild(BeamParser, parser, **config)
        reference = _rebuild(ScanningParser, parser, **config)
        for words in sents:
            _same_search(indexed, reference, words)


# X is a preterminal (X -> a, X -> b) and a phrase (X -> Y X-Y) at once, so
# a pop of X mid-sentence yields a goal and heap entries from one scorer.
MIXED_TREES = """
(S (X a) (Z b))
(S (X (Y a)) (Z b))
(S (X (Y a) (X b)) (Z b))
(S (Z b) (X (Y b)))
"""


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.5])
def test_lexical_index_matches_scanning_kernel_on_mixed_symbol(gamma):
    parser = build_parser(parse_trees(MIXED_TREES), base_beam=gamma)
    assert ("X", "a") in parser.grammar.lexical and parser.grammar.phrasal["X"]
    reference = _rebuild(ScanningParser, parser)
    for text in ("a b", "a b b", "b b", "b a", "a a b", "a", "b a b a"):
        _same_search(parser, reference, _sent(text))
    # Both routes for X reach a complete parse of "a b".
    routes = {c.tree for c in parser.parse(_sent("a b")).completed}
    assert {t.children[0].children[0] for t in routes} == {
        parse_trees("(X a)")[0], parse_trees("(X (Y a))")[0]
    }


def test_lexical_index_and_phrasal_rules_partition_expansions(desk):
    m = desk.models["all"]
    for parser in (BeamParser(m.grammar, m.context, m.lookahead), build_parser(parse_trees(MIXED_TREES))):
        grammar = parser.grammar
        assert set(grammar.phrasal) == set(grammar.by_lhs)
        lexical = {lhs: [] for lhs in grammar.by_lhs}
        for (pos, word), (rule, rid) in grammar.lexical.items():
            assert rule == grammar.rules[rid] == (pos, (word,), True)
            lexical[pos].append((rule, rid))
        for lhs, expansions in grammar.by_lhs.items():
            phrasal = grammar.phrasal[lhs]
            assert list(phrasal) == [(r, rid) for r, rid, _ in expansions if not r.lexical]
            # Together, and with no rule twice, they are every expansion.
            assert sorted(phrasal + tuple(lexical[lhs]), key=lambda e: e[1]) == [(r, rid) for r, rid, _ in expansions]


class UncachedContext:
    """Rule scoring before the per-site cache: a fresh estimator on every call.

    The reference the cached ``ContextModel.scorer`` must match; it reads
    the same tables and weights.
    """

    def __init__(self, context):
        self.context = context
        self.grammar = context.grammar

    def scorer(self, spine, lhs):
        c = self.context
        path, values = c.extract_values(spine, lhs) if c.config.max_depth else (LEFT, (lhs,))
        prob = c.estimator((path,), values[:1], c._levels(values))

        def score(rid):
            p = prob(rid)
            return math.log(p) if p > 0.0 else -math.inf

        return score


class UnmemoizedParser(BeamParser):
    """The kernel before the push-test memo: the reference the memo must match.

    Every push runs the reachability scan and the look-ahead walk again,
    the beam cutoff is recomputed before every pop, and spine steps go
    through ``reference_apply_rule``.
    """

    def initial_entries(self, first_word):
        stack = (AXIOM,)
        return [Analysis(stack, None, 0.0, self._lap_log(stack, first_word), ())]

    def advance_mass(self, entries, word):
        rescored = [
            Analysis(e.stack, e.spine, e.logp, e.logp + self._lap_log(e.stack, word), e.rules)
            for e in entries
        ]
        return queue_mass(self.advance(rescored, word, None)[0])

    def _expand(self, entries, word, next_word):
        ending = word is None
        base_beam = self.config.base_beam
        budget = self.config.max_pops if base_beam else math.inf
        lexical = self.grammar.lexical
        phrasal = self.grammar.phrasal
        if not ending:
            reaches = self._reaches
            tags = self.grammar.word_pos.get(word, frozenset())
            entries = [e for e in entries if reaches(e.stack, tags)]
        tie = itertools.count()
        heap = [(-e.logf, next(tie), e) for e in entries]
        heapq.heapify(heap)
        goals = []
        best = -math.inf
        pops = pushes = 0
        while heap and pops < budget:
            if goals and -heap[0][0] < beam_threshold(best, len(goals), base_beam):
                break
            a = heapq.heappop(heap)[2]
            pops += 1
            if not a.stack:
                if ending and a.tree is not None:
                    goals.append(a)
                    best = max(best, a.logp)
                continue
            top = a.stack[-1]
            rest = a.stack[:-1]
            score = self.context.scorer(a.spine, top)
            consume = lexical.get((top, word))
            if consume is not None:
                rule, rid = consume
                lp = score(rid)
                if lp != -math.inf:
                    logp = a.logp + lp
                    logf = logp + self._lap_log(rest, next_word)
                    if not goals or logf >= beam_threshold(best, len(goals), base_beam):
                        spine, done = reference_apply_rule(a.spine, rule)
                        goals.append(Analysis(rest, spine, logp, logf, a.rules + (rid,), done))
                        pushes += 1
                        best = max(best, logf)
            for rule, rid in phrasal[top]:
                stack = rest + (rule.rhs[1], rule.rhs[0]) if rule.rhs else rest
                if not ending and not reaches(stack, tags):
                    continue
                lp = score(rid)
                if lp == -math.inf:
                    continue
                logp = a.logp + lp
                rules = a.rules + (rid,)
                spine, done = reference_apply_rule(a.spine, rule)
                if not stack:
                    if ending:
                        goals.append(Analysis((), None, logp, logp, rules, done))
                        best = max(best, logp)
                    continue
                logf = logp + self._lap_log(stack, word)
                heapq.heappush(heap, (-logf, next(tie), Analysis(stack, spine, logp, logf, rules)))
                pushes += 1
        if ending:
            goals.sort(key=lambda c: (-c.logp, c.rules))
        return goals, pops, pushes


def _uncached(parser):
    """``parser``'s model and config in the unmemoized kernel, on scorers that cache nothing."""
    return UnmemoizedParser(parser.grammar, UncachedContext(parser.context), parser.lookahead, parser.config)


def _same_masses(parser, reference, words, candidates):
    """Equal next-word masses at every prefix of ``words``."""
    for k in range(len(words)):
        entries = parser.prefix_entries(words[:k])
        want_entries = reference.prefix_entries(words[:k])
        assert [(e.logp, e.logf, e.rules) for e in entries] == [(e.logp, e.logf, e.rules) for e in want_entries]
        for w in candidates:
            assert parser.advance_mass(entries, w) == reference.advance_mass(want_entries, w)


@pytest.mark.parametrize("gamma, max_pops", [(1e-11, 10_000), (1e-3, 10_000), (1e-11, 20)])
def test_memoized_kernel_matches_unmemoized_kernel_on_desk(desk, gamma, max_pops):
    m = desk.models["all"]
    parser = BeamParser(m.grammar, m.context, m.lookahead, ParserConfig(base_beam=gamma, max_pops=max_pops))
    reference = _rebuild(UnmemoizedParser, parser)
    assert not parser._memo
    for _ in range(2):  # cold, then from the memo
        for words in desk.sents:
            _same_search(parser, reference, words)
        for words in desk.sents[:3]:
            _same_masses(parser, reference, words, ["the", "desk", "ran", "zebra", END_TOKEN])
    assert parser._memo


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_memoized_kernel_matches_unmemoized_kernel_on_random_grammars(n, seed):
    trees = random_corpus(n, seed)
    try:
        parser = build_parser(trees)
    except ParseError:  # left recursion: exact mode would not terminate
        parser = build_parser(trees, base_beam=1e-11, max_pops=500)
    sents = [t.yield_tokens() + [END_TOKEN] for t in trees if len(t.yield_tokens()) <= 5][:3]
    sents += [s[-2::-1] + [END_TOKEN] for s in sents[:1]]    # reversed, often ungrammatical
    candidates = sorted(parser.grammar.word_pos)
    for config in ({}, {"base_beam": 1e-3, "max_pops": 20}):
        memoized = _rebuild(BeamParser, parser, **config)
        reference = _rebuild(UnmemoizedParser, parser, **config)
        for _ in range(2):  # cold, then from the memo
            for words in sents:
                _same_search(memoized, reference, words)
            for words in sents[:1]:
                _same_masses(memoized, reference, words, candidates)


@pytest.mark.parametrize("gamma", [1e-11, 1e-3])
def test_cached_scores_match_uncached_kernel_on_desk(desk, gamma):
    m = desk.models["all"]
    parser = BeamParser(m.grammar, m.context, m.lookahead, ParserConfig(base_beam=gamma))
    reference = _uncached(parser)
    # The second pass reads only cached scores.
    for words in desk.sents + desk.sents:
        _same_search(parser, reference, words)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_cached_scores_match_uncached_kernel_on_random_grammars(n, seed):
    trees = random_corpus(n, seed)
    depths = (6, 5, 4)
    try:
        parser = build_parser(trees, depths, heldout=trees)
    except ParseError:  # left recursion: exact mode would not terminate
        parser = build_parser(trees, depths, base_beam=1e-11, heldout=trees, max_pops=500)
    reference = _uncached(parser)
    sents = [t.yield_tokens() + [END_TOKEN] for t in trees if len(t.yield_tokens()) <= 5][:3]
    sents += [s[-2::-1] + [END_TOKEN] for s in sents[:1]]    # reversed, often ungrammatical
    for words in sents + sents:
        _same_search(parser, reference, words)


def test_memoized_lookahead_matches_recomputation(desk):
    m = desk.models["all"]
    tables = m.lookahead
    walked = BeamParser(m.grammar, m.context, tables)
    for words in desk.sents:
        walked.parse(words)
    symbols = sorted(tables.occurrences)
    words = sorted(m.grammar.word_pos) + ["zebra", None]
    stacks = [(sym,) for sym in symbols] + [r.rhs[::-1] for r in m.grammar.rules if len(r.rhs) == 2] + [()]
    pairs = list(walked._memo) + [(stack, word) for stack in stacks for word in words]
    parser = BeamParser(m.grammar, m.context, tables)
    for _ in range(2):  # cold, then from the memo
        for stack, word in pairs:
            got = parser._lap(stack, word)
            assert got == math.log(max(tables.stack_prob(reversed(stack), word), parser.config.lap_floor))
            tags = m.grammar.word_pos.get(word, frozenset())
            assert isinstance(got, Unreachable) == (word is not None and not parser._reaches(stack, tags))


class CappedContext:
    """The cached scorer, checking after every call that the site dict keeps to its cap."""

    def __init__(self, context):
        self.context = context
        self.grammar = context.grammar
        self.largest = 0

    def scorer(self, spine, lhs):
        score = self.context.scorer(spine, lhs)
        self.largest = max(self.largest, len(self.context.site_scores))
        assert self.largest <= conditioning.SITE_CACHE_CAP
        return score


def test_site_cache_cap_changes_no_output(desk, monkeypatch):
    monkeypatch.setattr(conditioning, "SITE_CACHE_CAP", 4)
    m = desk.models["all"]
    m.context.site_scores.clear()    # other tests filled it under the real cap
    reference = _uncached(BeamParser(m.grammar, m.context, m.lookahead))
    capped = CappedContext(m.context)
    parser = BeamParser(m.grammar, capped, m.lookahead)
    for words in desk.sents:
        _same_search(parser, reference, words)
    assert capped.largest == 4


class CappedParser(BeamParser):
    """The memoized kernel, checking after every miss that the memo keeps to its cap."""

    largest = 0

    def _fill(self, stack, word):
        lap = super()._fill(stack, word)
        self.largest = max(self.largest, len(self._memo))
        assert self.largest <= parser_module.LOOKAHEAD_CACHE_CAP
        return lap


def test_lookahead_cache_cap_changes_no_output(desk, monkeypatch):
    monkeypatch.setattr(parser_module, "LOOKAHEAD_CACHE_CAP", 4)
    m = desk.models["all"]
    parser = CappedParser(m.grammar, m.context, m.lookahead)
    reference = _rebuild(UnmemoizedParser, parser)
    for words in desk.sents:
        _same_search(parser, reference, words)
    _same_masses(parser, reference, desk.sents[0], ["the", "desk", END_TOKEN])
    assert parser.largest == 4


def _preterminals(tree):
    stack = [tree]
    while stack:
        t = stack.pop()
        if t.is_preterminal:
            yield t
        else:
            stack.extend(t.children)


def test_shared_preterminals_survive_a_desk_pass(desk):
    m = desk.models["all"]
    parser = BeamParser(m.grammar, m.context, m.lookahead)
    shared = {key: step(None)[1] for key, (_, step) in parser._lexical.items()}
    before = {key: (t.label, t.children, t.children[0].label, t.children[0].children) for key, t in shared.items()}
    used = 0
    for words in desk.sents:
        result = parser.parse(words)
        for t in _preterminals(result.tree):
            # Every parse result holds the step's own subtree, not a copy.
            assert t is shared[t.label, t.children[0].label]
            used += 1
    assert used
    after = {key: (t.label, t.children, t.children[0].label, t.children[0].children) for key, t in shared.items()}
    assert after == before
    assert all(t == Tree(pos, (Tree(word),)) for (pos, word), t in shared.items())
