import math

import pytest

from support import build_parser, fixture_sentences, fixture_trees
from tdparse.grammar import left_factor_tree, log_tree_probability, unfactor_tree
from tdparse.oracle import derivation_tree, enumerate_derivations
from tdparse.parser import BeamParser, ParseError, ParserConfig, beam_threshold, queue_mass
from tdparse.treebank import END_TOKEN, augment_with_stop, parse_trees


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
    ParserConfig(base_beam=0.0)  # exact mode is legal


def test_beam_threshold_values():
    # gamma * |H|^3 scaling in log space
    assert beam_threshold(0.0, 100, 1e-11) == pytest.approx(math.log(1e-5), rel=1e-9)
    assert beam_threshold(0.0, 1000, 1e-11) == pytest.approx(math.log(1e-2), rel=1e-9)
    assert beam_threshold(-7.0, 1, 1e-11) == pytest.approx(-7.0 + math.log(1e-11), rel=1e-9)


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
    assert r.tree.label == g1_parser.grammar.start


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
        (1e-11, 10_000, (5237, 7255, 92)),
        (1e-7, 10_000, (3392, 4879, 64)),
        (1e-3, 10_000, (2231, 3225, 60)),
        (1e-11, 20, (5204, 7213, 92)),  # the pop budget binds
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
        ("g1", (77, 73, 4)),
        ("g2", (164, 160, 5)),
        ("g3", (199, 194, 9)),
        ("g4", (104, 100, 4)),
        ("g5", (162, 159, 6)),
    ],
)
def test_exact_search_effort(name, want):
    parser = build_parser(fixture_trees(f"{name}.trees"))
    sents = [s + [END_TOKEN] for s in fixture_sentences(f"{name}.sents")]
    assert _effort(parser, sents) == want


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
