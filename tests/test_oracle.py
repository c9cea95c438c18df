import math

import pytest

from support import build_parser, factored_corpus, fixture_sentences, fixture_trees
from tdparse.grammar import Pcfg, Rule, induce_pcfg, unfactor_tree
from tdparse.oracle import (
    OracleConfig,
    OracleError,
    derivation_tree,
    enumerate_derivations,
    exact_next_word_probs,
)
from tdparse.treebank import END_TOKEN, augment_with_stop, parse_trees


@pytest.fixture(scope="module")
def g1(g1_trees):
    return induce_pcfg(factored_corpus(g1_trees))


def _sent(text):
    return text.split() + [END_TOKEN]


def test_sentence_probabilities(g1):
    assert enumerate_derivations(g1, _sent("Spot ran")).sentence_prob == pytest.approx(
        0.2025, rel=1e-12
    )
    assert enumerate_derivations(g1, _sent("the dog ran")).sentence_prob == pytest.approx(
        0.045, rel=1e-12
    )
    assert enumerate_derivations(g1, _sent("the the")).sentence_prob == 0.0


def test_prefix_masses_and_word_probs(g1):
    r = enumerate_derivations(g1, _sent("the dog ran"))
    assert r.prefix_mass == pytest.approx([1.0, 0.4, 0.08, 0.06, 0.045], rel=1e-12)
    assert r.word_prob(0) == pytest.approx(0.4, rel=1e-12)
    assert r.word_prob(1) == pytest.approx(0.2, rel=1e-12)
    # telescoping: the word probabilities multiply back to the sentence
    prod = math.prod(r.word_prob(i) for i in range(len(r.words)))
    assert prod == pytest.approx(r.sentence_prob, rel=1e-9)


def test_word_prob_after_dead_prefix(g1):
    r = enumerate_derivations(g1, _sent("the the"))
    assert r.prefix_mass[2] == 0.0
    assert r.word_prob(2) == 0.0


def test_complete_derivations_sorted(g1):
    g2 = induce_pcfg(factored_corpus(fixture_trees("g2.trees")))
    for sent in fixture_sentences("g2.sents"):
        r = enumerate_derivations(g2, sent + [END_TOKEN])
        assert r.complete == sorted(r.complete, key=lambda c: (-c[0], c[1]))


def test_single_derivation_probability_one():
    # one tree, no choices anywhere: every conditional is 1
    g = induce_pcfg(factored_corpus(parse_trees("(S (A x) (B y))")))
    r = enumerate_derivations(g, ["x", "y", END_TOKEN])
    assert r.sentence_prob == pytest.approx(1.0, rel=1e-12)
    assert all(m == pytest.approx(1.0, rel=1e-12) for m in r.prefix_mass)


def test_next_word_distribution_sums_to_one(g1):
    vocab = sorted(g1.vocabulary)
    for prefix in ([], ["Spot"], ["the"], ["the", "dog"], ["Spot", "chased"]):
        probs = exact_next_word_probs(g1, prefix, vocab)
        assert math.fsum(probs.values()) == pytest.approx(1.0, abs=1e-9)
    after_the = exact_next_word_probs(g1, ["the"], vocab)
    assert after_the["Spot"] == pytest.approx(0.6, rel=1e-12)
    assert after_the["ball"] == pytest.approx(0.2, rel=1e-12)
    assert after_the["dog"] == pytest.approx(0.2, rel=1e-12)
    assert after_the["the"] == 0.0
    assert after_the[END_TOKEN] == 0.0


def test_budget_error_on_left_recursion():
    rules = {
        Rule("TOP", ("X", "TOP-X"), False): 1,
        Rule("TOP-X", (), False): 1,
        Rule("X", ("A", "X-A"), False): 1,
        Rule("X", ("X", "X-X"), False): 1,
        Rule("X-A", (), False): 1,
        Rule("X-X", (), False): 1,
        Rule("A", ("a",), True): 1,
    }
    g = Pcfg(rules)
    with pytest.raises(OracleError, match="budget exhausted"):
        enumerate_derivations(g, ["a"], OracleConfig(max_steps=200))


def test_budget_tolerates_negligible_frontier():
    # same grammar, but a tolerance of 1 lets the tiny frontier be dropped
    rules = {
        Rule("TOP", ("X", "TOP-X"), False): 1,
        Rule("TOP-X", (), False): 1,
        Rule("X", ("A", "X-A"), False): 1,
        Rule("X", ("X", "X-X"), False): 1,
        Rule("X-A", (), False): 1,
        Rule("X-X", (), False): 1,
        Rule("A", ("a",), True): 1,
    }
    g = Pcfg(rules)
    r = enumerate_derivations(g, ["a"], OracleConfig(max_steps=200, mass_tol=1.0))
    assert r.steps >= 200


def test_derivation_tree_round_trip(g1, g1_trees):
    for t in g1_trees:
        words = t.yield_tokens() + [END_TOKEN]
        r = enumerate_derivations(g1, words)
        rebuilt = [unfactor_tree(derivation_tree(g1, rids)) for _, rids in r.complete]
        assert augment_with_stop(t) in rebuilt


def test_derivation_tree_matches_parser_spine(g1, g1_trees):
    parser = build_parser(g1_trees)
    for text in ("Spot ran", "Spot chased the ball"):
        r = enumerate_derivations(g1, _sent(text))
        parsed = parser.parse(_sent(text))
        oracle_trees = [unfactor_tree(derivation_tree(g1, rids)) for _, rids in r.complete]
        assert oracle_trees == [c.tree for c in parsed.completed]


def test_derivation_tree_error_paths(g1):
    r = enumerate_derivations(g1, _sent("Spot ran"))
    rids = r.complete[0][1]
    with pytest.raises(OracleError, match="ended while"):
        derivation_tree(g1, rids[:-1])
    with pytest.raises(OracleError, match="beyond the complete tree"):
        derivation_tree(g1, rids + rids[-1:])
    with pytest.raises(OracleError, match="where"):
        derivation_tree(g1, rids[1:])
