import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from support import factored_corpus, random_corpus
from tdparse.grammar import (
    GrammarError,
    Pcfg,
    Rule,
    induce_pcfg,
    is_factored,
    left_factor_tree,
    log_tree_probability,
    make_factored,
    split_factored,
    tree_probability,
    tree_to_derivation,
    unfactor_tree,
)
from tdparse.treebank import (
    AXIOM,
    EPSILON,
    Tree,
    augment_with_stop,
    parse_trees,
    to_bracketed,
)


def test_label_helpers():
    assert make_factored("NP", ()) == "NP"
    assert make_factored("NP", ("DT", "NN")) == "NP-DT,NN"
    assert split_factored("NP-DT,NN") == ("NP", ("DT", "NN"))
    assert split_factored("NP") == ("NP", ())
    assert is_factored("VP-VBD") and not is_factored("VP")


def test_rule_render():
    assert Rule("NP", ("DT", "NP-DT"), False).render() == "NP -> DT NP-DT"
    assert Rule("NP-DT,NN", (), False).render() == f"NP-DT,NN -> {EPSILON}"
    assert Rule("DT", ("the",), True).render() == "DT -> 'the"


# Factored labels contain reserved characters, so expected shapes are
# checked on the rendered text rather than re-parsed.

def test_left_factor_binary_node():
    t = parse_trees("(NP (DT the) (NN ball))")[0]
    assert to_bracketed(left_factor_tree(t)) == (
        f"(NP (DT the) (NP-DT (NN ball) (NP-DT,NN {EPSILON})))"
    )


def test_left_factor_unary_and_ternary():
    u = parse_trees("(S (VP (VBD ran)))")[0]
    assert to_bracketed(left_factor_tree(u)) == (
        f"(S (VP (VBD ran) (VP-VBD {EPSILON})) (S-VP {EPSILON}))"
    )
    t = parse_trees("(S (A x) (B y) (C z))")[0]
    assert to_bracketed(left_factor_tree(t)) == (
        f"(S (A x) (S-A (B y) (S-A,B (C z) (S-A,B,C {EPSILON}))))"
    )


def test_factor_preterminal_identity():
    t = parse_trees("(DT the)")[0]
    assert left_factor_tree(t) is t


def test_factor_rejects_bare_token_children():
    with pytest.raises(GrammarError, match="own preterminal"):
        left_factor_tree(parse_trees("(S x (NP (NN y)))")[0])
    with pytest.raises(GrammarError, match="bare token"):
        left_factor_tree(Tree("x"))


def test_unfactor_round_trip(g1_trees):
    for t in g1_trees:
        aug = augment_with_stop(t)
        assert unfactor_tree(left_factor_tree(aug)) == aug


def test_unfactor_rejects_malformed_chains():
    good = left_factor_tree(parse_trees("(S (A x) (B y) (C z))")[0])
    # break the chain by renaming the middle factored node
    broken = Tree(
        good.label,
        (good.children[0], Tree("S-B", good.children[1].children)),
    )
    with pytest.raises(GrammarError, match="does not continue"):
        unfactor_tree(broken)
    factored_root = Tree(
        "S-A", (Tree("B", (Tree("y"),)), Tree("S-A,B", (Tree(EPSILON),)))
    )
    with pytest.raises(GrammarError, match="factored label"):
        unfactor_tree(factored_root)
    dangling = Tree(
        "S", (Tree("A", (Tree("x"),)), Tree("S-A", (Tree("B", (Tree("y"),)),)))
    )
    with pytest.raises(GrammarError, match="dangling"):
        unfactor_tree(dangling)


def test_derivation_order():
    t = left_factor_tree(parse_trees("(NP (DT the) (NN ball))")[0])
    rendered = [r.render() for r in tree_to_derivation(t)]
    assert rendered == [
        "NP -> DT NP-DT",
        "DT -> 'the",
        "NP-DT -> NN NP-DT,NN",
        "NN -> 'ball",
        f"NP-DT,NN -> {EPSILON}",
    ]


def test_induced_rule_probabilities(g1_trees):
    g = induce_pcfg(factored_corpus(g1_trees))
    # Hand-tallied from g1.trees: 5 NPs (3 bare NN, 2 with DT), 4 VPs
    # (3 intransitive), 5 NN tokens (Spot x3, ball, dog).
    prob = {rule: math.exp(lp) for entries in g.by_lhs.values() for rule, _, lp in entries}
    assert prob[Rule("NP", ("NN", "NP-NN"), False)] == pytest.approx(3 / 5)
    assert prob[Rule("NP", ("DT", "NP-DT"), False)] == pytest.approx(2 / 5)
    assert prob[Rule("VP-VBD", (), False)] == pytest.approx(3 / 4)
    assert prob[Rule("VP-VBD", ("NP", "VP-VBD,NP"), False)] == pytest.approx(1 / 4)
    assert prob[Rule("NN", ("Spot",), True)] == pytest.approx(3 / 5)
    assert prob[Rule("VP", ("VBD", "VP-VBD"), False)] == 1.0


def test_probabilities_sum_to_one_per_lhs(g1_trees):
    g = induce_pcfg(factored_corpus(g1_trees))
    for lhs, entries in g.by_lhs.items():
        assert math.fsum(math.exp(lp) for _, _, lp in entries) == pytest.approx(
            1.0, abs=1e-12
        )


def test_rule_ids_stable_and_sorted(g1_trees):
    g = induce_pcfg(factored_corpus(g1_trees))
    assert g.rules == sorted(g.rules)
    assert all(g.rules[i] == r for r, i in g.rule_ids.items())


def test_g1_tree_probability(g1_trees):
    g = induce_pcfg(factored_corpus(g1_trees))
    target = augment_with_stop(parse_trees("(S (NP (DT the) (NN dog)) (VP (VBD ran)))")[0])
    assert tree_probability(g, left_factor_tree(target)) == pytest.approx(
        0.045, rel=1e-12
    )


def test_unseen_rule_gives_zero():
    g = induce_pcfg(factored_corpus(parse_trees("(S (A x))")))
    other = left_factor_tree(augment_with_stop(parse_trees("(S (A y))")[0]))
    assert log_tree_probability(g, other) == -math.inf
    assert tree_probability(g, other) == 0.0


def _unfactored_prob(trees, target):
    """Independent route: exact rational relative-frequency score of an
    unfactored tree, bypassing the factored grammar entirely."""
    counts = Counter()
    lhs_totals = Counter()
    for t in trees:
        for rule in tree_to_derivation(t):
            counts[rule] += 1
            lhs_totals[rule.lhs] += 1
    prob = Fraction(1)
    for rule in tree_to_derivation(target):
        if counts[rule] == 0:
            return Fraction(0)
        prob *= Fraction(counts[rule], lhs_totals[rule.lhs])
    return prob


def test_factoring_preserves_probability_g1(g1_trees):
    aug = [augment_with_stop(t) for t in g1_trees]
    g = induce_pcfg([left_factor_tree(t) for t in aug])
    for t in aug:
        expected = _unfactored_prob(aug, t)
        got = tree_probability(g, left_factor_tree(t))
        assert abs(got - float(expected)) <= 1e-12 * float(expected)


@pytest.mark.parametrize("seed", [11, 29, 47])
def test_factoring_preserves_probability_random(seed):
    aug = [augment_with_stop(t) for t in random_corpus(40, seed)]
    g = induce_pcfg([left_factor_tree(t) for t in aug])
    for t in aug:
        expected = float(_unfactored_prob(aug, t))
        got = tree_probability(g, left_factor_tree(t))
        assert got > 0.0
        assert abs(got - expected) <= 1e-12 * expected


def test_pcfg_validation_errors():
    lex = Rule("A", ("x",), True)
    with pytest.raises(GrammarError, match="no rules"):
        Pcfg({})
    with pytest.raises(GrammarError, match="has count"):
        Pcfg({Rule(AXIOM, ("A", "A"), False): 1, lex: 0})
    with pytest.raises(GrammarError, match="the axiom 'TOP' has no rules"):
        Pcfg({lex: 1})
    with pytest.raises(GrammarError, match="epsilon rule on unfactored"):
        Pcfg({Rule(AXIOM, (), False): 1, lex: 1})
    with pytest.raises(GrammarError, match="no expansions"):
        Pcfg({Rule(AXIOM, ("A", "B"), False): 1, lex: 1})
    with pytest.raises(GrammarError, match="not in factored form"):
        Pcfg({Rule(AXIOM, ("A", "A", "A"), False): 1, lex: 1})
    with pytest.raises(GrammarError, match="is not unary"):
        Pcfg({Rule(AXIOM, (), True): 1})


def _rule_index(rule_counts):
    """The by-kind tables, rule by rule from the counts: the reference ``Pcfg`` must match."""
    rules = sorted(rule_counts)
    lexical, phrasal, word_pos, pos_word, erased = {}, {}, {}, {}, {}
    for rid, rule in enumerate(rules):
        phrasal.setdefault(rule.lhs, ())
        if rule.lexical:
            lexical[rule.lhs, rule.rhs[0]] = (rule, rid)
            word_pos[rule.rhs[0]] = word_pos.get(rule.rhs[0], frozenset()) | {rule.lhs}
            pos_word.setdefault(rule.lhs, {})[rule.rhs[0]] = rule_counts[rule]
        else:
            phrasal[rule.lhs] += ((rule, rid),)
            if not rule.rhs:
                erased[rule.lhs] = rule_counts[rule]
    return lexical, phrasal, word_pos, pos_word, erased


def _assert_rule_index(g):
    assert (g.lexical, g.phrasal, g.word_pos, g.pos_word, g.erased) == _rule_index(g.rule_counts)
    assert list(g.phrasal) == list(g.by_lhs)
    assert g.preterminals == {r.lhs for r in g.rules if r.lexical}
    assert g.vocabulary == {r.rhs[0] for r in g.rules if r.lexical}


def test_rule_index_on_g1(g1_trees):
    g = induce_pcfg(factored_corpus(g1_trees))
    _assert_rule_index(g)
    assert g.word_pos["Spot"] == {"NN"} and g.pos_word["NN"] == {"Spot": 3, "ball": 1, "dog": 1}
    assert g.phrasal["NN"] == () and g.erased["VP-VBD"] == 3


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_rule_index_on_random_grammars(n, seed):
    _assert_rule_index(induce_pcfg(factored_corpus(random_corpus(n, seed))))


def test_induce_requires_axiom_root(g1_trees):
    with pytest.raises(GrammarError, match="augment before inducing"):
        induce_pcfg(g1_trees)
    with pytest.raises(GrammarError, match="empty corpus"):
        induce_pcfg([])


def _recursive_derivation(t):
    """Reference derivation: the recursive generator the explicit stack replaced."""
    if t.is_leaf:
        raise GrammarError("a bare token has no derivation")
    if len(t.children) == 1 and t.children[0].is_leaf:
        tok = t.children[0].label
        if tok == EPSILON:
            yield Rule(t.label, (), False)
        else:
            yield Rule(t.label, (tok,), True)
        return
    if any(c.is_leaf for c in t.children):
        raise GrammarError(
            f"node {t.label!r} mixes bare tokens with constituents; "
            "every terminal must sit under its own preterminal"
        )
    yield Rule(t.label, tuple(c.label for c in t.children), False)
    for child in t.children:
        yield from _recursive_derivation(child)


def _rules_then_error(derivation):
    """The rules a derivation yields, and the message of the error that ends it."""
    rules = []
    try:
        for rule in derivation:
            rules.append(rule)
    except GrammarError as exc:
        return rules, str(exc)
    return rules, None


def _assert_derivation_matches_recursive(t):
    assert _rules_then_error(tree_to_derivation(t)) == _rules_then_error(_recursive_derivation(t))


def test_derivation_matches_recursive_on_factored_random_trees():
    for t in factored_corpus(random_corpus(60, seed=3)):
        rules, error = _rules_then_error(tree_to_derivation(t))
        assert error is None and rules
        _assert_derivation_matches_recursive(t)


def test_derivation_stops_at_bare_token_child_like_recursive():
    t = parse_trees("(S (NP (DT the) (NN dog)) (VP (VBD ran) away) (NP (NN x)))")[0]
    rules, error = _rules_then_error(tree_to_derivation(t))
    assert [r.render() for r in rules] == [
        "S -> NP VP NP",
        "NP -> DT NN",
        "DT -> 'the",
        "NN -> 'dog",
    ]
    assert error.startswith("node 'VP' mixes bare tokens")
    _assert_derivation_matches_recursive(t)
    _assert_derivation_matches_recursive(Tree("x"))


_any_tree = st.recursive(
    st.builds(Tree, st.sampled_from(["a", "b", EPSILON])),
    lambda kids: st.builds(Tree, st.sampled_from(["S", "NP", "A"]), st.lists(kids, min_size=1, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(t=_any_tree)
def test_derivation_matches_recursive_on_any_tree(t):
    _assert_derivation_matches_recursive(t)
