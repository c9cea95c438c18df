import pytest
from hypothesis import given, settings, strategies as st

from support import factored_corpus, fixture_trees, random_corpus
from tdparse.grammar import induce_pcfg
from tdparse.lookahead import LookaheadError, LookaheadTables
from tdparse.treebank import EPSILON, parse_trees


def tables_for(trees, smoothing_k=5):
    factored = factored_corpus(trees)
    return LookaheadTables.from_trees(induce_pcfg(factored), factored, smoothing_k)


def walked_counts(factored):
    """Occurrence, erasure and preterminal-word counts walked from the trees.

    This is the walk the tables used to count these with; they now derive
    them from the grammar's rule counts, which must give the same tables.
    """
    occurrences, erased, pos_word, pos_total = {}, {}, {}, {}

    def walk(t):
        if t.is_preterminal:
            token = t.children[0].label
            if token == EPSILON:
                first = None
            else:
                first = (token, t.label)
                words = pos_word.setdefault(t.label, {})
                words[token] = words.get(token, 0) + 1
                pos_total[t.label] = pos_total.get(t.label, 0) + 1
        else:
            first = None
            for child in t.children:
                r = walk(child)
                if first is None:
                    first = r
        occurrences[t.label] = occurrences.get(t.label, 0) + 1
        if first is None:
            erased[t.label] = erased.get(t.label, 0) + 1
        return first

    for t in factored:
        walk(t)
    return occurrences, erased, pos_word, pos_total


def assert_counts_match_walk(trees):
    t = tables_for(trees)
    assert (t.occurrences, t.erased, t.pos_word, t.pos_total) == walked_counts(factored_corpus(trees))


@pytest.fixture(scope="module")
def lap(g1_trees):
    return tables_for(g1_trees)


def test_rule_count_tables_are_the_grammars(g1_trees):
    grammar = induce_pcfg(factored_corpus(g1_trees))
    t = LookaheadTables(grammar, {}, {})
    assert t.occurrences is grammar.lhs_counts and t.erased is grammar.erased and t.pos_word is grammar.pos_word


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5"])
def test_derived_counts_match_tree_walk(name):
    assert_counts_match_walk(fixture_trees(f"{name}.trees"))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 10_000))
def test_derived_counts_match_tree_walk_random(n, seed):
    assert_counts_match_walk(random_corpus(n, seed))


def test_raw_counts(lap):
    assert lap.occurrences["NP"] == 5
    assert lap.first_word["NP"] == {"Spot": 3, "the": 2}
    assert lap.first_pos["NP"] == {"NN": 3, "DT": 2}
    assert lap.pos_word["DT"] == {"the": 2}
    assert lap.pos_total["VBD"] == 4


def test_count_invariants(lap):
    for sym, occ in lap.occurrences.items():
        fw = sum(lap.first_word.get(sym, {}).values())
        fp = sum(lap.first_pos.get(sym, {}).values())
        assert fw == fp
        assert occ == fw + lap.erased.get(sym, 0)


def test_word_prob_mixes_direct_and_pos_backoff(lap):
    # occ 5, K 5: even mix; direct 2/5 and DT-backoff (2/5)*1 agree
    assert lap.word_prob("NP", "the") == 0.4
    # direct and backoff both 1: smoothing cannot move it
    assert lap.word_prob("DT", "the") == 1.0
    assert lap.word_prob("NP", "ran") == 0.0
    assert lap.word_prob("QQ", "the") == 0.0


def test_word_prob_unsmoothed():
    t = tables_for(parse_trees("(S (A x) (B y))"), smoothing_k=0)
    assert t.word_prob("S", "x") == 1.0
    assert t.word_prob("S", "y") == 0.0


def test_eps_prob(lap):
    # NP-DT,NN always erases; NP-DT never does
    assert lap.eps_prob("NP-DT,NN") == 1.0
    assert lap.eps_prob("NP-DT") == 0.0
    assert lap.eps_prob("VP-VBD") == 0.75
    assert lap.eps_prob("QQ") == 0.0


def test_stack_prob_word(lap):
    # NP-NN erases for sure, then S-NP predicts "ran" at 3/4 both directly
    # and through its VBD backoff
    assert lap.stack_prob(["NP-NN", "S-NP"], "ran") == 0.75
    assert lap.stack_prob(["DT"], "the") == 1.0
    # dead weight short-circuits: NN never erases
    assert lap.stack_prob(["NN", "DT"], "the") == 0.0
    assert lap.stack_prob([], "the") == 0.0


def test_stack_prob_whole_stack_erasure(lap):
    assert lap.stack_prob([], None) == 1.0
    assert lap.stack_prob(["NP-NN", "S-NP,VP", "TOP-S,STOP"], None) == 1.0
    assert lap.stack_prob(["VP-VBD", "S-NP,VP"], None) == 0.75
    assert lap.stack_prob(["NN"], None) == 0.0


def test_probability_ranges_random_corpus():
    trees = factored_corpus(random_corpus(30, seed=5))
    t = LookaheadTables.from_trees(induce_pcfg(trees), trees)
    words = {tok for tree in trees for tok in tree.yield_tokens()}
    for sym in t.occurrences:
        assert 0.0 <= t.eps_prob(sym) <= 1.0
        for w in words:
            assert 0.0 <= t.word_prob(sym, w) <= 1.0


def test_constructor_validation():
    grammar = induce_pcfg(factored_corpus(fixture_trees("g1.trees")))
    with pytest.raises(LookaheadError, match="nonnegative"):
        LookaheadTables(grammar, {}, {}, smoothing_k=-1)
    with pytest.raises(LookaheadError, match="no constituents"):
        LookaheadTables.from_trees(grammar, [])
