from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from support import as_corpus, fixture_trees, random_corpus
from tdparse.grammar import left_factor_tree
from tdparse import treebank
from tdparse.treebank import (
    AXIOM,
    END_TOKEN,
    PUNCT_LABELS,
    STOP_LABEL,
    Corpus,
    NormalizationConfig,
    Tree,
    TreebankError,
    augment_with_stop,
    is_number_token,
    normalize_tokens,
    parse_trees,
    read_sentences,
    read_trees,
    speech_normalize,
    strip_stop,
    to_bracketed,
    write_trees,
)


def test_parse_single_tree():
    (t,) = parse_trees("(S (NP Spot) (VP ran))")
    assert t.label == "S"
    assert t.yield_tokens() == ["Spot", "ran"]
    assert [c.label for c in t.children] == ["NP", "VP"]


def test_tree_shape_predicates():
    t = parse_trees("(S (NP (NN Spot)) (VP (VBD ran)))")[0]
    assert not t.is_leaf and not t.is_preterminal
    np = t.children[0]
    assert np.is_preterminal is False  # NP dominates a preterminal, not a leaf
    assert np.children[0].is_preterminal
    assert np.children[0].children[0].is_leaf


def test_tree_equality_and_hash():
    a = parse_trees("(S (A x) (B y))")[0]
    b = parse_trees("(S (A x) (B y))")[0]
    c = parse_trees("(S (A x) (B z))")[0]
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_multiline_and_multiple_trees():
    text = "(S (A x)\n   (B y))\n(S (A z))"
    trees = parse_trees(text)
    assert len(trees) == 2
    assert trees[1].yield_tokens() == ["z"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("(S (NP Spot) (VP ran)", "unbalanced"),
        ("(S (NP Spot)) )", "unbalanced"),
        ("(S ())", "label"),
        ("(S (NP))", "empty node"),
        ("stray (S (A x))", "outside any tree"),
        ("(S (N-P x))", "reserved"),
        ("(S (N,P x))", "reserved"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(TreebankError, match=fragment):
        parse_trees(text)


def test_error_carries_source_and_line():
    with pytest.raises(TreebankError, match=r"two.trees:2"):
        parse_trees("(S (A x))\n(S (B y)", source="two.trees")


# Round trip through the text form, on fixtures and on random trees.

def test_write_read_round_trip_fixtures(tmp_path):
    for name in ("g1.trees", "g2.trees", "g3.trees"):
        trees = fixture_trees(name)
        path = tmp_path / name
        write_trees(str(path), trees)
        assert parse_trees(path.read_text()) == trees


_labels = st.text(alphabet="SNPVXQ", min_size=1, max_size=3)
_tokens = st.text(alphabet="abcxyz0", min_size=1, max_size=4)
_tree = st.recursive(
    st.builds(lambda lab, tok: Tree(lab, (Tree(tok),)), _labels, _tokens),
    lambda kids: st.builds(
        lambda lab, ks: Tree(lab, tuple(ks)),
        _labels,
        st.lists(kids, min_size=1, max_size=4),
    ),
    max_leaves=12,
)


@given(_tree)
def test_bracketed_round_trip_property(t):
    assert parse_trees(to_bracketed(t)) == [t]


def test_g1_corpus_vocabulary(g1_trees):
    corpus = as_corpus(g1_trees, "train")
    assert corpus.vocabulary == frozenset(
        {"Spot", "ran", "chased", "the", "ball", "dog", END_TOKEN}
    )
    assert len(corpus.trees) == 4


def test_corpus_role_validation(g1_trees):
    with pytest.raises(TreebankError, match="role"):
        Corpus(tuple(g1_trees), frozenset(), "validation")


def test_augment_with_stop_shape(g1_trees):
    t = g1_trees[0]
    aug = augment_with_stop(t)
    assert aug.label == AXIOM
    assert aug.children[0] == t
    stop = aug.children[1]
    assert stop.label == STOP_LABEL and stop.children[0].label == END_TOKEN
    # exactly one token added to the yield
    assert aug.yield_tokens() == t.yield_tokens() + [END_TOKEN]


def test_augment_strip_round_trip(g1_trees):
    for t in g1_trees:
        assert strip_stop(augment_with_stop(t)) == t


def test_augment_rejects_axiom_root(g1_trees):
    with pytest.raises(TreebankError, match="already rooted"):
        augment_with_stop(augment_with_stop(g1_trees[0]))


def test_strip_stop_rejects_other_shapes():
    t = parse_trees("(S (A x) (B y))")[0]
    with pytest.raises(TreebankError):
        strip_stop(t)
    bad = parse_trees(f"({AXIOM} (S (A x)) (S (B y)))")[0]
    with pytest.raises(TreebankError):
        strip_stop(bad)


@pytest.mark.parametrize(
    "tok,expected",
    [
        ("42", True),
        ("-3.5", True),
        ("1,234", True),
        ("+.75", True),
        ("4th", False),
        ("N", False),
        ("", False),
        ("-", False),
    ],
)
def test_is_number_token(tok, expected):
    assert is_number_token(tok) is expected


def test_speech_normalize_strips_punctuation():
    trees = parse_trees("(S (UH hello) (: --) (NP (NN world)) (. .))")
    out = speech_normalize(as_corpus(trees, "train"), NormalizationConfig())
    assert out.trees[0].yield_tokens() == ["hello", "world"]


def test_speech_normalize_drops_emptied_parents():
    trees = parse_trees("(S (NP (NN x)) (PRN (: --) (. .)))")
    out = speech_normalize(as_corpus(trees, "train"), NormalizationConfig())
    assert to_bracketed(out.trees[0]) == "(S (NP (NN x)))"


def test_speech_normalize_error_on_empty_yield():
    trees = parse_trees("(S (. .))")
    with pytest.raises(TreebankError, match="emptied"):
        speech_normalize(as_corpus(trees, "train"), NormalizationConfig())


def test_speech_normalize_folds_numbers():
    trees = parse_trees("(S (CD 42.5) (NN boxes))")
    out = speech_normalize(as_corpus(trees, "train"), NormalizationConfig())
    assert out.trees[0].yield_tokens() == ["N", "boxes"]


def test_speech_normalize_vocab_cap():
    # counts: a:5 b:4 c:3 d:1; cap 3 keeps a,b,c and folds d
    text = " ".join(
        ["(S"]
        + [f"(T {w})" for w in ["a"] * 5 + ["b"] * 4 + ["c"] * 3 + ["d"]]
        + [")"]
    )
    cfg = NormalizationConfig(vocab_cap=3)
    out = speech_normalize(as_corpus(parse_trees(text), "train"), cfg)
    toks = out.trees[0].yield_tokens()
    assert toks.count(cfg.unk_token) == 1
    assert set(toks) == {"a", "b", "c", cfg.unk_token}


def test_speech_normalize_idempotent():
    trees = random_corpus(20, seed=7)
    cfg = NormalizationConfig(vocab_cap=4)
    once = speech_normalize(as_corpus(trees, "train"), cfg)
    twice = speech_normalize(once, cfg)
    assert twice.trees == once.trees
    assert twice.vocabulary == once.vocabulary


def test_speech_normalize_keep_tokens_matches_training():
    train = speech_normalize(
        as_corpus(parse_trees("(S (A x) (A x) (A y))"), "train"),
        NormalizationConfig(vocab_cap=1),
    )
    test = speech_normalize(
        as_corpus(parse_trees("(S (A x) (A y) (A z))"), "test"),
        NormalizationConfig(vocab_cap=1),
        keep_tokens=train.vocabulary,
    )
    cfg = NormalizationConfig()
    assert test.trees[0].yield_tokens() == ["x", cfg.unk_token, cfg.unk_token]


def test_normalization_config_validation():
    with pytest.raises(TreebankError):
        NormalizationConfig(vocab_cap=0)


def test_normalize_tokens_paths():
    cfg = NormalizationConfig()
    vocab = frozenset({"the", "dog", "N", cfg.unk_token, cfg.end_token})
    assert normalize_tokens(["the", "dog"], vocab) == ["the", "dog"]
    assert normalize_tokens(["the", "cat"], vocab) == ["the", cfg.unk_token]
    assert normalize_tokens(["40", "dogs"], vocab) == ["N", cfg.unk_token]
    with pytest.raises(TreebankError, match="reserved"):
        normalize_tokens([cfg.end_token], vocab)


def test_read_sentences_skips_blank_lines(tmp_path):
    p = tmp_path / "sents.txt"
    p.write_text("the dog ran\n\n  \nSpot ran\n")
    assert read_sentences(str(p)) == [(1, ["the", "dog", "ran"]), (4, ["Spot", "ran"])]


def test_readers_name_a_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"(S (NN caf\xe9))\n")
    for read in (read_sentences, read_trees):
        with pytest.raises(TreebankError, match=r"latin1\.txt: not UTF-8 text"):
            read(str(p))


def _rebuilding_normalized_tree(t, strip, tokens):
    """Reference: the normalizing walk, copying every node it keeps and applying
    the token rule to every leaf, not looking it up in ``tokens``."""
    if t.is_leaf:
        return Tree(treebank._normal_token(t.label, tokens.keep))
    if strip and t.is_preterminal and t.label in PUNCT_LABELS:
        return None
    kept = [sub for sub in (_rebuilding_normalized_tree(c, strip, tokens) for c in t.children) if sub is not None]
    return Tree(t.label, kept) if kept else None


def _normalized(corpus, cfg, keep_tokens=None):
    """(trees, vocabulary), or the message of the error normalization raised."""
    try:
        out = speech_normalize(corpus, cfg, keep_tokens=keep_tokens)
    except TreebankError as exc:
        return str(exc)
    return out.trees, out.vocabulary


def _assert_normalize_matches_rebuilding(trees, cfg):
    corpus = as_corpus(trees, "train")
    shared = _normalized(corpus, cfg)
    with mock.patch.object(treebank, "_normalized_tree", _rebuilding_normalized_tree):
        rebuilt = _normalized(corpus, cfg)
        rebuilt_kept = _normalized(corpus, cfg, keep_tokens=frozenset({"a", "42"}))
    assert shared == rebuilt
    assert _normalized(corpus, cfg, keep_tokens=frozenset({"a", "42"})) == rebuilt_kept
    if isinstance(shared, str):
        return
    once = speech_normalize(corpus, cfg)
    for keep in (None, once.vocabulary):
        again = speech_normalize(once, cfg, keep_tokens=keep)
        assert all(a is b for a, b in zip(again.trees, once.trees, strict=True))


_noisy_tree = st.recursive(
    st.builds(
        lambda label, tok: Tree(label, (Tree(tok),)),
        st.sampled_from(["NN", "CD", ".", ","]),
        st.sampled_from(["a", "b", "c", "42", "3.5", "N", "<unk>", "."]),
    ),
    lambda kids: st.builds(Tree, st.sampled_from(["S", "NP", "PRN"]), st.lists(kids, min_size=1, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(
    trees=st.lists(_noisy_tree, min_size=1, max_size=5),
    strip=st.booleans(),
    cap=st.integers(1, 4),
)
def test_normalize_matches_rebuilding_on_noisy_trees(trees, strip, cap):
    cfg = NormalizationConfig(strip_punctuation=strip, vocab_cap=cap)
    _assert_normalize_matches_rebuilding(trees, cfg)


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5"])
def test_normalize_matches_rebuilding_on_fixtures(name):
    _assert_normalize_matches_rebuilding(fixture_trees(f"{name}.trees"), NormalizationConfig())


def test_normalize_matches_rebuilding_on_desk(desk):
    for cap in (10_000, 20):
        _assert_normalize_matches_rebuilding(list(desk.train.trees), NormalizationConfig(vocab_cap=cap))


def test_training_normalization_folds_each_token_at_most_once(desk, monkeypatch):
    calls = []
    number = treebank.is_number_token
    monkeypatch.setattr(treebank, "is_number_token", lambda tok: calls.append(tok) or number(tok))
    speech_normalize(desk.train, NormalizationConfig())
    words, stack = 0, list(desk.train.trees)
    while stack:
        node = stack.pop()
        if node.is_preterminal:
            words += node.label not in PUNCT_LABELS
        else:
            stack.extend(node.children)
    assert 0 < len(calls) <= words


def test_normalize_shares_unchanged_subtrees():
    (t,) = parse_trees("(S (NP (DT the) (NN dog)) (VP (VBD ran) (NP (CD 42))) (. .))")
    (out,) = speech_normalize(as_corpus([t], "train"), NormalizationConfig()).trees
    assert to_bracketed(out) == "(S (NP (DT the) (NN dog)) (VP (VBD ran) (NP (CD N))))"
    assert out.children[0] is t.children[0]
    assert out.children[1].children[0] is t.children[1].children[0]


def _nonterminal_depth(t):
    return 0 if t.is_leaf else 1 + max(_nonterminal_depth(c) for c in t.children)


_factorable_tree = st.recursive(
    st.builds(lambda tok: Tree("A", (Tree(tok),)), st.sampled_from(["x", "y"])),
    lambda kids: st.builds(Tree, st.sampled_from(["S", "NP"]), st.lists(kids, min_size=1, max_size=5)),
    max_leaves=25,
)


@settings(max_examples=100, deadline=None)
@given(t=_factorable_tree, limit=st.integers(1, 12))
def test_reader_depth_limit_is_the_left_factored_depth(t, limit):
    depth = _nonterminal_depth(left_factor_tree(t))
    with mock.patch.object(treebank, "MAX_FACTORED_DEPTH", limit):
        if depth <= limit:
            assert parse_trees(to_bracketed(t)) == [t]
        else:
            with pytest.raises(TreebankError, match=f"more than {limit} levels deep"):
                parse_trees(to_bracketed(t), source="t.trees")
