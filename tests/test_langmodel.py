import math

import pytest
from hypothesis import given, settings, strategies as st

from support import build_parser, fixture_trees, random_corpus, reference_unigram
from tdparse import conditioning
from tdparse.langmodel import (
    START_TOKEN,
    LangModelError,
    NgramModel,
    corpus_perplexity,
    mixed_probs,
    perplexity,
    sentences_from_trees,
    vocab_mass,
    word_probabilities,
)
from tdparse.treebank import END_TOKEN


@pytest.fixture(scope="module")
def g1_parser(g1_trees):
    return build_parser(g1_trees)


@pytest.fixture(scope="module")
def g1_sents(g1_trees):
    return sentences_from_trees(g1_trees)


@pytest.fixture(scope="module")
def uni(g1_sents):
    m = NgramModel()
    m.train(g1_sents)
    return m.unigram()


def _sent(text):
    return text.split() + [END_TOKEN]


def test_sentences_from_trees(g1_trees):
    sents = sentences_from_trees(g1_trees)
    assert sents[0] == ["Spot", "ran", END_TOKEN]
    assert all(s[-1] == END_TOKEN for s in sents)


def test_unigram(g1_sents, uni):
    # 15 tokens across g1: 11 words plus 4 end markers
    assert uni["dog"] == pytest.approx(1 / 15, rel=1e-12)
    assert uni[END_TOKEN] == pytest.approx(4 / 15, rel=1e-12)
    assert math.fsum(uni.values()) == pytest.approx(1.0, abs=1e-12)
    assert list(uni.items()) == list(reference_unigram(g1_sents).items())
    with pytest.raises(LangModelError, match="no tokens"):
        NgramModel().train([])


@settings(max_examples=100, deadline=None)
@given(
    sents=st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "dd", "B", END_TOKEN]), min_size=1, max_size=8),
        min_size=1,
        max_size=6,
    ),
    order=st.integers(1, 3),
)
def test_unigram_matches_sentence_counts(sents, order):
    m = NgramModel(order)
    m.train(sents)
    assert list(m.unigram().items()) == list(reference_unigram(sents).items())


def test_word_probabilities_ratios(g1_parser, uni):
    r = g1_parser.parse(_sent("the dog ran"))
    tr = word_probabilities(r, uni)
    assert tr.model_probs == pytest.approx([0.4, 0.2, 0.75, 0.75], rel=1e-12)
    assert tr.final_probs[1] == pytest.approx(0.999 * 0.2 + 0.001 * (1 / 15), rel=1e-12)
    assert tr.fallback == (False, False, False, False)
    assert tr.log_prob == pytest.approx(
        math.fsum(math.log(p) for p in tr.final_probs), rel=1e-12
    )


def test_word_probabilities_garden_path(g1_parser, uni):
    r = g1_parser.parse(_sent("the the"))
    tr = word_probabilities(r, uni)
    # mass survives "the" but dies on the second one: that word still had
    # a live queue behind it (ratio 0, smoothed), later words are pure
    # unigram fallbacks
    assert tr.fallback == (False, False, True)
    assert tr.model_probs[1] == 0.0 and tr.model_probs[2] == 0.0
    assert tr.final_probs[1] == pytest.approx(0.001 * uni["the"], rel=1e-12)
    assert tr.final_probs[2] == uni[END_TOKEN]
    assert tr.final_probs[0] == pytest.approx(0.999 * 0.4 + 0.001 * uni["the"], rel=1e-12)


def test_word_probabilities_weight_validation(g1_parser, uni):
    r = g1_parser.parse(_sent("Spot ran"))
    with pytest.raises(LangModelError, match="model_weight"):
        word_probabilities(r, uni, model_weight=0.0)
    raw = word_probabilities(r, uni, model_weight=1.0)
    assert raw.final_probs == raw.model_probs


def test_model_ratios_telescope(g1_parser):
    for text in ("Spot ran", "the dog ran", "Spot chased the ball"):
        r = g1_parser.parse(_sent(text))
        tr = word_probabilities(r, {})
        prod = math.prod(tr.model_probs)
        assert prod == pytest.approx(r.masses[-1], rel=1e-9)


def test_perplexity_values():
    assert perplexity([0.5, 0.5]) == pytest.approx(2.0, rel=1e-12)
    assert perplexity([0.25] * 8) == pytest.approx(4.0, rel=1e-12)
    assert perplexity([0.5, 0.0]) == math.inf
    assert perplexity([0.5], n_words=2) == pytest.approx(math.sqrt(2), rel=1e-12)
    with pytest.raises(LangModelError, match="at least one word"):
        perplexity([])


def test_corpus_perplexity_pools_words(g1_parser, g1_sents, uni):
    traces = [word_probabilities(g1_parser.parse(s), uni) for s in g1_sents]
    pooled = [p for tr in traces for p in tr.final_probs]
    assert corpus_perplexity(traces) == pytest.approx(perplexity(pooled), rel=1e-12)


def test_ngram_untuned_is_unigram(g1_sents):
    m = NgramModel(order=3)
    m.train(g1_sents)
    uni = reference_unigram(g1_sents)
    for w in m.vocabulary:
        assert m.word_prob((START_TOKEN, START_TOKEN), w) == pytest.approx(uni[w], rel=1e-12)


def test_ngram_vocabulary_and_validation(g1_sents):
    with pytest.raises(LangModelError, match="order"):
        NgramModel(order=0)
    m = NgramModel()
    with pytest.raises(LangModelError, match="train before tuning"):
        m.tune(g1_sents)
    m.train(g1_sents)
    assert m.vocabulary == sorted(
        {"Spot", "ran", "chased", "the", "ball", "dog", END_TOKEN}
    )


def test_ngram_tuning_monotone_and_proper(g1_sents):
    m = NgramModel(order=3)
    m.train(g1_sents)
    history = m.tune(g1_sents)
    assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
    vocab = m.vocabulary
    for ctx in ((START_TOKEN, START_TOKEN), (START_TOKEN, "the"), ("the", "dog"), ("dog", "ran")):
        total = math.fsum(m.word_prob(ctx, w) for w in vocab)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_ngram_tuned_beats_unigram_on_heldout(g1_sents):
    m = NgramModel(order=3)
    m.train(g1_sents)
    before = perplexity([p for s in g1_sents for p in m.word_probs(s)])
    m.tune(g1_sents)
    after = perplexity([p for s in g1_sents for p in m.word_probs(s)])
    assert after <= before + 1e-9


def test_ngram_word_probs_padding(g1_sents):
    m = NgramModel(order=3)
    m.train(g1_sents)
    m.tune(g1_sents)
    probs = m.word_probs(["the", "dog", "ran", END_TOKEN])
    assert probs[0] == m.word_prob((START_TOKEN, START_TOKEN), "the")
    assert probs[1] == m.word_prob((START_TOKEN, "the"), "dog")
    assert probs[3] == m.word_prob(("dog", "ran"), END_TOKEN)


def test_ngram_memo_matches_recomputation(desk, monkeypatch):
    """Memoized probabilities equal a fresh estimator's: cold, warm, after each write, and under a cap."""
    train, heldout = sentences_from_trees(desk.train.trees), sentences_from_trees(desk.heldout.trees)
    m = NgramModel(order=3)
    m.train(train[1:])
    vocab = m.vocabulary + ["zebra"]
    histories = sorted({ctx for _, ctx in m._histories(train + desk.sents)}) + [("zebra",), ()]

    def recomputed():
        return [m.estimator((), (), m._levels(h))(w) for h in histories for w in vocab]

    def memoized():
        return [m.word_prob(h, w) for h in histories for w in vocab]

    untuned = memoized()
    assert untuned == recomputed() == memoized()
    m.tune(heldout)             # assigns the weights
    tuned = memoized()
    assert tuned == recomputed() == memoized() != untuned
    m.train(train[:1])          # adds counts
    assert memoized() == recomputed() != tuned
    monkeypatch.setattr(conditioning, "SITE_CACHE_CAP", 4)
    m.site_scores.clear()
    assert memoized() == recomputed()
    assert len(m.site_scores) <= 4 < len(histories)


def test_mixed_probs():
    assert mixed_probs([0.5, 0.1], [0.25, 0.2], trigram_share=0.36) == pytest.approx(
        [0.64 * 0.5 + 0.36 * 0.25, 0.64 * 0.1 + 0.36 * 0.2], rel=1e-12
    )
    assert mixed_probs([0.5], [0.25], trigram_share=0.0) == [0.5]
    assert mixed_probs([0.5], [0.25], trigram_share=1.0) == [0.25]
    with pytest.raises(LangModelError, match="length"):
        mixed_probs([0.5], [0.25, 0.1])
    with pytest.raises(LangModelError, match="trigram_share"):
        mixed_probs([0.5], [0.25], trigram_share=1.5)


def test_vocab_mass_exact(g1_parser):
    vocab = sorted(g1_parser.grammar.vocabulary)
    got = vocab_mass(g1_parser, ["the"], vocab)
    assert got["Spot"] == pytest.approx(0.6, rel=1e-12)
    assert got["ball"] == pytest.approx(0.2, rel=1e-12)
    assert got["dog"] == pytest.approx(0.2, rel=1e-12)
    assert math.fsum(got.values()) == pytest.approx(1.0, abs=1e-9)


def test_vocab_mass_dead_prefix(g1_parser):
    got = vocab_mass(g1_parser, ["the", "the"], ["Spot", "ran"])
    assert got == {"Spot": 0.0, "ran": 0.0}


def test_vocab_mass_under_pruning(g1_trees):
    pruned = build_parser(g1_trees, base_beam=1e-3)
    vocab = sorted(pruned.grammar.vocabulary)
    for prefix in ([], ["Spot"], ["the"]):
        total = math.fsum(vocab_mass(pruned, prefix, vocab).values())
        assert 0.0 < total <= 1.0 + 1e-6


def _per_token_train(model, sentences):
    """Reference n-gram counting: one add per level of every token."""
    for w, ctx in model._histories(sentences):
        model.add(0, (), w)
        for k, key in model._levels(ctx):
            model.add(k, key, w)


def _assert_ngram_counts_match_per_token(trees):
    sents = sentences_from_trees(trees)
    for order in (1, 2, 3):
        tallied, reference = NgramModel(order), NgramModel(order)
        tallied.train(sents)
        _per_token_train(reference, sents)
        assert tallied.tables == reference.tables
        assert tallied.totals == reference.totals


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5"])
def test_ngram_counts_match_per_token_on_fixtures(name):
    _assert_ngram_counts_match_per_token(fixture_trees(f"{name}.trees"))


def test_ngram_counts_match_per_token_on_desk(desk):
    _assert_ngram_counts_match_per_token(desk.train.trees)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 10_000))
def test_ngram_counts_match_per_token_on_random_trees(n, seed):
    _assert_ngram_counts_match_per_token(random_corpus(n, seed))
