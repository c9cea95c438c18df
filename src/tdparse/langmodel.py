"""Language modeling on top of the incremental parser.

The ratio of successive queue masses is the parser's conditional word
probability: mass(i+1)/mass(i) = P(word i | words < i) up to beam loss.
Each conditional is shrunk slightly toward a unigram floor so that beam
search errors never zero out a whole sentence; if the parser loses every
analysis (a garden path), the unigram alone stands in for the rest of
the sentence.  Perplexities count the end-of-sentence marker as a word.

A standard trigram model with deleted interpolation (weights tied by
history-count bucket, fit with the same EM used for the conditioning
weights) serves both as a baseline and as a mixture partner.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .conditioning import InterpolationTable
from .parser import BeamParser, ParseResult, queue_mass
from .treebank import END_TOKEN, Tree

START_TOKEN = "<s>"


class LangModelError(ValueError):
    pass


def sentences_from_trees(trees: Iterable[Tree]) -> list[list[str]]:
    """Token lists (end marker appended) from tree yields."""
    return [list(t.yield_tokens()) + [END_TOKEN] for t in trees]


@dataclass
class WordProbTrace:
    """Per-word conditional probabilities for one sentence."""

    words: tuple[str, ...]
    model_probs: tuple[float, ...]   # raw queue-mass ratios
    final_probs: tuple[float, ...]   # smoothed with the unigram
    fallback: tuple[bool, ...]       # True where only the unigram was left

    @property
    def log_prob(self) -> float:
        total = 0.0
        for p in self.final_probs:
            if p <= 0.0:
                return -math.inf
            total += math.log(p)
        return total


def word_probabilities(
    result: ParseResult,
    unigram: dict[str, float],
    model_weight: float = 0.999,
) -> WordProbTrace:
    if not 0.0 < model_weight <= 1.0:
        raise LangModelError("model_weight must be in (0, 1]")
    masses = result.masses
    model: list[float] = []
    final: list[float] = []
    fallback: list[bool] = []
    for i, w in enumerate(result.words):
        uni = unigram.get(w, 0.0)
        if masses[i] > 0.0:
            ratio = masses[i + 1] / masses[i]
            model.append(ratio)
            final.append(model_weight * ratio + (1.0 - model_weight) * uni)
            fallback.append(False)
        else:
            model.append(0.0)
            final.append(uni)
            fallback.append(True)
    return WordProbTrace(result.words, tuple(model), tuple(final), tuple(fallback))


def perplexity(probs: Iterable[float], n_words: Optional[int] = None) -> float:
    """exp of the average negative log probability; inf if any prob is 0."""
    probs = list(probs)
    n = n_words if n_words is not None else len(probs)
    if n <= 0:
        raise LangModelError("perplexity needs at least one word")
    total = 0.0
    for p in probs:
        if p <= 0.0:
            return math.inf
        total -= math.log(p)
    return math.exp(total / n)


def corpus_perplexity(traces: Iterable[WordProbTrace]) -> float:
    probs: list[float] = []
    for tr in traces:
        probs.extend(tr.final_probs)
    return perplexity(probs)


class NgramModel(InterpolationTable):
    """Interpolated n-gram model (trigram by default).

    Lower-order estimates back off the higher ones:
    P = lam_k * f(w | last k words) + (1 - lam_k) * P_{k-1}, bottoming out
    in the unigram.  Histories are padded with a start symbol that is
    never itself predicted.  Weights are tied by (order, history-count
    bucket) and fit on heldout text; unseen histories skip their level,
    so the distribution stays normalized over the training vocabulary.
    """

    def __init__(self, order: int = 3):
        if order < 1:
            raise LangModelError("order must be at least 1")
        super().__init__(order)
        self.order = order

    def _histories(self, sentences: Iterable[Sequence[str]]) -> Iterator[tuple[str, tuple[str, ...]]]:
        """(word, padded history) for every token."""
        for toks in sentences:
            ctx = (START_TOKEN,) * (self.order - 1)
            for w in toks:
                yield w, ctx
                ctx = (ctx + (w,))[1:]

    def _levels(self, ctx: tuple[str, ...]) -> list[tuple[int, tuple[str, ...]]]:
        """(level, key) above the unigram: the last k words of the history for level k."""
        return [(k, ctx[len(ctx) - k :]) for k in range(1, min(self.order, len(ctx) + 1))]

    def train(self, sentences: Iterable[Sequence[str]]) -> None:
        """Count every token; each distinct (word, history) is added once, with its count."""
        for (w, ctx), n in Counter(self._histories(sentences)).items():
            self.add(0, (), w, n)
            for k, key in self._levels(ctx):
                self.add(k, key, w, n)
        if not self.totals[0]:
            raise LangModelError("no tokens to train on")

    @property
    def vocabulary(self) -> list[str]:
        return sorted(self.tables[0].get((), {}))

    def unigram(self) -> dict[str, float]:
        """Relative word frequencies of the level-0 counts, in word order."""
        total = self.totals[0].get((), 0)
        return {w: c / total for w, c in sorted(self.tables[0].get((), {}).items())}

    def tune(self, heldout: Iterable[Sequence[str]], max_iter: int = 100, tol: float = 1e-6) -> list[float]:
        """Fit interpolation weights by EM on heldout sentences."""
        if not self.totals[0]:
            raise LangModelError("train before tuning")
        sites = (((), w, (), self._levels(ctx)) for w, ctx in self._histories(heldout))
        return self.fit_weights(sites, max_iter, tol)

    def word_prob(self, context: Sequence[str], word: str) -> float:
        """Interpolated P(word | context); each history's estimator is kept in ``site_scores``."""
        history = tuple(context)
        prob = self.site_scores.get(history)
        if prob is None:
            prob = self.keep_site(history, self.estimator((), (), self._levels(history)))
        return prob(word)

    def word_probs(self, tokens: Sequence[str]) -> list[float]:
        return [self.word_prob(ctx, w) for w, ctx in self._histories([tokens])]


def mixed_probs(
    parser_probs: Sequence[float], trigram_probs: Sequence[float], trigram_share: float = 0.36
) -> list[float]:
    """Linear mixture of per-word probabilities from the two models."""
    if len(parser_probs) != len(trigram_probs):
        raise LangModelError("probability sequences differ in length")
    if not 0.0 <= trigram_share <= 1.0:
        raise LangModelError("trigram_share must be in [0, 1]")
    return [
        (1.0 - trigram_share) * p + trigram_share * q
        for p, q in zip(parser_probs, trigram_probs)
    ]


def vocab_mass(parser: BeamParser, prefix: Sequence[str], candidates: Sequence[str]) -> dict[str, float]:
    """P(next word | prefix) for each candidate, by advancing the beam.

    All candidates share one set of prefix queue entries, so with exact
    search over a proper grammar the values sum to 1 and under pruning
    they sum to at most 1.
    """
    entries = parser.prefix_entries(list(prefix))
    denom = queue_mass(entries)
    if denom == 0.0:
        return {w: 0.0 for w in candidates}
    return {w: parser.advance_mass(entries, w) / denom for w in candidates}
