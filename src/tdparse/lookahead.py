"""Lookahead word probabilities for ranking parser analyses.

A candidate analysis is a stack of symbols still to be expanded.  How
well it predicts the next input word is estimated from smoothed
first-word statistics: for each grammar symbol A, the chance that A's
yield starts with word w, that it starts with preterminal X, or that the
yield is empty.  The per-symbol estimate mixes the direct first-word
frequency with a preterminal backoff,

    P(w | A) = m * f(first word of A = w) + (1 - m) * sum_X f(first
    preterminal of A = X) * f(w | X),     m = f(A) / (f(A) + K),

and the stack estimate lets leading symbols erase:

    P(w | A1 A2 ...) = P(w | A1) + P(eps | A1) * P(w | A2 A3 ...).

A lookahead of None asks for the probability that the whole stack
erases, which is what remains once every input word is consumed.

These numbers rank analyses only; derivation probabilities never include
them.  No flooring happens here, callers clamp as they see fit.

The tables are complete when built: ``from_trees`` counts the first
words and tags of the training trees, the model loader passes the counts
it read, and nothing writes them afterwards.  Nothing is cached here;
the parser keeps the floored log look-ahead of each (stack, word) pair
it meets (see parser.py).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .grammar import Pcfg
from .treebank import EPSILON, Tree


class LookaheadError(ValueError):
    pass


# symbol -> first word (or first preterminal) of its yield -> count
FirstCounts = dict[str, dict[str, int]]


class LookaheadTables:
    """First-word, first-preterminal and erasure counts per symbol.

    Occurrence, erasure and preterminal-word counts are the grammar's own
    tables (``lhs_counts``, ``erased`` and ``pos_word`` of ``Pcfg``), never
    written here; only the first-word and first-preterminal counts need trees,
    or a model file that holds them.
    """

    def __init__(self, grammar: Pcfg, first_word: FirstCounts, first_pos: FirstCounts, smoothing_k: int = 5):
        if smoothing_k < 0:
            raise LookaheadError("smoothing_k must be nonnegative")
        self.smoothing_k = smoothing_k
        self.occurrences = grammar.lhs_counts
        self.erased = grammar.erased
        self.pos_word = grammar.pos_word
        self.first_word = first_word
        self.first_pos = first_pos
        self.pos_total: dict[str, int] = {pos: sum(words.values()) for pos, words in self.pos_word.items()}

    @classmethod
    def from_trees(cls, grammar: Pcfg, trees: Iterable[Tree], smoothing_k: int = 5) -> "LookaheadTables":
        """Tables for ``grammar`` with first-word counts from its training trees."""
        first_word: FirstCounts = {}
        first_pos: FirstCounts = {}
        for t in trees:
            _walk(t, first_word, first_pos)
        if not first_word:
            raise LookaheadError("no constituents to collect lookahead counts from")
        return cls(grammar, first_word, first_pos, smoothing_k)

    def word_prob(self, symbol: str, word: str) -> float:
        """Probability that ``symbol`` expands to a yield starting with ``word``."""
        occ = self.occurrences.get(symbol, 0)
        if not occ:
            return 0.0
        mix = occ / (occ + self.smoothing_k)
        direct = self.first_word.get(symbol, {}).get(word, 0) / occ
        backoff = 0.0
        for pos, n in self.first_pos.get(symbol, {}).items():
            emit = self.pos_word.get(pos, {}).get(word, 0)
            if emit:
                backoff += (n / occ) * (emit / self.pos_total[pos])
        return mix * direct + (1.0 - mix) * backoff

    def eps_prob(self, symbol: str) -> float:
        occ = self.occurrences.get(symbol, 0)
        if not occ:
            return 0.0
        return self.erased.get(symbol, 0) / occ

    def stack_prob(self, symbols: Iterable[str], word: Optional[str]) -> float:
        """Probability of ``word`` as the next terminal from this stack.

        ``symbols`` run top of stack first.  ``word`` None means "no word
        at all": the probability that every symbol erases.
        """
        p = 0.0
        weight = 1.0
        for sym in symbols:
            if word is not None:
                p += weight * self.word_prob(sym, word)
            weight *= self.eps_prob(sym)
            if weight == 0.0:
                break
        if word is None:
            return weight
        return p


def _walk(t: Tree, first_word: FirstCounts, first_pos: FirstCounts) -> Optional[tuple[str, str]]:
    """Count the first word and preterminal of every constituent of ``t``.

    Returns the (word, preterminal) pair heading t's yield, or None when
    the yield is empty.  Epsilon leaves are not words.
    """
    if t.is_preterminal:
        token = t.children[0].label
        first = None if token == EPSILON else (token, t.label)
    else:
        first = None
        for child in t.children:
            r = _walk(child, first_word, first_pos)
            if first is None:
                first = r
    if first is not None:
        word, pos = first
        fw = first_word.setdefault(t.label, {})
        fw[word] = fw.get(word, 0) + 1
        fp = first_pos.setdefault(t.label, {})
        fp[pos] = fp.get(pos, 0) + 1
    return first
