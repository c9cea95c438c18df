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

Nothing is cached here.  The parser keeps the floored log look-ahead of
each (stack, word) pair it meets (see parser.py), and learns from
``changes`` that the tables changed under it.  ``changes`` grows when
``_walk`` counts a constituent and when any attribute is assigned, as
the model loader does with the first-word and first-preterminal counts.
A write straight into one of the count dicts is not counted, so make
those before the first parse.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .grammar import Pcfg
from .treebank import EPSILON, Tree


class LookaheadError(ValueError):
    pass


class LookaheadTables:
    """First-word, first-preterminal and erasure counts per symbol.

    Occurrence, erasure and preterminal-word counts are the grammar's own
    tables (``lhs_counts``, ``erased`` and ``pos_word`` of ``Pcfg``), never
    written here; only the first-word and first-preterminal counts need trees.
    """

    def __init__(self, grammar: Pcfg, smoothing_k: int = 5):
        if smoothing_k < 0:
            raise LookaheadError("smoothing_k must be nonnegative")
        self.changes = 0
        self.smoothing_k = smoothing_k
        self.occurrences = grammar.lhs_counts
        self.erased = grammar.erased
        self.pos_word = grammar.pos_word
        self.first_word: dict[str, dict[str, int]] = {}
        self.first_pos: dict[str, dict[str, int]] = {}
        self.pos_total: dict[str, int] = {pos: sum(words.values()) for pos, words in self.pos_word.items()}

    def __setattr__(self, name: str, value) -> None:
        # word_prob reads every table, so replacing one is a change.
        if name != "changes":
            self.changes += 1
        super().__setattr__(name, value)

    @classmethod
    def from_trees(cls, grammar: Pcfg, trees: Iterable[Tree], smoothing_k: int = 5) -> "LookaheadTables":
        """Tables for ``grammar`` with first-word counts from its training trees."""
        tables = cls(grammar, smoothing_k)
        for t in trees:
            tables._walk(t)
        if not tables.first_word:
            raise LookaheadError("no constituents to collect lookahead counts from")
        return tables

    def _walk(self, t: Tree) -> Optional[tuple[str, str]]:
        # Returns the (word, preterminal) pair heading t's yield, or None
        # when the yield is empty.  Epsilon leaves are not words.
        if t.is_preterminal:
            token = t.children[0].label
            first = None if token == EPSILON else (token, t.label)
        else:
            first = None
            for child in t.children:
                r = self._walk(child)
                if first is None:
                    first = r
        if first is not None:
            self.changes += 1
            word, pos = first
            fw = self.first_word.setdefault(t.label, {})
            fw[word] = fw.get(word, 0) + 1
            fp = self.first_pos.setdefault(t.label, {})
            fp[pos] = fp.get(pos, 0) + 1
        return first

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
