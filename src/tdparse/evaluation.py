"""Labeled bracket scoring for parser output.

A constituent is any internal node other than a preterminal, the axiom
wrapper, the end-of-sentence constituent, or a factoring artifact; its
span covers the real words below it (epsilon leaves and the end marker
do not advance the word index, so augmented and plain trees score the
same).  Matching is by label and span, as a multiset.  Crossing counts
ignore labels and only spans at least two words wide can cross.

Sentences the parser failed on still score through their partial cover
tree, they just also show up in the failure rate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .grammar import is_factored
from .treebank import AXIOM, END_TOKEN, EPSILON, STOP_LABEL, Tree


class EvalError(ValueError):
    pass


def constituents(tree: Tree) -> list[tuple[str, int, int]]:
    """(label, start, end) spans eligible for scoring, in tree order."""
    spans: list[tuple[str, int, int]] = []

    def walk(t: Tree, i: int) -> int:
        if t.is_leaf:
            return i if t.label in (EPSILON, END_TOKEN) else i + 1
        j = i
        for child in t.children:
            j = walk(child, j)
        if (
            j > i
            and not t.is_preterminal
            and t.label not in (AXIOM, STOP_LABEL)
            and not is_factored(t.label)
        ):
            spans.append((t.label, i, j))
        return j

    walk(tree, 0)
    return spans


@dataclass
class PairScore:
    matched: int
    gold: int
    test: int
    crossings: int
    exact: bool


def _scored_words(t: Tree) -> list[str]:
    return [l.label for l in t.leaves() if l.label not in (EPSILON, END_TOKEN)]


def score_pair(gold_tree: Tree, test_tree: Tree) -> PairScore:
    gold_words = _scored_words(gold_tree)
    if gold_words != _scored_words(test_tree):
        raise EvalError(
            "gold and test trees cover different words "
            f"(gold starts {' '.join(gold_words[:5])!r})"
        )
    gold = Counter(constituents(gold_tree))
    test = Counter(constituents(test_tree))
    matched = sum((gold & test).values())
    gold_spans = {(i, j) for _, i, j in gold}
    crossings = 0
    for (_, i, j), n in test.items():
        if j - i < 2:
            continue
        if any(i < gi < j < gj or gi < i < gj < j for gi, gj in gold_spans):
            crossings += n
    return PairScore(
        matched=matched,
        gold=sum(gold.values()),
        test=sum(test.values()),
        crossings=crossings,
        exact=gold == test,
    )


@dataclass
class CorpusScore:
    sentences: int
    matched: int
    gold: int
    test: int
    crossings: int
    exact_matches: int
    zero_crossings: int
    two_or_fewer_crossings: int
    failures: int

    @property
    def recall(self) -> float:
        return self.matched / self.gold if self.gold else math.nan

    @property
    def precision(self) -> float:
        return self.matched / self.test if self.test else math.nan

    @property
    def f1(self) -> float:
        r, p = self.recall, self.precision
        return 2 * r * p / (r + p) if (r + p) else 0.0

    @property
    def parse_error(self) -> float:
        return 1.0 - (self.recall + self.precision) / 2.0

    @property
    def avg_crossings(self) -> float:
        return self.crossings / self.sentences if self.sentences else math.nan

    def as_report(self) -> list[tuple[str, str]]:
        pct = lambda x: f"{100.0 * x:.2f}"
        return [
            ("sentences", str(self.sentences)),
            ("labeled_recall", pct(self.recall)),
            ("labeled_precision", pct(self.precision)),
            ("labeled_f1", pct(self.f1)),
            ("parse_error", f"{self.parse_error:.4f}"),
            ("avg_crossings", f"{self.avg_crossings:.3f}"),
            ("zero_crossings_pct", pct(self.zero_crossings / self.sentences) if self.sentences else "nan"),
            ("two_or_fewer_crossings_pct", pct(self.two_or_fewer_crossings / self.sentences) if self.sentences else "nan"),
            ("exact_match_pct", pct(self.exact_matches / self.sentences) if self.sentences else "nan"),
            ("failure_pct", pct(self.failures / self.sentences) if self.sentences else "nan"),
        ]


def score_corpus(pairs: Iterable[tuple[Tree, Tree, bool]]) -> CorpusScore:
    """Aggregate scores over (gold, test, parser_failed) triples.

    Recall and precision are micro averages (bracket totals pooled over
    the corpus); crossing statistics average per sentence.
    """
    agg = CorpusScore(0, 0, 0, 0, 0, 0, 0, 0, 0)
    for gold_tree, test_tree, failed in pairs:
        s = score_pair(gold_tree, test_tree)
        agg.sentences += 1
        agg.matched += s.matched
        agg.gold += s.gold
        agg.test += s.test
        agg.crossings += s.crossings
        agg.exact_matches += int(s.exact)
        agg.zero_crossings += int(s.crossings == 0)
        agg.two_or_fewer_crossings += int(s.crossings <= 2)
        agg.failures += int(failed)
    if agg.sentences == 0:
        raise EvalError("nothing to score")
    return agg
