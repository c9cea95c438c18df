"""Left-factored PCFG induction and tree scoring.

Factoring rewrites every internal node with children X0..Xk into a binary
chain that introduces one child at a time and closes with an epsilon::

    (NP (DT the) (NN ball))
      -> (NP (DT the) (NP-DT (NN ball) (NP-DT,NN <eps>)))

A factored label ``A-X0,..,Xk`` has base ``A`` and the consumed child
labels after the hyphen.  The transform is reversible, and relative
frequency estimation on the factored corpus assigns every original tree
the same probability the unfactored grammar would: the chain probabilities
telescope to count(A -> X0..Xk) / count(A).

Grammars here are always the factored kind: every rule is binary over
nonterminals, a single-terminal preterminal rule, or an epsilon rule with
a factored left-hand side.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from .treebank import AXIOM, CHILD_SEP, EPSILON, FACTOR_SEP, Tree


class GrammarError(ValueError):
    """Malformed tree shapes or rule inventories."""


def make_factored(base: str, consumed: Sequence[str]) -> str:
    if not consumed:
        return base
    return base + FACTOR_SEP + CHILD_SEP.join(consumed)


def split_factored(label: str) -> tuple[str, tuple[str, ...]]:
    if FACTOR_SEP not in label:
        return label, ()
    base, rest = label.split(FACTOR_SEP, 1)
    return base, tuple(rest.split(CHILD_SEP))


def is_factored(label: str) -> bool:
    return FACTOR_SEP in label


class Rule(NamedTuple):
    lhs: str
    rhs: tuple[str, ...]
    lexical: bool

    def render(self) -> str:
        rhs = " ".join(self.rhs) if self.rhs else EPSILON
        mark = "'" if self.lexical else ""
        return f"{self.lhs} -> {mark}{rhs}"


def _check_children(t: Tree) -> None:
    for c in t.children:
        if not c.children:
            raise GrammarError(
                f"node {t.label!r} mixes bare tokens with constituents; "
                "every terminal must sit under its own preterminal"
            )


def left_factor_tree(t: Tree) -> Tree:
    """Binarize a tree by left factoring.  Preterminals pass through."""
    if t.is_leaf:
        raise GrammarError("cannot factor a bare token")
    if t.is_preterminal:
        return t
    _check_children(t)
    # A loop, not a comprehension, so each tree level costs one frame.
    kids = []
    for c in t.children:
        kids.append(left_factor_tree(c))
    labels = [c.label for c in t.children]
    # Build the chain inside out: the deepest tail erases to epsilon.
    node = Tree(make_factored(t.label, labels), (Tree(EPSILON),))
    for j in range(len(kids) - 1, 0, -1):
        node = Tree(make_factored(t.label, labels[:j]), (kids[j], node))
    return Tree(t.label, (kids[0], node))


def unfactor_tree(t: Tree) -> Tree:
    """Invert left_factor_tree.  Rejects partial or malformed chains."""
    if t.is_leaf:
        raise GrammarError("cannot unfactor a bare token")
    if is_factored(t.label):
        raise GrammarError(f"unexpected factored label {t.label!r} at subtree root")
    if t.is_preterminal:
        return t
    if len(t.children) != 2:
        raise GrammarError(f"node {t.label!r} is not a binary factored node")
    first, tail = t.children
    kids = [unfactor_tree(first)]
    consumed = [first.label]
    while True:
        base, seen = split_factored(tail.label)
        if base != t.label or list(seen) != consumed:
            raise GrammarError(
                f"factored label {tail.label!r} does not continue {t.label!r} "
                f"after {consumed}"
            )
        if tail.is_leaf:
            raise GrammarError(f"dangling factored chain at {tail.label!r}")
        if len(tail.children) == 1:
            only = tail.children[0]
            if only.is_leaf and only.label == EPSILON:
                break
            raise GrammarError(f"dangling factored chain at {tail.label!r}")
        if len(tail.children) != 2:
            raise GrammarError(f"factored node {tail.label!r} is not binary")
        child, tail = tail.children
        kids.append(unfactor_tree(child))
        consumed.append(child.label)
    return Tree(t.label, kids)


def tree_to_derivation(t: Tree) -> Iterator[Rule]:
    """Rules of a tree in leftmost-derivation (preorder) order.

    Walks an explicit stack, so tree depth costs no Python frames.
    """
    if t.is_leaf:
        raise GrammarError("a bare token has no derivation")
    stack = [t]
    while stack:
        node = stack.pop()
        kids = node.children
        if len(kids) == 1 and not kids[0].children:
            tok = kids[0].label
            if tok == EPSILON:
                yield Rule(node.label, (), False)
            else:
                yield Rule(node.label, (tok,), True)
            continue
        _check_children(node)
        yield Rule(node.label, tuple([c.label for c in kids]), False)
        stack.extend(reversed(kids))


class Pcfg:
    """A relative-frequency PCFG over factored rules, and the one index of its rules.

    Its start is the axiom, ``AXIOM``: every derivation starts there.
    Rule ids are positions in the sorted rule list, stable across
    save/load.  One pass over it builds the tables that the parser, the
    look-ahead and the model read instead of building their own:
    ``by_lhs`` (lhs -> its (rule, rule id, log probability) triples),
    ``lexical`` ((preterminal, word) -> (rule, rule id)), ``phrasal`` (lhs
    -> its non-lexical (rule, rule id) pairs, empty for a pure
    preterminal), ``word_pos`` (word -> its preterminals), ``pos_word``
    (preterminal -> word -> count) and ``erased`` (lhs -> epsilon count).
    """

    def __init__(self, rule_counts: dict[Rule, int]):
        if not rule_counts:
            raise GrammarError("no rules")
        self.rule_counts = dict(rule_counts)
        self.lhs_counts: dict[str, int] = {}
        for rule, n in rule_counts.items():
            if n <= 0:
                raise GrammarError(f"rule {rule.render()} has count {n}")
            self.lhs_counts[rule.lhs] = self.lhs_counts.get(rule.lhs, 0) + n
        self.rules: list[Rule] = sorted(rule_counts)
        self._validate()
        self.rule_ids = {rule: rid for rid, rule in enumerate(self.rules)}
        self.lexical: dict[tuple[str, str], tuple[Rule, int]] = {}
        self.pos_word: dict[str, dict[str, int]] = {}
        self.erased: dict[str, int] = {}
        by_lhs, phrasal, tags = {}, {}, {}
        for rule, rid in self.rule_ids.items():
            lhs, n = rule.lhs, rule_counts[rule]
            by_lhs.setdefault(lhs, []).append((rule, rid, math.log(n / self.lhs_counts[lhs])))
            expansions = phrasal.setdefault(lhs, [])
            if rule.lexical:
                self.lexical[lhs, rule.rhs[0]] = (rule, rid)
                self.pos_word.setdefault(lhs, {})[rule.rhs[0]] = n
                tags.setdefault(rule.rhs[0], set()).add(lhs)
            else:
                expansions.append((rule, rid))
                if not rule.rhs:
                    self.erased[lhs] = n
        self.by_lhs = {lhs: tuple(entries) for lhs, entries in by_lhs.items()}
        self.phrasal = {lhs: tuple(entries) for lhs, entries in phrasal.items()}
        self.word_pos = {word: frozenset(pos) for word, pos in tags.items()}
        self.preterminals, self.vocabulary = frozenset(self.pos_word), frozenset(self.word_pos)

    def _validate(self) -> None:
        """Every rule is in factored form over symbols that have expansions."""
        if AXIOM not in self.lhs_counts:
            raise GrammarError(f"the axiom {AXIOM!r} has no rules")
        for rule in self.rules:
            if rule.lexical:
                if len(rule.rhs) != 1:
                    raise GrammarError(f"lexical rule {rule.render()} is not unary")
            elif len(rule.rhs) == 0:
                if not is_factored(rule.lhs):
                    raise GrammarError(
                        f"epsilon rule on unfactored symbol {rule.lhs!r}"
                    )
            elif len(rule.rhs) == 2:
                for sym in rule.rhs:
                    if sym not in self.lhs_counts:
                        raise GrammarError(
                            f"rule {rule.render()} references {sym!r}, "
                            "which has no expansions"
                        )
            else:
                raise GrammarError(f"rule {rule.render()} is not in factored form")


def induce_pcfg(trees: Iterable[Tree]) -> Pcfg:
    """Relative-frequency estimation over factored trees rooted at the axiom, the grammar's start."""
    counts: dict[Rule, int] = {}
    any_tree = False
    for t in trees:
        any_tree = True
        if t.label != AXIOM:
            raise GrammarError(
                f"tree rooted at {t.label!r}; expected the axiom {AXIOM!r} "
                "(augment before inducing)"
            )
        for rule in tree_to_derivation(t):
            counts[rule] = counts.get(rule, 0) + 1
    if not any_tree:
        raise GrammarError("empty corpus")
    return Pcfg(counts)


def log_tree_probability(g: Pcfg, t: Tree) -> float:
    """Log probability of a tree under g; -inf signals an unseen rule.

    The -inf return is an exact zero-probability signal, distinct from any
    underflow: log space never underflows at these scales.
    """
    total = 0.0
    for rule in tree_to_derivation(t):
        entry = g.rule_counts.get(rule)
        if entry is None:
            return -math.inf
        total += math.log(entry / g.lhs_counts[rule.lhs])
    return total


def tree_probability(g: Pcfg, t: Tree) -> float:
    logp = log_tree_probability(g, t)
    return math.exp(logp) if logp != -math.inf else 0.0
