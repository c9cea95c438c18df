"""Exhaustive enumeration of top-down derivations, for checking the parser.

This is a deliberately independent implementation: a plain depth-first
walk over (stack, position) states using raw grammar probabilities, no
queues, no lookahead, no conditioning, no pruning.  On grammars small
enough to enumerate it gives exact sentence probabilities, exact prefix
masses, and the exact set of complete derivations, which the beam parser
must match in exact mode and never exceed when pruning.

Enumeration only terminates when the grammar has no left recursion and
no unary cycles; a step budget guards against the rest.  If the budget
runs out while the unexplored frontier holds more probability mass than
``mass_tol``, the result is not trustworthy and an OracleError is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grammar import Pcfg
from .treebank import AXIOM, EPSILON, Tree


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class OracleConfig:
    max_steps: int = 2_000_000
    mass_tol: float = 1e-12

    def __post_init__(self):
        if self.max_steps < 1:
            raise OracleError("max_steps must be positive")


@dataclass
class OracleResult:
    words: tuple[str, ...]
    complete: list[tuple[float, tuple[int, ...]]]   # (log prob, rule ids), best first
    prefix_mass: list[float]                        # len(words) + 1 entries
    steps: int

    @property
    def sentence_prob(self) -> float:
        return math.fsum(math.exp(lp) for lp, _ in self.complete)

    def word_prob(self, i: int) -> float:
        """Exact P(words[i] | words[:i])."""
        if self.prefix_mass[i] == 0.0:
            return 0.0
        return self.prefix_mass[i + 1] / self.prefix_mass[i]


def enumerate_derivations(
    grammar: Pcfg, words: list[str], config: OracleConfig = OracleConfig()
) -> OracleResult:
    """All leftmost derivations of ``words``, with exact prefix masses.

    ``prefix_mass[i]`` sums the probabilities of every partial derivation
    at the moment it has consumed exactly the first i words, the same
    quantity the parser's queue-entry masses estimate from below.
    """
    n = len(words)
    prefix_terms: list[list[float]] = [[] for _ in range(n + 1)]
    prefix_terms[0].append(1.0)
    complete: list[tuple[float, tuple[int, ...]]] = []
    pending: list[tuple[tuple[str, ...], int, float, tuple[int, ...]]] = [
        ((AXIOM,), 0, 0.0, ())
    ]
    steps = 0
    while pending:
        if steps > config.max_steps:
            frontier = math.fsum(math.exp(lp) for _, _, lp, _ in pending)
            if frontier <= config.mass_tol:
                break
            raise OracleError(
                f"enumeration budget exhausted after {config.max_steps} steps with "
                f"frontier mass {frontier:.3e} (> {config.mass_tol:.1e}); raise the "
                "budget, unless the grammar recurses without consuming input"
            )
        stack, pos, logp, rules = pending.pop()
        if not stack:
            if pos == n:
                complete.append((logp, rules))
            continue
        top = stack[-1]
        for rule, rid, lp in grammar.by_lhs[top]:
            steps += 1
            if rule.lexical:
                if pos < n and rule.rhs[0] == words[pos]:
                    nl = logp + lp
                    prefix_terms[pos + 1].append(math.exp(nl))
                    pending.append((stack[:-1], pos + 1, nl, rules + (rid,)))
            elif rule.rhs:
                pending.append(
                    (stack[:-1] + (rule.rhs[1], rule.rhs[0]), pos, logp + lp, rules + (rid,))
                )
            else:
                pending.append((stack[:-1], pos, logp + lp, rules + (rid,)))
    complete.sort(key=lambda c: (-c[0], c[1]))
    return OracleResult(
        words=tuple(words),
        complete=complete,
        prefix_mass=[math.fsum(terms) for terms in prefix_terms],
        steps=steps,
    )


def exact_next_word_probs(
    grammar: Pcfg, prefix: list[str], candidates: list[str], config: OracleConfig = OracleConfig()
) -> dict[str, float]:
    """Exact P(next word | prefix) for each candidate."""
    out = {}
    for w in candidates:
        r = enumerate_derivations(grammar, prefix + [w], config)
        denom = r.prefix_mass[len(prefix)]
        out[w] = r.prefix_mass[len(prefix) + 1] / denom if denom else 0.0
    return out


def derivation_tree(grammar: Pcfg, rule_ids: tuple[int, ...]) -> Tree:
    """Rebuild the (factored) tree a leftmost derivation denotes.

    Independent of the parser's spine bookkeeping on purpose: the two
    routes from derivation to tree must agree.
    """
    rules = iter(grammar.rules[i] for i in rule_ids)

    def build(symbol: str) -> Tree:
        try:
            rule = next(rules)
        except StopIteration:
            raise OracleError(f"derivation ended while {symbol} was still open")
        if rule.lhs != symbol:
            raise OracleError(f"derivation expands {rule.lhs} where {symbol} was required")
        if rule.lexical:
            return Tree(rule.lhs, (Tree(rule.rhs[0]),))
        if not rule.rhs:
            return Tree(rule.lhs, (Tree(EPSILON),))
        return Tree(rule.lhs, tuple(build(s) for s in rule.rhs))

    tree = build(AXIOM)
    leftover = sum(1 for _ in rules)
    if leftover:
        raise OracleError(f"derivation has {leftover} rules beyond the complete tree")
    return tree
