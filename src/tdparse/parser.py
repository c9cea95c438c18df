"""Incremental top-down beam parser.

The parser keeps one queue of candidate analyses per input position.  An
analysis is a stack of grammar symbols left to expand, the partial tree
built so far (as a spine, see conditioning.py), its derivation log
probability, and a figure of merit that multiplies in the lookahead
probability of the word it now has to explain.  One kernel runs every
queue: it pops analyses best-first and pushes their successors back,
except goals, which it collects.  While words remain, a goal consumes
the current word and the goals form the next queue; after the last word
a goal is a full parse, an analysis whose stack has emptied.  A queue
stops when it empties, when the best remaining figure of merit falls
below

    gamma * |H| ** 3 * best,

where best and |H| are the top figure of merit and number of the goals
so far, or when the pop budget runs out.  base_beam = 0 is the same
search with a threshold of -inf and no pop budget: it enumerates
exactly, which terminates only for grammars without left recursion or
unary cycles, so exact mode refuses a grammar with a cycle in its
left-corner graph.  On an ambiguous grammar its cost can grow
exponentially with sentence length.

Expanding a symbol visits its phrasal rules and at most one lexical
rule, read from successor tables that the parser builds once from the
grammar's rule index (see ``Pcfg`` in grammar.py): (preterminal, word)
maps to the only rule that can rewrite the one as the other, so the cost
of a pop does not grow with the vocabulary.  Each entry carries the
rule's id, the symbols it pushes and its spine step (see conditioning.py),
built once per parser.  A lexical step attaches one preterminal subtree,
which analyses and results share: a ``Tree`` is never changed once built.
The lexical successor is handled first.  That moves no output: it only
adds a goal, while mid-sentence a phrasal successor only feeds the heap,
and at the end of input no lexical rule applies.

Rule scores are read from the cache that the context model keeps, one
lookup per pop: every spine node carries the interned state of its
conditioning context, and the cache is keyed by (state, symbol expanded).
A spine step finds the state of the node it builds through a memoized
transition, so neither scoring nor stepping walks the partial tree (see
conditioning.py).

While words remain, the kernel also drops every analysis whose stack
cannot derive a string that starts with the current word (a left-corner
reachability filter, as in Roark & Johnson 1999 and Moore 2000).  The
test reads two tables the parser builds from the left-corner closure,
the preterminals each symbol's yield can start with and the symbols that
can erase, and the grammar's index of each word's preterminals.  It scans the
stack from the top through erasable symbols to the first one that cannot
erase.  The filter changes no output.  A dropped analysis could never
yield a goal; every rule scores above zero, so what the grammar cannot
reach the scorer cannot either; and the tie counter only grows, so the
remaining analyses pop in the same order.  When the pop budget does not
bind, goals, masses and beam cutoffs are those of the unfiltered search
and only pops and pushes fall; when it binds, a queue keeps every goal
the unfiltered search would find and may find more.  Goals are never
filtered, so a queue's mass still counts analyses that cannot continue.

A parse meets the same few (stack, word) pairs over and over, so the
parser keeps one memo for the push test, keyed by (stack, word).  An
entry is the floored log look-ahead, computed on a miss by the full
reachability scan and look-ahead walk, and it is an ``Unreachable``
when words remain and the stack cannot start with the word.  Pushes and
the queue filter skip an ``Unreachable``; goals and ``advance_mass`` read
only its value.  The look-ahead tables are complete when built (see
lookahead.py) and the grammar is fixed, so the memo lives as long as its
parser.  It holds at most LOOKAHEAD_CACHE_CAP entries and is dropped
whole when full: stacks grow with the grammar and words with the
vocabulary.  The beam cutoff moves only when a goal is added, so it is
computed then and not on every pop.

The initial content of queue i, before any same-position work, is
exactly the set of analyses that consumed the i-word prefix, so its
probability mass is the (beam lower bound on the) prefix probability.
Those masses drive the language model in langmodel.py.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional

# apply_rule stays a module attribute: perfbench/tracing.py wraps parser.apply_rule.
from .conditioning import ContextModel, SpineNode, apply_rule, spine_step  # noqa: F401
from .grammar import Pcfg
from .lookahead import LookaheadTables
from .treebank import AXIOM, Tree


class ParseError(ValueError):
    pass


# Most (stack, word) pairs a parser keeps look-ahead values for: about 20
# times the 3,100 or so that one pass of the benchmark's 3,000-noun lexicon
# workload meets.
LOOKAHEAD_CACHE_CAP = 2**16


class Unreachable(float):
    """A memoized log look-ahead whose stack cannot start with the word.

    It is the look-ahead value itself, so goals and ``advance_mass`` add
    it like any float, while pushes and the queue filter skip it.
    """

    __slots__ = ()


@dataclass(frozen=True)
class ParserConfig:
    base_beam: float = 1e-11      # gamma; 0.0 disables pruning and the budget
    max_pops: int = 10_000        # per-queue expansion budget
    lap_floor: float = 1e-10      # clamp on the lookahead factor

    def __post_init__(self):
        # Written so that NaN, which fails every comparison, fails the check.
        if not 0.0 <= self.base_beam < 1.0:
            raise ParseError("base_beam must be 0 (exact) or in (0, 1)")
        if self.max_pops <= 0:
            raise ParseError("max_pops must be positive")
        # A floor above 1 would lift every look-ahead factor to the same value.
        if not 0.0 <= self.lap_floor <= 1.0:
            raise ParseError("lap_floor must be in [0, 1]")


def beam_threshold(best_logf: float, queue_size: int, base_beam: float) -> float:
    """Log figure-of-merit cutoff given the next queue's best entry and size; -inf when exact."""
    if base_beam == 0.0:
        return -math.inf
    return best_logf + math.log(base_beam) + 3.0 * math.log(queue_size)


def left_corners(grammar: Pcfg) -> tuple[dict[str, set[str]], set[str]]:
    """Each nonterminal's left corners, and the symbols that derive the empty string.

    ``A -> B C`` makes B and B's left corners left corners of A, and C and
    its left corners as well when B can derive the empty string.
    """
    nullable: set[str] = set()
    corners: dict[str, set[str]] = {lhs: set() for lhs in grammar.by_lhs}
    grew = True
    while grew:
        before = sum(map(len, corners.values())) + len(nullable)
        for lhs, expansions in grammar.phrasal.items():
            for rule, _ in expansions:
                for sym in rule.rhs:
                    corners[lhs] |= {sym} | corners[sym]
                    if sym not in nullable:
                        break
                else:
                    nullable.add(lhs)
        grew = sum(map(len, corners.values())) + len(nullable) > before
    return corners, nullable


def _left_recursive_symbol(corners: dict[str, set[str]]) -> Optional[str]:
    """The first symbol, in sorted order, that is its own left corner."""
    return next((sym for sym in sorted(corners) if sym in corners[sym]), None)


class Analysis:
    """One candidate: symbols still to expand plus the structure built."""

    __slots__ = ("stack", "spine", "logp", "logf", "rules", "tree")

    def __init__(self, stack, spine, logp, logf, rules, tree=None):
        self.stack: tuple[str, ...] = stack        # top of stack at the end
        self.spine: Optional[SpineNode] = spine
        self.logp: float = logp
        self.logf: float = logf
        self.rules: tuple[int, ...] = rules
        self.tree: Optional[Tree] = tree


@dataclass
class QueueInfo:
    mass: float
    size: int
    best: Optional[Analysis]


@dataclass
class ParseResult:
    words: tuple[str, ...]
    queues: list[QueueInfo]                  # len(words) + 1 initial snapshots
    completed: list[Analysis]                # best derivation first
    tree: Tree                               # complete parse or partial cover
    failed: bool
    fallback_from: Optional[int]             # queue the partial tree came from
    pops: int
    pushes: int

    @property
    def masses(self) -> list[float]:
        return [q.mass for q in self.queues]

    @property
    def best_logp(self) -> Optional[float]:
        return self.completed[0].logp if self.completed else None


class BeamParser:
    def __init__(
        self,
        grammar: Pcfg,
        context: ContextModel,
        lookahead: LookaheadTables,
        config: ParserConfig = ParserConfig(),
    ):
        if context.grammar is not grammar:
            raise ParseError("context model was built for a different grammar")
        corners, nullable = left_corners(grammar)
        if config.base_beam == 0.0:
            symbol = _left_recursive_symbol(corners)
            if symbol is not None:
                raise ParseError(f"exact mode would not terminate: {symbol!r} is its own left corner")
        self.grammar = grammar
        self.context = context
        self.lookahead = lookahead
        self.config = config
        # Reachability tables: the preterminals each symbol's yield can
        # start with, and the symbols that can erase.
        self.nullable = frozenset(nullable)
        self.first_pos = {
            sym: frozenset(c for c in corners[sym] | {sym} if c in grammar.preterminals)
            for sym in corners
        }
        # (stack, word) -> floored log look-ahead; see the module docstring.
        self._memo: dict[tuple[tuple[str, ...], Optional[str]], float] = {}
        # Successor tables with each rule's spine step: (tag, word) -> (rule id, step),
        # lhs -> its phrasal (rule id, symbols pushed top last, step) in rule order.
        self._lexical = {key: (rid, spine_step(rule)) for key, (rule, rid) in grammar.lexical.items()}
        self._phrasal = {
            lhs: tuple((rid, rule.rhs[::-1], spine_step(rule)) for rule, rid in expansions)
            for lhs, expansions in grammar.phrasal.items()
        }

    # -- pieces ---------------------------------------------------------------

    def _lap_log(self, stack: tuple[str, ...], word: Optional[str]) -> float:
        p = self.lookahead.stack_prob(reversed(stack), word)
        p = max(p, self.config.lap_floor)
        return math.log(p) if p > 0.0 else -math.inf

    def _reaches(self, stack: tuple[str, ...], tags: frozenset[str]) -> bool:
        """Whether ``stack`` derives a string whose first word has a tag in ``tags``.

        Symbols from the top down may erase; the scan stops at the first
        one that cannot.
        """
        for sym in reversed(stack):
            if not self.first_pos[sym].isdisjoint(tags):
                return True
            if sym not in self.nullable:
                return False
        return False

    def _fill(self, stack: tuple[str, ...], word: Optional[str]) -> float:
        """Compute and keep the memo entry for ``(stack, word)``.

        The entry is the floored log look-ahead, as an ``Unreachable``
        when words remain and ``stack`` cannot start with ``word``.
        """
        memo = self._memo
        if len(memo) >= LOOKAHEAD_CACHE_CAP:
            memo.clear()
        lap = self._lap_log(stack, word)
        if word is not None and not self._reaches(stack, self.grammar.word_pos.get(word, frozenset())):
            lap = Unreachable(lap)
        memo[stack, word] = lap
        return lap

    def _lap(self, stack: tuple[str, ...], word: Optional[str]) -> float:
        """The memo entry for ``(stack, word)``, computed on a miss."""
        lap = self._memo.get((stack, word))
        return self._fill(stack, word) if lap is None else lap

    def initial_entries(self, first_word: Optional[str]) -> list[Analysis]:
        stack = (AXIOM,)
        return [Analysis(stack, None, 0.0, float(self._lap(stack, first_word)), ())]

    def advance(
        self, entries: list[Analysis], word: str, next_word: Optional[str]
    ) -> tuple[list[Analysis], int, int]:
        """Run one queue; return (next queue's entries, pops, pushes)."""
        return self._expand(entries, word, next_word)

    def finish(self, entries: list[Analysis]) -> tuple[list[Analysis], int, int]:
        """Run the last queue; return (full parses best first, pops, pushes)."""
        return self._expand(entries, None, None)

    def _expand(
        self, entries: list[Analysis], word: Optional[str], next_word: Optional[str]
    ) -> tuple[list[Analysis], int, int]:
        """Pop ``entries`` best-first until the queue stops; collect its goals.

        Mid-sentence a goal is an analysis that consumes ``word`` with a
        lexical rule; ``next_word`` only scores its figure of merit.  At
        the end of input (``word`` None) a goal is an emptied stack: a
        full parse, whose figure of merit is its log probability.  Goals
        are collected, never expanded.
        """
        ending = word is None
        base_beam = self.config.base_beam
        budget = self.config.max_pops if base_beam else math.inf
        lexical = self._lexical
        phrasal = self._phrasal
        scorer = self.context.scorer
        memo = self._memo
        fill = self._fill
        if not ending:
            # An analysis that cannot reach the current word yields no goal.
            entries = [e for e in entries if self._lap(e.stack, word).__class__ is not Unreachable]
        tie = itertools.count()
        heap = [(-e.logf, next(tie), e) for e in entries]
        heapq.heapify(heap)
        goals: list[Analysis] = []
        # The queue stops once its best entry falls below the cutoff, which
        # moves only when a goal is added.
        best = cutoff = -math.inf
        pops = pushes = 0
        while heap and pops < budget:
            if -heap[0][0] < cutoff:
                break
            a = heapq.heappop(heap)[2]
            pops += 1
            if not a.stack:
                # Emptied by a lexical rule: a full parse at the end of
                # input, a dead end while words remain.
                if ending and a.tree is not None:
                    goals.append(a)
                    if a.logp > best:
                        best = a.logp
                    cutoff = beam_threshold(best, len(goals), base_beam)
                continue
            top = a.stack[-1]
            rest = a.stack[:-1]
            score = scorer(a.spine, top)
            # The lexical successor only adds a goal, and a phrasal one
            # mid-sentence only feeds the heap, so it may go first.  At the
            # end of input (top, None) matches no lexical rule.
            consume = lexical.get((top, word))
            if consume is not None:
                rid, step = consume
                lp = score(rid)
                if lp != -math.inf:
                    logp = a.logp + lp
                    lap = memo.get((rest, next_word))
                    logf = logp + (fill(rest, next_word) if lap is None else lap)
                    if logf >= cutoff:
                        spine, done = step(a.spine)
                        goals.append(Analysis(rest, spine, logp, logf, a.rules + (rid,), done))
                        pushes += 1
                        if logf > best:
                            best = logf
                        cutoff = beam_threshold(best, len(goals), base_beam)
            for rid, pushed, step in phrasal[top]:
                stack = rest + pushed
                lap = memo.get((stack, word))
                if lap is None:
                    lap = fill(stack, word)
                if lap.__class__ is Unreachable:
                    continue
                lp = score(rid)
                if lp == -math.inf:
                    continue
                logp = a.logp + lp
                rules = a.rules + (rid,)
                spine, done = step(a.spine)
                if not stack:
                    # An epsilon rule closed the root: complete only at the end.
                    if ending:
                        goals.append(Analysis((), None, logp, logp, rules, done))
                        if logp > best:
                            best = logp
                        cutoff = beam_threshold(best, len(goals), base_beam)
                    continue
                logf = logp + lap
                heapq.heappush(heap, (-logf, next(tie), Analysis(stack, spine, logp, logf, rules)))
                pushes += 1
        if ending:
            goals.sort(key=lambda c: (-c.logp, c.rules))
        return goals, pops, pushes

    # -- the whole pipeline ----------------------------------------------------

    def parse(self, words: list[str]) -> ParseResult:
        """Parse a sentence given as tokens ending with the end marker."""
        if not words:
            raise ParseError("cannot parse an empty sentence")
        entries = self.initial_entries(words[0])
        queues = [self._snapshot(entries)]
        total_pops = total_pushes = 0
        for i, w in enumerate(words):
            nxt_word = words[i + 1] if i + 1 < len(words) else None
            entries, pops, pushes = self.advance(entries, w, nxt_word)
            total_pops += pops
            total_pushes += pushes
            queues.append(self._snapshot(entries))
        completed, pops, pushes = self.finish(entries)
        total_pops += pops
        total_pushes += pushes
        if completed:
            tree, failed, origin = completed[0].tree, False, None
        else:
            origin = max(i for i, q in enumerate(queues) if q.size > 0)
            tree = self._partial_tree(queues[origin].best, list(words[origin:]))
            failed = True
        return ParseResult(
            words=tuple(words),
            queues=queues,
            completed=completed,
            tree=tree,
            failed=failed,
            fallback_from=origin,
            pops=total_pops,
            pushes=total_pushes,
        )

    def _snapshot(self, entries: list[Analysis]) -> QueueInfo:
        if not entries:
            return QueueInfo(0.0, 0, None)
        best = max(entries, key=lambda e: e.logf)
        return QueueInfo(queue_mass(entries), len(entries), best)

    def _partial_tree(self, analysis: Analysis, remaining: list[str]) -> Tree:
        """Close the spine and park unconsumed words under the root.

        Open constituents with nothing in them yet are dropped rather
        than kept as empty brackets.
        """
        node = analysis.spine
        sub: Optional[Tree] = None
        while node is not None:
            kids = node.children + ((sub,) if sub is not None else ())
            if kids:
                sub = Tree(node.label, kids)
            node = node.parent
        leaves = tuple(Tree(w) for w in remaining)
        if sub is None:
            return Tree(AXIOM, leaves)
        if leaves:
            sub = Tree(sub.label, sub.children + leaves)
        return sub

    # -- mass probes -------------------------------------------------------------

    def prefix_entries(self, prefix: list[str]) -> list[Analysis]:
        """Queue entries after consuming ``prefix`` under the usual beam."""
        entries = self.initial_entries(prefix[0] if prefix else None)
        for j, w in enumerate(prefix):
            nxt = prefix[j + 1] if j + 1 < len(prefix) else None
            entries, _, _ = self.advance(entries, w, nxt)
        return entries

    def advance_mass(self, entries: list[Analysis], word: str) -> float:
        """Mass reaching the next queue if ``word`` came next."""
        rescored = [
            Analysis(e.stack, e.spine, e.logp, e.logp + self._lap(e.stack, word), e.rules)
            for e in entries
        ]
        return queue_mass(self.advance(rescored, word, None)[0])


def queue_mass(entries: list[Analysis]) -> float:
    return math.fsum(math.exp(e.logp) for e in entries)
