"""Context-conditioned rule probabilities for top-down derivations.

Every rule expansion in a leftmost derivation sees the rooted partial tree
built so far.  That context is kept as a *spine*: the chain of open
constituents from the root down to the constituent being worked on, each
holding the completed subtrees to its left.  The spine is immutable and
shared between candidate analyses, so extending one analysis never
disturbs another.

What a rule does to the spine, ``spine_step(rule)``, is built once per
rule by the parser and once per call by ``replay``.  A lexical rule's
step builds its preterminal subtree once, and every spine, analysis and
finished tree it extends shares it.  That is safe because a ``Tree`` is
never changed: ``_hash`` and ``_head`` only cache what its label and
children determine.

From the spine we read off one fixed schedule of conditioning values for
the expansion of a left-hand side A, and cut it after the configured
depth of its path.  Which schedule applies depends on where A sits:

* left path (A is not a preterminal), up to 7 values:
  A, parent, closest left sibling, grandparent, parent's closest left
  sibling, conjunction peek, lexical head seen so far;
* middle path (A is the leftmost preterminal of its constituent), up to
  6 values: A, parent, sibling (NULL here by definition), grandparent,
  then POS and token of the closest c-commanding lexical head;
* right path (A is a preterminal with a left sibling), up to 5 values:
  A, parent, sibling, then the two closest c-commanding lexical heads.

Rule probabilities interpolate relative frequencies down the schedule:
P_k = lam_k * f(rule | values[0..k]) + (1 - lam_k) * P_{k-1}, bottoming
out in the plain PCFG estimate f(rule | A).  A level whose value is NULL
adds no mixing step (it carries no new conditioning event), though the
NULL stays part of deeper table keys.  The lam_k are tied by (path,
level, frequency bucket of the conditioning-event count) and fit by EM
on heldout derivations.

The head percolation rules (HEAD_TABLE) and the conjunction label
(CONJ_LABEL) are fixed parts of the model, not settings.

A score depends on the site (path, values) alone, and a parse meets a
few hundred sites in tens of thousands of pops.  So each model keeps, in
``site_scores``, one scoring function per site, keyed by (path, values),
and each function keeps the log probability of every rule id it has
scored.  Every write through ``add`` and every assignment to ``lambdas``
empties ``site_scores``; a write straight into ``tables``, ``totals`` or
the weight dict does not, so make those before the first score.  The
dict holds at most SITE_CACHE_CAP sites and is dropped whole when full:
sites carry head words, so their number grows with the vocabulary.  The
n-gram model keeps one estimator per history in its own ``site_scores``
on the same terms (see langmodel.py).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .grammar import Pcfg, Rule, tree_to_derivation
from .treebank import FACTOR_SEP, Tree

LEFT = "left"
MIDDLE = "middle"
RIGHT = "right"
PATH_MAX = {LEFT: 6, MIDDLE: 5, RIGHT: 4}

# Count buckets for tying interpolation weights: 0, 1, 2-4, 5-9, 10-99, 100+.
BUCKET_EDGES = (1, 2, 5, 10, 100)

# EM may drive a weight to the boundary when heldout never backs off in a
# bucket; keep a sliver of backoff so unseen events never get probability 0.
LAMBDA_CAP = 1.0 - 1e-6

# Most sites a model keeps scoring functions for: about 25 times the 650 or
# so that one pass of the benchmark's 3,000-noun lexicon workload meets.
SITE_CACHE_CAP = 2**14


class ConditioningError(ValueError):
    pass


def bucket_of(count: int) -> int:
    return bisect_right(BUCKET_EDGES, count)


class InterpolationTable:
    """Per-level outcome counts mixed by deleted interpolation.

    A site has a base key (level 0) and the (level, key) pairs of the
    levels above it that add a mixing step, bottom-up.  Weights are tied by
    tie + (level, count bucket); a level whose key is unseen or whose
    weight is 0 is skipped, so estimates stay normalized.
    """

    def __init__(self, levels: int):
        self.tables: list[dict[tuple, dict]] = [{} for _ in range(levels)]
        self.totals: list[dict[tuple, int]] = [{} for _ in range(levels)]
        # site -> its memoized scoring function; see the module docstring.
        self.site_scores: dict[tuple, Callable] = {}
        self.lambdas = {}

    @property
    def lambdas(self) -> dict[tuple, float]:
        """tie + (level, bucket) -> weight on the level's own estimate."""
        return self._lambdas

    @lambdas.setter
    def lambdas(self, weights: dict[tuple, float]) -> None:
        self._lambdas = weights
        self.site_scores.clear()

    def add(self, level: int, key: tuple, outcome, n: int = 1) -> int:
        """Count ``n`` more of ``outcome`` after ``key``; returns its new count."""
        if self.site_scores:
            self.site_scores.clear()
        counts = self.tables[level].setdefault(key, {})
        counts[outcome] = new = counts.get(outcome, 0) + n
        self.totals[level][key] = self.totals[level].get(key, 0) + n
        return new

    def keep_site(self, site: tuple, fn: Callable) -> Callable:
        """Store ``fn`` as the site's function, dropping every site first when the dict is full."""
        if len(self.site_scores) >= SITE_CACHE_CAP:
            self.site_scores.clear()
        self.site_scores[site] = fn
        return fn

    def estimator(self, tie: tuple, base: tuple, levels: list[tuple[int, tuple]]) -> Callable[[object], float]:
        """The interpolated probability of each outcome at one site.

        Starts from the base relative frequency and mixes in each level
        bottom-up: p = lam * f(outcome | key) + (1 - lam) * p.  An unseen
        base gives every outcome probability 0.
        """
        tot0 = self.totals[0].get(base, 0)
        if not tot0:
            return lambda outcome: 0.0
        counts0 = self.tables[0][base]
        steps = []
        for k, key in levels:
            tot = self.totals[k].get(key, 0)
            if tot:
                lam = self.lambdas.get(tie + (k, bucket_of(tot)), 0.0)
                if lam > 0.0:
                    steps.append((lam, self.tables[k][key], tot))

        def prob(outcome) -> float:
            p = counts0.get(outcome, 0) / tot0
            for lam, counts, tot in steps:
                p = lam * (counts.get(outcome, 0) / tot) + (1.0 - lam) * p
            return p

        return prob

    def fit_weights(self, sites: Iterable[tuple], max_iter: int, tol: float) -> list[float]:
        """Fit the weights by EM on heldout (tie, outcome, base key, levels) sites.

        Returns the heldout log-likelihood trace (nats, one entry per
        iteration); it is non-decreasing.  Buckets never seen in heldout
        keep no entry and back off entirely (weight 0), as does bucket 0.
        """
        events = []
        pinned: dict[tuple, float] = {}
        for tie, outcome, base, levels in sites:
            tot0 = self.totals[0].get(base, 0)
            p0 = self.tables[0][base].get(outcome, 0) / tot0 if tot0 else 0.0
            steps = []
            for k, key in levels:
                tot = self.totals[k].get(key, 0)
                b = bucket_of(tot)
                if b == 0:
                    pinned[tie + (k, 0)] = 0.0
                else:
                    steps.append((tie + (k, b), self.tables[k][key].get(outcome, 0) / tot))
            events.append((p0, steps))
        lam, history = tune_interpolation(events, max_iter=max_iter, tol=tol)
        self.lambdas = dict(sorted({**pinned, **lam}.items()))
        return history


# Head percolation: label -> (scan direction, priority labels).  The scan
# looks for each priority label in turn, moving through the children in
# the given direction; with no priority hit it falls back to the first
# child ("left") or last child ("right").  Covers the conventional
# treebank inventory plus the short tags the fixture grammars use.
HEAD_TABLE: dict[str, tuple[str, tuple[str, ...]]] = {
    "TOP": ("left", ()),
    "S": ("left", ("VP", "S", "SBAR", "SINV", "ADJP", "UCP", "NP")),
    "SINV": ("left", ("VBZ", "VBD", "VBP", "VB", "MD", "VP", "S", "SINV", "ADJP", "NP")),
    "SBAR": ("left", ("WHNP", "WHPP", "WHADVP", "WHADJP", "IN", "DT", "C", "S", "SQ", "SINV", "SBAR", "FRAG")),
    "SBARQ": ("left", ("SQ", "S", "SINV", "SBARQ", "FRAG")),
    "SQ": ("left", ("VBZ", "VBD", "VBP", "VB", "MD", "VP", "SQ")),
    "VP": ("left", ("VBD", "VBN", "MD", "VBZ", "VB", "VBG", "VBP", "V", "VP", "ADJP", "NN", "NNS", "NP")),
    "NP": ("right", ("NN", "NNP", "NNPS", "NNS", "NX", "POS", "JJR", "N", "NP", "PRP", "CD", "JJ")),
    "PP": ("left", ("IN", "TO", "VBG", "VBN", "RP", "FW", "P")),
    "ADJP": ("right", ("NNS", "QP", "NN", "ADVP", "JJ", "VBN", "VBG", "ADJP", "JJR", "NP", "JJS", "DT", "FW", "RBR", "RBS", "SBAR", "RB")),
    "ADVP": ("right", ("RB", "RBR", "RBS", "FW", "ADVP", "TO", "CD", "JJR", "JJ", "IN", "NP", "JJS", "NN")),
    "QP": ("left", ("IN", "NNS", "NN", "JJ", "RB", "DT", "CD", "QP", "JJR", "JJS")),
    "WHNP": ("left", ("WDT", "WP", "WHADJP", "WHPP", "WHNP")),
    "WHPP": ("right", ("IN", "TO", "FW")),
    "WHADVP": ("right", ("CC", "WRB")),
    "PRT": ("right", ("RP",)),
    "NAC": ("left", ("NN", "NNS", "NNP", "NNPS", "NP", "NAC", "EX", "CD", "QP", "PRP", "VBG", "JJ", "JJS", "JJR", "ADJP", "FW")),
    "NX": ("left", ("NN", "NNS", "NNP", "NNPS")),
    "CONJP": ("right", ("CC", "RB", "IN")),
    "LST": ("right", ("LS",)),
    "RRC": ("right", ("VP", "NP", "ADVP", "ADJP", "PP")),
    "UCP": ("right", ()),
    "FRAG": ("right", ()),
    "X": ("right", ()),
}

# HEAD_TABLE with each priority list as label -> its index: the head is
# the child whose label has the lowest index.  Other labels scan from the left.
HEAD_RANKS: dict[str, tuple[str, dict[str, int]]] = {
    label: (direction, {want: i for i, want in enumerate(priorities)})
    for label, (direction, priorities) in HEAD_TABLE.items()
}
HEAD_FALLBACK = ("left", {})

# The left path's conjunction peek looks behind a left sibling with this label.
CONJ_LABEL = "CC"

PRESETS: dict[str, tuple[int, int, int]] = {
    "none": (0, 0, 0),
    "par+sib": (2, 2, 2),
    "nt-struct": (5, 2, 2),
    "nt-head": (6, 2, 2),
    "pos-struct": (6, 3, 2),
    "attach": (6, 5, 2),
    "all": (6, 5, 4),
}


@dataclass(frozen=True)
class CondConfig:
    """Per-path conditioning depths (deepest active level index).

    ``phrasal_depth`` governs the left path, ``first_pos_depth`` the
    middle path, ``later_pos_depth`` the right path.  Depth 0 everywhere
    is the plain PCFG.  Each depth lies in 0..its path's maximum (PATH_MAX).
    """

    phrasal_depth: int = 6
    first_pos_depth: int = 5
    later_pos_depth: int = 4

    def __post_init__(self):
        for name, ceiling in (
            ("phrasal_depth", PATH_MAX[LEFT]),
            ("first_pos_depth", PATH_MAX[MIDDLE]),
            ("later_pos_depth", PATH_MAX[RIGHT]),
        ):
            v = getattr(self, name)
            if v < 0:
                raise ConditioningError(f"{name} must be nonnegative")
            if v > ceiling:
                raise ConditioningError(f"{name} {v} is above its path's maximum {ceiling}")

    @classmethod
    def from_preset(cls, name: str) -> "CondConfig":
        key = name.strip().lower().replace(" ", "-").replace("_", "-")
        if key not in PRESETS:
            raise ConditioningError(
                f"unknown conditioning preset {name!r}; choose from "
                + ", ".join(sorted(PRESETS))
            )
        return cls(*PRESETS[key])

    def depth_for(self, path: str) -> int:
        if path == LEFT:
            return self.phrasal_depth
        if path == MIDDLE:
            return self.first_pos_depth
        return self.later_pos_depth

    @property
    def max_depth(self) -> int:
        return max(self.phrasal_depth, self.first_pos_depth, self.later_pos_depth)


class SpineNode:
    """One open constituent: its label, completed children, and parent."""

    __slots__ = ("label", "children", "parent")

    def __init__(self, label: str, children: tuple[Tree, ...], parent: Optional["SpineNode"]):
        self.label = label
        self.children = children
        self.parent = parent


def spine_step(rule: Rule) -> Callable[[Optional[SpineNode]], tuple[Optional[SpineNode], Optional[Tree]]]:
    """What ``rule`` does to the partial-tree spine, as a function of the spine.

    The function returns the new spine and, when the rule closes the root
    constituent, the finished tree; see the module docstring.
    """
    if rule.lexical:
        t = Tree(rule.lhs, (Tree(rule.rhs[0]),))

        def attach(spine):
            if spine is None:
                # The whole derivation was a single preterminal.
                return None, t
            return SpineNode(spine.label, spine.children + (t,), spine.parent), None

        return attach
    if not rule.rhs:
        return _close
    if FACTOR_SEP in rule.lhs:
        # Continuing an already-open constituent; the new child attaches
        # when it is itself expanded.
        return lambda spine: (spine, None)
    label = rule.lhs
    return lambda spine: (SpineNode(label, (), spine), None)


def _close(spine: SpineNode) -> tuple[Optional[SpineNode], Optional[Tree]]:
    t = Tree(spine.label, spine.children)
    parent = spine.parent
    if parent is None:
        return None, t
    return SpineNode(parent.label, parent.children + (t,), parent.parent), None


def apply_rule(spine: Optional[SpineNode], rule: Rule) -> tuple[Optional[SpineNode], Optional[Tree]]:
    """Advance the partial-tree spine by one rule of a leftmost derivation.

    The one-off form of ``spine_step(rule)(spine)``: returns the new spine
    and, when the rule closes the root constituent, the finished tree.
    """
    return spine_step(rule)(spine)


def replay(trees: Iterable[Tree]) -> Iterator[tuple[Optional[SpineNode], Rule]]:
    """Yield (context spine, rule) for every expansion in the given trees.

    The spine is the state *before* the rule applies, exactly what the
    parser sees when it scores the same expansion.  Each rule's step is
    built once per call.
    """
    steps: dict[Rule, Callable] = {}
    for t in trees:
        spine: Optional[SpineNode] = None
        for rule in tree_to_derivation(t):
            yield spine, rule
            step = steps.get(rule) or steps.setdefault(rule, spine_step(rule))
            spine, _ = step(spine)


def head_of(t: Tree) -> tuple[str, str]:
    """Percolated (token, POS tag) head of a completed subtree."""
    h = t._head
    if h is not None:
        return h
    if t.is_leaf:
        h = (t.label, t.label)
    elif t.is_preterminal:
        h = (t.children[0].label, t.label)
    else:
        h = head_of(head_child(t.label, t.children))
    t._head = h
    return h


def head_child(label: str, children: tuple[Tree, ...]) -> Tree:
    direction, ranks = HEAD_RANKS.get(label, HEAD_FALLBACK)
    return _best_ranked(children if direction == "left" else children[::-1], ranks)


def open_constituent_head(label: str, children: tuple[Tree, ...]) -> Optional[tuple[str, str]]:
    """Head of a constituent still being built.

    If the percolation priorities match one of the children seen so far,
    that child's head counts as already seen; otherwise the last built
    child stands proxy.  No children yet means no head.
    """
    if not children:
        return None
    return head_of(_best_ranked(children[::-1], HEAD_RANKS.get(label, HEAD_FALLBACK)[1]))


def _best_ranked(ordered: tuple[Tree, ...], ranks: dict[str, int]) -> Tree:
    """The child of the best-ranked label, the first of them in ``ordered``; else ``ordered[0]``."""
    best = ordered[0]
    top = len(ranks)
    for child in ordered:
        rank = ranks.get(child.label, top)
        if rank < top:
            best, top = child, rank
    return best


def _last_completed(node: Optional[SpineNode]) -> Optional[Tree]:
    """The last completed child of the nearest spine node, from ``node`` up, that has one."""
    while node is not None and not node.children:
        node = node.parent
    return node.children[-1] if node is not None else None


class ContextModel(InterpolationTable):
    """Count tables over conditioning-value prefixes, weights tied by path."""

    def __init__(self, grammar: Pcfg, config: CondConfig):
        super().__init__(config.max_depth + 1)
        self.grammar = grammar
        self.config = config
        # Every score reads these, and the config is frozen: work them out once.
        self.max_depth = config.max_depth
        self._cut = {path: config.depth_for(path) + 1 for path in PATH_MAX}

    # -- context extraction -------------------------------------------------

    def extract_values(self, spine: Optional[SpineNode], lhs: str) -> tuple[str, tuple]:
        """Conditioning values for expanding ``lhs`` in this context.

        Returns (path, values): the path's full schedule, cut off after the
        configured depth.  values[0] is always the lhs itself; missing
        structure shows up as None, never as a shorter tuple.
        """
        if FACTOR_SEP in lhs:
            # Continuing an open constituent: its children so far are within it.
            parent_spine = spine.parent
            within = spine.children
        else:
            parent_spine = spine
            within = ()
        if parent_spine is not None:
            siblings = parent_spine.children
            parent = parent_spine.label
            grand = parent_spine.parent
        else:
            siblings, parent, grand = (), None, None
        y_s = siblings[-1].label if siblings else None
        grand_label = grand.label if grand is not None else None
        if lhs not in self.grammar.preterminals:
            psibs = grand.children if grand is not None else ()
            conj = None
            if y_s == CONJ_LABEL and len(siblings) >= 2 and siblings[-2].children:
                conj = siblings[-2].children[0].label
            head = open_constituent_head(lhs.partition(FACTOR_SEP)[0], within) if within else None
            values = (lhs, parent, y_s, grand_label, psibs[-1].label if psibs else None, conj,
                      head[0] if head else None)
            return LEFT, values[: self._cut[LEFT]]
        # A preterminal's label has no factor separator, so its siblings
        # are the children of ``spine``.  The c-commanding heads, nearest
        # first, are the heads of those siblings from the last back, then
        # of the left siblings of each open ancestor up to the root.
        if y_s is None:
            last = _last_completed(spine)
            if last is None:
                values = (lhs, parent, None, grand_label, None, None)
            else:
                token, pos = head_of(last)
                values = (lhs, parent, None, grand_label, pos, token)
            return MIDDLE, values[: self._cut[MIDDLE]]
        second = siblings[-2] if len(siblings) > 1 else _last_completed(grand)
        values = (lhs, parent, y_s, head_of(siblings[-1])[0], head_of(second)[0] if second is not None else None)
        return RIGHT, values[: self._cut[RIGHT]]

    def path_depths(self, level: int, key: tuple) -> tuple[int, int]:
        """The shallowest and the deepest depth of the paths that can count ``key`` at ``level``.

        An expansion counts at the levels up to its path's depth.  The key
        shows the path: its lhs tells the left path from the preterminal
        ones, and from level 2 on its sibling value tells the middle path
        (None) from the right one.  Below level 2 a preterminal key may
        belong to either preterminal path.
        """
        c = self.config
        if key[0] not in self.grammar.preterminals:
            return c.phrasal_depth, c.phrasal_depth
        if level >= 2:
            depth = c.first_pos_depth if key[2] is None else c.later_pos_depth
            return depth, depth
        return min(c.first_pos_depth, c.later_pos_depth), max(c.first_pos_depth, c.later_pos_depth)

    @staticmethod
    def _levels(values: tuple) -> list[tuple[int, tuple]]:
        """(level, value prefix) above the base; a NULL value adds no step."""
        return [(k, values[: k + 1]) for k in range(1, len(values)) if values[k] is not None]

    # -- training ------------------------------------------------------------

    def train_counts(self, trees: Iterable[Tree]) -> int:
        """Accumulate prefix-closed count tables from factored trees.

        Expansions repeat heavily, so each distinct (values, rule id) event
        is tallied first and its prefixes are added once, with its count:
        the same integers as adding every expansion, and ``save_model``
        writes the tables sorted.  Returns the number of expansions.
        """
        rule_ids = self.grammar.rule_ids
        tally: dict[tuple, int] = {}
        for spine, rule in replay(trees):
            rid = rule_ids.get(rule)
            if rid is None:
                raise ConditioningError(
                    f"rule {rule.render()} is not in the grammar"
                )
            event = (self.extract_values(spine, rule.lhs)[1], rid)
            tally[event] = tally.get(event, 0) + 1
        for (values, rid), n in tally.items():
            for k in range(len(values)):
                self.add(k, values[: k + 1], rid, n)
        return sum(tally.values())

    def tune_mix_weights(self, heldout_trees: Iterable[Tree], max_iter: int = 100, tol: float = 1e-6) -> list[float]:
        """Fit interpolation weights by EM on heldout derivations (see ``fit_weights``)."""
        if self.config.max_depth == 0:
            self.lambdas = {}
            return []
        return self.fit_weights(self._sites(heldout_trees), max_iter, tol)

    def _sites(self, trees: Iterable[Tree]) -> Iterator[tuple]:
        """(tie, rule id, base key, levels) of every expansion by a grammar rule."""
        rule_ids = self.grammar.rule_ids
        for spine, rule in replay(trees):
            rid = rule_ids.get(rule)
            if rid is not None:
                path, values = self.extract_values(spine, rule.lhs)
                yield (path,), rid, values[:1], self._levels(values)

    # -- scoring ---------------------------------------------------------------

    def scorer(self, spine: Optional[SpineNode], lhs: str) -> Callable[[int], float]:
        """A log-probability function over rule ids for one expansion site.

        The site's function is built on its first call and kept in
        ``site_scores``; it computes each rule id's log probability once.  With
        depth 0 there are no levels and the partial tree is never walked.
        """
        site = self.extract_values(spine, lhs) if self.max_depth else (LEFT, (lhs,))
        score = self.site_scores.get(site)
        if score is None:
            path, values = site
            prob = self.estimator((path,), values[:1], self._levels(values))
            score = self.keep_site(site, _LogProbs(prob).__getitem__)
        return score

    def rule_logprob(self, spine: Optional[SpineNode], rule: Rule) -> float:
        rid = self.grammar.rule_ids.get(rule)
        if rid is None:
            return -math.inf
        return self.scorer(spine, rule.lhs)(rid)


class _LogProbs(dict):
    """rule id -> log probability at one site, each computed on first lookup."""

    __slots__ = ("prob",)

    def __init__(self, prob: Callable[[int], float]):
        super().__init__()
        self.prob = prob

    def __missing__(self, rid: int) -> float:
        p = self.prob(rid)
        lp = self[rid] = math.log(p) if p > 0.0 else -math.inf
        return lp


def tune_interpolation(
    events: list[tuple[float, list[tuple[tuple, float]]]],
    max_iter: int = 100,
    tol: float = 1e-6,
) -> tuple[dict, list[float]]:
    """EM for tied nested interpolation weights.

    Each event is (base probability, [(weight key, level estimate), ...])
    with levels ordered bottom-up.  The mixture puts weight
    lam_k * prod_{j>k} (1 - lam_j) on level k.  M-step: a key's new weight
    is the expected share of events that stop at its level among those
    reaching it.  Heldout likelihood never decreases.

    Heldout events repeat heavily, so the E-step scores each distinct
    event once per iteration.  Its terms go to fixed slots of one flat
    list, and every total (the log-likelihood, and each key's stop and
    reach mass) is a left fold over its slots in heldout order: the same
    float additions, in the same order, as a loop over every event, so
    the weights are bit-identical to it.  Weighting by multiplicity would
    round differently.
    """
    index: dict[tuple, int] = {}
    ids: dict[tuple, int] = {}
    distinct: list[tuple[float, list[tuple[int, float]], int]] = []
    places: list[list[tuple[int, int]]] = []
    # Fold 0 sums the log-likelihood; folds 1 + 2k and 2 + 2k sum key k's
    # stop and reach mass.  Slot 0 stays 0.0 and starts every fold.
    gathers: defaultdict[int, list[int]] = defaultdict(list)
    width = 1
    for p0, levels in events:
        i = ids.setdefault((p0, tuple(levels)), len(ids))
        if i == len(distinct):
            top = [(index.setdefault(key, len(index)), ph) for key, ph in reversed(levels)]
            distinct.append((p0, top, width))
            place = [(0, width)]
            for k, _ in top:
                place += [(1 + 2 * k, width + 1), (2 + 2 * k, width + 2)]
                width += 2
            places.append(place)
            width += 1
        for fold, slot in places[i]:
            gathers[fold].append(slot)
    folds = [itemgetter(0, *gathers[fold]) for fold in range(1 + 2 * len(index))]

    lam = [0.5] * len(index)
    history: list[float] = []
    prev = None
    for _ in range(max_iter):
        # An unscorable event keeps 0.0 in its slots.  A fold never holds
        # -0.0 (it starts at +0.0), so adding +0.0 leaves it unchanged,
        # exactly like skipping the event.
        terms = [0.0] * width
        scorable = False
        for p0, top, first in distinct:
            comps = []
            weight = 1.0
            for k, ph in top:
                v = lam[k]
                comps.append(weight * v * ph)
                weight *= 1.0 - v
            comps.append(weight * p0)
            total = math.fsum(comps)
            if total <= 0.0:
                continue
            scorable = True
            terms[first] = math.log(total)
            above = 0.0
            slot = first
            for c in comps[:-1]:
                g = c / total
                terms[slot + 1] = g
                terms[slot + 2] = 1.0 - above
                above += g
                slot += 2
        if not scorable:
            raise ConditioningError("no scorable heldout events")
        ll, *mass = [reduce(add, fold(terms)) for fold in folds]
        history.append(ll)
        for k in range(len(lam)):
            stop, reach = mass[2 * k], mass[2 * k + 1]
            if reach > 0.0:
                lam[k] = min(max(stop / reach, 0.0), LAMBDA_CAP)
        if prev is not None and ll - prev < tol:
            break
        prev = ll
    return dict(zip(index, lam)), history
