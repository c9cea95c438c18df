"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from itertools import islice
from pathlib import Path

from tdparse.conditioning import CONJ_LABEL, HEAD_TABLE, LEFT, MIDDLE, RIGHT, CondConfig, ContextModel, SpineNode, head_of
from tdparse.grammar import induce_pcfg, left_factor_tree, split_factored, tree_to_derivation
from tdparse.lookahead import LookaheadTables
from tdparse.parser import BeamParser, ParserConfig
from tdparse.treebank import AXIOM, END_TOKEN, Corpus, Tree, augment_with_stop, read_trees

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_trees(name: str) -> list[Tree]:
    return read_trees(str(FIXTURES / name))


def fixture_sentences(name: str) -> list[list[str]]:
    out = []
    for line in (FIXTURES / name).read_text().splitlines():
        toks = line.split()
        if toks:
            out.append(toks)
    return out


def as_corpus(trees, role: str) -> Corpus:
    vocab = {tok for t in trees for tok in t.yield_tokens()}
    vocab.add(END_TOKEN)
    return Corpus(tuple(trees), frozenset(vocab), role)


def factored_corpus(trees) -> list[Tree]:
    return [left_factor_tree(augment_with_stop(t)) for t in trees]


def reference_unigram(sentences) -> dict[str, float]:
    """Relative token frequencies counted from the sentences themselves.

    The models derive their unigram from the n-gram's level-0 counts; this
    is the direct count it must equal, key order included.
    """
    counts: dict[str, int] = {}
    total = 0
    for toks in sentences:
        for w in toks:
            counts[w] = counts.get(w, 0) + 1
            total += 1
    return {w: c / total for w, c in sorted(counts.items())}


def reference_apply_rule(spine, rule):
    """Advance a spine by one rule, working out what the rule does on every call.

    Shares no code with ``conditioning.spine_step``: the independent
    reference that the steps, and the reference parser kernels, are
    checked against.
    """
    if rule.lexical:
        t = Tree(rule.lhs, (Tree(rule.rhs[0]),))
        if spine is None:
            return None, t
        return SpineNode(spine.label, spine.children + (t,), spine.parent), None
    if not rule.rhs:
        t = Tree(spine.label, spine.children)
        parent = spine.parent
        if parent is None:
            return None, t
        return SpineNode(parent.label, parent.children + (t,), parent.parent), None
    base, consumed = split_factored(rule.lhs)
    if consumed:
        return spine, None
    return SpineNode(base, (), spine), None


def c_command_heads(spine):
    """Heads of constituents c-commanding the node pending under ``spine``.

    Nearest first: completed left siblings of the pending node, then the
    left siblings of each open ancestor on the way to the root.  A closed
    constituent contributes its percolated head, so material inside it
    never surfaces separately.
    """
    node = spine
    while node is not None:
        for sib in reversed(node.children):
            yield head_of(sib)
        node = node.parent


def open_constituent_head(label, children):
    """Head of a constituent still being built, worked out from its children.

    If the head rules' priorities match one of the children seen so far,
    the last child of the best-ranked label heads it; otherwise the last
    child stands proxy.  No children yet means no head.
    """
    if not children:
        return None
    priorities = HEAD_TABLE.get(label, ("left", ()))[1]

    def rank(child):
        return priorities.index(child.label) if child.label in priorities else len(priorities)

    # min keeps the first of equal ranks, so scan from the last child back.
    return head_of(min(reversed(children), key=rank))


def reference_extract_values(model, spine, lhs):
    """The (path, values) of an expansion, worked out by walking the spine's
    nodes and children: the reference that ``extract_values``, which reads
    the spine's state, must match."""
    base, consumed = split_factored(lhs)
    if consumed:
        parent_spine = spine.parent
        within = spine.children
    else:
        parent_spine = spine
        within = ()
    siblings = parent_spine.children if parent_spine is not None else ()
    y_s = siblings[-1].label if siblings else None
    parent = parent_spine.label if parent_spine is not None else None
    grand = parent_spine.parent if parent_spine is not None else None
    grand_label = grand.label if grand is not None else None
    if lhs not in model.grammar.preterminals:
        path = LEFT
        psibs = grand.children if grand is not None else ()
        conj = None
        if y_s == CONJ_LABEL and len(siblings) >= 2 and siblings[-2].children:
            conj = siblings[-2].children[0].label
        head = open_constituent_head(base, within)
        values = (lhs, parent, y_s, grand_label, psibs[-1].label if psibs else None, conj,
                  head[0] if head else None)
    elif y_s is None:
        path = MIDDLE
        first = next(c_command_heads(spine), None)
        values = (lhs, parent, y_s, grand_label, first[1] if first else None, first[0] if first else None)
    else:
        path = RIGHT
        heads = list(islice(c_command_heads(spine), 2))
        values = (lhs, parent, y_s, heads[0][0] if heads else None, heads[1][0] if len(heads) > 1 else None)
    return path, values[: model.config.depth_for(path) + 1]


def reference_spines(trees):
    """The spine before every expansion of ``trees``, built by ``reference_apply_rule``."""
    for t in trees:
        spine = None
        for rule in tree_to_derivation(t):
            yield spine
            spine, _ = reference_apply_rule(spine, rule)


def build_parser(
    trees,
    depths: tuple[int, int, int] = (0, 0, 0),
    base_beam: float = 0.0,
    heldout=None,
    max_pops: int = 10_000,
) -> BeamParser:
    """Induce a grammar from plain trees and wire up a parser.

    Default is plain-PCFG conditioning in exact mode, the setup every
    oracle comparison uses.
    """
    factored = factored_corpus(trees)
    grammar = induce_pcfg(factored)
    context = ContextModel(grammar, CondConfig(*depths))
    context.train_counts(factored)
    if heldout is not None:
        context.tune_mix_weights(factored_corpus(heldout))
    lookahead = LookaheadTables.from_trees(grammar, factored)
    config = ParserConfig(base_beam=base_beam, max_pops=max_pops)
    return BeamParser(grammar, context, lookahead, config)


# Random trees for round-trip and preservation properties.  Labels reuse a
# small pool on purpose: repeated nonterminals give the induced grammars
# nontrivial rule distributions.

PHRASE_LABELS = ["S", "NP", "VP", "PP", "X", "Y"]
POS_LABELS = ["A", "B", "C", "D"]
WORDS = ["alpha", "bravo", "charlie", "delta", "echo"]


def random_tree(rng: random.Random, depth: int = 0) -> Tree:
    if depth >= 3 or rng.random() < 0.3:
        return Tree(rng.choice(POS_LABELS), (Tree(rng.choice(WORDS)),))
    width = rng.randint(1, 4)
    kids = tuple(random_tree(rng, depth + 1) for _ in range(width))
    return Tree(rng.choice(PHRASE_LABELS), kids)


def random_corpus(n: int, seed: int) -> list[Tree]:
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        t = random_tree(rng)
        if t.label == AXIOM or t.is_preterminal:
            t = Tree("S", (t,))
        out.append(t)
    return out
