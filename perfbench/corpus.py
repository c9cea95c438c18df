"""Seeded corpora for the benchmark.

This is the benchmark's own copy of the desk grammar (the synthetic
treebank the heavier tests use), so that editing the tests can never
silently change what the benchmark measures.  The grammar plants
regularities a bare PCFG cannot represent: subject and object nouns come
from disjoint sets under one NN tag, "placed"-class verbs take a location
PP under VP while "admired"-class verbs attach an instrument PP to the
object NP, and conjoined subjects, adverbs, digits and final punctuation
exercise normalization and the conjunction feature.

Every corpus is a pure function of its seed and sizes.
"""

from __future__ import annotations

import random

from tdparse.treebank import Tree

# Desk corpus scaled to about 2,600 training trees, keeping the test
# suite's 7:1 train/heldout ratio.
TRAIN, HELDOUT, TEST = 2600, 372, 300

# Trees sampled to fix the test sets' tree-shape shares.
REFERENCE_TREES = 10_000

# Relexicalized NN slot: types drawn from a Zipf law over this many
# words.  No vocabulary cap applies below 10,000 types, so test nouns
# unseen in training become the unknown token and end in a partial parse.
LEXICON_TYPES = 3000
ZIPF_EXPONENT = 1.0

SUBJ_NOUNS = ["teacher", "farmer", "nurse", "pilot", "singer", "doctor"]
OBJ_NOUNS = ["box", "letter", "window", "ball", "door", "report"]
PLACE_NOUNS = ["table", "shelf", "floor", "bench"]
INSTR_NOUNS = ["hammer", "telescope", "ladder", "key"]
ADJS = ["old", "young", "tall", "busy"]
VP_PP_VERBS = ["placed", "put", "laid"]            # location PP under VP
NP_PP_VERBS = ["admired", "examined", "sketched"]  # instrument PP inside NP
TRANS_VERBS = ["opened", "carried", "signed"]
INTRANS_VERBS = ["slept", "smiled", "paused"]
ADVS = ["quietly", "quickly"]
PLACE_PREPS = ["on", "under"]
INSTR_PREPS = ["with", "near"]
NUMBERS = ["2", "3", "12", "40"]


def _pt(label: str, word: str) -> Tree:
    return Tree(label, (Tree(word),))


def _noun_phrase(rng: random.Random, nouns: list[str], adjective_p: float = 0.25) -> Tree:
    kids = [_pt("DT", rng.choice(["the", "a"]))]
    if rng.random() < adjective_p:
        kids.append(_pt("JJ", rng.choice(ADJS)))
    kids.append(_pt("NN", rng.choice(nouns)))
    return Tree("NP", kids)


def _subject(rng: random.Random) -> Tree:
    if rng.random() < 0.05:
        return Tree(
            "NP",
            (
                _noun_phrase(rng, SUBJ_NOUNS, 0.0),
                _pt("CC", "and"),
                _noun_phrase(rng, SUBJ_NOUNS, 0.0),
            ),
        )
    return _noun_phrase(rng, SUBJ_NOUNS)


def _object(rng: random.Random) -> Tree:
    if rng.random() < 0.08:
        return Tree("NP", (_pt("CD", rng.choice(NUMBERS)), _pt("NN", "boxes")))
    return _noun_phrase(rng, OBJ_NOUNS)


def _pp(rng: random.Random, preps: list[str], nouns: list[str]) -> Tree:
    return Tree("PP", (_pt("IN", rng.choice(preps)), _noun_phrase(rng, nouns, 0.0)))


def _verb_phrase(rng: random.Random) -> Tree:
    r = rng.random()
    if r < 0.18:
        kids = [_pt("VBD", rng.choice(INTRANS_VERBS))]
        if rng.random() < 0.4:
            kids.append(Tree("ADVP", (_pt("RB", rng.choice(ADVS)),)))
        return Tree("VP", kids)
    if r < 0.48:
        return Tree("VP", (_pt("VBD", rng.choice(TRANS_VERBS)), _object(rng)))
    if r < 0.78:
        return Tree(
            "VP",
            (
                _pt("VBD", rng.choice(VP_PP_VERBS)),
                _object(rng),
                _pp(rng, PLACE_PREPS, PLACE_NOUNS),
            ),
        )
    obj = _noun_phrase(rng, OBJ_NOUNS, 0.0)
    obj = Tree("NP", obj.children + (_pp(rng, INSTR_PREPS, INSTR_NOUNS),))
    return Tree("VP", (_pt("VBD", rng.choice(NP_PP_VERBS)), obj))


def make_tree(rng: random.Random) -> Tree:
    kids = [_subject(rng), _verb_phrase(rng)]
    if rng.random() < 0.7:
        kids.append(_pt(".", "."))
    return Tree("S", kids)


def desk_corpus(seed: int, train: int, heldout: int) -> tuple[list[Tree], list[Tree]]:
    """(train, heldout) desk trees; a pure function of the arguments."""
    rng = random.Random(seed)
    trees = [make_tree(rng) for _ in range(train + heldout)]
    return trees[:train], trees[train:]


def shape(t: Tree) -> str:
    """The tree's bracketing without its words or final ".": what a parse costs
    depends on.  Normalization strips the final "." before parsing."""
    if t.is_preterminal:
        return t.label
    kids = " ".join(shape(c) for c in t.children if c.label != ".")
    return f"({t.label} {kids})"


def shape_schedule(n: int) -> list[str]:
    """Tree shapes for ``n`` test slots, evenly interleaved.

    The shares are those of a large sample from the generator (27 shapes).
    Slot k takes the shape furthest behind its share of the first k slots,
    so every prefix of the schedule has the generator's shape mix.
    """
    rng = random.Random("shape-reference")
    counts: dict[str, int] = {}
    for _ in range(REFERENCE_TREES):
        key = shape(make_tree(rng))
        counts[key] = counts.get(key, 0) + 1
    shapes = sorted(counts)
    assigned = dict.fromkeys(shapes, 0)
    schedule = []
    for k in range(1, n + 1):
        key = max(shapes, key=lambda S: counts[S] * k / REFERENCE_TREES - assigned[S])
        assigned[key] += 1
        schedule.append(key)
    return schedule


def test_trees(seed: int, n: int) -> list[Tree]:
    """``n`` desk trees whose shapes follow ``shape_schedule(n)``.

    The seed picks the words of each tree.  Parse cost jumps between
    shapes: a transitive sentence takes about 1.4 ms, one with a PP about
    1.9 ms, and the intransitive and transitive shapes make up 48% of the
    generator's output, so the median test sentence sits just above that
    step.  In a free sample the step moved with the seed, and so did
    `op_ms_p50`; a fixed shape order keeps percentiles, and next-word
    prefix mixes, comparable across seeds.
    """
    rng = random.Random(f"test-{seed}")
    pending: dict[str, list[Tree]] = {}
    out = []
    for key in shape_schedule(n):
        while not pending.get(key):
            t = make_tree(rng)
            pending.setdefault(shape(t), []).append(t)
        out.append(pending[key].pop(0))
    return out


def _relex(t: Tree, pick) -> Tree:
    if t.is_preterminal:
        return _pt("NN", pick()) if t.label == "NN" else t
    return Tree(t.label, tuple(_relex(c, pick) for c in t.children))


def relexicalize(splits: tuple[list[Tree], ...], seed: int) -> tuple[list[Tree], ...]:
    """Replace every NN token by a Zipf-distributed draw over LEXICON_TYPES words.

    One RNG, seeded separately from the tree generator, walks the splits
    in order, so the result is a pure function of the arguments.
    """
    rng = random.Random(f"relex-{seed}")
    ranks = range(1, LEXICON_TYPES + 1)
    words = [f"n{rank}" for rank in ranks]
    weights = [rank ** -ZIPF_EXPONENT for rank in ranks]
    cum = []
    total = 0.0
    for w in weights:
        total += w
        cum.append(total)

    def pick() -> str:
        return rng.choices(words, cum_weights=cum)[0]

    return tuple([_relex(t, pick) for t in split] for split in splits)
