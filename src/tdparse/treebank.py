"""Bracketed treebank reading, writing, and normalization.

Trees are read from the usual one-tree-per-line (or multi-line) bracketed
format::

    (S (NP (NN Spot)) (VP (VBD ran)))

Brackets are self-delimiting; everything else splits on whitespace.  The
label right after an open bracket names the node, bare tokens are leaves.
Node labels may not contain ``-`` or ``,``: those characters are reserved
for rendering factored nonterminals (see grammar.py), and letting them
into input labels would make factored labels ambiguous.
"""

from __future__ import annotations

import contextlib
import operator
import re
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Optional, Sequence, TextIO

# Reserved protocol symbols.  They are fixed parts of the model, not
# settings: every derivation ends in STOP -> END_TOKEN under the axiom.
AXIOM = "TOP"
STOP_LABEL = "STOP"
END_TOKEN = "</s>"
UNK_TOKEN = "<unk>"
NUMBER_TOKEN = "N"
EPSILON = "<eps>"
RESERVED_TOKENS = frozenset({NUMBER_TOKEN, UNK_TOKEN, END_TOKEN})

FACTOR_SEP = "-"
CHILD_SEP = ","
RESERVED_LABEL_CHARS = (FACTOR_SEP, CHILD_SEP)

# Deepest left-factored tree a tree file may hold, in nonterminals from the
# root to a preterminal.  Tree code recurses over tree depth; a tree at the
# limit trains and evaluates inside Python's default limit of 1,000 frames.
MAX_FACTORED_DEPTH = 500

# Preterminal labels that speech normalization deletes.
PUNCT_LABELS = frozenset({".", ",", ":", "``", "''", "-LRB-", "-RRB-"})

ROLES = ("train", "heldout", "test")

# Optional sign, then either digits (with optional , or . groups) or a bare
# decimal fraction.  "42", "-3.5", "1,234", "+.75" all match; "4th" does not.
_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:[.,]\d+)*|\.\d+)$")


class TreebankError(ValueError):
    """Malformed tree text, tree structure, or normalization input."""


class Tree:
    """Immutable ordered tree; a leaf is a node with no children.

    A leaf's label is its terminal token.  A preterminal is an internal
    node whose single child is a leaf.
    """

    __slots__ = ("label", "children", "_hash", "_head")

    def __init__(self, label: str, children: Sequence["Tree"] = ()):
        self.label = label
        self.children = tuple(children)
        self._hash = None
        self._head = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_preterminal(self) -> bool:
        return len(self.children) == 1 and not self.children[0].children

    def leaves(self) -> Iterator["Tree"]:
        stack = [self]
        while stack:
            t = stack.pop()
            if t.children:
                stack.extend(reversed(t.children))
            else:
                yield t

    def yield_tokens(self) -> list[str]:
        return [leaf.label for leaf in self.leaves()]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        return self.label == other.label and self.children == other.children

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.label, self.children))
        return self._hash

    def __repr__(self) -> str:
        return f"Tree({to_bracketed(self)!r})"


def to_bracketed(t: Tree) -> str:
    """Render a tree in canonical single-space bracketed form."""
    if t.is_leaf:
        return t.label
    inner = " ".join(to_bracketed(c) for c in t.children)
    return f"({t.label} {inner})"


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def parse_trees(text: str, source: str = "<string>") -> list[Tree]:
    """Parse all trees in ``text``.  Errors carry source and line number.

    A tree whose left-factored form (see grammar.py) would nest more than
    MAX_FACTORED_DEPTH nonterminals deep is an error.
    """

    def fail(lineno: int, msg: str):
        raise TreebankError(f"{source}:{lineno}: {msg}")

    trees: list[Tree] = []
    # Open nodes: [label, children, line of the '(', factored depth so far].
    stack: list[list] = []
    expect_label = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in _TOKEN_RE.findall(line):
            if tok == "(":
                if expect_label:
                    fail(lineno, "expected node label after '('")
                stack.append([None, [], lineno, 0])
                expect_label = True
            elif tok == ")":
                if expect_label:
                    fail(lineno, "node has no label")
                if not stack:
                    fail(lineno, "unbalanced ')'")
                label, children, _, depth = stack.pop()
                if not children:
                    fail(lineno, f"empty node ({label})")
                # Left factoring hangs child j (from 0) j + 1 levels below the
                # node.  Tokens add no depth, so a preterminal is 1 deep.
                depth = depth or 1
                if depth > MAX_FACTORED_DEPTH:
                    fail(
                        lineno,
                        f"tree nests more than {MAX_FACTORED_DEPTH} levels deep once left-factored",
                    )
                node = Tree(label, children)
                if stack:
                    parent = stack[-1]
                    siblings = parent[1]
                    depth += len(siblings) + 1
                    if depth > parent[3]:
                        parent[3] = depth
                    siblings.append(node)
                else:
                    trees.append(node)
            elif expect_label:
                for ch in RESERVED_LABEL_CHARS:
                    if ch in tok:
                        fail(lineno, f"label {tok!r} contains reserved character {ch!r}")
                stack[-1][0] = tok
                expect_label = False
            else:
                if not stack:
                    fail(lineno, f"token {tok!r} outside any tree")
                stack[-1][1].append(Tree(tok))
    if stack:
        raise TreebankError(
            f"{source}:{stack[-1][2]}: unbalanced '(' still open at end of input"
        )
    return trees


@contextlib.contextmanager
def open_text(path: str) -> Iterator[TextIO]:
    """Open a UTF-8 text file; text that is not UTF-8 raises an error naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise TreebankError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_trees(path: str) -> list[Tree]:
    with open_text(path) as fh:
        return parse_trees(fh.read(), source=path)


def write_trees(path: str, trees: Iterable[Tree]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in trees:
            fh.write(to_bracketed(t))
            fh.write("\n")


@dataclass(frozen=True)
class Corpus:
    """A list of trees plus the closed vocabulary they define.

    The vocabulary is the union of tree yields and the reserved tokens in
    play: the end marker always, the unknown token once normalization has run.
    """

    trees: tuple[Tree, ...]
    vocabulary: frozenset[str]
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise TreebankError(f"unknown corpus role {self.role!r}")


def read_corpus(path: str, role: str) -> Corpus:
    trees = read_trees(path)
    if not trees:
        raise TreebankError(f"{path}: empty corpus")
    vocab = {tok for t in trees for tok in t.yield_tokens()}
    vocab.add(END_TOKEN)
    return Corpus(tuple(trees), frozenset(vocab), role)


def augment_with_stop(t: Tree, end_token: str = END_TOKEN) -> Tree:
    """Wrap a tree under the axiom with an explicit end-marker child."""
    if t.label == AXIOM:
        raise TreebankError(f"tree is already rooted at the axiom {AXIOM!r}")
    return Tree(AXIOM, (t, Tree(STOP_LABEL, (Tree(end_token),))))


def strip_stop(t: Tree) -> Tree:
    """Inverse of augment_with_stop; rejects anything of a different shape."""
    if t.label != AXIOM:
        raise TreebankError(f"root is {t.label!r}, not the axiom {AXIOM!r}")
    if len(t.children) != 2:
        raise TreebankError("axiom node must have exactly two children")
    body, stop = t.children
    if stop.label != STOP_LABEL or not stop.is_preterminal:
        raise TreebankError(f"second child of axiom is not a {STOP_LABEL!r} preterminal")
    if stop.children[0].label != END_TOKEN:
        raise TreebankError(f"{STOP_LABEL!r} does not dominate the end token {END_TOKEN!r}")
    return body


@dataclass(frozen=True)
class NormalizationConfig:
    """Speech-style normalization: drop punctuation, fold numbers, cap vocab."""

    strip_punctuation: bool = True
    vocab_cap: int = 10000
    # Fixed tokens, not fields; kept readable for callers that hold a config.
    unk_token: ClassVar[str] = UNK_TOKEN
    end_token: ClassVar[str] = END_TOKEN

    def __post_init__(self):
        if self.vocab_cap < 1:
            raise TreebankError("vocab_cap must be at least 1")


def is_number_token(tok: str) -> bool:
    return bool(_NUMBER_RE.fullmatch(tok))


def _strip_punct(t: Tree) -> Optional[Tree]:
    """``t`` without punctuation preterminals; ``t`` itself when none is under it."""
    if t.is_preterminal:
        return None if t.label in PUNCT_LABELS else t
    kept = []
    for child in t.children:
        sub = child if child.is_leaf else _strip_punct(child)
        if sub is not None:
            kept.append(sub)
    if not kept:
        return None
    if len(kept) == len(t.children) and all(map(operator.is_, kept, t.children)):
        return t
    return Tree(t.label, kept)


def _map_leaves(t: Tree, fn) -> Tree:
    """``t`` with every token mapped by ``fn``; ``t`` itself when no token changes."""
    if t.is_leaf:
        tok = fn(t.label)
        return t if tok == t.label else Tree(tok)
    # A loop, not a comprehension, so each tree level costs one frame.
    kids = []
    for c in t.children:
        kids.append(_map_leaves(c, fn))
    if all(map(operator.is_, kids, t.children)):
        return t
    return Tree(t.label, kids)


def speech_normalize(
    corpus: Corpus,
    cfg: NormalizationConfig,
    keep_tokens: Optional[frozenset[str]] = None,
) -> Corpus:
    """Normalize a corpus for speech-style language modelling.

    Punctuation preterminals are deleted (parents emptied by the deletion
    go with them), digit tokens fold to NUMBER_TOKEN, and tokens outside
    the ``cfg.vocab_cap`` most frequent become UNK_TOKEN.
    Pass ``keep_tokens`` (a training vocabulary) when normalizing heldout
    or test corpora so the closure matches training.  Subtrees nothing
    changes under are shared with the input, not copied.  Idempotent:
    reserved tokens are always kept, so a second pass returns the very
    trees it was given.
    """
    trees = []
    for idx, t in enumerate(corpus.trees):
        if cfg.strip_punctuation:
            t = _strip_punct(t)
            if t is None:
                raise TreebankError(f"tree {idx}: normalization emptied the yield")
        t = _map_leaves(t, lambda tok: NUMBER_TOKEN if is_number_token(tok) else tok)
        trees.append(t)

    if keep_tokens is None:
        counts: dict[str, int] = {}
        for t in trees:
            for tok in t.yield_tokens():
                counts[tok] = counts.get(tok, 0) + 1
        ranked = sorted(
            (tok for tok in counts if tok not in RESERVED_TOKENS),
            key=lambda tok: (-counts[tok], tok),
        )
        keep_tokens = frozenset(ranked[: cfg.vocab_cap])

    def closed(tok: str) -> str:
        return tok if tok in keep_tokens or tok in RESERVED_TOKENS else UNK_TOKEN

    trees = [_map_leaves(t, closed) for t in trees]
    vocab = {tok for t in trees for tok in t.yield_tokens()}
    vocab.update({END_TOKEN, UNK_TOKEN})
    return Corpus(tuple(trees), frozenset(vocab), corpus.role)


def normalize_tokens(tokens: Sequence[str], vocabulary: frozenset[str]) -> list[str]:
    """Map a raw sentence onto the model vocabulary.

    Reserved tokens may not appear in the input; out-of-vocabulary tokens
    become the unknown token.
    """
    out = []
    for tok in tokens:
        if tok in (END_TOKEN, UNK_TOKEN):
            raise TreebankError(f"reserved token {tok!r} in input sentence")
        if is_number_token(tok):
            tok = NUMBER_TOKEN
        if tok not in vocabulary:
            tok = UNK_TOKEN
        out.append(tok)
    return out


def read_sentences(path: str) -> list[tuple[int, list[str]]]:
    """Read a one-sentence-per-line token file; yields (lineno, tokens).

    Empty lines are skipped; the caller decides whether to warn.
    """
    out = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            if toks:
                out.append((lineno, toks))
    return out
