"""The four benchmark workloads: inputs, one operation each, and checks.

Each workload drives the library in-process with the calls the command
line front end makes (``load_model`` plus ``BeamParser`` for parse, ppl
and eval; ``read_corpus`` plus ``train_parser_model`` and ``save_model``
for train).  Library functions are always reached through their module
(``model_io.save_model``, not a name imported here), so the traced run
can wrap them in place.

Every operation returns its output; ``check`` verifies that output
without trusting the search, and ``digest`` condenses it into the hex
string recorded in ``digests.json``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from tdparse import conditioning, evaluation, langmodel, model_io, parser, treebank
from tdparse.grammar import left_factor_tree
from tdparse.treebank import EPSILON

import corpus

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "tdparse"

# The desk and lexicon models are trained on the corpus of this fixed
# seed, so they can be built once per checkout; the run seed draws the
# test sentences, the next-word candidates and the train workload's corpus.
MODEL_SEED = 20260814

# Test sentences per workload: the first ones of the seed's length schedule,
# so a pass over them takes a few seconds and a run makes several passes.
LEXICON_SENTENCES = 100
# Sentences whose every prefix is an op: 106 prefixes, so that ten or more
# lie beyond the 90th percentile.
NEXTWORD_SENTENCES = 14
# Per-queue budget for the next-word parser.  Unreachable candidates at an
# NP start always use up the budget, and their cost grows faster than
# linearly in it (the left-recursive NP spine deepens): about 0.15 s per
# NP-start prefix at 1,000 pops against about 12 s at the command-line
# default of 10,000.  The lower budget lets a run pass over every prefix
# several times.
NEXTWORD_MAX_POPS = 1000

# Digest strings are truncated to this many hex digits.
DIGEST_HEX = 12


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_HEX]


def as_corpus(trees, role: str) -> treebank.Corpus:
    """A Corpus as ``read_corpus`` would build it from these trees."""
    vocab = {tok for t in trees for tok in t.yield_tokens()}
    vocab.add(treebank.END_TOKEN)
    return treebank.Corpus(tuple(trees), frozenset(vocab), role)


def training_trees(kind: str, seed: int, train: int, heldout: int):
    """(train, heldout) trees for the desk or lexicon corpus."""
    splits = corpus.desk_corpus(seed, train, heldout)
    if kind == "lexicon":
        splits = corpus.relexicalize(splits, seed)
    return splits


def test_trees(kind: str, seed: int, n: int):
    """Test trees for the desk or lexicon corpus."""
    trees = corpus.test_trees(seed, n)
    if kind == "lexicon":
        (trees,) = corpus.relexicalize((trees,), seed)
    return trees


def train_model(kind: str, sizes: tuple[int, int, int]):
    """The parse workloads' model: trained on the fixed MODEL_SEED corpus."""
    train, heldout = training_trees(kind, MODEL_SEED, sizes[0], sizes[1])
    return model_io.train_parser_model(
        as_corpus(train, "train"), as_corpus(heldout, "heldout")
    )


def source_key() -> str:
    """Hash of the interpreter version and every source a model depends on."""
    h = hashlib.sha256(sys.version.encode("utf-8"))
    for path in sorted(SRC.glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cached_model(kind: str, sizes: tuple[int, int, int], cache_dir: Path) -> Path:
    """Path of the trained model, built once per checkout and source state.

    Training runs in a child process, so its memory stays out of the
    measuring process's peak RSS; the file appears atomically.
    """
    path = cache_dir / f"{kind}-{sizes[0]}-{sizes[1]}-{source_key()}.model"
    if not path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        cmd = [
            sys.executable, str(HERE / "build_model.py"), kind,
            f"{sizes[0]},{sizes[1]}", str(tmp),
        ]
        subprocess.run(cmd, check=True, timeout=900)
        os.replace(tmp, path)
    return path


def logprob_of_tree(context: conditioning.ContextModel, tree) -> float:
    """Sum of rule log probabilities over the tree's factored derivation."""
    total = 0.0
    for spine, rule in conditioning.replay([left_factor_tree(tree)]):
        total += context.rule_logprob(spine, rule)
    return total


def candidate_words(grammar, seed: int) -> list[str]:
    """One seeded word per part of speech, in tag order.

    How many candidates a prefix can reach decides how many queues run to
    the budget, so a plain sample of the vocabulary made the next-word
    cost swing with the seed; one word per tag keeps the list's make-up
    fixed while the seed picks the words.
    """
    rng = random.Random(f"nextword-{seed}")
    by_tag: dict[str, list[str]] = {}
    for rule in grammar.rules:
        if rule.lexical:
            by_tag.setdefault(rule.lhs, []).append(rule.rhs[0])
    words: list[str] = []
    for tag in sorted(by_tag):
        choices = sorted(set(by_tag[tag]) - set(words))
        if choices:
            words.append(rng.choice(choices))
    return words


class Workload:
    """Common shape: set up, then run ops over ``items`` in a cycle."""

    name = ""
    op_unit = ""            # what one op is, for the report

    def __init__(self, seed: int, workdir: Path, cache_dir: Path, sizes: tuple[int, int, int]):
        self.seed = seed
        self.workdir = workdir
        self.cache_dir = cache_dir
        self.sizes = sizes
        self.items: list = []
        self.model_bytes = 0
        self.info: dict[str, float] = {}    # input properties for the report

    def setup(self) -> None:
        """Prepare inputs and run ``load`` once, all untimed."""
        raise NotImplementedError

    def load(self) -> None:
        """The set-up step a user waits for before the first op."""
        raise NotImplementedError

    def time_load(self) -> tuple[float, float]:
        """(start, seconds) of one more ``load``, begun after a full collection.

        The collection keeps a repeat from paying for garbage an earlier
        one left behind.
        """
        gc.collect()
        t0 = time.perf_counter()
        self.load()
        return t0, time.perf_counter() - t0

    def fresh_input(self, item):
        """The op's argument for ``item``, built outside the timed region."""
        return item

    def run_op(self, inp):
        raise NotImplementedError

    def words(self, out) -> int:
        """Words the op processed, the unit of ``words_per_s``."""
        raise NotImplementedError

    def check(self, item, out) -> list[str]:
        """Problems with an op's output; empty when it is correct."""
        return []

    def digest(self, item, out) -> str:
        raise NotImplementedError


class ParseWorkload(Workload):
    """desk and lexicon: parse, word probabilities and PARSEVAL per sentence."""

    op_unit = "sentence"

    def __init__(self, seed, workdir, cache_dir, sizes, kind: str, sentences: int,
                 config=parser.ParserConfig()):
        super().__init__(seed, workdir, cache_dir, sizes)
        self.name = self.kind = kind
        self.sentences = min(sentences, sizes[2])
        self.config = config

    def setup(self) -> None:
        self.path = cached_model(self.kind, self.sizes, self.cache_dir)
        self.model_bytes = self.path.stat().st_size
        self.load()
        test = test_trees(self.kind, self.seed, self.sentences)
        self.items = list(test)
        unk = self.model.normalization.unk_token
        gold = model_io.prepare_trees(as_corpus(test, "test"), self.model).trees
        self.info["oov_sentence_share"] = sum(unk in t.yield_tokens() for t in gold) / len(gold)

    def load(self) -> None:
        self.model = self.parser = None     # one model in memory, as for a user
        self.model = model_io.load_model(str(self.path))
        self.parser = parser.BeamParser(
            self.model.grammar, self.model.context, self.model.lookahead, self.config
        )

    def words(self, out) -> int:
        return len(out[0])

    def run_op(self, raw_tree):
        model = self.model
        gold = model_io.prepare_trees(as_corpus([raw_tree], "test"), model).trees[0]
        words = gold.yield_tokens() + [model.normalization.end_token]
        result = self.parser.parse(words)
        trace = langmodel.word_probabilities(result, model.unigram)
        tri = model.ngram.word_probs(words)
        mixed = langmodel.mixed_probs(trace.final_probs, tri)
        gold_aug = treebank.augment_with_stop(gold, model.normalization.end_token)
        pair = evaluation.score_pair(gold_aug, result.tree)
        return words, result, trace, tri, mixed, pair

    def check(self, raw_tree, out) -> list[str]:
        words, result, _, _, _, _ = out
        problems = []
        leaves = [leaf.label for leaf in result.tree.leaves() if leaf.label != EPSILON]
        if leaves != words:
            problems.append(f"tree yield {leaves} differs from input {words}")
        if not result.failed:
            recomputed = logprob_of_tree(self.model.context, result.tree)
            if recomputed != result.best_logp:
                problems.append(
                    f"logprob {result.best_logp!r} but the tree scores {recomputed!r}"
                )
        return problems

    def digest(self, raw_tree, out) -> str:
        words, result, trace, tri, mixed, pair = out
        tree = treebank.to_bracketed(result.tree)
        if result.failed:
            line = f"status=partial tree={tree}"
        else:
            line = f"status=parsed logprob={result.best_logp!r} tree={tree}"
        return digest_of("\n".join([
            line,
            " ".join(map(repr, trace.final_probs)),
            " ".join(map(repr, tri)),
            " ".join(map(repr, mixed)),
            f"matched={pair.matched} gold={pair.gold} test={pair.test} "
            f"crossings={pair.crossings} exact={pair.exact}",
        ]))


class NextwordWorkload(ParseWorkload):
    """nextword: vocab_mass at every prefix of the first test sentences."""

    op_unit = "prefix distribution"

    def __init__(self, seed, workdir, cache_dir, sizes):
        super().__init__(
            seed, workdir, cache_dir, sizes, "desk", NEXTWORD_SENTENCES,
            parser.ParserConfig(max_pops=NEXTWORD_MAX_POPS),
        )
        self.name = "nextword"

    def setup(self) -> None:
        super().setup()
        self.candidates = candidate_words(self.model.grammar, self.seed)
        gold = model_io.prepare_trees(as_corpus(self.items, "test"), self.model)
        self.items = [
            tuple(toks[:k])
            for toks in (t.yield_tokens() for t in gold.trees)
            for k in range(len(toks) + 1)
        ]

    def words(self, dist) -> int:
        return len(dist)

    def run_op(self, prefix):
        return langmodel.vocab_mass(self.parser, list(prefix), self.candidates)

    def check(self, prefix, dist) -> list[str]:
        problems = []
        if list(dist) != self.candidates:
            problems.append("distribution does not cover the candidates")
        if any(not (0.0 <= p <= 1.0) for p in dist.values()):
            problems.append(f"probability outside [0, 1] in {dist}")
        total = math.fsum(dist.values())
        if not total <= 1.0 + 1e-9:
            problems.append(f"distribution sums to {total!r}")
        return problems

    def digest(self, prefix, dist) -> str:
        return digest_of(
            " ".join(prefix) + "|" + " ".join(f"{w}={p!r}" for w, p in dist.items())
        )


class TrainWorkload(Workload):
    """train: train_parser_model plus save_model from tree files."""

    name = "train"
    op_unit = "training"

    def setup(self) -> None:
        train, heldout = training_trees("desk", self.seed, self.sizes[0], self.sizes[1])
        self.train_path = self.workdir / "train.trees"
        self.heldout_path = self.workdir / "heldout.trees"
        treebank.write_trees(str(self.train_path), train)
        treebank.write_trees(str(self.heldout_path), heldout)
        self.load()
        # Tokens in the tree files, end marker counted per tree.
        self.n_words = sum(len(t.yield_tokens()) + 1 for t in train + heldout)
        self.items = [0]

    def load(self) -> None:
        self.read()

    def read(self):
        return (
            treebank.read_corpus(str(self.train_path), "train"),
            treebank.read_corpus(str(self.heldout_path), "heldout"),
        )

    def fresh_input(self, item):
        """Tree objects never trained on, so no cached head survives.

        The heap is collected first, so every training starts alike.
        """
        gc.collect()
        return self.read()

    def words(self, out) -> int:
        return self.n_words

    def run_op(self, corpora):
        train, heldout = corpora
        path = self.workdir / "trained.model"
        model, report = model_io.train_parser_model(train, heldout)
        model_io.save_model(model, str(path))
        return path, report

    def check(self, item, out) -> list[str]:
        path, _ = out
        first = path.read_bytes()
        self.model_bytes = len(first)
        again = self.workdir / "resaved.model"
        model_io.save_model(model_io.load_model(str(path)), str(again))
        if again.read_bytes() != first:
            return ["reloaded model does not re-save byte-identically"]
        return []

    def digest(self, item, out) -> str:
        path, _ = out
        return digest_of(path.read_bytes().decode("utf-8"))


SIZES = (corpus.TRAIN, corpus.HELDOUT, corpus.TEST)
NAMES = ("desk", "lexicon", "nextword", "train")


def make_workload(name: str, seed: int, workdir: Path, cache_dir: Path, sizes=SIZES) -> Workload:
    if name == "desk":
        return ParseWorkload(seed, workdir, cache_dir, sizes, name, sizes[2])
    if name == "lexicon":
        return ParseWorkload(seed, workdir, cache_dir, sizes, name, LEXICON_SENTENCES)
    if name == "nextword":
        return NextwordWorkload(seed, workdir, cache_dir, sizes)
    if name == "train":
        return TrainWorkload(seed, workdir, cache_dir, sizes)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
