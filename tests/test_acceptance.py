"""End-to-end acceptance checklist.

Twelve criteria, one test each, in a fixed order. Every test records a
single verdict line; conftest replays the collected lines after the run
summary so a full run reads as a checklist. The assert carries the same
line.

The small fixture grammars (g1, g4, g5; each at most 25 rules) are
cross-checked against the enumeration oracle over their *entire*
languages up to 8 words, not just the fixture sentences. The desk
corpus drives the trend, ablation, and determinism criteria.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from support import (
    build_parser,
    fixture_sentences,
    fixture_trees,
    random_corpus,
)
from tdparse.cli import EXIT_OK, main
from tdparse.evaluation import score_corpus
from tdparse.grammar import left_factor_tree, tree_probability, tree_to_derivation, unfactor_tree
from tdparse.langmodel import (
    NgramModel,
    START_TOKEN,
    corpus_perplexity,
    mixed_probs,
    perplexity,
    vocab_mass,
    word_probabilities,
)
from tdparse.oracle import enumerate_derivations
from tdparse.parser import BeamParser, ParserConfig
from tdparse.treebank import (
    AXIOM,
    END_TOKEN,
    NormalizationConfig,
    augment_with_stop,
    parse_trees,
    speech_normalize,
    write_trees,
)

FIXTURE_GRAMMARS = ("g1", "g2", "g3", "g4", "g5")
SMALL_GRAMMARS = ("g1", "g4", "g5")     # whole language up to 8 words is enumerable
GAMMAS = (1e-11, 1e-7, 1e-3)            # least to most aggressive pruning
MAX_WORDS = 9                           # 8 words plus the end marker


VERDICTS: list[str] = []


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    VERDICTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def suites():
    """Per fixture grammar: trees, an exact parser, sentences with end marker."""
    out = {}
    for name in FIXTURE_GRAMMARS:
        trees = fixture_trees(f"{name}.trees")
        exact = build_parser(trees)
        sents = [s + [END_TOKEN] for s in fixture_sentences(f"{name}.sents")]
        out[name] = SimpleNamespace(
            trees=trees, exact=exact, grammar=exact.grammar, sents=sents
        )
    return out


def _at_beam(suite, gamma: float) -> BeamParser:
    return BeamParser(
        suite.grammar, suite.exact.context, suite.exact.lookahead,
        ParserConfig(base_beam=gamma),
    )


@pytest.fixture(scope="module")
def desk_runs(desk):
    """Desk test set parsed with the full model at each beam setting."""
    m = desk.models["all"]
    out = {}
    for gamma in GAMMAS:
        parser = BeamParser(m.grammar, m.context, m.lookahead, ParserConfig(base_beam=gamma))
        out[gamma] = [parser.parse(s) for s in desk.sents]
    return out


# -- 1: factoring round trip -----------------------------------------------------


def test_c01_factoring_round_trip(suites):
    trees = random_corpus(500, seed=20260814)
    for suite in suites.values():
        trees.extend(suite.trees)
    t0 = time.perf_counter()
    bad = 0
    for t in trees:
        aug = augment_with_stop(t)
        if unfactor_tree(left_factor_tree(t)) != t:
            bad += 1
        elif unfactor_tree(left_factor_tree(aug)) != aug:
            bad += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1, "factoring round trip",
        bad == 0 and elapsed < 5.0,
        f"{len(trees)} trees, {bad} mismatches, {elapsed:.2f}s",
    )


# -- 2: probability preserved under factoring ------------------------------------


def _plain_rule_tables(trees):
    """Relative-frequency counts over unfactored derivations, exact arithmetic."""
    counts = Counter(r for t in trees for r in tree_to_derivation(t))
    lhs_totals = Counter()
    for rule, n in counts.items():
        lhs_totals[rule.lhs] += n
    return counts, lhs_totals


def _plain_tree_prob(counts, lhs_totals, t) -> Fraction:
    p = Fraction(1)
    for rule in tree_to_derivation(t):
        p *= Fraction(counts[rule], lhs_totals[rule.lhs])
    return p


def test_c02_probability_preservation(suites):
    worst = 0.0
    n = 0
    for suite in suites.values():
        augmented = [augment_with_stop(t) for t in suite.trees]
        counts, lhs_totals = _plain_rule_tables(augmented)
        for t in augmented:
            plain = float(_plain_tree_prob(counts, lhs_totals, t))
            factored = tree_probability(suite.grammar, left_factor_tree(t))
            worst = max(worst, abs(plain - factored) / plain)
            n += 1
    _verdict(
        2, "probability preserved under factoring",
        worst <= 1e-12,
        f"{n} trees, worst rel err {worst:.2e}",
    )


# -- 3: exact search equals enumeration over whole languages ---------------------


def _min_yields(grammar) -> dict[str, float]:
    """Fewest words each nonterminal can cover; fixpoint over the rules."""
    need = {lhs: math.inf for lhs in grammar.by_lhs}
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            cost = 1 if rule.lexical else sum(need[s] for s in rule.rhs)
            if cost < need[rule.lhs]:
                need[rule.lhs] = cost
                changed = True
    return need


def _language(grammar, max_words: int) -> list[tuple[str, ...]]:
    """Every string the grammar generates with at most max_words words.

    Depth-first over prediction stacks; a frame dies as soon as the words
    already emitted plus the cheapest completion of its stack overshoot,
    which keeps recursive grammars finite.
    """
    need = _min_yields(grammar)
    seen: set[tuple[str, ...]] = set()
    frames = [((AXIOM,), ())]
    while frames:
        stack, words = frames.pop()
        if not stack:
            seen.add(words)
            continue
        for rule, _rid, _lp in grammar.by_lhs[stack[-1]]:
            if rule.lexical:
                nw, rest = words + (rule.rhs[0],), stack[:-1]
            else:
                nw, rest = words, stack[:-1] + tuple(reversed(rule.rhs))
            if len(nw) + sum(need[s] for s in rest) <= max_words:
                frames.append((rest, nw))
    return sorted(seen)


def test_c03_exact_mode_matches_oracle(suites):
    t0 = time.perf_counter()
    sizes_ok = all(len(suites[n].grammar.rules) <= 25 for n in SMALL_GRAMMARS)
    checked = bad = ambiguous = 0
    for name in SMALL_GRAMMARS:
        suite = suites[name]
        for words in _language(suite.grammar, MAX_WORDS):
            result = suite.exact.parse(list(words))
            oracle = enumerate_derivations(suite.grammar, list(words))
            checked += 1
            ambiguous += len(oracle.complete) > 1
            if sorted(a.rules for a in result.completed) != sorted(d for _, d in oracle.complete):
                bad += 1
                continue
            estimate = math.fsum(math.exp(a.logp) for a in result.completed)
            if abs(estimate - oracle.sentence_prob) > 1e-9 * oracle.sentence_prob:
                bad += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        3, "exact mode matches oracle",
        sizes_ok and bad == 0 and elapsed < 30.0,
        f"{checked} sentences ({ambiguous} ambiguous) over {len(SMALL_GRAMMARS)} grammars, "
        f"{bad} mismatches, {elapsed:.1f}s",
    )


# -- 4: pruned mass never exceeds the exact mass ----------------------------------


def test_c04_beam_bounded_by_oracle(suites):
    checked = violations = 0
    for name in FIXTURE_GRAMMARS:
        suite = suites[name]
        exact = {
            tuple(w): enumerate_derivations(suite.grammar, w).sentence_prob
            for w in suite.sents
        }
        for gamma in GAMMAS:
            parser = _at_beam(suite, gamma)
            for words in suite.sents:
                estimate = math.fsum(
                    math.exp(a.logp) for a in parser.parse(words).completed
                )
                checked += 1
                # same log terms on both sides; the guard only absorbs the
                # one extra rounding of each summed mass
                if estimate > exact[tuple(words)] * (1.0 + 1e-12):
                    violations += 1
    _verdict(
        4, "beam estimates bounded by oracle",
        violations == 0,
        f"{checked} sentence/beam pairs, {violations} violations",
    )


# -- 5: per-word probabilities telescope ------------------------------------------


def test_c05_word_probabilities_telescope(suites):
    worst = 0.0
    n = skipped = 0
    for name in FIXTURE_GRAMMARS:
        parser = _at_beam(suites[name], 1e-11)
        for words in suites[name].sents:
            result = parser.parse(words)
            if result.failed:
                skipped += 1
                continue
            product = math.prod(word_probabilities(result, {}).model_probs)
            final = result.masses[-1]
            worst = max(worst, abs(product - final) / final)
            n += 1
    _verdict(
        5, "word probabilities telescope",
        n > 0 and worst <= 1e-9,
        f"{n} sentences, {skipped} skipped, worst rel err {worst:.2e}",
    )


# -- 6: queue masses never increase ------------------------------------------------


def test_c06_queue_masses_monotone(suites, desk_runs):
    positions = increases = 0

    def check(masses):
        nonlocal positions, increases
        positions += len(masses) - 1
        increases += sum(
            1 for i in range(len(masses) - 1) if masses[i + 1] > masses[i]
        )

    for name in FIXTURE_GRAMMARS:
        suite = suites[name]
        for gamma in (0.0,) + GAMMAS:
            parser = suite.exact if gamma == 0.0 else _at_beam(suite, gamma)
            for words in suite.sents:
                check(parser.parse(words).masses)
    for runs in desk_runs.values():
        for result in runs:
            check(result.masses)
    _verdict(
        6, "queue masses monotone",
        increases == 0,
        f"{positions} word positions, {increases} increases",
    )


# -- 7: beam tightening trend -------------------------------------------------------


def test_c07_beam_tightening_trend(desk, desk_runs):
    model = desk.models["all"]
    n_words = sum(len(s) for s in desk.sents)
    trigram = [q for s in desk.sents for q in model.ngram.word_probs(s)]
    trigram_ppl = perplexity(trigram)

    failed = []
    pops_per_word = []
    model_ppl = []
    mixed_ppl = []
    for gamma in GAMMAS:
        runs = desk_runs[gamma]
        traces = [word_probabilities(r, model.unigram) for r in runs]
        failed.append(sum(r.failed for r in runs))
        pops_per_word.append(sum(r.pops for r in runs) / n_words)
        model_ppl.append(perplexity(p for tr in traces for p in tr.model_probs))
        mixed_ppl.append(perplexity(
            q
            for tr, s in zip(traces, desk.sents)
            for q in mixed_probs(tr.final_probs, model.ngram.word_probs(s))
        ))

    work_drops = all(a > b for a, b in zip(pops_per_word, pops_per_word[1:]))
    # pruning can only remove mass, so the unsmoothed model perplexity
    # (mass ratios) may not improve as the beam tightens
    ppl_rises = all(b >= a - 1e-12 for a, b in zip(model_ppl, model_ppl[1:]))
    below = all(m < trigram_ppl for m in mixed_ppl)
    detail = (
        f"pops/word {'>'.join(f'{p:.2f}' for p in pops_per_word)}, "
        f"model ppl {'<='.join(f'{p:.7f}' for p in model_ppl)}, "
        f"mixed {'/'.join(f'{p:.3f}' for p in mixed_ppl)} vs trigram {trigram_ppl:.3f}"
    )
    if not below:
        worst = max(m - trigram_ppl for m in mixed_ppl)
        detail += f", deviation above trigram {worst:.3f}"
    _verdict(
        7, "beam tightening trend",
        sum(failed) == 0 and work_drops and ppl_rises,
        detail,
    )


# -- 8: conditioning ablation ---------------------------------------------------------


def test_c08_conditioning_ablation(desk, desk_runs):
    bare = desk.models["none"]
    parser = BeamParser(bare.grammar, bare.context, bare.lookahead, ParserConfig())
    bare_runs = [parser.parse(s) for s in desk.sents]
    full_runs = desk_runs[GAMMAS[0]]

    ppl_full = corpus_perplexity(
        word_probabilities(r, desk.models["all"].unigram) for r in full_runs
    )
    ppl_bare = corpus_perplexity(
        word_probabilities(r, bare.unigram) for r in bare_runs
    )
    err_full = score_corpus(
        (g, r.tree, r.failed) for g, r in zip(desk.gold, full_runs)
    ).parse_error
    err_bare = score_corpus(
        (g, r.tree, r.failed) for g, r in zip(desk.gold, bare_runs)
    ).parse_error
    _verdict(
        8, "conditioning ablation",
        ppl_full < ppl_bare and err_full <= err_bare,
        f"ppl {ppl_full:.3f} vs {ppl_bare:.3f}, "
        f"parse error {err_full:.4f} vs {err_bare:.4f}",
    )


# -- 9: trigram propriety ----------------------------------------------------------------


def _de_bruijn(alphabet: list[str], n: int) -> list[str]:
    """Cyclic sequence containing every length-n string over alphabet once."""
    k = len(alphabet)
    a = [0] * (k * n)
    seq: list[int] = []

    def extend(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                seq.extend(a[1 : p + 1])
        else:
            a[t] = a[t - p]
            extend(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                extend(t + 1, t)

    extend(1, 1)
    return [alphabet[i] for i in seq]


def _uniform_corpus(n_letters: int) -> list[list[str]]:
    """Sentence corpus in which every trigram conditional is uniform.

    An order-3 de Bruijn cycle over the alphabet (end marker included)
    contains every trigram exactly once, so after cutting at end markers
    each context at each order is followed by every word equally often.
    """
    alphabet = [chr(ord("a") + i) for i in range(n_letters)] + [END_TOKEN]
    seq = _de_bruijn(alphabet, 3)
    last = max(i for i, tok in enumerate(seq) if tok == END_TOKEN)
    seq = seq[last + 1 :] + seq[: last + 1]
    sentences, current = [], []
    for tok in seq:
        current.append(tok)
        if tok == END_TOKEN:
            sentences.append(current)
            current = []
    return sentences


def test_c09_trigram_propriety(desk):
    ngram = desk.models["all"].ngram
    vocab = ngram.vocabulary
    rng = random.Random(20260814)
    pool = vocab + [START_TOKEN, "never-seen-token"]
    worst = 0.0
    for _ in range(1000):
        history = (rng.choice(pool), rng.choice(pool))
        total = math.fsum(ngram.word_prob(history, w) for w in vocab)
        worst = max(worst, abs(total - 1.0))

    corpus = _uniform_corpus(5)
    size = len({w for s in corpus for w in s})
    uniform = NgramModel(3)
    uniform.train(corpus)
    uniform.tune(corpus)
    ppl = perplexity(p for s in corpus for p in uniform.word_probs(s))
    ppl_err = abs(ppl - size) / size
    _verdict(
        9, "trigram propriety",
        worst <= 1e-6 and ppl_err <= 1e-3,
        f"1000 histories, worst |sum-1| {worst:.2e}; "
        f"uniform-corpus ppl {ppl:.6f} vs |V|={size}",
    )


# -- 10: vocabulary mass ------------------------------------------------------------------


def test_c10_vocabulary_mass(suites):
    worst_exact = 0.0
    low, high = math.inf, 0.0

    def beam_sums(parser, words, candidates):
        nonlocal low, high
        for i in range(len(words) + 1):
            total = math.fsum(vocab_mass(parser, words[:i], candidates).values())
            low, high = min(low, total), max(high, total)

    g1 = suites["g1"]
    g1_cands = sorted(g1.grammar.vocabulary)
    for words in fixture_sentences("g1.sents"):
        for i in range(len(words) + 1):
            total = math.fsum(vocab_mass(g1.exact, words[:i], g1_cands).values())
            worst_exact = max(worst_exact, abs(total - 1.0))

    for name in FIXTURE_GRAMMARS:
        suite = suites[name]
        parser = _at_beam(suite, 1e-11)
        candidates = sorted(suite.grammar.vocabulary)
        for words in fixture_sentences(f"{name}.sents"):
            beam_sums(parser, words, candidates)
    # aggressive pruning on the ambiguous grammars: sums may drop below 1
    # but must stay in range
    for name in ("g2", "g5"):
        suite = suites[name]
        parser = _at_beam(suite, 1e-3)
        candidates = sorted(suite.grammar.vocabulary)
        for words in fixture_sentences(f"{name}.sents"):
            beam_sums(parser, words, candidates)

    _verdict(
        10, "vocabulary mass",
        worst_exact <= 1e-6 and 0.0 < low and high <= 1.0 + 1e-6,
        f"exact worst |sum-1| {worst_exact:.2e}; beam sums in [{low:.6f}, {high:.6f}]",
    )


# -- 11: bracket scoring -----------------------------------------------------------------


# hand-scored pair: flattening the object NP keeps S, the subject NP and
# the VP (3 matched, 3 proposed) and loses one gold constituent
HAND_GOLD = "(S (NP (NN Spot)) (VP (VBD chased) (NP (DT the) (NN ball))))"
HAND_FLAT = "(S (NP (NN Spot)) (VP (VBD chased) (DT the) (NN ball)))"


def test_c11_bracket_scoring(suites):
    identity = score_corpus(
        (t, t, False)
        for name in FIXTURE_GRAMMARS
        for t in suites[name].trees
    )
    identity_ok = (
        identity.recall == 1.0
        and identity.precision == 1.0
        and identity.avg_crossings == 0.0
    )

    gold = parse_trees(HAND_GOLD)[0]
    flat = parse_trees(HAND_FLAT)[0]
    report = dict(score_corpus([(gold, gold, False), (gold, flat, False)]).as_report())
    hand_ok = (
        report["labeled_recall"] == "87.50"      # 7 of 8 gold constituents
        and report["labeled_precision"] == "100.00"
        and report["exact_match_pct"] == "50.00"
        and report["avg_crossings"] == "0.000"
    )
    _verdict(
        11, "bracket scoring",
        identity_ok and hand_ok,
        f"identity LR/LP {100 * identity.recall:.0f}/{100 * identity.precision:.0f}, "
        f"hand pair LR/LP {report['labeled_recall']}/{report['labeled_precision']}",
    )


# -- 12: pipeline determinism -------------------------------------------------------------


def test_c12_pipeline_determinism(desk, tmp_path):
    cfg = NormalizationConfig()
    norm_train = speech_normalize(desk.train, cfg)
    norm_test = speech_normalize(desk.test, cfg, keep_tokens=norm_train.vocabulary)
    train_path = str(tmp_path / "train.trees")
    heldout_path = str(tmp_path / "heldout.trees")
    gold_path = str(tmp_path / "gold.trees")
    sents_path = str(tmp_path / "test.sents")
    write_trees(train_path, desk.train.trees)
    write_trees(heldout_path, desk.heldout.trees)
    write_trees(gold_path, desk.test.trees)
    with open(sents_path, "w", encoding="utf-8") as handle:
        for t in norm_test.trees:
            handle.write(" ".join(t.yield_tokens()) + "\n")

    def pipeline(run_dir):
        os.makedirs(run_dir)
        cwd = os.getcwd()
        os.chdir(run_dir)
        out = io.StringIO()
        codes = []
        try:
            with contextlib.redirect_stdout(out):
                for argv in (
                    ["train", "--trees", train_path, "--heldout", heldout_path,
                     "--out", "desk.model"],
                    ["parse", "--model", "desk.model", "--input", sents_path],
                    ["ppl", "--model", "desk.model", "--input", sents_path],
                    ["eval", "--model", "desk.model", "--gold", gold_path],
                ):
                    codes.append(main(argv))
        finally:
            os.chdir(cwd)
        with open(os.path.join(run_dir, "desk.model"), "rb") as handle:
            return codes, out.getvalue(), handle.read()

    codes1, stdout1, model1 = pipeline(str(tmp_path / "run1"))
    codes2, stdout2, model2 = pipeline(str(tmp_path / "run2"))
    _verdict(
        12, "pipeline determinism",
        codes1 == codes2 == [EXIT_OK] * 4 and stdout1 == stdout2 and model1 == model2,
        f"model {len(model1)} bytes, reports {len(stdout1)} chars, "
        f"exit codes {codes1} vs {codes2}",
    )
