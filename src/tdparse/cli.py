"""Command-line front end.

Subcommands:

* train: induce a grammar from trees, fit conditioning and trigram
  weights on heldout trees, write a model file.
* parse: parse tokenized sentences with a trained model, one bracketed
  tree per line.  Exit status 3 when any sentence only got a partial
  cover (garden path), 0 otherwise.
* ppl: per-word perplexity of the parser language model, the trigram
  baseline, and their mixture.
* eval: labeled bracket scores of parser output against gold trees.
* oracle-check: exhaustively enumerate small grammars and verify the
  exact-mode parser reproduces probabilities and derivations.

All reports are key=value lines so runs can be diffed byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys

from .conditioning import CondConfig, ContextModel
from .evaluation import score_corpus
from .grammar import induce_pcfg, left_factor_tree
from .langmodel import mixed_probs, perplexity, word_probabilities
from .lookahead import LookaheadTables
from .model_io import load_model, prepare_trees, save_model, train_parser_model
from .oracle import OracleConfig, OracleError, enumerate_derivations
from .parser import BeamParser, ParseError, ParserConfig
from .treebank import (
    END_TOKEN,
    NormalizationConfig,
    TreebankError,
    augment_with_stop,
    read_corpus,
    read_sentences,
    to_bracketed,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GARDEN_PATH = 3


def _add_beam_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--base-beam", type=float, default=1e-11,
                   help="beam factor gamma (default 1e-11); 0 enumerates exactly, with no "
                        "pop budget, at a cost that can grow exponentially with sentence "
                        "length on an ambiguous grammar")
    p.add_argument("--max-pops", type=int, default=10_000,
                   help="per-queue expansion budget (default 10000)")
    p.add_argument("--lap-floor", type=float, default=1e-10,
                   help="floor on the lookahead factor, in [0, 1] (default 1e-10)")
    p.add_argument("--max-len", type=int, default=0,
                   help="skip sentences longer than this many words (0 = no limit)")


def _parser_config(args) -> ParserConfig:
    if args.max_len < 0:
        raise ParseError("--max-len must be nonnegative (0 = no limit)")
    return ParserConfig(base_beam=args.base_beam, max_pops=args.max_pops,
                        lap_floor=args.lap_floor)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a rejected flag as an error, like any other bad input; --help still exits 0."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_argparser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="tdparse")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from treebank files")
    p.add_argument("--trees", required=True, help="training trees, bracketed, one per line")
    p.add_argument("--heldout", required=True, help="heldout trees for weight tuning")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--conditioning", default="all",
                   help="preset name or three comma-separated depths (default: all)")
    p.add_argument("--keep-punct", action="store_true",
                   help="keep punctuation instead of stripping it")
    p.add_argument("--vocab-cap", type=int, default=10_000,
                   help="vocabulary size cap (default 10000)")
    p.add_argument("--lookahead-k", type=int, default=5,
                   help="lookahead smoothing constant (default 5)")
    p.add_argument("--ngram-order", type=int, default=3,
                   help="order of the n-gram baseline (default 3)")

    p = sub.add_parser("parse", help="parse sentences")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="tokenized sentences, one per line")
    _add_beam_args(p)

    p = sub.add_parser("ppl", help="language-model perplexity")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="tokenized sentences, one per line")
    p.add_argument("--trigram-share", type=float, default=0.36,
                   help="trigram weight in the mixture (default 0.36)")
    _add_beam_args(p)

    p = sub.add_parser("eval", help="score parses against gold trees")
    p.add_argument("--model", required=True)
    p.add_argument("--gold", required=True, help="gold trees, bracketed, one per line")
    _add_beam_args(p)

    p = sub.add_parser("oracle-check", help="verify exact search against enumeration")
    p.add_argument("--trees", required=True, help="trees to induce the test grammar from")
    p.add_argument("--sentences", required=True, help="sentences to cross-check")
    p.add_argument("--max-steps", type=int, default=2_000_000)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    return ap


def _cond_config(spec: str) -> CondConfig:
    if "," in spec:
        try:
            a, b, c = (int(x) for x in spec.split(","))
        except ValueError:
            raise TreebankError(f"bad conditioning depths {spec!r}")
        return CondConfig(a, b, c)
    return CondConfig.from_preset(spec)


def cmd_train(args) -> int:
    train = read_corpus(args.trees, "train")
    heldout = read_corpus(args.heldout, "heldout")
    normalization = NormalizationConfig(
        strip_punctuation=not args.keep_punct, vocab_cap=args.vocab_cap
    )
    model, report = train_parser_model(
        train,
        heldout,
        cond_config=_cond_config(args.conditioning),
        normalization=normalization,
        lookahead_k=args.lookahead_k,
        ngram_order=args.ngram_order,
    )
    save_model(model, args.out)
    for key, value in report:
        print(f"{key}={value}")
    print(f"model={args.out}")
    return EXIT_OK


def _iter_input(args, model):
    """(lineno, normalized tokens with end marker) for each usable line."""
    skipped = 0
    rows = []
    for lineno, tokens in read_sentences(args.input):
        if args.max_len and len(tokens) > args.max_len:
            skipped += 1
            continue
        try:
            rows.append((lineno, model.prepare(tokens)))
        except TreebankError as exc:
            raise TreebankError(f"{args.input}:{lineno}: {exc}") from None
    return rows, skipped


def cmd_parse(args) -> int:
    model = load_model(args.model)
    parser = BeamParser(model.grammar, model.context, model.lookahead, _parser_config(args))
    rows, skipped = _iter_input(args, model)
    any_partial = False
    for lineno, words in rows:
        result = parser.parse(words)
        if result.failed:
            any_partial = True
            print(f"sent={lineno} status=partial tree={to_bracketed(result.tree)}")
        else:
            print(
                f"sent={lineno} status=parsed logprob={result.best_logp:.6f} "
                f"tree={to_bracketed(result.tree)}"
            )
    if skipped:
        print(f"skipped={skipped}")
    return EXIT_GARDEN_PATH if any_partial else EXIT_OK


def cmd_ppl(args) -> int:
    model = load_model(args.model)
    parser = BeamParser(model.grammar, model.context, model.lookahead, _parser_config(args))
    rows, skipped = _iter_input(args, model)
    if not rows:
        print("error=no sentences to score", file=sys.stderr)
        return EXIT_ERROR
    parser_probs: list[float] = []
    trigram_probs: list[float] = []
    mixture_probs: list[float] = []
    n_words = failed = fallback_words = 0
    for _, words in rows:
        result = parser.parse(words)
        trace = word_probabilities(result, model.unigram)
        tri = model.ngram.word_probs(words)
        parser_probs.extend(trace.final_probs)
        trigram_probs.extend(tri)
        mixture_probs.extend(mixed_probs(trace.final_probs, tri, args.trigram_share))
        n_words += len(words)
        failed += int(result.failed)
        fallback_words += sum(trace.fallback)
    print(f"sentences={len(rows)}")
    print(f"words={n_words}")
    print(f"failed_sentences={failed}")
    print(f"fallback_words={fallback_words}")
    print(f"parser_ppl={perplexity(parser_probs):.4f}")
    print(f"trigram_ppl={perplexity(trigram_probs):.4f}")
    print(f"trigram_share={args.trigram_share}")
    print(f"mixed_ppl={perplexity(mixture_probs):.4f}")
    if skipped:
        print(f"skipped={skipped}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    parser = BeamParser(model.grammar, model.context, model.lookahead, _parser_config(args))
    gold = prepare_trees(read_corpus(args.gold, "test"), model)
    pairs = []
    total_pops = total_words = 0
    for idx, gold_tree in enumerate(gold.trees):
        words = gold_tree.yield_tokens()
        if args.max_len and len(words) > args.max_len:
            continue
        result = parser.parse(words + [END_TOKEN])
        gold_aug = augment_with_stop(gold_tree)
        pairs.append((gold_aug, result.tree, result.failed))
        total_pops += result.pops
        total_words += len(result.words)
    score = score_corpus(pairs)
    for key, value in score.as_report():
        print(f"{key}={value}")
    print(f"total_pops={total_pops}")
    print(f"avg_pops_per_word={total_pops / total_words:.2f}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    if not (math.isfinite(args.rel_tol) and args.rel_tol >= 0.0):
        raise OracleError("--rel-tol must be finite and nonnegative")
    corpus = read_corpus(args.trees, "train")
    factored = [left_factor_tree(augment_with_stop(t)) for t in corpus.trees]
    grammar = induce_pcfg(factored)
    context = ContextModel(grammar, CondConfig(0, 0, 0))
    context.train_counts(factored)
    lookahead = LookaheadTables.from_trees(grammar, factored)
    parser = BeamParser(grammar, context, lookahead, ParserConfig(base_beam=0.0))
    oracle_cfg = OracleConfig(max_steps=args.max_steps)
    all_ok = True
    for lineno, tokens in read_sentences(args.sentences):
        words = tokens + [END_TOKEN]
        result = parser.parse(words)
        exact = enumerate_derivations(grammar, words, oracle_cfg)
        beam_prob = math.fsum(math.exp(c.logp) for c in result.completed)
        exact_prob = exact.sentence_prob
        if exact_prob == beam_prob == 0.0:
            rel = 0.0
        elif exact_prob == 0.0:
            rel = math.inf
        else:
            rel = abs(beam_prob - exact_prob) / exact_prob
        derivs_beam = {c.rules for c in result.completed}
        derivs_exact = {r for _, r in exact.complete}
        ok = rel <= args.rel_tol and derivs_beam == derivs_exact
        all_ok = all_ok and ok
        print(
            f"sent={lineno} parses={len(exact.complete)} rel_err={rel:.3e} "
            f"derivations={'match' if derivs_beam == derivs_exact else 'differ'} "
            f"ok={'yes' if ok else 'no'}"
        )
    print(f"summary={'ok' if all_ok else 'mismatch'}")
    return EXIT_OK if all_ok else EXIT_ERROR


def main(argv=None) -> int:
    handlers = {
        "train": cmd_train,
        "parse": cmd_parse,
        "ppl": cmd_ppl,
        "eval": cmd_eval,
        "oracle-check": cmd_oracle_check,
    }
    try:
        args = _build_argparser().parse_args(argv)
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
