"""Training pipeline assembly and model persistence.

A trained model bundles the normalization settings, the induced factored
grammar, conditioning tables with their interpolation weights, lookahead
tables, and the trigram baseline.  The on-disk form is a line-oriented
UTF-8 text file: integers stay integers, floats are written with repr()
so they read back bit-identically, and every list is emitted in sorted
order, making the file a deterministic function of the training data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .conditioning import (
    BUCKET_EDGES, CONJ_LABEL, HEAD_TABLE, PATH_MAX, CondConfig, ConditioningError, ContextModel, InterpolationTable,
)
from .grammar import GrammarError, Pcfg, Rule, induce_pcfg, left_factor_tree
from .langmodel import LangModelError, NgramModel, sentences_from_trees
from .lookahead import LookaheadError, LookaheadTables
from .treebank import (
    AXIOM,
    END_TOKEN,
    NUMBER_TOKEN,
    PUNCT_LABELS,
    UNK_TOKEN,
    Corpus,
    NormalizationConfig,
    TreebankError,
    augment_with_stop,
    normalize_tokens,
    speech_normalize,
)

FORMAT_NAME = "tdparse-model"
FORMAT_VERSION = 1

# lap record kind -> its LookaheadTables count table, keyed by one field (occ,
# eps) or by two (fw, fp, pw).  The loader installs the fw and fp rows and
# checks the others against the tables derived from the rule counts.
LAP_TABLES = {"occ": "occurrences", "eps": "erased", "fw": "first_word", "fp": "first_pos", "pw": "pos_word"}
# Counts are positive, and each count row's key appears once.
BAD_COUNT = "count below 1 or repeated count row"
# Records a model file holds exactly once.
ONCE = ("grammar start", "cond config", "ngram order", "norm strip_punctuation", "norm vocab_cap", "lap k")
# The rows that write down the fixed protocol symbols, by record: reserved
# tokens, punctuation labels, conjunction label and head rules.  A model file
# holds each row exactly once, and no other row of these records.
FIXED_ROWS = {
    "norm number_token": [f"norm number_token {NUMBER_TOKEN}"],
    "norm unk_token": [f"norm unk_token {UNK_TOKEN}"],
    "norm end_token": [f"norm end_token {END_TOKEN}"],
    "norm punct_label": [f"norm punct_label {label}" for label in sorted(PUNCT_LABELS)],
    "cond conj": [f"cond conj {CONJ_LABEL}"],
    "head": [" ".join(["head", label, direction, *priorities]) for label, (direction, priorities) in sorted(HEAD_TABLE.items())],
}
FIXED = dict.fromkeys(row for rows in FIXED_ROWS.values() for row in rows)


class ModelIOError(ValueError):
    pass


class _BadLine(ValueError):
    """A model-file line that reads but breaks the format; load_model adds file and line."""


@dataclass
class ParserModel:
    normalization: NormalizationConfig
    grammar: Pcfg
    context: ContextModel
    lookahead: LookaheadTables
    ngram: NgramModel
    # The grammar's words and the unknown token that stands for every other word.
    vocabulary: frozenset[str] = field(init=False)
    unigram: dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        self.vocabulary = self.grammar.vocabulary | {UNK_TOKEN}
        self.unigram = self.ngram.unigram()

    def prepare(self, tokens: list[str]) -> list[str]:
        """Normalize an input sentence and append the end marker."""
        return normalize_tokens(tokens, self.vocabulary) + [END_TOKEN]


def prepare_trees(corpus: Corpus, model: ParserModel) -> Corpus:
    """Normalize a tree corpus against an existing model's vocabulary."""
    return speech_normalize(corpus, model.normalization, keep_tokens=model.vocabulary)


def train_parser_model(
    train: Corpus,
    heldout: Corpus,
    cond_config: CondConfig = CondConfig(),
    normalization: NormalizationConfig = NormalizationConfig(),
    lookahead_k: int = 5,
    ngram_order: int = 3,
    em_max_iter: int = 100,
    em_tol: float = 1e-6,
) -> tuple[ParserModel, list[tuple[str, str]]]:
    """Full training pass: normalize, factor, induce, count, tune."""
    norm_train = speech_normalize(train, normalization)
    norm_heldout = speech_normalize(heldout, normalization, keep_tokens=norm_train.vocabulary)

    factored = [left_factor_tree(augment_with_stop(t)) for t in norm_train.trees]
    factored_heldout = [left_factor_tree(augment_with_stop(t)) for t in norm_heldout.trees]
    grammar = induce_pcfg(factored, AXIOM)

    context = ContextModel(grammar, cond_config)
    context.train_counts(factored)
    cond_history = context.tune_mix_weights(factored_heldout, max_iter=em_max_iter, tol=em_tol)

    lookahead = LookaheadTables.from_trees(grammar, factored, smoothing_k=lookahead_k)

    train_sents = sentences_from_trees(norm_train.trees)
    heldout_sents = sentences_from_trees(norm_heldout.trees)
    ngram = NgramModel(ngram_order)
    ngram.train(train_sents)
    ngram_history = ngram.tune(heldout_sents, max_iter=em_max_iter, tol=em_tol)

    model = ParserModel(
        normalization=normalization,
        grammar=grammar,
        context=context,
        lookahead=lookahead,
        ngram=ngram,
    )
    report = [
        ("train_trees", str(len(norm_train.trees))),
        ("heldout_trees", str(len(norm_heldout.trees))),
        ("vocabulary", str(len(model.vocabulary))),
        ("rules", str(len(grammar.rules))),
        ("conditioning", f"{cond_config.phrasal_depth},{cond_config.first_pos_depth},{cond_config.later_pos_depth}"),
        ("cond_lambda_entries", str(len(context.lambdas))),
        ("cond_em_iterations", str(len(cond_history))),
        ("cond_em_converged", _converged(cond_history, em_tol)),
        ("cond_heldout_ll", repr(cond_history[-1]) if cond_history else "na"),
        ("ngram_lambda_entries", str(len(ngram.lambdas))),
        ("ngram_em_iterations", str(len(ngram_history))),
        ("ngram_em_converged", _converged(ngram_history, em_tol)),
        ("ngram_heldout_ll", repr(ngram_history[-1]) if ngram_history else "na"),
    ]
    return model, report


def _converged(history: list[float], tol: float) -> str:
    """``yes`` when the last EM step gained less than ``tol``: the loop's stopping test."""
    return "yes" if len(history) >= 2 and history[-1] - history[-2] < tol else "no"


# -- text encoding helpers ------------------------------------------------------


def _enc(value: Optional[str]) -> str:
    return "_" if value is None else "=" + value


def _dec(field: str) -> Optional[str]:
    if field == "_":
        return None
    if field.startswith("="):
        return field[1:]
    raise ValueError(f"bad value field {field!r}")


def _expect_fields(parts: list[str], n: int) -> None:
    if len(parts) != n:
        raise ValueError(f"expected {n} fields, got {len(parts)}")


def _once(table: dict, key, value) -> None:
    """Install a value that a model file gives once."""
    if key in table:
        raise _BadLine("repeated row")
    table[key] = value


def _fixed_row(single: dict, parts: list[str]) -> None:
    """Note one row of the fixed protocol symbols; any other content is an error."""
    row = " ".join(parts)
    if row not in FIXED:
        raise _BadLine(f"not one of the fixed {parts[0]} rows: {row}")
    _once(single, row, None)


def _add_weight(weights: dict, key: tuple, text: str, lineno: int) -> None:
    """Note one interpolation weight and its line; EM only writes weights in [0, LAMBDA_CAP]."""
    lam = float(text)
    if not 0.0 <= lam < 1.0:
        raise _BadLine(f"interpolation weight {text} is not in [0, 1)")
    if key in weights:
        raise _BadLine("repeated interpolation weight row")
    weights[key] = (lam, lineno)


def _weights(path: str, record: str, rows: dict, top) -> dict:
    """The weights of (key -> (weight, line)) rows.  Only levels 1..top(key) mix in and
    buckets run 0..len(BUCKET_EDGES): a weight at any other key would never be read."""
    for key, (_, lineno) in rows.items():
        *_, level, bucket = key
        if not 1 <= level <= top(key):
            raise ModelIOError(f"{path}:{lineno}: {record} level {level} is outside 1..{top(key)}")
        if not 0 <= bucket <= len(BUCKET_EDGES):
            raise ModelIOError(f"{path}:{lineno}: {record} bucket {bucket} is outside 0..{len(BUCKET_EDGES)}")
    return {key: lam for key, (lam, _) in rows.items()}


def _line_of(lines: list[str], *rows: list) -> int:
    """Number of the first line that starts with the fields of one of ``rows``, tried in order.

    A field given as None matches any field.
    """
    for row in rows:
        for lineno, line in enumerate(lines, 1):
            fields = line.split()
            if len(fields) >= len(row) and all(want in (None, got) for want, got in zip(row, fields)):
                return lineno
    raise ValueError(f"no line starts with any of {rows}")


def _check_nesting(path: str, lines: list[str], totals: list[dict], parent: slice, deeper, row) -> None:
    """Check each level's count totals against the totals one level deeper.

    A key refines the key one level down that ``key[parent]`` gives, which
    must have rows.  A key's total is the sum of the totals that refine it
    where ``deeper(level, key)`` says all its counts go one level deeper,
    and at least that sum elsewhere.  The deepest levels go first, so an
    edited key with rows above it is the one named.  ``row(level, key)``
    gives the leading fields of the key's rows.
    """
    for level in range(len(totals) - 1, 0, -1):
        below = totals[level - 1]
        sums: dict[tuple, int] = {}
        for key, n in totals[level].items():
            up = key[parent]
            sums[up] = sums.get(up, 0) + n
        if not sums.keys() <= below.keys():
            fields = row(level, next(key for key in totals[level] if key[parent] not in below))
            raise ModelIOError(f"{path}:{_line_of(lines, fields)}: {' '.join(fields)} has no level-{level - 1} row to refine")
        if sums == below:
            continue
        for key, total in below.items():
            under = sums.get(key, 0)
            if total < under or total > under and deeper(level - 1, key):
                fields = row(level - 1, key)
                raise ModelIOError(
                    f"{path}:{_line_of(lines, fields)}: {' '.join(fields)} counts sum to {total}, "
                    f"{'below' if total < under else 'not'} the {under} of its level-{level} rows"
                )


def _rule_line(rule: Rule, count: int) -> str:
    if rule.lexical:
        return f"rule {count} lex {rule.lhs} {rule.rhs[0]}"
    if not rule.rhs:
        return f"rule {count} eps {rule.lhs}"
    return f"rule {count} bin {rule.lhs} {rule.rhs[0]} {rule.rhs[1]}"


def _count_lines(record: str, table: InterpolationTable, enc) -> Iterator[str]:
    """One line per count: record, level, encoded key fields, outcome, count."""
    for level, counts in enumerate(table.tables):
        for key in sorted(counts, key=lambda k: [enc(v) for v in k]):
            for outcome in sorted(counts[key]):
                yield " ".join([record, str(level), *map(enc, key), str(outcome), str(counts[key][outcome])])


def save_model(model: ParserModel, path: str) -> None:
    lines: list[str] = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    n = model.normalization
    lines.append(f"norm strip_punctuation {int(n.strip_punctuation)}")
    lines += FIXED_ROWS["norm number_token"]
    lines.append(f"norm vocab_cap {n.vocab_cap}")
    for record in ("norm unk_token", "norm end_token", "norm punct_label"):
        lines += FIXED_ROWS[record]
    for token in sorted(model.vocabulary):
        lines.append(f"vocab {token}")

    g = model.grammar
    lines.append(f"grammar start {g.start}")
    for rule in g.rules:
        lines.append(_rule_line(rule, g.rule_counts[rule]))

    c = model.context
    cc = c.config
    lines.append(f"cond config {cc.phrasal_depth} {cc.first_pos_depth} {cc.later_pos_depth}")
    lines += FIXED_ROWS["cond conj"] + FIXED_ROWS["head"]
    for (path_name, level, bucket), lam in sorted(c.lambdas.items()):
        lines.append(f"clam {path_name} {level} {bucket} {lam!r}")
    lines.extend(_count_lines("ctx", c, _enc))

    la = model.lookahead
    lines.append(f"lap k {la.smoothing_k}")
    for label in sorted(la.occurrences):
        lines.append(f"lap occ {label} {la.occurrences[label]}")
    for label in sorted(la.erased):
        lines.append(f"lap eps {label} {la.erased[label]}")
    for label in sorted(la.first_word):
        for word in sorted(la.first_word[label]):
            lines.append(f"lap fw {label} {word} {la.first_word[label][word]}")
    for label in sorted(la.first_pos):
        for pos in sorted(la.first_pos[label]):
            lines.append(f"lap fp {label} {pos} {la.first_pos[label][pos]}")
    for pos in sorted(la.pos_word):
        for word in sorted(la.pos_word[pos]):
            lines.append(f"lap pw {pos} {word} {la.pos_word[pos][word]}")

    m = model.ngram
    lines.append(f"ngram order {m.order}")
    lines.extend(_count_lines("ngram count", m, str))
    for (level, bucket), lam in sorted(m.lambdas.items()):
        lines.append(f"ngram lam {level} {bucket} {lam!r}")

    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_model(path: str) -> ParserModel:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ModelIOError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise ModelIOError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise ModelIOError(f"{path}: not a {FORMAT_NAME} file")
    if head[1] != str(FORMAT_VERSION):
        raise ModelIOError(
            f"{path}: model format version {head[1]} is not supported (expected {FORMAT_VERSION})"
        )

    # The value of each record in ONCE, and None for each fixed row.
    single: dict[str, object] = {}
    vocab: dict[str, None] = {}
    rule_counts: dict[Rule, int] = {}
    clams: dict[tuple[str, int, int], tuple[float, int]] = {}
    ctx_rows: list[tuple[int, int, tuple, int, int]] = []
    lap: dict[str, dict] = {kind: {} for kind in LAP_TABLES}
    ngram_rows: list[tuple[int, int, tuple[str, ...], str, int]] = []
    nglams: dict[tuple[int, int], tuple[float, int]] = {}

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "norm":
                if f"norm {parts[1]}" in FIXED_ROWS:
                    _fixed_row(single, parts)
                else:
                    _, name, value = parts
                    if f"norm {name}" not in ONCE:
                        raise _BadLine(f"unknown norm field {name!r}")
                    _once(single, f"norm {name}", value)
            elif kind == "vocab":
                _, token = parts
                _once(vocab, token, None)
            elif kind == "grammar":
                _, sub, value = parts
                if sub != "start":
                    raise _BadLine(f"unknown grammar record {sub!r}")
                _once(single, "grammar start", value)
            elif kind == "rule":
                if parts[2] not in ("eps", "lex", "bin"):
                    raise _BadLine(f"unknown rule kind {parts[2]!r}")
                _expect_fields(parts, {"eps": 4, "lex": 5, "bin": 6}[parts[2]])
                _once(rule_counts, Rule(parts[3], tuple(parts[4:]), parts[2] == "lex"), int(parts[1]))
            elif kind == "cond":
                if parts[1] == "config":
                    _, _, phrasal, first_pos, later_pos = parts
                    depths = (int(phrasal), int(first_pos), int(later_pos))
                    if any(d > top for d, top in zip(depths, PATH_MAX.values())):
                        raise _BadLine(f"cond config depths exceed {' '.join(map(str, PATH_MAX.values()))}")
                    _once(single, "cond config", depths)
                elif parts[1] == "conj":
                    _fixed_row(single, parts)
                else:
                    raise _BadLine(f"unknown cond record {parts[1]!r}")
            elif kind == "head":
                _fixed_row(single, parts)
            elif kind == "clam":
                _, path_name, level, bucket, lam = parts
                if path_name not in PATH_MAX:
                    raise _BadLine(f"unknown clam path {path_name!r}")
                _add_weight(clams, (path_name, int(level), int(bucket)), lam, lineno)
            elif kind == "ctx":
                level = int(parts[1])
                _expect_fields(parts, level + 5)
                values = tuple(map(_dec, parts[2 : 3 + level]))
                ctx_rows.append((lineno, level, values, int(parts[3 + level]), int(parts[4 + level])))
            elif kind == "lap":
                if parts[1] == "k":
                    _, _, k = parts
                    _once(single, "lap k", int(k))
                elif parts[1] in lap:
                    table, fields = lap[parts[1]], parts[2:]
                    if parts[1] not in ("occ", "eps"):
                        table, fields = table.setdefault(fields[0], {}), fields[1:]
                    key, count = fields
                    n = int(count)
                    if n < 1 or key in table:
                        raise _BadLine(f"{BAD_COUNT}: {line}")
                    table[key] = n
                else:
                    raise _BadLine(f"unknown lap record {parts[1]!r}")
            elif kind == "ngram":
                if parts[1] == "order":
                    _, _, order = parts
                    _once(single, "ngram order", int(order))
                elif parts[1] == "lam":
                    _, _, level, bucket, lam = parts
                    _add_weight(nglams, (int(level), int(bucket)), lam, lineno)
                elif parts[1] == "count":
                    level = int(parts[2])
                    _expect_fields(parts, level + 5)
                    ctx = tuple(parts[3 : 3 + level])
                    ngram_rows.append((lineno, level, ctx, parts[3 + level], int(parts[4 + level])))
                else:
                    raise _BadLine(f"unknown ngram record {parts[1]!r}")
            else:
                raise _BadLine(f"unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            reason = exc if isinstance(exc, _BadLine) else f"malformed line: {line}"
            raise ModelIOError(f"{path}:{lineno}: {reason}") from exc

    if not rule_counts:
        raise ModelIOError(f"{path}: missing grammar section")
    for key in (*ONCE, *FIXED):
        if key not in single:
            raise ModelIOError(f"{path}: missing row: {key}")

    strip = {"0": False, "1": True}.get(single["norm strip_punctuation"])
    if strip is None:
        raise ModelIOError(f"{path}: norm field 'strip_punctuation' must be 0 or 1")
    try:
        vocab_cap = int(single["norm vocab_cap"])
    except ValueError:
        raise ModelIOError(f"{path}: norm field 'vocab_cap' must be an integer") from None
    # A trained n-gram model has counts at every level below its order.
    ngram_order = single["ngram order"]
    top = max((row[1] for row in ngram_rows), default=-1)
    if ngram_order > top + 1:
        raise ModelIOError(f"{path}: ngram order {ngram_order} but no counts above level {top}")
    try:
        normalization = NormalizationConfig(strip_punctuation=strip, vocab_cap=vocab_cap)
        grammar = Pcfg(rule_counts, single["grammar start"])
        context = ContextModel(grammar, CondConfig(*single["cond config"]))
        lookahead = LookaheadTables(grammar, single["lap k"])
        ngram = NgramModel(ngram_order)
    except (TreebankError, GrammarError, ConditioningError, LookaheadError, LangModelError) as exc:
        raise ModelIOError(f"{path}: {exc}") from None

    context.lambdas = _weights(path, "clam", clams, lambda key: context.config.depth_for(key[0]))
    for lineno, level, values, rid, count in ctx_rows:
        if not (0 <= level < len(context.tables) and 0 <= rid < len(grammar.rules)):
            raise ModelIOError(f"{path}: ctx record for rule {rid} at level {level} is out of range")
        if grammar.rules[rid].lhs != values[0]:
            raise ModelIOError(
                f"{path}: ctx record for rule {rid} at level {level} does not expand {values[0]}"
            )
        if count < 1 or context.add(level, values, rid, count) != count:
            raise ModelIOError(f"{path}:{lineno}: {BAD_COUNT}: {lines[lineno - 1]}")
    del ctx_rows  # installed; freed before the checks below build their sums, to keep the peak down
    level0 = {(lhs,): {rid: rule_counts[r] for r, rid, _ in exps} for lhs, exps in grammar.by_lhs.items()}
    if context.tables[0] != level0:
        raise ModelIOError(f"{path}: level-0 ctx counts differ from the rule counts")
    _check_nesting(path, lines, context.totals, slice(-1), context.counts_go_deeper,
                   lambda level, key: ["ctx", str(level), *map(_enc, key)])
    # Each path's counts stop at its depth, so a deeper row is never read.
    for level in range(1, len(context.totals)):
        unread = context.unread_keys(level)
        if unread:
            fields = ["ctx", str(level), *map(_enc, unread[0])]
            raise ModelIOError(
                f"{path}:{_line_of(lines, fields)}: {' '.join(fields)} is deeper than its path's depth, so no score reads it"
            )

    for kind, attr in LAP_TABLES.items():
        if kind in ("fw", "fp"):
            setattr(lookahead, attr, lap[kind])
        elif lap[kind] != getattr(lookahead, attr):
            raise ModelIOError(f"{path}: lap {kind} counts differ from the rule counts")
    # Every occurrence of a symbol either erases or starts with one word and one tag.
    for kind in ("fw", "fp"):
        for sym in sorted(lookahead.occurrences.keys() | lap[kind].keys()):
            got = sum(lap[kind].get(sym, {}).values())
            want = lookahead.occurrences.get(sym, 0) - lookahead.erased.get(sym, 0)
            if got != want:
                # Name the symbol's first row of this kind, or its lap occ row.
                lineno = _line_of(lines, ["lap", kind, sym], ["lap", "occ", sym])
                raise ModelIOError(
                    f"{path}:{lineno}: lap {kind} counts of {sym} sum to {got}, not {want} (lap occ less lap eps)"
                )

    for lineno, level, ctx, word, count in ngram_rows:
        if not 0 <= level < ngram.order:
            raise ModelIOError(f"{path}:{lineno}: ngram count level {level} is outside 0..{ngram.order - 1}")
        if count < 1 or ngram.add(level, ctx, word, count) != count:
            raise ModelIOError(f"{path}:{lineno}: {BAD_COUNT}: {lines[lineno - 1]}")
    # The unigram counts every word as often as the grammar's lexical rules do.
    unigram, emitted = ngram.tables[0].get((), {}), Counter()
    for words in grammar.pos_word.values():
        emitted.update(words)
    if unigram != emitted:
        word = min(w for w in unigram.keys() | emitted.keys() if unigram.get(w) != emitted.get(w))
        lineno = _line_of(lines, ["ngram", "count", "0", word], ["rule", None, "lex", None, word])
        raise ModelIOError(
            f"{path}:{lineno}: ngram count 0 of {word} is {unigram.get(word, 0)}, not {emitted.get(word, 0)} (its lexical rule counts)"
        )
    # Every token counts at every level of its padded history.
    _check_nesting(path, lines, ngram.totals, slice(1, None), lambda level, key: True,
                   lambda level, key: ["ngram", "count", str(level), *key])
    ngram.lambdas = _weights(path, "ngram lam", nglams, lambda key: ngram.order - 1)

    model = ParserModel(
        normalization=normalization,
        grammar=grammar,
        context=context,
        lookahead=lookahead,
        ngram=ngram,
    )
    # The vocab rows are a copy of the grammar's words and the unknown token.
    if vocab.keys() != model.vocabulary:
        token = min(vocab.keys() ^ model.vocabulary)
        problem = "missing row" if token in model.vocabulary else "row for a word the grammar lacks"
        raise ModelIOError(f"{path}: {problem}: vocab {token}")
    return model
