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
from .langmodel import NgramModel, sentences_from_trees
from .lookahead import LookaheadTables
from .treebank import (
    AXIOM,
    END_TOKEN,
    NUMBER_TOKEN,
    PUNCT_LABELS,
    UNK_TOKEN,
    Corpus,
    NormalizationConfig,
    augment_with_stop,
    normalize_tokens,
    speech_normalize,
)

FORMAT_NAME = "tdparse-model"
FORMAT_VERSION = 1

# Counts are positive, and each count row's key appears once.
BAD_COUNT = "count below 1 or repeated count row"
# Records a model file holds exactly once.
ONCE = ("cond config", "ngram order", "norm strip_punctuation", "norm vocab_cap", "lap k")


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
    grammar = induce_pcfg(factored)

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


def _norm_value(name: str, value: str):
    """The value of a ``norm strip_punctuation`` or ``norm vocab_cap`` row."""
    if name == "strip_punctuation":
        if value not in ("0", "1"):
            raise _BadLine("norm field 'strip_punctuation' must be 0 or 1")
        return value == "1"
    try:
        cap = int(value)
    except ValueError:
        raise _BadLine("norm field 'vocab_cap' must be an integer") from None
    if cap < 1:
        raise _BadLine("vocab_cap must be at least 1")
    return cap


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
    """Number of the first line that starts with the fields of one of ``rows``, tried in order."""
    for row in rows:
        for lineno, line in enumerate(lines, 1):
            if line.split()[: len(row)] == row:
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


def _copied_rows(grammar: Pcfg) -> dict[str, list[str]]:
    """Every row that follows from the grammar and the fixed protocol symbols alone, by record.

    The fixed symbols are the reserved tokens, the punctuation labels, the
    axiom, the conjunction label and the head rules.  From the grammar
    follow the vocabulary (its words and the unknown token), the rule counts per lhs
    (``ctx 0`` and ``lap occ``), the epsilon and lexical rule counts
    (``lap eps``, ``lap pw``) and each word's lexical counts summed over its
    tags (the unigram, ``ngram count 0``).  ``save_model`` writes these
    records from here alone, and ``load_model`` checks that a file holds
    each row once and no other row of these records.
    """
    unigram = Counter()
    for words in grammar.pos_word.values():
        unigram.update(words)
    return {
        "norm number_token": [f"norm number_token {NUMBER_TOKEN}"],
        "norm unk_token": [f"norm unk_token {UNK_TOKEN}"],
        "norm end_token": [f"norm end_token {END_TOKEN}"],
        "norm punct_label": [f"norm punct_label {label}" for label in sorted(PUNCT_LABELS)],
        "vocab": [f"vocab {token}" for token in sorted(grammar.vocabulary | {UNK_TOKEN})],
        "grammar start": [f"grammar start {AXIOM}"],
        "cond conj": [f"cond conj {CONJ_LABEL}"],
        "head": [" ".join(["head", label, direction, *priorities]) for label, (direction, priorities) in sorted(HEAD_TABLE.items())],
        "ctx 0": [f"ctx 0 ={lhs} {rid} {grammar.rule_counts[rule]}"
                  for lhs, expansions in sorted(grammar.by_lhs.items()) for rule, rid, _ in expansions],
        "lap occ": [f"lap occ {lhs} {n}" for lhs, n in sorted(grammar.lhs_counts.items())],
        "lap eps": [f"lap eps {lhs} {n}" for lhs, n in sorted(grammar.erased.items())],
        "lap pw": [f"lap pw {pos} {word} {n}" for pos, words in sorted(grammar.pos_word.items()) for word, n in sorted(words.items())],
        "ngram count 0": [f"ngram count 0 {word} {n}" for word, n in sorted(unigram.items())],
    }


def _count_lines(record: str, table: InterpolationTable, enc) -> Iterator[str]:
    """One line per count above level 0: record, level, encoded key fields, outcome, count."""
    for level, counts in enumerate(table.tables[1:], 1):
        for key in sorted(counts, key=lambda k: [enc(v) for v in k]):
            for outcome in sorted(counts[key]):
                yield " ".join([record, str(level), *map(enc, key), str(outcome), str(counts[key][outcome])])


def save_model(model: ParserModel, path: str) -> None:
    copies = _copied_rows(model.grammar)
    lines: list[str] = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    n = model.normalization
    lines.append(f"norm strip_punctuation {int(n.strip_punctuation)}")
    lines += copies["norm number_token"]
    lines.append(f"norm vocab_cap {n.vocab_cap}")
    lines += copies["norm unk_token"] + copies["norm end_token"] + copies["norm punct_label"] + copies["vocab"]

    g = model.grammar
    lines += copies["grammar start"]
    for rule in g.rules:
        lines.append(_rule_line(rule, g.rule_counts[rule]))

    c = model.context
    cc = c.config
    lines.append(f"cond config {cc.phrasal_depth} {cc.first_pos_depth} {cc.later_pos_depth}")
    lines += copies["cond conj"] + copies["head"]
    for (path_name, level, bucket), lam in sorted(c.lambdas.items()):
        lines.append(f"clam {path_name} {level} {bucket} {lam!r}")
    lines += copies["ctx 0"]
    lines.extend(_count_lines("ctx", c, _enc))

    la = model.lookahead
    lines.append(f"lap k {la.smoothing_k}")
    lines += copies["lap occ"] + copies["lap eps"]
    for kind, table in (("fw", la.first_word), ("fp", la.first_pos)):
        for label in sorted(table):
            lines.extend(f"lap {kind} {label} {key} {n}" for key, n in sorted(table[label].items()))
    lines += copies["lap pw"]

    m = model.ngram
    lines.append(f"ngram order {m.order}")
    lines += copies["ngram count 0"]
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

    # The value of each record in ONCE, and the line of each row of a record with copied rows.
    single: dict[str, object] = {}
    kept: dict[str, int] = {}
    rule_counts: dict[Rule, int] = {}
    clams: dict[tuple[str, int, int], tuple[float, int]] = {}
    ctx_rows: list[tuple[int, int, tuple, int, int]] = []
    lap: dict[str, dict] = {"fw": {}, "fp": {}}
    ngram_rows: list[tuple[int, int, tuple[str, ...], str, int]] = []
    nglams: dict[tuple[int, int], tuple[float, int]] = {}

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "norm":
                if f"norm {parts[1]}" in ONCE:
                    _, name, value = parts
                    _once(single, f"norm {name}", _norm_value(name, value))
                else:
                    _once(kept, " ".join(parts), lineno)
            elif kind in ("vocab", "grammar", "head"):
                _once(kept, " ".join(parts), lineno)
            elif kind == "rule":
                if parts[2] not in ("eps", "lex", "bin"):
                    raise _BadLine(f"unknown rule kind {parts[2]!r}")
                _expect_fields(parts, {"eps": 4, "lex": 5, "bin": 6}[parts[2]])
                rule, n = Rule(parts[3], tuple(parts[4:]), parts[2] == "lex"), int(parts[1])
                if n < 1:
                    raise _BadLine(f"rule {rule.render()} has count {n}")
                _once(rule_counts, rule, n)
            elif kind == "cond":
                if parts[1] == "config":
                    _, _, phrasal, first_pos, later_pos = parts
                    _once(single, "cond config", CondConfig(int(phrasal), int(first_pos), int(later_pos)))
                else:
                    _once(kept, " ".join(parts), lineno)
            elif kind == "clam":
                _, path_name, level, bucket, lam = parts
                if path_name not in PATH_MAX:
                    raise _BadLine(f"unknown clam path {path_name!r}")
                _add_weight(clams, (path_name, int(level), int(bucket)), lam, lineno)
            elif kind == "ctx":
                level = int(parts[1])
                if level == 0:
                    _once(kept, " ".join(parts), lineno)
                    continue
                _expect_fields(parts, level + 5)
                values = tuple(map(_dec, parts[2 : 3 + level]))
                ctx_rows.append((lineno, level, values, int(parts[3 + level]), int(parts[4 + level])))
            elif kind == "lap":
                if parts[1] == "k":
                    _, _, k = parts
                    if int(k) < 0:
                        raise _BadLine("smoothing_k must be nonnegative")
                    _once(single, "lap k", int(k))
                elif parts[1] in lap:
                    _, sub, sym, key, count = parts
                    table, n = lap[sub].setdefault(sym, {}), int(count)
                    if n < 1 or key in table:
                        raise _BadLine(f"{BAD_COUNT}: {line}")
                    table[key] = n
                else:
                    _once(kept, " ".join(parts), lineno)
            elif kind == "ngram":
                if parts[1] == "order":
                    _, _, order = parts
                    if int(order) < 1:
                        raise _BadLine("order must be at least 1")
                    _once(single, "ngram order", int(order))
                elif parts[1] == "lam":
                    _, _, level, bucket, lam = parts
                    _add_weight(nglams, (int(level), int(bucket)), lam, lineno)
                elif parts[1] == "count" and (level := int(parts[2])) != 0:
                    _expect_fields(parts, level + 5)
                    ctx = tuple(parts[3 : 3 + level])
                    ngram_rows.append((lineno, level, ctx, parts[3 + level], int(parts[4 + level])))
                else:
                    _once(kept, " ".join(parts), lineno)
            else:
                raise _BadLine(f"unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            reason = exc if isinstance(exc, (_BadLine, ConditioningError)) else f"malformed line: {line}"
            raise ModelIOError(f"{path}:{lineno}: {reason}") from exc

    if not rule_counts:
        raise ModelIOError(f"{path}: missing grammar section")
    for key in ONCE:
        if key not in single:
            raise ModelIOError(f"{path}: missing row: {key}")

    # Level 0 comes from the grammar; a trained n-gram model has counts at every level above it below its order.
    ngram_order = single["ngram order"]
    top = max((row[1] for row in ngram_rows), default=0)
    if ngram_order > top + 1:
        raise ModelIOError(f"{path}: ngram order {ngram_order} but no counts above level {top}")
    normalization = NormalizationConfig(strip_punctuation=single["norm strip_punctuation"], vocab_cap=single["norm vocab_cap"])
    try:
        grammar = Pcfg(rule_counts)
    except GrammarError as exc:
        raise ModelIOError(f"{path}: {exc}") from None
    context = ContextModel(grammar, single["cond config"])
    lookahead = LookaheadTables(grammar, lap["fw"], lap["fp"], single["lap k"])
    ngram = NgramModel(ngram_order)

    copies = {row: None for rows in _copied_rows(grammar).values() for row in rows}
    for row, lineno in kept.items():
        if row not in copies:
            raise ModelIOError(f"{path}:{lineno}: not one of the copied rows: {row}")
    if len(kept) < len(copies):
        raise ModelIOError(f"{path}: missing row: {next(row for row in copies if row not in kept)}")
    del kept, copies  # checked; freed before the tables fill, to keep the peak down
    for lhs, expansions in grammar.by_lhs.items():
        for rule, rid, _ in expansions:
            context.add(0, (lhs,), rid, rule_counts[rule])
    for words in grammar.pos_word.values():
        for word, n in words.items():
            ngram.add(0, (), word, n)
    context.lambdas = _weights(path, "clam", clams, lambda key: context.config.depth_for(key[0]))
    for lineno, level, values, rid, count in ctx_rows:
        if not (0 <= level < len(context.tables) and 0 <= rid < len(grammar.rules)):
            raise ModelIOError(f"{path}:{lineno}: ctx record for rule {rid} at level {level} is out of range")
        if grammar.rules[rid].lhs != values[0]:
            raise ModelIOError(
                f"{path}:{lineno}: ctx record for rule {rid} at level {level} does not expand {values[0]}"
            )
        if count < 1 or context.add(level, values, rid, count) != count:
            raise ModelIOError(f"{path}:{lineno}: {BAD_COUNT}: {lines[lineno - 1]}")
    del ctx_rows  # installed; freed before the checks below build their sums, to keep the peak down
    depths = context.path_depths
    _check_nesting(path, lines, context.totals, slice(-1), lambda level, key: depths(level, key)[0] > level,
                   lambda level, key: ["ctx", str(level), *map(_enc, key)])
    # Each path's counts stop at its depth, so a deeper row is never read.
    for level in range(1, len(context.totals)):
        unread = [key for key in context.totals[level] if depths(level, key)[1] < level]
        if unread:
            fields = ["ctx", str(level), *map(_enc, unread[0])]
            raise ModelIOError(
                f"{path}:{_line_of(lines, fields)}: {' '.join(fields)} is deeper than its path's depth, so no score reads it"
            )
    # Every ctx value names a grammar symbol or word.
    named = grammar.by_lhs.keys() | grammar.vocabulary | {None}
    for level, totals in enumerate(context.totals):
        unnamed = set().union(*totals) - named
        if unnamed:
            value = min(unnamed)
            fields = ["ctx", str(level), *map(_enc, next(key for key in totals if value in key))]
            raise ModelIOError(
                f"{path}:{_line_of(lines, fields)}: {' '.join(fields)}: {value} is not a grammar symbol or word"
            )

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
    # First words are grammar words and first tags are preterminals.
    for kind, known, what in (("fw", grammar.vocabulary, "a grammar word"),
                              ("fp", grammar.preterminals, "a preterminal")):
        for sym, counts in lap[kind].items():
            if not counts.keys() <= known:
                fields = ["lap", kind, sym, min(counts.keys() - known)]
                raise ModelIOError(f"{path}:{_line_of(lines, fields)}: {' '.join(fields)}: {fields[-1]} is not {what}")

    for lineno, level, ctx, word, count in ngram_rows:
        if not 0 <= level < ngram.order:
            raise ModelIOError(f"{path}:{lineno}: ngram count level {level} is outside 0..{ngram.order - 1}")
        if count < 1 or ngram.add(level, ctx, word, count) != count:
            raise ModelIOError(f"{path}:{lineno}: {BAD_COUNT}: {lines[lineno - 1]}")
    # Every token counts at every level of its padded history.
    _check_nesting(path, lines, ngram.totals, slice(1, None), lambda level, key: True,
                   lambda level, key: ["ngram", "count", str(level), *key])
    ngram.lambdas = _weights(path, "ngram lam", nglams, lambda key: ngram.order - 1)

    return ParserModel(
        normalization=normalization,
        grammar=grammar,
        context=context,
        lookahead=lookahead,
        ngram=ngram,
    )
