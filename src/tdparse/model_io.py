"""Training pipeline assembly and model persistence.

A trained model bundles the normalization settings, the induced factored
grammar, conditioning tables with their interpolation weights, lookahead
tables, and the trigram baseline.  The on-disk form is a line-oriented
UTF-8 text file: integers stay integers, floats are written with repr()
so they read back bit-identically, and every list is emitted in sorted
order, making the file a deterministic function of the training data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .conditioning import PATH_MAX, CondConfig, ConditioningError, ContextModel, InterpolationTable
from .grammar import GrammarError, Pcfg, Rule, induce_pcfg, left_factor_tree
from .langmodel import LangModelError, NgramModel, sentences_from_trees
from .lookahead import LookaheadError, LookaheadTables
from .treebank import (
    AXIOM,
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
NORM_FIELDS = ("strip_punctuation", "number_token", "vocab_cap", "unk_token", "end_token")


class ModelIOError(ValueError):
    pass


@dataclass
class ParserModel:
    normalization: NormalizationConfig
    vocabulary: frozenset[str]
    grammar: Pcfg
    context: ContextModel
    lookahead: LookaheadTables
    ngram: NgramModel
    unigram: dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        self.unigram = self.ngram.unigram()

    def prepare(self, tokens: list[str]) -> list[str]:
        """Normalize an input sentence and append the end marker."""
        toks = normalize_tokens(tokens, self.vocabulary, self.normalization)
        return toks + [self.normalization.end_token]


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

    train_sents = sentences_from_trees(norm_train.trees, normalization.end_token)
    heldout_sents = sentences_from_trees(norm_heldout.trees, normalization.end_token)
    ngram = NgramModel(ngram_order)
    ngram.train(train_sents)
    ngram_history = ngram.tune(heldout_sents, max_iter=em_max_iter, tol=em_tol)

    model = ParserModel(
        normalization=normalization,
        vocabulary=norm_train.vocabulary,
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


def _add_weight(weights: dict, key: tuple, text: str, where: str) -> None:
    """Install one interpolation weight; EM only writes weights in [0, LAMBDA_CAP]."""
    lam = float(text)
    if not 0.0 <= lam < 1.0:
        raise ModelIOError(f"{where}: interpolation weight {text} is not in [0, 1)")
    if key in weights:
        raise ModelIOError(f"{where}: repeated interpolation weight row")
    weights[key] = lam


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
    lines.append(f"norm number_token {n.number_token}")
    lines.append(f"norm vocab_cap {n.vocab_cap}")
    lines.append(f"norm unk_token {n.unk_token}")
    lines.append(f"norm end_token {n.end_token}")
    for label in sorted(n.punct_labels):
        lines.append(f"norm punct_label {label}")
    for token in sorted(model.vocabulary):
        lines.append(f"vocab {token}")

    g = model.grammar
    lines.append(f"grammar start {g.start}")
    for rule in g.rules:
        lines.append(_rule_line(rule, g.rule_counts[rule]))

    c = model.context
    cc = c.config
    lines.append(f"cond config {cc.phrasal_depth} {cc.first_pos_depth} {cc.later_pos_depth}")
    lines.append(f"cond conj {c.conj_label}")
    for label in sorted(c.head_table):
        direction, priorities = c.head_table[label]
        lines.append(" ".join(["head", label, direction, *priorities]))
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

    norm_fields: dict[str, str] = {}
    punct: list[str] = []
    vocab: list[str] = []
    start: Optional[str] = None
    rule_counts: dict[Rule, int] = {}
    cond_cfg: Optional[tuple[int, int, int]] = None
    conj = "CC"
    head_table: dict[str, tuple[str, tuple[str, ...]]] = {}
    clams: dict[tuple[str, int, int], float] = {}
    ctx_rows: list[tuple[int, int, tuple, int, int]] = []
    lap_k = 5
    lap: dict[str, dict] = {kind: {} for kind in LAP_TABLES}
    ngram_order: Optional[int] = None
    ngram_rows: list[tuple[int, int, tuple[str, ...], str, int]] = []
    nglams: dict[tuple[int, int], float] = {}

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "norm":
                _, name, value = parts
                if name == "punct_label":
                    punct.append(value)
                elif name in NORM_FIELDS:
                    norm_fields[name] = value
                else:
                    raise ModelIOError(f"{path}:{lineno}: unknown norm field {name!r}")
            elif kind == "vocab":
                _, token = parts
                vocab.append(token)
            elif kind == "grammar":
                _, sub, value = parts
                if sub != "start":
                    raise ModelIOError(f"{path}:{lineno}: unknown grammar record {sub!r}")
                start = value
            elif kind == "rule":
                if parts[2] not in ("eps", "lex", "bin"):
                    raise ModelIOError(f"{path}:{lineno}: unknown rule kind {parts[2]!r}")
                _expect_fields(parts, {"eps": 4, "lex": 5, "bin": 6}[parts[2]])
                rule_counts[Rule(parts[3], tuple(parts[4:]), parts[2] == "lex")] = int(parts[1])
            elif kind == "cond":
                if parts[1] == "config":
                    _, _, phrasal, first_pos, later_pos = parts
                    cond_cfg = (int(phrasal), int(first_pos), int(later_pos))
                elif parts[1] == "conj":
                    _, _, conj = parts
                else:
                    raise ModelIOError(f"{path}:{lineno}: unknown cond record {parts[1]!r}")
            elif kind == "head":
                _, label, direction, *priorities = parts
                if direction not in ("left", "right"):
                    raise ModelIOError(f"{path}:{lineno}: head direction {direction!r} is not left or right")
                head_table[label] = (direction, tuple(priorities))
            elif kind == "clam":
                _, path_name, level, bucket, lam = parts
                if path_name not in PATH_MAX:
                    raise ModelIOError(f"{path}:{lineno}: unknown clam path {path_name!r}")
                _add_weight(clams, (path_name, int(level), int(bucket)), lam, f"{path}:{lineno}")
            elif kind == "ctx":
                level = int(parts[1])
                _expect_fields(parts, level + 5)
                values = tuple(map(_dec, parts[2 : 3 + level]))
                ctx_rows.append((lineno, level, values, int(parts[3 + level]), int(parts[4 + level])))
            elif kind == "lap":
                if parts[1] == "k":
                    _, _, k = parts
                    lap_k = int(k)
                elif parts[1] in lap:
                    table, fields = lap[parts[1]], parts[2:]
                    if parts[1] not in ("occ", "eps"):
                        table, fields = table.setdefault(fields[0], {}), fields[1:]
                    key, count = fields
                    n = int(count)
                    if n < 1 or key in table:
                        raise ModelIOError(f"{path}:{lineno}: {BAD_COUNT}: {line}")
                    table[key] = n
                else:
                    raise ModelIOError(f"{path}:{lineno}: unknown lap record {parts[1]!r}")
            elif kind == "ngram":
                if parts[1] == "order":
                    _, _, order = parts
                    ngram_order = int(order)
                elif parts[1] == "lam":
                    _, _, level, bucket, lam = parts
                    _add_weight(nglams, (int(level), int(bucket)), lam, f"{path}:{lineno}")
                elif parts[1] == "count":
                    level = int(parts[2])
                    _expect_fields(parts, level + 5)
                    ctx = tuple(parts[3 : 3 + level])
                    ngram_rows.append((lineno, level, ctx, parts[3 + level], int(parts[4 + level])))
                else:
                    raise ModelIOError(f"{path}:{lineno}: unknown ngram record {parts[1]!r}")
            else:
                raise ModelIOError(f"{path}:{lineno}: unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, ModelIOError):
                raise
            raise ModelIOError(f"{path}:{lineno}: malformed line: {line}") from exc

    if start is None or not rule_counts:
        raise ModelIOError(f"{path}: missing grammar section")
    if cond_cfg is None:
        raise ModelIOError(f"{path}: missing conditioning config")
    if ngram_order is None:
        raise ModelIOError(f"{path}: missing ngram section")
    for name in NORM_FIELDS:
        if name not in norm_fields:
            raise ModelIOError(f"{path}: missing norm field {name!r}")

    strip = {"0": False, "1": True}.get(norm_fields["strip_punctuation"])
    if strip is None:
        raise ModelIOError(f"{path}: norm field 'strip_punctuation' must be 0 or 1")
    try:
        vocab_cap = int(norm_fields["vocab_cap"])
    except ValueError:
        raise ModelIOError(f"{path}: norm field 'vocab_cap' must be an integer") from None
    # A trained n-gram model has counts at every level below its order.
    top = max((row[1] for row in ngram_rows), default=-1)
    if ngram_order > top + 1:
        raise ModelIOError(f"{path}: ngram order {ngram_order} but no counts above level {top}")
    try:
        normalization = NormalizationConfig(
            strip_punctuation=strip,
            punct_labels=frozenset(punct),
            number_token=norm_fields["number_token"],
            vocab_cap=vocab_cap,
            unk_token=norm_fields["unk_token"],
            end_token=norm_fields["end_token"],
        )
        grammar = Pcfg(rule_counts, start)
        context = ContextModel(
            grammar,
            CondConfig(*cond_cfg),
            head_table=head_table if head_table else None,
            conj_label=conj,
        )
        lookahead = LookaheadTables(grammar, lap_k)
        ngram = NgramModel(ngram_order)
    except (TreebankError, GrammarError, ConditioningError, LookaheadError, LangModelError) as exc:
        raise ModelIOError(f"{path}: {exc}") from None

    context.lambdas = clams
    for lineno, level, values, rid, count in ctx_rows:
        if not (0 <= level < len(context.tables) and 0 <= rid < len(grammar.rules)):
            raise ModelIOError(f"{path}: ctx record for rule {rid} at level {level} is out of range")
        if grammar.rules[rid].lhs != values[0]:
            raise ModelIOError(
                f"{path}: ctx record for rule {rid} at level {level} does not expand {values[0]}"
            )
        if count < 1 or context.add(level, values, rid, count) != count:
            raise ModelIOError(f"{path}:{lineno}: {BAD_COUNT}: {lines[lineno - 1]}")
    level0 = {(lhs,): {rid: rule_counts[r] for r, rid, _ in exps} for lhs, exps in grammar.by_lhs.items()}
    if context.tables[0] != level0:
        raise ModelIOError(f"{path}: level-0 ctx counts differ from the rule counts")

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
                rows = (["lap", kind, sym], ["lap", "occ", sym])
                lineno = next(i for row in rows for i, l in enumerate(lines, 1) if l.split()[:3] == row)
                raise ModelIOError(
                    f"{path}:{lineno}: lap {kind} counts of {sym} sum to {got}, not {want} (lap occ less lap eps)"
                )

    for lineno, level, ctx, word, count in ngram_rows:
        if not 0 <= level < ngram.order:
            raise ModelIOError(f"{path}:{lineno}: ngram count level {level} is outside 0..{ngram.order - 1}")
        if count < 1 or ngram.add(level, ctx, word, count) != count:
            raise ModelIOError(f"{path}:{lineno}: {BAD_COUNT}: {lines[lineno - 1]}")
    ngram.lambdas = nglams

    return ParserModel(
        normalization=normalization,
        vocabulary=frozenset(vocab),
        grammar=grammar,
        context=context,
        lookahead=lookahead,
        ngram=ngram,
    )
