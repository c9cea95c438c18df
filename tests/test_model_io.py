import gc
import math
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from support import as_corpus, fixture_trees, reference_unigram
from tdparse.conditioning import CondConfig, ContextModel, replay
from tdparse.grammar import Rule, left_factor_tree
from tdparse.langmodel import sentences_from_trees, word_probabilities
from tdparse.lookahead import LookaheadTables
from tdparse.model_io import (
    FORMAT_VERSION,
    ModelIOError,
    load_model,
    prepare_trees,
    save_model,
    train_parser_model,
)
from tdparse.parser import BeamParser, ParserConfig
from tdparse.treebank import END_TOKEN, UNK_TOKEN, Tree, augment_with_stop, parse_trees, speech_normalize


def test_training_report_keys(g1_model):
    report = dict(g1_model.report)
    assert report["train_trees"] == "4"
    assert report["vocabulary"] == str(len(g1_model.model.vocabulary))
    assert int(report["rules"]) == len(g1_model.model.grammar.rules)
    assert report["conditioning"] == "6,5,4"
    assert int(report["cond_em_iterations"]) >= 1
    assert float(report["cond_heldout_ll"]) <= 0.0
    # g1's conditioning EM still gains at the 100-iteration cap; the n-gram fit stops on tol
    assert (report["cond_em_iterations"], report["cond_em_converged"]) == ("100", "no")
    assert int(report["ngram_em_iterations"]) < 100
    assert report["ngram_em_converged"] == "yes"


@pytest.mark.parametrize("max_iter, tol, converged", [(1, 1e-6, "no"), (100, math.inf, "yes")])
def test_em_converged_follows_the_stopping_test(g1_trees, max_iter, tol, converged):
    corpus = as_corpus(g1_trees, "train")
    held = as_corpus(g1_trees, "heldout")
    _, report = train_parser_model(corpus, held, em_max_iter=max_iter, em_tol=tol)
    report = dict(report)
    for stage in ("cond", "ngram"):
        assert report[f"{stage}_em_iterations"] == str(min(max_iter, 2))
        assert report[f"{stage}_em_converged"] == converged


def test_prepare_normalizes_and_appends_end(g1_model):
    model = g1_model.model
    assert model.prepare(["the", "dog"]) == ["the", "dog", END_TOKEN]
    # digits fold to the number token, which g1 never saw, hence unk
    assert model.prepare(["the", "42", "zebra"]) == [
        "the",
        UNK_TOKEN,
        UNK_TOKEN,
        END_TOKEN,
    ]


def test_prepare_trees_against_model_vocabulary(g1_model):
    test = as_corpus(parse_trees("(S (NP (NN Spot)) (VP (VBD flew)))"), "test")
    out = prepare_trees(test, g1_model.model)
    assert out.trees[0].yield_tokens() == ["Spot", UNK_TOKEN]


# Tokens without reserved ones: model words of g1 and desk, numbers, unknown words and punctuation.
_plain_token = st.sampled_from(["Spot", "ran", "the", "dog", "box", "doctor", "42", "3.5", "1,234", "zebra", ".", ","])
_plain_tree = st.recursive(
    st.builds(lambda tag, tok: Tree(tag, (Tree(tok),)), st.sampled_from(["NN", "CD", "DT"]), _plain_token),
    lambda kids: st.builds(Tree, st.sampled_from(["S", "NP", "VP"]), st.lists(kids, min_size=1, max_size=4)),
    max_leaves=10,
)


@pytest.mark.parametrize("name", ["g1", "desk"])
def test_sentence_and_tree_normalize_alike(name, g1_model, desk):
    """A tree with no punctuation preterminal reads as the sentence of its yield (g1 has no N, desk has)."""
    model = g1_model.model if name == "g1" else desk.models["all"]

    @settings(max_examples=100, deadline=None)
    @given(trees=st.lists(_plain_tree, min_size=1, max_size=4))
    def check(trees):
        prepared = prepare_trees(as_corpus(trees, "test"), model).trees
        for raw, tree in zip(trees, prepared, strict=True):
            assert model.prepare(raw.yield_tokens()) == tree.yield_tokens() + [END_TOKEN]

    check()


def test_unigram_is_the_training_unigram(g1_model, desk):
    g1_train = as_corpus(fixture_trees("g1.trees"), "train")
    for model, corpus in ((g1_model.model, g1_train), (desk.models["all"], desk.train)):
        sents = sentences_from_trees(prepare_trees(corpus, model).trees)
        assert list(model.unigram.items()) == list(reference_unigram(sents).items())


def test_save_load_save_is_byte_identical(g1_model, tmp_path):
    p1, p2 = tmp_path / "m1.model", tmp_path / "m2.model"
    save_model(g1_model.model, str(p1))
    loaded = load_model(str(p1))
    save_model(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_model_scores_identically(g1_model, tmp_path):
    path = tmp_path / "g1.model"
    save_model(g1_model.model, str(path))
    loaded = load_model(str(path))
    orig = g1_model.model

    assert loaded.vocabulary == orig.vocabulary
    assert loaded.grammar.rules == orig.grammar.rules
    assert loaded.grammar.by_lhs == orig.grammar.by_lhs
    assert loaded.context.lambdas == orig.context.lambdas
    assert loaded.unigram == orig.unigram
    assert loaded.ngram.lambdas == orig.ngram.lambdas
    assert loaded.lookahead.first_word == orig.lookahead.first_word
    assert loaded.lookahead.first_pos == orig.lookahead.first_pos
    assert loaded.lookahead.smoothing_k == orig.lookahead.smoothing_k

    fact = [left_factor_tree(augment_with_stop(t)) for t in fixture_trees("g1.trees")]
    for spine, rule in replay(fact):
        assert loaded.context.rule_logprob(spine, rule) == orig.context.rule_logprob(
            spine, rule
        )
    for sym in orig.lookahead.occurrences:
        for w in ("Spot", "the", "ran"):
            assert loaded.lookahead.word_prob(sym, w) == orig.lookahead.word_prob(sym, w)
        assert loaded.lookahead.eps_prob(sym) == orig.lookahead.eps_prob(sym)
    ctx = ("the", "dog")
    for w in orig.ngram.vocabulary:
        assert loaded.ngram.word_prob(ctx, w) == orig.ngram.word_prob(ctx, w)


def test_load_empties_caches_filled_before_its_writes(g1_model, tmp_path, monkeypatch):
    """Scores read from a model before the loader fills its tables are not kept."""
    path = tmp_path / "g1.model"
    save_model(g1_model.model, str(path))
    orig = g1_model.model
    fact = [left_factor_tree(augment_with_stop(t)) for t in fixture_trees("g1.trees")]
    expansions = list(replay(fact))
    pairs = [(sym, w) for sym in orig.lookahead.occurrences for w in ("Spot", "the", "ran")]

    def context_scores(context):
        return [context.rule_logprob(spine, rule) for spine, rule in expansions]

    def lookahead_probs(tables):
        return [tables.word_prob(sym, w) for sym, w in pairs]

    def scored_on_creation(cls, read):
        init = cls.__init__

        def __init__(self, *args):
            init(self, *args)
            read(self)

        monkeypatch.setattr(cls, "__init__", __init__)

    scored_on_creation(ContextModel, context_scores)
    scored_on_creation(LookaheadTables, lookahead_probs)
    loaded = load_model(str(path))
    assert context_scores(loaded.context) == context_scores(orig.context)
    assert lookahead_probs(loaded.lookahead) == lookahead_probs(orig.lookahead)


def test_loaded_model_parses_identically(g1_model, tmp_path):
    path = tmp_path / "g1.model"
    save_model(g1_model.model, str(path))
    loaded = load_model(str(path))
    cfg = ParserConfig(base_beam=1e-11)
    a = BeamParser(g1_model.model.grammar, g1_model.model.context, g1_model.model.lookahead, cfg)
    b = BeamParser(loaded.grammar, loaded.context, loaded.lookahead, cfg)
    for text in ("Spot ran", "the dog ran", "Spot chased the ball"):
        words = text.split() + [END_TOKEN]
        ra, rb = a.parse(words), b.parse(words)
        assert ra.masses == rb.masses
        assert ra.best_logp == rb.best_logp
        assert [c.rules for c in ra.completed] == [c.rules for c in rb.completed]


def test_training_is_deterministic(g1_trees, tmp_path):
    corpus = as_corpus(g1_trees, "train")
    held = as_corpus(g1_trees, "heldout")
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    save_model(train_parser_model(corpus, held)[0], str(p1))
    save_model(train_parser_model(corpus, held)[0], str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_foreign_and_future_files(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("something else\n")
    with pytest.raises(ModelIOError, match="not a"):
        load_model(str(bad))
    future = tmp_path / "future.model"
    future.write_text(f"tdparse-model {FORMAT_VERSION + 1}\n")
    with pytest.raises(ModelIOError, match="not supported"):
        load_model(str(future))
    empty = tmp_path / "empty.model"
    empty.write_text("")
    with pytest.raises(ModelIOError, match="empty"):
        load_model(str(empty))


def test_load_reports_malformed_line(g1_model, tmp_path):
    path = tmp_path / "g1.model"
    save_model(g1_model.model, str(path))
    text = path.read_text().splitlines()
    text.insert(5, "rule banana lex DT")
    broken = tmp_path / "broken.model"
    broken.write_text("\n".join(text) + "\n")
    with pytest.raises(ModelIOError, match=r"broken\.model:6: malformed line"):
        load_model(str(broken))


def test_load_rejects_unknown_record(g1_model, tmp_path):
    path = tmp_path / "g1.model"
    save_model(g1_model.model, str(path))
    broken = tmp_path / "broken.model"
    broken.write_text(path.read_text() + "mystery 1 2 3\n")
    with pytest.raises(ModelIOError, match="unknown record"):
        load_model(str(broken))


def test_load_requires_core_sections(tmp_path):
    stub = tmp_path / "stub.model"
    stub.write_text("tdparse-model 1\n")
    with pytest.raises(ModelIOError, match="missing grammar"):
        load_model(str(stub))


def _tampered(g1_model, tmp_path, edit) -> str:
    """Save g1, rewrite its lines with ``edit``, return the broken file."""
    path = tmp_path / "g1.model"
    save_model(g1_model.model, str(path))
    broken = tmp_path / "broken.model"
    broken.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return str(broken)


def test_load_requires_every_norm_field(g1_model, tmp_path):
    path = _tampered(
        g1_model, tmp_path, lambda lines: [l for l in lines if not l.startswith("norm vocab_cap ")]
    )
    with pytest.raises(ModelIOError, match="missing row: norm vocab_cap"):
        load_model(path)


def test_load_rejects_unknown_lap_record(g1_model, tmp_path):
    path = _tampered(g1_model, tmp_path, lambda lines: lines + ["lap zz NP 1"])
    with pytest.raises(ModelIOError, match=r"broken\.model:\d+: not one of the copied rows: lap zz NP 1"):
        load_model(path)


def test_load_rejects_ctx_rule_outside_grammar(g1_model, tmp_path):
    def edit(lines):
        out = []
        for line in lines:
            parts = line.split()
            if parts[0] == "ctx" and parts[1] != "0":
                parts[-2] = "999999"
            out.append(" ".join(parts))
        return out

    with pytest.raises(ModelIOError, match=r"broken\.model:\d+: ctx record for rule 999999 at level 1 is out of range"):
        load_model(_tampered(g1_model, tmp_path, edit))


def test_load_rejects_missing_ctx_tables(g1_model, tmp_path):
    path = _tampered(g1_model, tmp_path, lambda lines: [l for l in lines if not l.startswith("ctx ")])
    with pytest.raises(ModelIOError, match=r"broken\.model: missing row: ctx 0 "):
        load_model(path)


def test_load_rejects_level0_ctx_count_drift(g1_model, tmp_path):
    def edit(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("ctx 0 "))
        parts = lines[i].split()
        parts[-1] = str(int(parts[-1]) + 1)
        return lines[:i] + [" ".join(parts)] + lines[i + 1 :]

    with pytest.raises(ModelIOError, match=r"broken\.model:\d+: not one of the copied rows: ctx 0 "):
        load_model(_tampered(g1_model, tmp_path, edit))


def test_load_rejects_ctx_row_of_another_lhs(g1_model, tmp_path):
    rid = g1_model.model.grammar.rule_ids[Rule("VP-VBD,NP", (), False)]

    def edit(lines):
        assert "ctx 1 =DT =NP 0 2" in lines
        return [f"ctx 1 =DT =NP {rid} 2" if l == "ctx 1 =DT =NP 0 2" else l for l in lines]

    with pytest.raises(
        ModelIOError, match=rf"broken\.model:\d+: ctx record for rule {rid} at level 1 does not expand DT"
    ):
        load_model(_tampered(g1_model, tmp_path, edit))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("strip_punctuation", "yes", "norm field 'strip_punctuation' must be 0 or 1"),
        ("vocab_cap", "ten", "norm field 'vocab_cap' must be an integer"),
        ("vocab_cap", "0", "vocab_cap must be at least 1"),
    ],
)
def test_load_rejects_bad_norm_value(g1_model, tmp_path, field, value, message):
    def edit(lines):
        return [f"norm {field} {value}" if l.startswith(f"norm {field} ") else l for l in lines]

    with pytest.raises(ModelIOError, match=rf"broken\.model:\d+: {message}"):
        load_model(_tampered(g1_model, tmp_path, edit))


def test_load_rejects_unknown_cond_record(g1_model, tmp_path):
    path = _tampered(g1_model, tmp_path, lambda lines: lines + ["cond mystery 1"])
    with pytest.raises(ModelIOError, match=r"broken\.model:\d+: not one of the copied rows: cond mystery 1"):
        load_model(path)


def test_load_rejects_unknown_norm_field(g1_model, tmp_path):
    path = _tampered(g1_model, tmp_path, lambda lines: lines + ["norm bogus 1"])
    with pytest.raises(ModelIOError, match=r"broken\.model:\d+: not one of the copied rows: norm bogus 1"):
        load_model(path)


def test_load_rejects_unknown_grammar_record(g1_model, tmp_path):
    path = _tampered(
        g1_model, tmp_path, lambda lines: ["grammar foo TOP" if l == "grammar start TOP" else l for l in lines]
    )
    with pytest.raises(ModelIOError, match=r"broken\.model:\d+: not one of the copied rows: grammar foo TOP"):
        load_model(path)


@pytest.mark.parametrize(
    "edit, named, message",
    [
        # the first look-ahead row of the symbol, or its lap occ row when it has none
        (lambda ls: [l for l in ls if l != "lap fw NP the 2"], "lap fw NP Spot 3", "lap fw counts of NP sum to 3, not 5"),
        (lambda ls: [l for l in ls if l != "lap fp VP-VBD DT 1"], "lap occ VP-VBD 4", "lap fp counts of VP-VBD sum to 0, not 1"),
        (lambda ls: ["lap fw S the 2" if l == "lap fw S the 1" else l for l in ls], "lap fw S Spot 3", "lap fw counts of S sum to 5, not 4"),
        (lambda ls: ls + ["lap fp ZZ DT 1"], "lap fp ZZ DT 1", "lap fp counts of ZZ sum to 1, not 0"),
    ],
)
def test_load_checks_first_word_and_tag_sums(g1_model, tmp_path, edit, named, message):
    path = _tampered(g1_model, tmp_path, edit)
    with open(path, encoding="utf-8") as f:
        lineno = f.read().splitlines().index(named) + 1
    with pytest.raises(ModelIOError) as err:
        load_model(path)
    assert str(err.value) == f"{path}:{lineno}: {message} (lap occ less lap eps)"


def test_load_names_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.model"
    path.write_bytes(b"tdparse-model 1\nvocab caf\xe9\n")
    with pytest.raises(ModelIOError, match=r"latin1\.model: not UTF-8 text"):
        load_model(str(path))


NUMBER = re.compile(r"-?\d+(\.\d+)?(e[-+]?\d+)?")


@pytest.fixture(scope="module")
def g1_saved(g1_model, tmp_path_factory):
    """Saved g1 lines, the field edits (positions, values) to draw, and a scratch path.

    Numbers are replaced anywhere; any field after the first of a fixed
    protocol row (head, norm, cond conj) is rewritten."""
    path = tmp_path_factory.mktemp("fuzz") / "g1.model"
    save_model(g1_model.model, str(path))
    lines = path.read_text().splitlines()
    numeric = [(i, j) for i, l in enumerate(lines) for j, f in enumerate(l.split()) if NUMBER.fullmatch(f)]
    protocol = [
        (i, j)
        for i, l in enumerate(lines)
        if l.startswith(("head ", "norm ", "cond conj "))
        for j in range(1, len(l.split()))
    ]
    edits = {
        "replace number": (numeric, ["x", "-1", str(10**9)]),
        "rewrite field": (protocol, ["DT", "left", "right", "<end>", "0", "CC"]),
    }
    return lines, edits, path.with_name("mutated.model")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_model_raises_model_io_error_or_loads(g1_saved, data):
    lines, edits, path = g1_saved
    lines = list(lines)
    op = data.draw(st.sampled_from(["delete", "duplicate", "drop last field", *edits]))
    if op in edits:
        positions, values = edits[op]
        i, j = data.draw(st.sampled_from(positions))
        parts = lines[i].split()
        parts[j] = data.draw(st.sampled_from(values))
        lines[i] = " ".join(parts)
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = " ".join(lines[i].split()[:-1])
    path.write_text("\n".join(lines) + "\n")
    try:
        model = load_model(str(path))
    except ModelIOError as exc:
        assert str(exc).startswith(f"{path}:")
    else:
        # A model that loads is exactly what its file says: saving it writes the same text.
        resaved = path.with_name("resaved.model")
        save_model(model, str(resaved))
        assert resaved.read_text() == path.read_text()


def _count_edits(lines):
    """Every +-1 edit of a rule, ctx, lap or ngram count row's count that keeps it at least 1,
    and every deletion of a vocab row, as (description, edited lines)."""
    for i, line in enumerate(lines):
        parts = line.split()
        if parts[0] == "vocab":
            yield f"delete {line}", lines[:i] + lines[i + 1 :]
            continue
        if parts[0] == "rule":
            at = 1
        elif parts[0] in ("ctx", "lap") or parts[:2] == ["ngram", "count"]:
            at = -1
        else:
            continue
        if parts[:2] == ["lap", "k"]:
            continue
        for step in (-1, 1):
            edited = list(parts)
            edited[at] = str(int(parts[at]) + step)
            if int(edited[at]) >= 1:
                yield f"{line} -> {' '.join(edited)}", lines[:i] + [" ".join(edited)] + lines[i + 1 :]


def test_no_single_count_edit_loads(g1_saved):
    """Each copy of a count is checked against the counts it copies, so no edit of one count loads."""
    lines, _, path = g1_saved
    edits = list(_count_edits(lines))
    assert len(edits) == 463
    loaded = []
    for what, edited in edits:
        path.write_text("\n".join(edited) + "\n")
        try:
            load_model(str(path))
        except ModelIOError as exc:
            assert str(exc).startswith(f"{path}:")
        else:
            loaded.append(what)
    assert loaded == []


@pytest.mark.parametrize("depths", [(3, 2, 1), (1, 4, 3), (6, 1, 1), (0, 5, 0), (2, 0, 3)])
def test_models_at_odd_depths_load(depths, tmp_path):
    """The nesting checks hold on every fixture grammar wherever the depths cut the paths."""
    for name in ("g1.trees", "g2.trees", "g3.trees", "g4.trees", "g5.trees"):
        trees = fixture_trees(name)
        model, _ = train_parser_model(
            as_corpus(trees, "train"), as_corpus(trees, "heldout"), CondConfig(*depths), em_max_iter=2
        )
        path = tmp_path / "model"
        save_model(model, str(path))
        assert load_model(str(path)).context.tables == model.context.tables


def test_vocabulary_is_the_grammar_words_and_unk(g1_model, desk):
    g1_train = as_corpus(fixture_trees("g1.trees"), "train")
    for model, corpus in ((g1_model.model, g1_train), (desk.models["all"], desk.train)):
        assert model.vocabulary == model.grammar.vocabulary | {UNK_TOKEN}
        assert model.vocabulary == speech_normalize(corpus, model.normalization).vocabulary


# The records whose rows follow from the grammar and the fixed protocol symbols alone.
COPIED_RECORDS = (
    "norm number_token ", "norm unk_token ", "norm end_token ", "norm punct_label ", "vocab ", "grammar start ",
    "cond conj ", "head ", "ctx 0 ", "lap occ ", "lap eps ", "lap pw ", "ngram count 0 ",
)


def _edit_last_field(row):
    *fields, last = row.split()
    return " ".join(fields + [str(int(last) + 1) if last.isdigit() else "Zzz"])


@pytest.mark.parametrize("edit", ["delete", "duplicate", "edit last field"])
def test_every_copied_row_is_checked(g1_saved, edit):
    """Deleting any copied row of g1 names the row; repeating or editing it names its line."""
    lines, _, path = g1_saved
    copied = [i for i, line in enumerate(lines) if line.startswith(COPIED_RECORDS)]
    assert len(copied) == 103
    for i in copied:
        row = lines[i]
        if edit == "delete":
            edited, message = lines[:i] + lines[i + 1 :], f"{path}: missing row: {row}"
        elif edit == "duplicate":
            edited, message = lines[: i + 1] + lines[i:], f"{path}:{i + 2}: repeated row"
        else:
            changed = _edit_last_field(row)
            edited = lines[:i] + [changed] + lines[i + 1 :]
            message = f"{path}:{i + 1}: not one of the copied rows: {changed}"
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(ModelIOError) as err:
            load_model(str(path))
        assert str(err.value) == message


def test_loaded_tables_equal_the_trained_tables(desk, tmp_path):
    """The loader derives level 0 of the ctx and n-gram tables from the grammar: it must be what training counted."""
    models = list(desk.models.values())
    for name in ("g1.trees", "g2.trees", "g3.trees", "g4.trees", "g5.trees"):
        trees = fixture_trees(name)
        for order in (1, 3):
            model, _ = train_parser_model(
                as_corpus(trees, "train"), as_corpus(trees, "heldout"), ngram_order=order, em_max_iter=2
            )
            models.append(model)
    path = tmp_path / "model"
    for model in models:
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.context.tables == model.context.tables
        assert loaded.ngram.tables == model.ngram.tables


def test_a_loaded_model_and_its_parser_are_freed_by_reference_counting(desk, tmp_path):
    """A benchmark that swaps models frees the old one by reference counting alone,
    so no reference cycle may hold a model, its tables or a parser over them."""
    path = tmp_path / "desk.model"
    save_model(desk.models["all"], str(path))
    words = desk.sents[0]
    gc.disable()
    try:
        model = load_model(str(path))
        parser = BeamParser(model.grammar, model.context, model.lookahead)
        result = parser.parse(words)
        trace = word_probabilities(result, model.unigram)
        trigram = model.ngram.word_probs(words)
        assert not result.failed and len(trace.final_probs) == len(trigram) == len(words)
        owned = (model, model.grammar, model.context, model.lookahead, model.ngram, parser)
        refs = [weakref.ref(obj) for obj in owned]
        del model, parser, result, trace, owned
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
