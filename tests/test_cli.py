import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from support import FIXTURES
from tdparse.cli import EXIT_ERROR, EXIT_GARDEN_PATH, EXIT_OK, main
from tdparse.model_io import save_model
from tdparse.treebank import MAX_FACTORED_DEPTH


@pytest.fixture(scope="module")
def g1_model_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "g1.model"
    rc = main([
        "train",
        "--trees", str(FIXTURES / "g1.trees"),
        "--heldout", str(FIXTURES / "g1.trees"),
        "--out", str(out),
    ])
    assert rc == EXIT_OK
    return out


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_train_report(tmp_path, capsys):
    out = tmp_path / "m.model"
    rc, stdout, _ = _run(capsys, [
        "train",
        "--trees", str(FIXTURES / "g1.trees"),
        "--heldout", str(FIXTURES / "g1.trees"),
        "--out", str(out),
        "--conditioning", "2,2,2",
    ])
    assert rc == EXIT_OK
    assert out.exists()
    report = dict(line.split("=", 1) for line in stdout.splitlines())
    assert report["train_trees"] == "4"
    assert report["conditioning"] == "2,2,2"
    assert report["model"] == str(out)


def test_train_rejects_bad_conditioning(tmp_path, capsys):
    rc, _, stderr = _run(capsys, [
        "train",
        "--trees", str(FIXTURES / "g1.trees"),
        "--heldout", str(FIXTURES / "g1.trees"),
        "--out", str(tmp_path / "m.model"),
        "--conditioning", "1,2",
    ])
    assert rc == EXIT_ERROR
    assert "bad conditioning depths" in stderr


def test_parse_success(g1_model_path, capsys):
    rc, stdout, _ = _run(capsys, [
        "parse",
        "--model", str(g1_model_path),
        "--input", str(FIXTURES / "g1.sents"),
    ])
    assert rc == EXIT_OK
    lines = stdout.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("sent=1 status=parsed logprob=")
    assert "tree=(TOP (S (NP (NN Spot)) (VP (VBD ran)))" in lines[0]
    assert all("status=parsed" in l for l in lines)


def test_parse_garden_path_exit_code(g1_model_path, tmp_path, capsys):
    bad = tmp_path / "bad.sents"
    bad.write_text("Spot ran\nthe the\n")
    rc, stdout, _ = _run(capsys, [
        "parse",
        "--model", str(g1_model_path),
        "--input", str(bad),
    ])
    assert rc == EXIT_GARDEN_PATH
    lines = stdout.splitlines()
    assert "status=parsed" in lines[0]
    assert "sent=2 status=partial" in lines[1]


def test_parse_max_len_skips(g1_model_path, capsys):
    rc, stdout, _ = _run(capsys, [
        "parse",
        "--model", str(g1_model_path),
        "--input", str(FIXTURES / "g1.sents"),
        "--max-len", "2",
    ])
    assert rc == EXIT_OK
    assert "skipped=2" in stdout.splitlines()
    assert sum("status=parsed" in l for l in stdout.splitlines()) == 2


def test_parse_is_deterministic(g1_model_path, capsys):
    argv = ["parse", "--model", str(g1_model_path), "--input", str(FIXTURES / "g1.sents")]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_parse_missing_model(tmp_path, capsys):
    rc, _, stderr = _run(capsys, [
        "parse",
        "--model", str(tmp_path / "nope.model"),
        "--input", str(FIXTURES / "g1.sents"),
    ])
    assert rc == EXIT_ERROR
    assert stderr.startswith("error=")


def test_parse_rejects_model_without_ctx_tables(g1_model_path, tmp_path, capsys):
    broken = tmp_path / "broken.model"
    lines = g1_model_path.read_text().splitlines()
    broken.write_text("\n".join(l for l in lines if not l.startswith("ctx ")) + "\n")
    rc, stdout, stderr = _run(capsys, [
        "parse",
        "--model", str(broken),
        "--input", str(FIXTURES / "g1.sents"),
    ])
    assert rc == EXIT_ERROR
    assert stdout == ""
    assert stderr.startswith("error=") and len(stderr.splitlines()) == 1
    assert stderr.startswith(f"error={broken}: missing row: ctx 0 ")


def test_parse_names_file_and_field_of_bad_norm_value(g1_model_path, tmp_path, capsys):
    broken = tmp_path / "broken.model"
    text = g1_model_path.read_text()
    assert "norm strip_punctuation 1\n" in text
    broken.write_text(text.replace("norm strip_punctuation 1\n", "norm strip_punctuation yes\n"))
    rc, stdout, stderr = _run(capsys, [
        "parse",
        "--model", str(broken),
        "--input", str(FIXTURES / "g1.sents"),
    ])
    assert rc == EXIT_ERROR
    assert stdout == ""
    lineno = text.splitlines().index("norm strip_punctuation 1") + 1
    assert stderr == f"error={broken}:{lineno}: norm field 'strip_punctuation' must be 0 or 1\n"


@pytest.mark.parametrize(
    "line, replacement, message",
    [
        ("lap occ NP 5", ["lap occ NP"], r":\d+: not one of the copied rows: lap occ NP"),
        ("lap occ NP 5", ["lap occ NP many"], r":\d+: not one of the copied rows: lap occ NP many"),
        ("ngram order 3", ["ngram order 3", "ngram count 7 a b c d e f g w 1"], r":\d+: ngram count level 7 is outside 0\.\.2"),
        ("ngram order 3", ["ngram order 3", "ngram count -1 5"], r":\d+: ngram count level -1 is outside 0\.\.2"),
        ("ctx 2 =DT =NP _ 0 2", ["ctx 2 =DT =NP _ 0 2"] * 2, r":\d+: count below 1 or repeated count row: ctx 2 =DT =NP _ 0 2"),
        ("ctx 0 =DT 0 2", ["ctx 0 =DT 0 2"] * 2, r":\d+: repeated row"),
        ("ngram count 1 <s> Spot 3", ["ngram count 1 <s> Spot 3"] * 2, r":\d+: count below 1 or repeated count row: ngram count 1 <s> Spot 3"),
        ("lap pw DT the 2", ["lap pw DT the 2"] * 2, r":\d+: repeated row"),
        ("lap occ NP 5", ["lap occ NP 0"], r":\d+: not one of the copied rows: lap occ NP 0"),
        ("ctx 2 =DT =NP _ 0 2", ["ctx 2 =DT =NP _ 0 -2"], r":\d+: count below 1 or repeated count row: ctx 2 =DT =NP _ 0 -2"),
        ("ngram order 3", ["ngram order 3", "ngram cnt 0 Zebra 1"], r":\d+: not one of the copied rows: ngram cnt 0 Zebra 1"),
        ("ngram order 3", ["ngram order 0"], r":\d+: order must be at least 1"),
        ("lap k 5", ["lap k -1"], r":\d+: smoothing_k must be nonnegative"),
        ("rule 2 lex DT the", ["rule 0 lex DT the"], r":\d+: rule DT -> 'the has count 0"),
        ("cond config 6 5 4", ["cond config -1 5 4"], r":\d+: phrasal_depth must be nonnegative"),
        ("lap occ NP 5", ["lap occ NP 5 9"], r":\d+: not one of the copied rows: lap occ NP 5 9"),
        ("rule 2 lex DT the", ["rule 2 lex DT the x"], r":\d+: malformed line: rule 2 lex DT the x"),
        ("vocab the", ["vocab the extra"], r":\d+: not one of the copied rows: vocab the extra"),
        ("cond conj CC", ["cond conj CC DT"], r":\d+: not one of the copied rows: cond conj CC DT"),
        ("norm unk_token <unk>", ["norm unk_token <unk> x"], r":\d+: not one of the copied rows: norm unk_token <unk> x"),
        ("ctx 2 =DT =NP _ 0 2", ["ctx 2 =DT =NP _ 0 2 7"], r":\d+: malformed line: ctx 2 =DT =NP _ 0 2 7"),
        ("ngram count 1 <s> Spot 3", ["ngram count 1 <s> Spot 3 1"], r":\d+: malformed line: ngram count 1 <s> Spot 3 1"),
        ("head TOP left", ["head TOP rigth"], r":\d+: not one of the copied rows: head TOP rigth"),
        ("lap occ NP 5", ["lap occ NP 6"], r":\d+: not one of the copied rows: lap occ NP 6"),
        ("lap pw DT the 2", ["lap pw DT the 3"], r":\d+: not one of the copied rows: lap pw DT the 3"),
        ("lap eps NP-NN 3", [], r": missing row: lap eps NP-NN 3"),
        ("lap fw NP the 2", [], r":\d+: lap fw counts of NP sum to 3, not 5 \(lap occ less lap eps\)"),
        ("norm end_token </s>", ["norm end_token </s>", "norm bogus 1"], r":\d+: not one of the copied rows: norm bogus 1"),
        ("grammar start TOP", ["grammar foo TOP"], r":\d+: not one of the copied rows: grammar foo TOP"),
        ("clam left 1 2 0.6184705764424331", ["clam left 1 2 5.0"], r":\d+: interpolation weight 5\.0 is not in \[0, 1\)"),
        ("clam left 1 2 0.6184705764424331", ["clam left 1 2 inf"], r":\d+: interpolation weight inf is not in \[0, 1\)"),
        ("clam left 1 2 0.6184705764424331", ["clam left 1 2 nan"], r":\d+: interpolation weight nan is not in \[0, 1\)"),
        ("clam left 1 2 0.6184705764424331", ["clam left 1 2 -3.0"], r":\d+: interpolation weight -3\.0 is not in \[0, 1\)"),
        ("clam left 1 2 0.6184705764424331", ["clam left 1 2 1.0"], r":\d+: interpolation weight 1\.0 is not in \[0, 1\)"),
        ("clam left 1 2 0.6184705764424331", ["clam left 1 2 half"], r":\d+: malformed line: clam left 1 2 half"),
        ("clam left 1 2 0.6184705764424331", ["clam lfet 1 2 0.5"], r":\d+: unknown clam path 'lfet'"),
        ("clam left 1 2 0.6184705764424331", ["clam left 1 2 0.6184705764424331", "clam left 1 2 0.5"], r":\d+: repeated interpolation weight row"),
        ("ngram lam 1 2 0.999999", ["ngram lam 1 2 5.0"], r":\d+: interpolation weight 5\.0 is not in \[0, 1\)"),
        ("ngram lam 1 2 0.999999", ["ngram lam 1 2 inf"], r":\d+: interpolation weight inf is not in \[0, 1\)"),
        ("ngram lam 1 2 0.999999", ["ngram lam 1 2 nan"], r":\d+: interpolation weight nan is not in \[0, 1\)"),
        ("ngram lam 1 2 0.999999", ["ngram lam 1 2 -3.0"], r":\d+: interpolation weight -3\.0 is not in \[0, 1\)"),
        ("ngram lam 1 2 0.999999", ["ngram lam 1 2 0.999999"] * 2, r":\d+: repeated interpolation weight row"),
        # weight keys a path or the n-gram order never reads
        ("clam left 1 1 0.999999", ["clam left 1 1 0.999999", "clam left 9 9 0.5"], r":\d+: clam level 9 is outside 1\.\.6"),
        ("clam left 1 1 0.999999", ["clam left 1 1 0.999999", "clam right 0 3 0.5"], r":\d+: clam level 0 is outside 1\.\.4"),
        ("clam left 1 1 0.999999", ["clam left 1 1 0.999999", "clam middle 1 7 0.5"], r":\d+: clam bucket 7 is outside 0\.\.5"),
        ("ngram lam 1 2 0.999999", ["ngram lam 1 2 0.999999", "ngram lam 3 1 0.5"], r":\d+: ngram lam level 3 is outside 1\.\.2"),
        ("ngram lam 1 2 0.999999", ["ngram lam 1 2 0.999999", "ngram lam 0 1 0.5"], r":\d+: ngram lam level 0 is outside 1\.\.2"),
        # the fixed protocol rows
        ("head NP right NN NNP NNPS NNS NX POS JJR N NP PRP CD JJ", ["head NP left DT"], r":\d+: not one of the copied rows: head NP left DT"),
        ("norm end_token </s>", ["norm end_token <end>"], r":\d+: not one of the copied rows: norm end_token <end>"),
        ("cond conj CC", ["cond conj DT"], r":\d+: not one of the copied rows: cond conj DT"),
        ("head S left VP S SBAR SINV ADJP UCP NP", [], r": missing row: head S left VP S SBAR SINV ADJP UCP NP"),
        ("norm punct_label .", [], r": missing row: norm punct_label \."),
        ("norm punct_label .", ["norm punct_label ."] * 2, r":\d+: repeated row"),
        ("head TOP left", ["head TOP left"] * 2, r":\d+: repeated row"),
        # records a model file holds once
        ("norm strip_punctuation 1", ["norm strip_punctuation 1", "norm strip_punctuation 0"], r":\d+: repeated row"),
        ("norm vocab_cap 10000", ["norm vocab_cap 10000"] * 2, r":\d+: repeated row"),
        ("grammar start TOP", ["grammar start TOP", "grammar start S"], r":\d+: not one of the copied rows: grammar start S"),
        ("cond config 6 5 4", ["cond config 6 5 4"] * 2, r":\d+: repeated row"),
        ("lap k 5", ["lap k 5", "lap k 50"], r":\d+: repeated row"),
        ("ngram order 3", ["ngram order 3"] * 2, r":\d+: repeated row"),
        ("rule 2 lex DT the", ["rule 2 lex DT the", "rule 3 lex DT the"], r":\d+: repeated row"),
        ("vocab the", ["vocab the"] * 2, r":\d+: repeated row"),
        ("lap k 5", [], r": missing row: lap k"),
        ("cond config 6 5 4", ["cond config 7 5 4"], r":\d+: phrasal_depth 7 is above its path's maximum 6"),
        # copies of the grammar's words and counts
        ("vocab Spot", [], r": missing row: vocab Spot"),
        ("vocab Spot", ["vocab Spot", "vocab Rex"], r":\d+: not one of the copied rows: vocab Rex"),
        ("ctx 1 =NP =S 4 1", ["ctx 1 =NP =S 4 100"], r":\d+: ctx 1 =NP =S counts sum to 103, not the 4 of its level-2 rows"),
        ("ngram count 1 Spot ran 2", ["ngram count 1 Spot ran 50"], r":\d+: ngram count 1 Spot counts sum to 51, not the 3 of its level-2 rows"),
        ("ngram count 0 ran 3", ["ngram count 0 ran 30"], r":\d+: not one of the copied rows: ngram count 0 ran 30"),
        ("ngram count 0 ran 3", [], r": missing row: ngram count 0 ran 3"),
        ("ngram order 3", ["ngram order 3", "ngram count 2 Spot Rex ran 1"], r":\d+: ngram count 2 Spot Rex has no level-1 row to refine"),
        ("ctx 4 =NN =NP =DT =the =chased 2 1", ["ctx 4 =NN =NP =DT =the =chased 2 1", "ctx 5 =NN =NP =DT =the =chased _ 2 5"],
         r":\d+: ctx 4 =NN =NP =DT =the =chased counts sum to 1, below the 5 of its level-5 rows"),
        ("ctx 4 =NN =NP =DT =the =chased 2 1", ["ctx 4 =NN =NP =DT =the =chased 2 1", "ctx 5 =NN =NP =DT =the =chased _ 2 1"],
         r":\d+: ctx 5 =NN =NP =DT =the =chased _ is deeper than its path's depth, so no score reads it"),
        ("ctx 5 =NN =NP _ =S _ _ 1 3", ["ctx 5 =NN =NP _ =S _ _ 1 3", "ctx 6 =NN =NP _ =S _ _ _ 1 3"],
         r":\d+: ctx 6 =NN =NP _ =S _ _ _ is deeper than its path's depth, so no score reads it"),
        # rows that name a word, tag or symbol the grammar lacks
        ("lap fw NP Spot 3", ["lap fw NP Zzz 3"], r":\d+: lap fw NP Zzz: Zzz is not a grammar word"),
        ("lap fp NP NN 3", ["lap fp NP QQ 3"], r":\d+: lap fp NP QQ: QQ is not a preterminal"),
        ("ctx 4 =NN =NP =DT =the =chased 2 1", ["ctx 4 =NN =NP =DT =the =Zzz 2 1"],
         r":\d+: ctx 4 =NN =NP =DT =the =Zzz: Zzz is not a grammar symbol or word"),
        # a level is routed by its value: a level written 00 is a copied level-0 row
        ("ctx 0 =DT 0 2", ["ctx 00 =DT 0 2"], r":\d+: not one of the copied rows: ctx 00 =DT 0 2"),
        ("ngram count 0 ran 3", ["ngram count 00 ran 3"], r":\d+: not one of the copied rows: ngram count 00 ran 3"),
        # values read from one row name that row
        ("norm strip_punctuation 1", ["norm strip_punctuation 2"], r":\d+: norm field 'strip_punctuation' must be 0 or 1"),
        ("norm vocab_cap 10000", ["norm vocab_cap ten"], r":\d+: norm field 'vocab_cap' must be an integer"),
        ("norm vocab_cap 10000", ["norm vocab_cap 0"], r":\d+: vocab_cap must be at least 1"),
        ("ctx 1 =NP =S 4 1", ["ctx 1 =NP =S 999 1"], r":\d+: ctx record for rule 999 at level 1 is out of range"),
        ("ctx 1 =NP =S 4 1", ["ctx 1 =NP =S 0 1"], r":\d+: ctx record for rule 0 at level 1 does not expand NP"),
        # the start symbol is fixed
        ("grammar start TOP", ["grammar start NP-DT"], r":\d+: not one of the copied rows: grammar start NP-DT"),
        # rows a save never writes: a start token inside a history, a bucket-0 weight other than 0
        ("ngram count 2 <s> <s> the 1", ["ngram count 2 <unk> <s> the 1"], r":\d+: ngram history <unk> <s> has <s> after another token"),
        ("clam middle 1 3 0.49999999834919095", ["clam middle 1 0 0.49999999834919095"],
         r":\d+: clam bucket 0 has weight 0\.49999999834919095, not 0"),
        ("ngram lam 1 2 0.999999", ["ngram lam 1 0 0.999999"], r":\d+: ngram lam bucket 0 has weight 0\.999999, not 0"),
    ],
)
def test_parse_names_file_of_bad_model(g1_model_path, tmp_path, capsys, line, replacement, message):
    lines = g1_model_path.read_text().splitlines()
    i = lines.index(line)
    broken = tmp_path / "broken.model"
    broken.write_text("\n".join(lines[:i] + replacement + lines[i + 1 :]) + "\n")
    rc, stdout, stderr = _run(capsys, [
        "parse",
        "--model", str(broken),
        "--input", str(FIXTURES / "g1.sents"),
    ])
    assert rc == EXIT_ERROR
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert re.fullmatch(re.escape(f"error={broken}") + message + "\n", stderr)


def test_parse_rejects_desk_model_without_lap_eps_rows(desk, tmp_path, capsys):
    saved = tmp_path / "desk.model"
    save_model(desk.models["all"], str(saved))
    lines = saved.read_text().splitlines()
    kept = [l for l in lines if not l.startswith("lap eps ")]
    assert len(lines) - len(kept) == 13
    broken = tmp_path / "broken.model"
    broken.write_text("\n".join(kept) + "\n")
    rc, stdout, stderr = _run(capsys, [
        "parse",
        "--model", str(broken),
        "--input", str(FIXTURES / "g1.sents"),
    ])
    assert rc == EXIT_ERROR
    assert stdout == ""
    first = next(l for l in lines if l.startswith("lap eps "))
    assert stderr == f"error={broken}: missing row: {first}\n"


@pytest.mark.parametrize("flag", ["--base-beam", "--lap-floor"])
def test_parse_rejects_nan_beam_settings(g1_model_path, capsys, flag):
    rc, stdout, stderr = _run(capsys, [
        "parse", "--model", str(g1_model_path), "--input", str(FIXTURES / "g1.sents"), flag, "nan",
    ])
    assert rc == EXIT_ERROR
    assert stdout == ""
    assert stderr.startswith("error=") and len(stderr.splitlines()) == 1
    assert flag[2:].replace("-", "_") in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--model", "{model}", "--input", "{bad}"],
        ["ppl", "--model", "{model}", "--input", "{bad}"],
        ["eval", "--model", "{model}", "--gold", "{bad}"],
        ["train", "--trees", "{bad}", "--heldout", "{bad}", "--out", "{out}"],
    ],
)
def test_input_that_is_not_utf8_names_the_file(g1_model_path, tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"(S (NP (NN caf\xe9)) (VP (VBD ran)))\n")
    argv = [a.format(bad=bad, model=g1_model_path, out=tmp_path / "m") for a in argv]
    rc, stdout, stderr = _run(capsys, argv)
    assert rc == EXIT_ERROR
    assert stdout == ""
    assert stderr == f"error={bad}: not UTF-8 text (invalid continuation byte)\n"


def test_exact_parse_rejects_left_recursive_grammar(tmp_path, capsys):
    trees = tmp_path / "lr.trees"
    trees.write_text(
        "(S (NP (NP (NN dog)) (PP (IN of) (NP (NN Spot)))) (VP (VBD ran)))\n"
        "(S (NP (NN Spot)) (VP (VBD ran)))\n"
    )
    sents = tmp_path / "lr.sents"
    sents.write_text("Spot ran\n")
    model = tmp_path / "lr.model"
    rc, _, _ = _run(capsys, [
        "train", "--trees", str(trees), "--heldout", str(trees), "--out", str(model),
    ])
    assert rc == EXIT_OK
    rc, stdout, stderr = _run(capsys, [
        "parse", "--model", str(model), "--input", str(sents), "--base-beam", "0",
    ])
    assert rc == EXIT_ERROR
    assert stdout == ""
    assert stderr.startswith("error=") and len(stderr.splitlines()) == 1
    assert "'NP' is its own left corner" in stderr
    rc, stdout, _ = _run(capsys, [
        "parse", "--model", str(model), "--input", str(sents),
    ])
    assert rc == EXIT_OK
    assert "status=parsed" in stdout


def test_ppl_report(g1_model_path, capsys):
    rc, stdout, _ = _run(capsys, [
        "ppl",
        "--model", str(g1_model_path),
        "--input", str(FIXTURES / "g1.sents"),
    ])
    assert rc == EXIT_OK
    report = dict(line.split("=", 1) for line in stdout.splitlines())
    assert report["sentences"] == "4"
    assert report["words"] == "15"
    assert report["failed_sentences"] == "0"
    assert report["fallback_words"] == "0"
    assert float(report["parser_ppl"]) > 1.0
    assert float(report["trigram_ppl"]) > 1.0
    assert float(report["mixed_ppl"]) > 1.0
    assert report["trigram_share"] == "0.36"


def test_ppl_empty_input(g1_model_path, tmp_path, capsys):
    empty = tmp_path / "empty.sents"
    empty.write_text("\n")
    rc, _, stderr = _run(capsys, [
        "ppl",
        "--model", str(g1_model_path),
        "--input", str(empty),
    ])
    assert rc == EXIT_ERROR
    assert "no sentences" in stderr


def test_eval_report(g1_model_path, capsys):
    rc, stdout, _ = _run(capsys, [
        "eval",
        "--model", str(g1_model_path),
        "--gold", str(FIXTURES / "g1.trees"),
    ])
    assert rc == EXIT_OK
    report = dict(line.split("=", 1) for line in stdout.splitlines())
    # the model was trained on these trees; it must reproduce them
    assert report["labeled_recall"] == "100.00"
    assert report["labeled_precision"] == "100.00"
    assert report["exact_match_pct"] == "100.00"
    assert report["failure_pct"] == "0.00"
    assert int(report["total_pops"]) > 0
    assert float(report["avg_pops_per_word"]) > 0.0


def test_eval_max_len(g1_model_path, capsys):
    rc, stdout, _ = _run(capsys, [
        "eval",
        "--model", str(g1_model_path),
        "--gold", str(FIXTURES / "g1.trees"),
        "--max-len", "2",
    ])
    assert rc == EXIT_OK
    assert dict(l.split("=", 1) for l in stdout.splitlines())["sentences"] == "2"


def test_eval_and_parse_read_a_number_alike(tmp_path, capsys):
    # Capped at four words, g1 keeps no number token, so 42 becomes <unk> on both paths.
    model = tmp_path / "g1cap4.model"
    rc, _, _ = _run(capsys, [
        "train",
        "--trees", str(FIXTURES / "g1.trees"),
        "--heldout", str(FIXTURES / "g1.trees"),
        "--out", str(model),
        "--vocab-cap", "4",
    ])
    assert rc == EXIT_OK
    assert "vocab N" not in model.read_text().splitlines()
    gold = tmp_path / "gold.trees"
    gold.write_text("(S (NP (NN Spot)) (VP (VBD chased) (NP (DT the) (CD 42))))\n")
    rc, stdout, _ = _run(capsys, ["eval", "--model", str(model), "--gold", str(gold)])
    assert rc == EXIT_OK
    assert dict(line.split("=", 1) for line in stdout.splitlines())["failure_pct"] == "0.00"
    sents = tmp_path / "gold.sents"
    sents.write_text("Spot chased the 42\n")
    rc, stdout, _ = _run(capsys, ["parse", "--model", str(model), "--input", str(sents)])
    assert rc == EXIT_OK
    assert stdout.startswith("sent=1 status=parsed ")


@pytest.mark.parametrize("role", ["train", "heldout"])
def test_train_names_the_tree_normalization_empties(tmp_path, capsys, role):
    emptied = tmp_path / "p.trees"
    emptied.write_text("(S (NP (NN Spot)) (VP (VBD ran)))\n(S (. .))\n")
    g1 = FIXTURES / "g1.trees"
    trees, heldout = (emptied, g1) if role == "train" else (g1, emptied)
    rc, stdout, stderr = _run(capsys, [
        "train", "--trees", str(trees), "--heldout", str(heldout), "--out", str(tmp_path / "m.model"),
    ])
    assert rc == EXIT_ERROR
    assert stdout == ""
    assert stderr == f"error={role} tree 2: normalization emptied the yield\n"


@pytest.mark.parametrize("name", ["g1", "g2"])
def test_oracle_check(name, capsys):
    rc, stdout, _ = _run(capsys, [
        "oracle-check",
        "--trees", str(FIXTURES / f"{name}.trees"),
        "--sentences", str(FIXTURES / f"{name}.sents"),
    ])
    assert rc == EXIT_OK
    lines = stdout.splitlines()
    assert lines[-1] == "summary=ok"
    assert all("ok=yes" in l for l in lines[:-1])
    assert all("derivations=match" in l for l in lines[:-1])


def _error_only(rc, stdout, stderr, match):
    """Exit 1 with one ``error=`` line and no report."""
    assert rc == EXIT_ERROR
    assert stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error=")
    assert re.search(match, stderr)


@pytest.mark.parametrize("steps, match", [("3", "budget exhausted"), ("0", "max_steps must be positive")])
def test_oracle_check_budget_is_an_error(steps, match, capsys):
    rc, stdout, stderr = _run(capsys, [
        "oracle-check",
        "--trees", str(FIXTURES / "g1.trees"),
        "--sentences", str(FIXTURES / "g1.sents"),
        "--max-steps", steps,
    ])
    _error_only(rc, stdout, stderr, match)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_oracle_check_rejects_bad_rel_tol(tol, capsys):
    rc, stdout, stderr = _run(capsys, [
        "oracle-check",
        "--trees", str(FIXTURES / "g1.trees"),
        "--sentences", str(FIXTURES / "g1.sents"),
        "--rel-tol", tol,
    ])
    _error_only(rc, stdout, stderr, "--rel-tol must be finite and nonnegative")


@pytest.mark.parametrize("argv", [
    ["parse", "--input", str(FIXTURES / "g1.sents")],
    ["ppl", "--input", str(FIXTURES / "g1.sents")],
    ["eval", "--gold", str(FIXTURES / "g1.trees")],
])
def test_negative_max_len_is_rejected(argv, g1_model_path, capsys):
    rc, stdout, stderr = _run(capsys, argv + ["--model", str(g1_model_path), "--max-len", "-1"])
    _error_only(rc, stdout, stderr, "--max-len must be nonnegative")


@pytest.mark.parametrize("argv, match", [
    (["train", "--trees", "{trees}", "--heldout", "{trees}", "--out", "{out}", "--vocab-cap", "abc"],
     r"^error=tdparse train: argument --vocab-cap: invalid int value: 'abc'$"),
    (["train", "--trees", "{trees}", "--heldout", "{trees}", "--out", "{out}", "--conditioning", "-1,0,0"],
     r"^error=tdparse train: argument --conditioning: expected one argument$"),
    (["parse", "--input", "{sents}"], r"^error=tdparse parse: the following arguments are required: --model$"),
    (["parse", "--model", "{out}", "--input", "{sents}", "--bogus"], r"^error=tdparse: unrecognized arguments: --bogus$"),
    (["frobnicate"], r"^error=tdparse: argument command: invalid choice: 'frobnicate'"),
    ([], r"^error=tdparse: the following arguments are required: command$"),
])
def test_rejected_flags_are_one_error(tmp_path, capsys, argv, match):
    argv = [a.format(trees=FIXTURES / "g1.trees", sents=FIXTURES / "g1.sents", out=tmp_path / "m") for a in argv]
    rc, stdout, stderr = _run(capsys, argv)
    _error_only(rc, stdout, stderr, match)
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("argv", [["--help"], ["parse", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: tdparse" in capsys.readouterr().out


def test_lap_floor_above_one_is_refused(g1_model_path, capsys):
    argv = ["ppl", "--model", str(g1_model_path), "--input", str(FIXTURES / "g1.sents")]
    rc, stdout, stderr = _run(capsys, argv + ["--lap-floor", "5"])
    _error_only(rc, stdout, stderr, r"lap_floor must be in \[0, 1\]")
    rc, _, stderr = _run(capsys, argv + ["--lap-floor", "1"])
    assert rc == EXIT_OK and stderr == ""


def _nested_tree(depth: int, shape: str) -> str:
    """A tree whose left-factored form nests ``depth`` nonterminals deep."""
    if shape == "deep":
        return "(S " * (depth - 1) + "(NN x)" + ")" * (depth - 1)
    return "(S " + " ".join(["(NN x)"] * (depth - 1)) + ")"


@pytest.mark.parametrize("shape", ["deep", "wide"])
def test_tree_at_the_depth_limit_trains_and_evaluates(tmp_path, capsys, shape):
    trees = tmp_path / "limit.trees"
    trees.write_text(_nested_tree(MAX_FACTORED_DEPTH, shape) + "\n")
    model = tmp_path / "limit.model"
    rc, _, stderr = _run(capsys, ["train", "--trees", str(trees), "--heldout", str(trees), "--out", str(model)])
    assert (rc, stderr) == (EXIT_OK, "")
    rc, stdout, stderr = _run(capsys, ["eval", "--model", str(model), "--gold", str(trees), "--max-pops", "200"])
    assert (rc, stderr) == (EXIT_OK, "")
    assert "sentences=1" in stdout.splitlines()


@pytest.mark.parametrize("shape", ["deep", "wide"])
def test_tree_past_the_depth_limit_is_one_error(g1_model_path, tmp_path, capsys, shape):
    trees = tmp_path / "over.trees"
    trees.write_text((FIXTURES / "g1.trees").read_text() + _nested_tree(MAX_FACTORED_DEPTH + 1, shape) + "\n")
    expected = f"error={trees}:5: tree nests more than {MAX_FACTORED_DEPTH} levels deep once left-factored\n"
    for argv in (
        ["train", "--trees", str(trees), "--heldout", str(FIXTURES / "g1.trees"), "--out", str(tmp_path / "m")],
        ["eval", "--model", str(g1_model_path), "--gold", str(trees)],
    ):
        rc, stdout, stderr = _run(capsys, argv)
        assert (rc, stdout, stderr) == (EXIT_ERROR, "", expected)


_DEPTHS = (2, 3, MAX_FACTORED_DEPTH - 1, MAX_FACTORED_DEPTH, MAX_FACTORED_DEPTH + 1)


def _mutated_tree_file(draw, tmp_path, depths=_DEPTHS) -> str:
    """g1 trees with lines deleted or duplicated, brackets dropped, or deep or wide trees added."""
    lines = (FIXTURES / "g1.trees").read_text().splitlines()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["delete", "duplicate", "drop_bracket", "deep", "wide"]))
        if kind in ("delete", "duplicate", "drop_bracket") and not lines:
            continue
        if kind == "delete":
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif kind == "duplicate":
            lines.append(lines[draw(st.integers(0, len(lines) - 1))])
        elif kind == "drop_bracket":
            i = draw(st.integers(0, len(lines) - 1))
            spots = [j for j, ch in enumerate(lines[i]) if ch in "()"]
            j = draw(st.sampled_from(spots))
            lines[i] = lines[i][:j] + lines[i][j + 1 :]
        else:
            depth = draw(st.sampled_from(depths))
            lines.append(_nested_tree(depth, kind))
    path = tmp_path / f"fuzz{draw(st.integers(0, 10**9))}.trees"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


_CONDITIONING = ["all", "none", "par+sib", "bogus", "2,2,2", "0,0,0", "9,9,9", "-1,0,0", "1,2", "a,b,c"]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_train_fuzz_ends_in_a_model_or_one_error(tmp_path, capsys, data):
    trees = _mutated_tree_file(data.draw, tmp_path)
    heldout = data.draw(st.sampled_from([trees, str(FIXTURES / "g1.trees")]))
    argv = ["train", "--trees", trees, "--heldout", heldout, "--out", str(tmp_path / "fuzz.model")]
    for flag, values in (
        ("--vocab-cap", st.integers(-1, 8)),
        ("--lookahead-k", st.integers(-1, 6)),
        ("--ngram-order", st.integers(-1, 4)),
        ("--conditioning", st.sampled_from(_CONDITIONING)),
    ):
        if data.draw(st.booleans()):
            argv.append(f"{flag}={data.draw(values)}")
    rc, stdout, stderr = _run(capsys, argv)
    assert rc in (EXIT_OK, EXIT_ERROR)
    if rc == EXIT_OK:
        assert stderr == "" and stdout.endswith(f"model={tmp_path / 'fuzz.model'}\n")
    else:
        _error_only(rc, stdout, stderr, "")


def _mutated_sentence_file(draw, tmp_path) -> str:
    """g1 sentences with lines or tokens deleted or duplicated, unknown words, blank or non-UTF-8 lines."""
    lines = (FIXTURES / "g1.sents").read_bytes().splitlines()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["delete", "duplicate", "drop_token", "repeat_token", "unknown", "blank", "latin1"]))
        if kind in ("blank", "latin1") or not lines:
            lines.insert(draw(st.integers(0, len(lines))), b"" if kind == "blank" else b"caf\xe9 ran")
            continue
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        j = draw(st.integers(0, max(len(toks) - 1, 0)))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.append(lines[i])
        elif kind == "drop_token":
            lines[i] = b" ".join(toks[:j] + toks[j + 1 :])
        elif kind == "repeat_token":
            lines[i] = b" ".join(toks[: j + 1] + toks[j:])
        else:
            lines[i] = b" ".join(toks[:j] + [b"zebra"] + toks[j:])
    path = tmp_path / f"fuzz{draw(st.integers(0, 10**9))}.sents"
    path.write_bytes(b"\n".join(lines) + b"\n")
    return str(path)


_BEAM_FLAGS = [
    ("--base-beam", ["1e-11", "1e-3", "0", "0.5", "1", "-1", "nan", "inf", "x"]),
    ("--max-pops", ["1", "20", "10000", "0", "-5", "1.5", "x"]),
    ("--lap-floor", ["1e-10", "0", "1", "1.5", "-0.1", "nan", "x"]),
    ("--max-len", ["0", "1", "3", "-1", "x"]),
]
_PPL_FLAGS = [("--trigram-share", ["0.36", "0", "1", "1.5", "-0.1", "nan", "x"])]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_parse_ppl_eval_fuzz_end_in_a_report_or_one_error(g1_model_path, tmp_path, capsys, data):
    command = data.draw(st.sampled_from(["parse", "ppl", "eval"]))
    if command == "eval":
        # Trees at the depth limit parse in full and are slow; past it they are one error.
        inputs = ["--gold", _mutated_tree_file(data.draw, tmp_path, depths=(2, 3, MAX_FACTORED_DEPTH + 1))]
    else:
        inputs = ["--input", _mutated_sentence_file(data.draw, tmp_path)]
    argv = [command, "--model", str(g1_model_path)] + inputs
    for flag, values in _BEAM_FLAGS + (_PPL_FLAGS if command == "ppl" else []):
        if data.draw(st.booleans()):
            argv += [flag, data.draw(st.sampled_from(values))]
    if data.draw(st.integers(0, 9)) == 0:
        del argv[data.draw(st.integers(1, len(argv) - 1))]
    rc, stdout, stderr = _run(capsys, argv)
    assert rc in (EXIT_OK, EXIT_ERROR, EXIT_GARDEN_PATH)
    if rc == EXIT_ERROR:
        _error_only(rc, stdout, stderr, "")
    else:
        assert stderr == "" and stdout


@pytest.mark.parametrize("command", ["parse", "ppl"])
@pytest.mark.parametrize("token", ["</s>", "<unk>"])
def test_reserved_token_in_input_names_file_and_line(g1_model_path, tmp_path, capsys, command, token):
    sents = tmp_path / "reserved.sents"
    sents.write_text(f"Spot ran\n\nthe dog {token} ran\n")
    rc, stdout, stderr = _run(capsys, [command, "--model", str(g1_model_path), "--input", str(sents)])
    assert (rc, stdout) == (EXIT_ERROR, "")
    assert stderr == f"error={sents}:3: reserved token {token!r} in input sentence\n"


@pytest.mark.parametrize("marker", ["</s>", "<eps>"])
def test_marker_in_a_tree_file_names_file_and_line(g1_model_path, tmp_path, capsys, marker):
    trees = tmp_path / "marked.trees"
    trees.write_text((FIXTURES / "g1.trees").read_text() + f"(S (NP (NN Spot))\n (VP (NN {marker})))\n")
    expected = f"error={trees}:6: reserved token {marker!r} in a tree\n"
    g1 = str(FIXTURES / "g1.trees")
    for argv in (
        ["train", "--trees", str(trees), "--heldout", g1, "--out", str(tmp_path / "m")],
        ["train", "--trees", g1, "--heldout", str(trees), "--out", str(tmp_path / "m")],
        ["eval", "--model", str(g1_model_path), "--gold", str(trees)],
    ):
        rc, stdout, stderr = _run(capsys, argv)
        assert (rc, stdout, stderr) == (EXIT_ERROR, "", expected)


def test_train_rejects_depths_above_the_path_maxima(tmp_path, capsys):
    out = tmp_path / "m.model"
    rc, stdout, stderr = _run(capsys, [
        "train",
        "--trees", str(FIXTURES / "g1.trees"),
        "--heldout", str(FIXTURES / "g1.trees"),
        "--out", str(out),
        "--conditioning", "9,9,9",
    ])
    assert (rc, stdout) == (EXIT_ERROR, "")
    assert stderr == "error=phrasal_depth 9 is above its path's maximum 6\n"
    assert not out.exists()
