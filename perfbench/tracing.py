"""Spans and counters at the library's module boundaries, for the traced run.

Nothing inside ``src/tdparse`` is instrumented.  ``Tracer.installed``
replaces public functions where they are looked up (module attributes
and class methods) with wrappers and restores them on exit:

* one span per op (``op``), with child spans for every
  ``BeamParser.advance``/``finish`` call and every training stage; spans
  of one op share its id;
* fine-grained calls (``ContextModel.scorer``, the closure it returns,
  ``LookaheadTables.stack_prob``, ``apply_rule`` as the parser uses it,
  the per-sentence language-model and PARSEVAL calls) get no span of
  their own: their count and total time add to the innermost open span,
  so memory grows with spans, not with calls.

A span's self time is its duration minus the time its aggregated
children cover.  ``layer_metrics`` turns the spans into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

from tdparse import conditioning, evaluation, langmodel, lookahead, model_io, parser

SCORER = "conditioning.scorer"
SCORE = "conditioning.score"
STACK_PROB = "lookahead.stack_prob"
APPLY_RULE = "conditioning.apply_rule"
SEARCH_SPANS = ("parser.advance", "parser.finish")


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "agg", "counts")

    def __init__(self, name: str, op: int, parent: "Span | None"):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = perf_counter()
        self.end = self.start
        self.agg: dict[str, list] = {}        # name -> [calls, seconds]
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(t for _, t in self.agg.values())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.open: list[Span] = []
        self.op_id = 0
        self.word = None          # the word the running advance consumes

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(name, self.op_id, self.open[-1] if self.open else None)
        self.spans.append(s)
        self.open.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self.open.pop()

    def op(self):
        self.op_id += 1
        return self.span("op")

    def add(self, name: str, seconds: float) -> None:
        entry = self.open[-1].agg.get(name)
        if entry is None:
            self.open[-1].agg[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def count(self, name: str, n: float = 1) -> None:
        counts = self.open[-1].counts
        counts[name] = counts.get(name, 0) + n

    # -- wrappers ----------------------------------------------------------

    def _aggregated(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, perf_counter() - t0)
        return wrapper

    def _spanned(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
        return wrapper

    def _search(self, name: str, fn):
        tracer = self

        def wrapper(beam, entries, *rest):
            saved = tracer.word
            tracer.word = rest[0] if rest else None
            try:
                with tracer.span(name):
                    found, pops, pushes = fn(beam, entries, *rest)
                    tracer.count("pops", pops)
                    tracer.count("pushes", pushes)
                    tracer.count("budget", int(pops >= beam.config.max_pops))
            finally:
                tracer.word = saved
            return found, pops, pushes
        return wrapper

    def _scorer(self, fn):
        tracer = self

        def scorer(context, spine, lhs):
            t0 = perf_counter()
            inner = fn(context, spine, lhs)
            tracer.add(SCORER, perf_counter() - t0)
            depth = 0
            node = spine
            while node is not None:
                depth += 1
                node = node.parent
            tracer.count("spine_depth", depth)
            rules = context.grammar.rules

            def score(rid):
                t1 = perf_counter()
                lp = inner(rid)
                tracer.add(SCORE, perf_counter() - t1)
                rule = rules[rid]
                if rule.lexical:
                    tracer.count("lexical_scored")
                    if rule.rhs[0] == tracer.word:
                        tracer.count("lexical_useful")
                return lp
            return score
        return scorer

    def _events(self, fn):
        tracer = self

        def tune_interpolation(events, *args, **kwargs):
            tracer.count("em_events", len(events))
            tracer.count("em_distinct_events", len({(p0, tuple(lv)) for p0, lv in events}))
            return fn(events, *args, **kwargs)
        return tune_interpolation

    def _iterations(self, args, history) -> None:
        self.count("iterations", len(history))

    def _parse(self, fn):
        def parse(beam, words):
            result = fn(beam, words)
            self.count("parses")
            self.count("partial", int(result.failed))
            return result
        return parse

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block."""
        Beam = parser.BeamParser
        Context = conditioning.ContextModel
        Tables = lookahead.LookaheadTables
        Ngram = langmodel.NgramModel
        build = Tables.__dict__["from_trees"].__func__
        patches = [
            (Beam, "advance", self._search("parser.advance", Beam.advance)),
            (Beam, "finish", self._search("parser.finish", Beam.finish)),
            (Beam, "parse", self._parse(Beam.parse)),
            (Context, "scorer", self._scorer(Context.scorer)),
            (parser, "apply_rule", self._aggregated(APPLY_RULE, parser.apply_rule)),
            (Tables, "stack_prob", self._aggregated(STACK_PROB, Tables.stack_prob)),
            (model_io, "prepare_trees", self._aggregated("treebank.prepare", model_io.prepare_trees)),
            (langmodel, "word_probabilities", self._aggregated("langmodel.lm", langmodel.word_probabilities)),
            (Ngram, "word_probs", self._aggregated("langmodel.lm", Ngram.word_probs)),
            (langmodel, "mixed_probs", self._aggregated("langmodel.lm", langmodel.mixed_probs)),
            (evaluation, "score_pair", self._aggregated("evaluation.score", evaluation.score_pair)),
            # training stages
            (model_io, "speech_normalize", self._aggregated("treebank.normalize", model_io.speech_normalize)),
            (model_io, "left_factor_tree", self._aggregated("grammar.factor", model_io.left_factor_tree)),
            (model_io, "induce_pcfg", self._spanned("grammar.induce", model_io.induce_pcfg)),
            (Context, "train_counts", self._spanned("conditioning.count", Context.train_counts)),
            (Context, "tune_mix_weights", self._spanned("conditioning.em", Context.tune_mix_weights, self._iterations)),
            (conditioning, "tune_interpolation", self._events(conditioning.tune_interpolation)),
            (Tables, "from_trees", classmethod(self._spanned("lookahead.build", build))),
            (Ngram, "train", self._spanned("langmodel.ngram_train", Ngram.train)),
            (Ngram, "tune", self._spanned("langmodel.ngram_em", Ngram.tune, self._iterations)),
            (model_io, "save_model", self._spanned("model_io.save", model_io.save_model)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def _agg(spans, name: str) -> tuple[int, float]:
    calls = seconds = 0
    for s in spans:
        entry = s.agg.get(name)
        if entry is not None:
            calls += entry[0]
            seconds += entry[1]
    return calls, seconds


def _count(spans, name: str) -> float:
    return sum(s.counts.get(name, 0) for s in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, words: int, ops: int, workload: str) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced ops over ``words`` words."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    search = [s for name in SEARCH_SPANS for s in by_name.get(name, [])]
    op_spans = by_name.get("op", [])
    trainings = ops if workload == "train" else 0
    nextword_ops = ops if workload == "nextword" else 0

    def per_word_ms(name: str) -> float:
        return _ratio(1000.0 * _agg(spans, name)[1], words)

    def per_training(stage: str, what: str = "seconds") -> float:
        stage_spans = by_name.get(stage, [])
        if what == "seconds":
            total = sum(s.duration for s in stage_spans)
        else:
            total = _count(stage_spans, what)
        return _ratio(total, trainings)

    def stage_agg_s(name: str) -> float:
        return _ratio(_agg(op_spans, name)[1], trainings)

    parses = _count(op_spans, "parses")
    scorer_calls = _agg(search, SCORER)[0]
    score_calls, score_s = _agg(search, SCORE)
    em_spans = by_name.get("conditioning.em", [])
    return {
        "parser.pops_per_word": _ratio(_count(search, "pops"), words),
        "parser.pushes_per_word": _ratio(_count(search, "pushes"), words),
        "parser.self_ms_per_word": _ratio(1000.0 * sum(s.self_time for s in search), words),
        "parser.budget_queue_share": _ratio(_count(search, "budget"), len(search)),
        "parser.partial_share": _ratio(_count(op_spans, "partial"), parses),
        "conditioning.extract_ms_per_word": per_word_ms(SCORER),
        "conditioning.spine_depth_mean": _ratio(_count(search, "spine_depth"), scorer_calls),
        "conditioning.score_calls_per_word": _ratio(score_calls, words),
        "conditioning.score_ms_per_word": _ratio(1000.0 * score_s, words),
        "conditioning.lexical_useful_ratio": _ratio(
            _count(search, "lexical_useful"), _count(search, "lexical_scored")
        ),
        "conditioning.apply_rule_ms_per_word": per_word_ms(APPLY_RULE),
        "conditioning.count_s": per_training("conditioning.count"),
        "conditioning.em_s": per_training("conditioning.em"),
        "conditioning.em_iterations": per_training("conditioning.em", "iterations"),
        "conditioning.em_events": _ratio(_count(em_spans, "em_events"), trainings),
        "conditioning.em_distinct_events": _ratio(_count(em_spans, "em_distinct_events"), trainings),
        "lookahead.stack_prob_calls_per_word": _ratio(_agg(search, STACK_PROB)[0], words),
        "lookahead.ms_per_word": per_word_ms(STACK_PROB),
        "lookahead.build_s": per_training("lookahead.build"),
        "grammar.factor_s": stage_agg_s("grammar.factor"),
        "grammar.induce_s": per_training("grammar.induce"),
        "treebank.normalize_s": stage_agg_s("treebank.normalize"),
        "treebank.prepare_ms_per_sent": _ratio(1000.0 * _agg(op_spans, "treebank.prepare")[1], parses),
        "langmodel.lm_ms_per_word": _ratio(1000.0 * _agg(op_spans, "langmodel.lm")[1], words),
        "langmodel.advances_per_dist": _ratio(len(by_name.get("parser.advance", [])), nextword_ops),
        "langmodel.ngram_train_s": per_training("langmodel.ngram_train"),
        "langmodel.ngram_em_s": per_training("langmodel.ngram_em"),
        "langmodel.ngram_em_iterations": per_training("langmodel.ngram_em", "iterations"),
        "evaluation.score_ms_per_sent": _ratio(1000.0 * _agg(op_spans, "evaluation.score")[1], parses),
        "model_io.save_s": per_training("model_io.save"),
    }
