import hashlib
import math
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from support import (
    as_corpus, c_command_heads, factored_corpus, fixture_trees, random_corpus, reference_apply_rule, reference_spines,
)
from tdparse.conditioning import (
    CONJ_LABEL,
    HEAD_TABLE,
    LAMBDA_CAP,
    LEFT,
    MIDDLE,
    PATH_MAX,
    PRESETS,
    RIGHT,
    CondConfig,
    ConditioningError,
    ContextModel,
    SpineNode,
    apply_rule,
    bucket_of,
    head_child,
    head_of,
    open_constituent_head,
    replay,
    spine_step,
    tune_interpolation,
)
from tdparse.grammar import Rule, induce_pcfg, left_factor_tree, split_factored, tree_to_derivation
from tdparse.model_io import prepare_trees, save_model, train_parser_model
from tdparse.treebank import AXIOM, Tree, augment_with_stop, parse_trees


def _pt(label, tok):
    return Tree(label, (Tree(tok),))


@pytest.fixture(scope="module")
def g1(g1_trees):
    fact = factored_corpus(g1_trees)
    grammar = induce_pcfg(fact)
    cm = ContextModel(grammar, CondConfig())
    cm.train_counts(fact)
    return grammar, cm, fact


@pytest.mark.parametrize(
    "count,bucket",
    [(0, 0), (1, 1), (2, 2), (4, 2), (5, 3), (9, 3), (10, 4), (99, 4), (100, 5), (7000, 5)],
)
def test_bucket_of(count, bucket):
    assert bucket_of(count) == bucket


def test_presets_and_clamping():
    assert CondConfig.from_preset("none") == CondConfig(0, 0, 0)
    assert CondConfig.from_preset("par+sib") == CondConfig(2, 2, 2)
    # "all" is every path at its maximum
    allcfg = CondConfig.from_preset("all")
    assert (allcfg.phrasal_depth, allcfg.first_pos_depth, allcfg.later_pos_depth) == (6, 5, 4)
    assert allcfg == CondConfig(PATH_MAX[LEFT], PATH_MAX[MIDDLE], PATH_MAX[RIGHT])
    for name in PRESETS:  # every preset lies within the maxima, so none is refused
        CondConfig.from_preset(name)
    # A depth above its path's maximum is refused, not clamped.
    for depths, name in (((7, 5, 4), "phrasal_depth 7"), ((6, 6, 4), "first_pos_depth 6"),
                         ((6, 5, 5), "later_pos_depth 5"), ((99, 99, 99), "phrasal_depth 99")):
        with pytest.raises(ConditioningError, match=f"{name} is above its path's maximum"):
            CondConfig(*depths)
    assert CondConfig.from_preset("NT_struct") == CondConfig(*PRESETS["nt-struct"])
    with pytest.raises(ConditioningError, match="unknown conditioning preset"):
        CondConfig.from_preset("everything")


def test_config_validation_and_depths():
    with pytest.raises(ConditioningError, match="nonnegative"):
        CondConfig(-1, 0, 0)
    cfg = CondConfig(3, 2, 1)
    assert cfg.depth_for(LEFT) == 3
    assert cfg.depth_for(MIDDLE) == 2
    assert cfg.depth_for(RIGHT) == 1
    assert cfg.max_depth == 3


def test_apply_rule_reconstructs_tree(g1_trees):
    for t in g1_trees:
        aug = augment_with_stop(t)
        spine, done = None, None
        for rule in tree_to_derivation(left_factor_tree(aug)):
            assert done is None
            spine, done = apply_rule(spine, rule)
        assert spine is None
        # the rebuilt tree comes out unfactored
        assert done == aug


def test_apply_rule_single_preterminal():
    spine, done = apply_rule(None, Rule("STOP", ("</s>",), True))
    assert spine is None and done == _pt("STOP", "</s>")


def _chain(spine):
    """A spine as (label, children) pairs from the node up to the root."""
    out = []
    while spine is not None:
        out.append((spine.label, spine.children))
        spine = spine.parent
    return out


def _outcome(step, spine):
    try:
        new, done = step(spine)
    except AttributeError:  # an epsilon rule with no open constituent to close
        return "no spine"
    return _chain(new), done


def _check_steps(factored):
    """Every rule's step, on every distinct replayed spine, equals the reference."""
    grammar = induce_pcfg(factored)
    spines = {}
    for spine in reference_spines(factored):
        spines.setdefault(tuple(_chain(spine)), spine)
    for rule in grammar.rules:
        step = spine_step(rule)
        for spine in spines.values():
            assert _outcome(step, spine) == _outcome(partial(reference_apply_rule, rule=rule), spine)
    return len(grammar.rules) * len(spines)


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5"])
def test_spine_steps_match_reference_on_fixtures(name):
    assert _check_steps(factored_corpus(fixture_trees(f"{name}.trees")))


def test_spine_steps_match_reference_on_desk(desk):
    trees = prepare_trees(desk.train, desk.models["all"]).trees
    assert _check_steps([left_factor_tree(augment_with_stop(t)) for t in trees])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_spine_steps_match_reference_on_random_grammars(n, seed):
    assert _check_steps(factored_corpus(random_corpus(n, seed)))


def test_lexical_step_attaches_one_subtree(g1):
    grammar, _, fact = g1
    spines = [spine for spine, _ in replay(fact) if spine is not None]
    for rule in grammar.rules:
        if rule.lexical:
            step = spine_step(rule)
            t = step(None)[1]
            assert t == _pt(rule.lhs, rule.rhs[0])
            assert step(None)[1] is t
            assert all(step(spine)[0].children[-1] is t for spine in spines)


def test_replay_yields_state_before_rule(g1_trees):
    fact = factored_corpus(g1_trees)
    pairs = list(replay(fact[:1]))
    assert pairs[0][0] is None
    assert pairs[0][1] == Rule(AXIOM, ("S", "TOP-S"), False)
    # every later step sees a live spine
    assert all(spine is not None for spine, _ in pairs[1:])


def test_head_percolation():
    np = Tree("NP", (_pt("DT", "the"), _pt("NN", "dog")))
    assert head_of(np) == ("dog", "NN")
    vp = Tree("VP", (_pt("VBD", "chased"), np))
    assert head_of(vp) == ("chased", "VBD")
    # unknown label: fall back to scanning from the left
    misc = Tree("FOO", (_pt("A", "x"), _pt("B", "y")))
    assert head_of(misc) == ("x", "A")
    assert head_of(_pt("NN", "dog")) == ("dog", "NN")


def test_open_constituent_head():
    assert open_constituent_head("NP", ()) is None
    the = _pt("DT", "the")
    cat = _pt("NN", "cat")
    # no priority hit yet: the newest child stands proxy
    assert open_constituent_head("NP", (the,)) == ("the", "DT")
    assert open_constituent_head("NP", (the, cat)) == ("cat", "NN")


def _scan_head(label, ordered):
    """The head child by scanning the priorities in turn, each over ``ordered``."""
    for want in HEAD_TABLE.get(label, ("left", ()))[1]:
        for child in ordered:
            if child.label == want:
                return child
    return ordered[0]


HEAD_LABELS = sorted({want for _, priorities in HEAD_TABLE.values() for want in priorities} | {"FOO"})


@settings(max_examples=300, deadline=None)
@given(
    label=st.sampled_from(sorted(HEAD_TABLE) + ["FOO"]),
    kids=st.lists(st.tuples(st.sampled_from(HEAD_LABELS), st.sampled_from(["a", "b", "c"])), min_size=1, max_size=6),
)
def test_head_ranks_match_priority_scan(label, kids):
    children = tuple(_pt(tag, tok) for tag, tok in kids)
    direction = HEAD_TABLE.get(label, ("left", ()))[0]
    ordered = children if direction == "left" else children[::-1]
    assert head_child(label, children) is _scan_head(label, ordered)
    assert open_constituent_head(label, children) == head_of(_scan_head(label, children[::-1]))


def test_c_command_heads_nearest_first():
    subj = Tree("NP", (_pt("DT", "the"), _pt("NN", "dog")))
    s = SpineNode("S", (subj,), None)
    vp = SpineNode("VP", (_pt("VBD", "chased"),), s)
    obj = SpineNode("NP", (_pt("NN", "cat"),), vp)
    assert list(c_command_heads(obj)) == [
        ("cat", "NN"),
        ("chased", "VBD"),
        ("dog", "NN"),
    ]


def test_select_path(g1):
    grammar, cm, _ = g1
    s = SpineNode("S", (), None)
    np = SpineNode("NP", (), s)
    assert cm.extract_values(np, "NP")[0] == LEFT
    assert cm.extract_values(np, "NN")[0] == MIDDLE
    assert cm.extract_values(SpineNode("NP", (_pt("DT", "the"),), s), "NN")[0] == RIGHT
    assert cm.extract_values(None, AXIOM)[0] == LEFT


def test_extract_values_along_g1_derivation(g1):
    _, cm, fact = g1
    got = {}
    for spine, rule in replay([fact[2]]):  # (Spot chased the ball)
        got[rule.render()] = cm.extract_values(spine, rule.lhs)
    assert got["TOP -> S TOP-S"] == (LEFT, (AXIOM, None, None, None, None, None, None))
    # object NP: parent VP, sibling VBD, grandparent S, parent's sibling NP
    assert got["NP -> DT NP-DT"] == (LEFT, ("NP", "VP", "VBD", "S", "NP", None, None))
    # leftmost POS of its constituent: sibling slot is structurally None
    assert got["DT -> 'the"] == (MIDDLE, ("DT", "NP", None, "VP", "VBD", "chased"))
    # later POS: the two nearest c-commanding head words
    assert got["NN -> 'ball"] == (RIGHT, ("NN", "NP", "DT", "the", "chased"))
    # factored lhs: context comes from the enclosing constituent, and the
    # head percolated from the children built so far rides along
    assert got["VP-VBD -> NP VP-VBD,NP"] == (
        LEFT,
        ("VP-VBD", "S", "NP", "TOP", None, None, "chased"),
    )


def test_extract_values_conjunction_peek(g1):
    _, cm, _ = g1
    np1 = Tree("NP", (_pt("NN", "dog"),))
    coord = SpineNode("NP", (np1, _pt("CC", "and")), SpineNode("S", (), None))
    path, values = cm.extract_values(coord, "NP")
    assert path == LEFT
    assert values == ("NP", "NP", "CC", "S", None, "NN", None)


def test_level2_counts(g1):
    grammar, cm, _ = g1
    rid = grammar.rule_ids[Rule("NP", ("NN", "NP-NN"), False)]
    key = ("NP", "S", None)
    assert cm.tables[2][key][rid] == 3
    assert cm.totals[2][key] == 4


def test_train_counts_rejects_foreign_rules(g1):
    _, cm, _ = g1
    alien = factored_corpus(parse_trees("(S (QQ zap))"))
    with pytest.raises(ConditioningError, match="not in the grammar"):
        cm.train_counts(alien)


def test_untuned_scorer_matches_grammar_bitwise(g1):
    grammar, _, fact = g1
    cm = ContextModel(grammar, CondConfig())
    cm.train_counts(fact)
    # no lambdas fitted: every context backs off to the plain PCFG
    for spine, rule in replay(fact):
        got = cm.rule_logprob(spine, rule)
        want = next(lp for r, _, lp in grammar.by_lhs[rule.lhs] if r == rule)
        assert got == want


def test_scorer_unseen_lhs_and_rule(g1):
    grammar, cm, _ = g1
    assert cm.scorer(None, "ZZ")(0) == -math.inf
    assert cm.rule_logprob(None, Rule("NP", ("ZZ", "QQ"), False)) == -math.inf


def test_interpolated_probability_hand_example(g1):
    """One mixing step: 0.5 * (1/4) + 0.5 * (2/5) = 0.325, float exact."""
    grammar, _, _ = g1
    rid = grammar.rule_ids[Rule("NP", ("NN", "NP-NN"), False)]
    cm = ContextModel(grammar, CondConfig(2, 0, 0))
    cm.tables[0][("NP",)] = {rid: 2}
    cm.totals[0][("NP",)] = 5
    cm.tables[1][("NP", "S")] = {rid: 1}
    cm.totals[1][("NP", "S")] = 4
    cm.lambdas[(LEFT, 1, bucket_of(4))] = 0.5
    score = cm.scorer(SpineNode("S", (), None), "NP")
    assert score(rid) == math.log(0.325)


def test_null_level_adds_no_mixing_step(g1):
    """None values mix nothing themselves but stay inside deeper keys."""
    grammar, _, _ = g1
    rid = grammar.rule_ids[Rule("NP", ("NN", "NP-NN"), False)]
    cm = ContextModel(grammar, CondConfig(6, 0, 0))
    # coordination right under the root: grandparent and parent-sibling
    # levels are structurally None, the conjunction peek still fires
    np1 = Tree("NP", (_pt("NN", "dog"),))
    spine = SpineNode("NP", (np1, _pt("CC", "and")), None)
    assert cm.extract_values(spine, "NP")[1] == ("NP", "NP", "CC", None, None, "NN", None)
    cm.tables[0][("NP",)] = {rid: 2}
    cm.totals[0][("NP",)] = 5
    cm.tables[1][("NP", "NP")] = {rid: 1}
    cm.totals[1][("NP", "NP")] = 4
    key5 = ("NP", "NP", "CC", None, None, "NN")
    cm.tables[5][key5] = {rid: 3}
    cm.totals[5][key5] = 3
    cm.lambdas[(LEFT, 1, bucket_of(4))] = 0.5
    cm.lambdas[(LEFT, 5, bucket_of(3))] = 0.5
    # weights for the None levels must never be consulted
    cm.lambdas[(LEFT, 3, 1)] = 0.9
    cm.lambdas[(LEFT, 4, 1)] = 0.9
    expected = 2 / 5
    expected = 0.5 * (1 / 4) + 0.5 * expected
    expected = 0.5 * (3 / 3) + 0.5 * expected
    assert cm.scorer(spine, "NP")(rid) == math.log(expected)


def test_tuned_model_still_proper(g1_model, g1_trees):
    """Interpolated expansions stay a distribution in every training context."""
    model = g1_model.model
    grammar, context = model.grammar, model.context
    fact = factored_corpus(g1_trees)
    checked = 0
    for spine, rule in replay(fact):
        score = context.scorer(spine, rule.lhs)
        total = math.fsum(
            math.exp(score(rid)) for _, rid, _ in grammar.by_lhs[rule.lhs]
        )
        assert total == pytest.approx(1.0, abs=1e-9)
        checked += 1
    assert checked > 50


def _site_scores(cm, expansions):
    """Every rule's score at every expansion site of ``expansions``."""
    return [
        [cm.scorer(spine, rule.lhs)(rid) for _, rid, _ in cm.grammar.by_lhs[rule.lhs]]
        for spine, rule in expansions
    ]


def _rebuilt(cm):
    """A model that never scored anything, with ``cm``'s counts and weights."""
    fresh = ContextModel(cm.grammar, cm.config)
    for level, table in enumerate(cm.tables):
        for key, counts in table.items():
            for rid, n in counts.items():
                fresh.add(level, key, rid, n)
    fresh.lambdas = dict(cm.lambdas)
    return fresh


def _add_one_count(cm, fact):
    cm.add(0, ("NP",), cm.grammar.rule_ids[Rule("NP", ("NN", "NP-NN"), False)])


def _refit(cm, fact):
    cm.tune_mix_weights(fact)


def _assign_weights(cm, fact):
    cm.lambdas = {key: lam / 2 for key, lam in cm.lambdas.items()}


@pytest.mark.parametrize("write", [_add_one_count, _refit, _assign_weights])
def test_writes_empty_the_site_cache(g1, write):
    grammar, _, fact = g1
    cm = ContextModel(grammar, CondConfig())
    cm.train_counts(fact)
    if write is not _refit:
        cm.tune_mix_weights(fact)
    expansions = list(replay(fact))
    before = _site_scores(cm, expansions)
    write(cm, fact)
    after = _site_scores(cm, expansions)
    assert after == _site_scores(_rebuilt(cm), expansions)
    assert after != before


def test_tune_mix_weights_on_g1(g1):
    grammar, _, fact = g1
    cm = ContextModel(grammar, CondConfig())
    cm.train_counts(fact)
    history = cm.tune_mix_weights(fact)
    assert history, "EM ran at least one iteration"
    assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
    for (path, level, bucket), lam in cm.lambdas.items():
        assert path in (LEFT, MIDDLE, RIGHT) and 1 <= level <= PATH_MAX[path]
        assert 0.0 <= lam <= LAMBDA_CAP
        if bucket == 0:
            assert lam == 0.0


def test_tune_depth_zero_is_noop(g1):
    grammar, _, fact = g1
    cm = ContextModel(grammar, CondConfig(0, 0, 0))
    cm.train_counts(fact)
    assert cm.tune_mix_weights(fact) == []
    assert cm.lambdas == {}


def test_em_closed_form_fixed_point():
    # maximizing 2*log(.5 + .5*lam) + log(.5 - .5*lam) gives lam = 1/3
    key = (LEFT, 1, 1)
    events = [(0.5, [(key, 1.0)]), (0.5, [(key, 1.0)]), (0.5, [(key, 0.0)])]
    lam, history = tune_interpolation(events)
    assert lam[key] == pytest.approx(1 / 3, abs=5e-3)
    assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))


def test_em_boundary_is_capped():
    key = (RIGHT, 2, 3)
    lam, _ = tune_interpolation([(0.0, [(key, 1.0)])])
    assert lam[key] == LAMBDA_CAP


def test_em_requires_scorable_events():
    for events in ([], [(0.0, [])]):
        with pytest.raises(ConditioningError, match="no scorable heldout events"):
            tune_interpolation(events)


def _per_event_em(events, max_iter=100, tol=1e-6):
    """Reference EM: one E-step per heldout event, duplicates included."""
    keys = {key for _, levels in events for key, _ in levels}
    lam = {key: 0.5 for key in keys}
    history = []
    prev = None
    for _ in range(max_iter):
        ll = 0.0
        stop = dict.fromkeys(keys, 0.0)
        reach = dict.fromkeys(keys, 0.0)
        used = 0
        for p0, levels in events:
            comps = []
            weight = 1.0
            for key, ph in reversed(levels):
                v = lam[key]
                comps.append((key, weight * v * ph))
                weight *= 1.0 - v
            comps.append((None, weight * p0))
            total = math.fsum(c for _, c in comps)
            if total <= 0.0:
                continue
            used += 1
            ll += math.log(total)
            above = 0.0
            for key, c in comps:
                g = c / total
                if key is not None:
                    stop[key] += g
                    reach[key] += 1.0 - above
                above += g
        if used == 0:
            raise ConditioningError("no scorable heldout events")
        history.append(ll)
        for key in keys:
            if reach[key] > 0.0:
                lam[key] = min(max(stop[key] / reach[key], 0.0), LAMBDA_CAP)
        if prev is not None and ll - prev < tol:
            break
        prev = ll
    return lam, history


def _assert_matches_per_event_em(events, **kwargs):
    try:
        expected = _per_event_em(events, **kwargs)
    except ConditioningError:
        with pytest.raises(ConditioningError, match="no scorable heldout events"):
            tune_interpolation(events, **kwargs)
        return
    lam, history = tune_interpolation(events, **kwargs)
    # exact float equality: saved models write the weights with repr
    assert history == expected[1]
    assert lam == expected[0]


def test_em_event_turning_unscorable_matches_per_event_em():
    # The lone event is scorable at lam = 0.5; the 300 others then pull lam
    # to 1/301, where lam * 5e-322 underflows to 0.0 and the event drops out.
    key = (MIDDLE, 1, 1)
    events = [(0.0, [(key, 5e-322)])] + [(1.0, [(key, 0.0)])] * 300
    _assert_matches_per_event_em(events)
    lam, history = tune_interpolation(events)
    assert lam[key] == 0.0
    assert len(history) >= 3


_EM_KEYS = [(LEFT, 1, 1), (LEFT, 2, 1), (MIDDLE, 1, 2), (RIGHT, 3, 4)]
# 0.0 with p0 = 0.0 makes unscorable events; 5e-322 underflows once mixed
_estimate = st.one_of(st.sampled_from([0.0, 5e-322, 1.0]), st.floats(0.0, 1.0))
_event = st.tuples(_estimate, st.lists(st.tuples(st.sampled_from(_EM_KEYS), _estimate), max_size=4))
# a few distinct events, each repeated many times in a shuffled heldout order
_events = st.lists(_event, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=120)
)


@settings(max_examples=200, deadline=None)
@given(
    events=_events,
    max_iter=st.integers(0, 40),
    tol=st.sampled_from([1e-6, 1e-3, math.inf, -math.inf]),
)
def test_em_matches_per_event_em(events, max_iter, tol):
    _assert_matches_per_event_em(events, max_iter=max_iter, tol=tol)


def _per_expansion_counts(model, trees):
    """Reference counting: every prefix of every expansion, one add at a time."""
    rule_ids = model.grammar.rule_ids
    seen = 0
    for spine, rule in replay(trees):
        rid = rule_ids.get(rule)
        if rid is None:
            raise ConditioningError(f"rule {rule.render()} is not in the grammar")
        _, values = model.extract_values(spine, rule.lhs)
        for k in range(len(values)):
            model.add(k, values[: k + 1], rid)
        seen += 1
    return seen


_COUNT_DEPTHS = [(6, 5, 4), (2, 2, 2), (0, 0, 0)]


def _assert_counts_match_per_expansion(trees):
    fact = factored_corpus(trees)
    grammar = induce_pcfg(fact)
    for depths in _COUNT_DEPTHS:
        tallied = ContextModel(grammar, CondConfig(*depths))
        reference = ContextModel(grammar, CondConfig(*depths))
        assert tallied.train_counts(fact) == _per_expansion_counts(reference, fact)
        assert tallied.tables == reference.tables
        assert tallied.totals == reference.totals


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5"])
def test_train_counts_match_per_expansion_on_fixtures(name):
    _assert_counts_match_per_expansion(fixture_trees(f"{name}.trees"))


def test_train_counts_match_per_expansion_on_desk(desk):
    _assert_counts_match_per_expansion(desk.train.trees)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 10_000))
def test_train_counts_match_per_expansion_on_random_trees(n, seed):
    _assert_counts_match_per_expansion(random_corpus(n, seed))



# sha256 over extract_values for every expansion of the desk training trees,
# and over the saved g1 model bytes, at depths the benchmark never runs (its
# workloads all use the default 6,5,4).  Recorded before extract_values was
# rewritten as one schedule per path cut at the configured depth.
_DEPTH_PINS = [
    ("none", "770f403a155b9727404526358666d4b45f2c3bc1e56913deb215b1fe467b29d9", "51aba14920dfb2143952f3d5d2a15d2cb7df0d9b78286b49ef2a79293fefa3c1"),
    ("par+sib", "ef5ac3bc92f3b9ac24a6d5a4d87f1499860c37e301b8d4f576fdc7d753f31640", "b673082563420f97432776ed986bf361e77c0136e836e7b159d03dc4eb0884c9"),
    ("nt-struct", "d83e01c1edf63eafcda12533f4c4ec9454131e80a268ae80ad371e0568d3c1ec", "47baa3b08ea9c583a3bdd55daa4ebda4d1cfe6c648499a0c461600e10975d8f7"),
    ("nt-head", "17401aa0d68a2f7ee7bdd7f7e3a5878b8d6e81b10d4a0ce95e1e4cc7fca2cc08", "d414266455c54a30004ff2c40e94bcc2b1dc0b5492466ea3e07cf82738a69cbd"),
    ("pos-struct", "d33bd55fa6257e7fcb5b03c5ef11918bdbe30332d4c5b219659b6c62120f8c4d", "af6803c97e2daffa3ff925cc5b0c904787cffdca33cf85d43c32ed9b426fdb29"),
    ("attach", "e3b12e82ce077eac9490d53ec09cac087918ec33760b0789f6985caa8e725fd6", "ee550b643246e63a559071cb30f9c0be21d82d9aa5aae0951161334a8a4dd048"),
    ("all", "dd969789ae4e3056697941edb6504e48c02888e31976941088ad1e7964342a1a", "b0d372d108ba999c927bd06a4e3cbe7e985ce2915259226d2ab2ac6b02403e56"),
    ("3,2,1", "139827add529a20a3831f4ba9b8fa5e91987f1c1ecc2d016abd4861dd92ca4f5", "0841a317801e3e7e53fb332b29d8678d1f266598f78384caf97933a70ded129f"),
    ("1,4,3", "6e66db28d441856d93983dfb8a7b505c2b211361c3dd8b2e0393775f5937b02c", "a53acde8efcebecc4f86ca9c8a85f9edec5322008fc3f127c1f3e42ed47b5209"),
]


@pytest.fixture(scope="module")
def desk_replay(desk):
    fact = factored_corpus(desk.train.trees)
    return induce_pcfg(fact), list(replay(fact))


@pytest.mark.parametrize("spec, values_sha, model_sha", _DEPTH_PINS)
def test_depths_off_the_benchmark_are_pinned(desk_replay, g1_trees, tmp_path, spec, values_sha, model_sha):
    config = CondConfig(*map(int, spec.split(","))) if "," in spec else CondConfig.from_preset(spec)
    grammar, expansions = desk_replay
    cm = ContextModel(grammar, config)
    digest = hashlib.sha256()
    for spine, rule in expansions:
        digest.update(repr(cm.extract_values(spine, rule.lhs)).encode() + b"\n")
    assert digest.hexdigest() == values_sha
    model, _ = train_parser_model(as_corpus(g1_trees, "train"), as_corpus(g1_trees, "heldout"), cond_config=config)
    save_model(model, str(tmp_path / "g1.model"))
    assert hashlib.sha256((tmp_path / "g1.model").read_bytes()).hexdigest() == model_sha


def _reference_extract_values(model, spine, lhs):
    """``extract_values`` as it was before it tested the factor separator
    in place of splitting the label: the reference it must match."""
    base, consumed = split_factored(lhs)
    if consumed:
        parent_spine = spine.parent
        within = spine.children
    else:
        parent_spine = spine
        within = ()
    siblings = parent_spine.children if parent_spine is not None else ()
    y_s = siblings[-1].label if siblings else None
    parent = parent_spine.label if parent_spine is not None else None
    grand = parent_spine.parent if parent_spine is not None else None
    grand_label = grand.label if grand is not None else None
    if lhs not in model.grammar.preterminals:
        path = LEFT
        psibs = grand.children if grand is not None else ()
        conj = None
        if y_s == CONJ_LABEL and len(siblings) >= 2 and siblings[-2].children:
            conj = siblings[-2].children[0].label
        head = open_constituent_head(base, within)
        values = (lhs, parent, y_s, grand_label, psibs[-1].label if psibs else None, conj,
                  head[0] if head else None)
    elif y_s is None:
        path = MIDDLE
        first = next(c_command_heads(spine), None)
        values = (lhs, parent, y_s, grand_label, first[1] if first else None, first[0] if first else None)
    else:
        path = RIGHT
        heads = list(islice(c_command_heads(spine), 2))
        values = (lhs, parent, y_s, heads[0][0] if heads else None, heads[1][0] if len(heads) > 1 else None)
    return path, values[: model.config.depth_for(path) + 1]


@pytest.mark.parametrize("spec", [*PRESETS, "3,2,1", "0,5,0", "1,4,3", "6,1,1", "2,0,3"])
def test_extract_values_matches_reference_on_desk(desk_replay, spec):
    config = CondConfig(*map(int, spec.split(","))) if "," in spec else CondConfig.from_preset(spec)
    grammar, expansions = desk_replay
    cm = ContextModel(grammar, config)
    assert cm.max_depth == config.max_depth
    for spine, rule in expansions:
        assert cm.extract_values(spine, rule.lhs) == _reference_extract_values(cm, spine, rule.lhs)
