"""The rewriting engine: expressions, steps, search, and derivation replay."""

import copy
import json
import pickle
from pathlib import Path

import pytest

from ggroup import engine
from ggroup.engine import (
    Atom, Block, CancelStep, Derivation, DissolveStep, EngineResult,
    ExpandStep, InputError, PublicResult, SearchLimits, StepError,
    apply_step, derivation_of_record, derivation_record, generate, is_public,
    normalize, parse, parse_derivation, parse_expr, parse_step,
    render_derivation, render_expr, render_step, replay, saturate,
    _block_successors,
)
from ggroup.encodings import (
    commutator_scheme, encode_logic_program, parse_logic_program,
)
from ggroup.lexicon import Lexicon, parse_grammar
from ggroup.term import (
    Binding, canonical_identifiers, parse_term, render_term, subterms,
)

LIM = SearchLimits()
GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"


def a(name, sign=1):
    return Atom(name, sign)


def lf(text):
    return parse_term(text)


EMPTY_LEX = Lexicon((), (), raw_mode=True)
COMMUTATIVE_RAW = Lexicon((), (commutator_scheme(),), raw_mode=True)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_cancels_adjacent_ground_inverses():
    assert normalize((a("x"), a("y"), a("y", -1), a("x", -1))) == ()
    assert normalize((a("x"), a("y", -1), a("y"), a("z"))) == (a("x"), a("z"))


def test_normalize_reaches_into_blocks_and_drops_empty_ones():
    e = (a("x"), Block((a("y"), a("y", -1))), a("x", -1))
    assert normalize(e) == ()
    kept = (Block((a("y"), a("z"))),)
    assert normalize(kept) == kept


def test_normalize_cancels_ground_logical_atoms_too():
    e = (Atom(lf("s(j,l)")), Atom(lf("s(j,l)"), -1))
    assert normalize(e) == ()


def test_normalize_keeps_nonground_pairs_for_explicit_cancellation():
    e = (Atom(lf("A"), -1), Atom(lf("s(j,l)")))
    assert normalize(e) == e


def test_normalize_preserves_untouched_block_objects():
    b = Block((a("y"), a("z")))
    (kept,) = normalize((b,))
    assert kept is b


# ---------------------------------------------------------------------------
# expression syntax and the word bridge


@pytest.mark.parametrize("text", [
    "1",
    "saw",
    "saw^-1 s(j,l)",
    "{ john s(j,l)^-1 } the^-1",
    "{ a^-1 { s(j,l) } } b",
])
def test_expr_round_trip(text):
    vocab = ("john", "saw", "the", "a", "b")
    assert render_expr(parse_expr(text, vocab)) == text


def test_parse_expr_rejects_unbalanced_braces():
    with pytest.raises(ValueError):
        parse_expr("{ a", ("a",))
    with pytest.raises(ValueError):
        parse_expr("a }", ("a",))


# ---------------------------------------------------------------------------
# step application and validation


def test_expand_step_rewrites_a_logical_atom(english):
    e = (Atom(lf("s(j,l)")),)
    b = Binding({"A": lf("j"), "B": lf("l")})
    out = apply_step(english, e, ExpandStep((), 0, "g7", binding=b))
    assert render_expr(out) == "j saw l"


def test_expand_step_checks_its_recorded_binding(english):
    e = (Atom(lf("s(j,l)")),)
    wrong = Binding({"A": lf("l"), "B": lf("l")})
    with pytest.raises(StepError, match="binding does not match"):
        apply_step(english, e, ExpandStep((), 0, "g7", binding=wrong))
    with pytest.raises(StepError, match="unknown rule"):
        apply_step(english, e, ExpandStep((), 0, "g99"))
    with pytest.raises(StepError, match="out of range"):
        apply_step(english, e, ExpandStep((), 3, "g7"))


def test_cancel_step_unifies_an_adjacent_pair(english):
    e = (Atom(lf("A"), -1), Atom(lf("s(j,l)")), a("saw", -1))
    delta = Binding({"A": lf("s(j,l)")})
    out = apply_step(english, e, CancelStep((), 0, delta))
    assert out == (a("saw", -1),)


def test_cancel_step_rejects_non_unifiers(english):
    e = (Atom(lf("A"), -1), Atom(lf("s(j,l)")))
    with pytest.raises(StepError, match="binding"):
        apply_step(english, e, CancelStep((), 0, Binding({"A": lf("j")})))
    tok = (a("saw"), a("saw", -1))
    with pytest.raises(StepError, match="eagerly"):
        apply_step(english, tok, CancelStep((), 0))


def test_cancel_step_wraps_only_inside_a_block():
    # in a block's contents, the last index pairs the last item with the first
    e = (Block((Atom(lf("s(j,l)")), a("saw"), Atom(lf("A"), -1))),)
    delta = Binding({"A": lf("s(j,l)")})
    out = apply_step(EMPTY_LEX, e, CancelStep((0,), 2, delta))
    assert render_expr(out) == "{ saw }"
    with pytest.raises(StepError, match="cancel position out of range"):
        # the top level is not cyclic
        apply_step(EMPTY_LEX, e[0].contents, CancelStep((), 2, delta))
    with pytest.raises(StepError, match="cancel position out of range"):
        # a one-item block has no pair, not even with itself
        apply_step(EMPTY_LEX, (Block((Atom(lf("A"), -1),)),),
                   CancelStep((0,), 0))


def test_dissolve_step_slots_and_levels():
    e = (a("x"), Block((a("y"),)), a("z"))
    out = apply_step(EMPTY_LEX, e, DissolveStep((), 1, (), 2, 0))
    assert render_expr(out) == "x z y"
    out = apply_step(EMPTY_LEX, e, DissolveStep((), 1, (), 1, 0))
    assert render_expr(out) == "x y z"
    nested = (Block((a("x"), Block((a("y"),)))),)
    out = apply_step(EMPTY_LEX, nested, DissolveStep((0,), 1, (), 1, 0))
    assert render_expr(out) == "{ x } y"
    out = apply_step(EMPTY_LEX, nested, DissolveStep((0,), 1, (0,), 0, 0))
    assert render_expr(out) == "{ y x }"
    with pytest.raises(StepError, match="enclosing"):
        # a block may not dissolve into a sibling block
        apply_step(EMPTY_LEX, (Block(()), Block((a("y"),))),
                   DissolveStep((), 1, (0,), 0, 0))
    with pytest.raises(StepError, match="not a block"):
        apply_step(EMPTY_LEX, e, DissolveStep((), 0, (), 2, 0))
    with pytest.raises(StepError, match="slot out of range"):
        # the slot counts the level without the block
        apply_step(EMPTY_LEX, e, DissolveStep((), 1, (), 3, 0))
    with pytest.raises(StepError, match="slot out of range"):
        apply_step(EMPTY_LEX, nested, DissolveStep((0,), 1, (), 2, 0))
    with pytest.raises(StepError, match="slot out of range"):
        apply_step(EMPTY_LEX, e, DissolveStep((), 1, (), -1, 0))


def test_dissolve_step_text_form():
    step = DissolveStep((0,), 1, (), 2, 1)
    assert render_step(step) == "dissolve level=0 index=1 to=-:2 k=1"
    assert parse_step(render_step(step)) == step


def test_rotate_and_dissolve_steps():
    e = (Block((a("x"), a("y"), a("z"))),)
    out = apply_step(EMPTY_LEX, e, DissolveStep((), 0, (), 0, 1))
    assert render_expr(out) == "y z x"
    with pytest.raises(StepError, match="rotation out of range"):
        apply_step(EMPTY_LEX, e, DissolveStep((), 0, (), 0, 3))
    with pytest.raises(StepError, match="rotation out of range"):
        apply_step(EMPTY_LEX, e, DissolveStep((), 0, (), 0, -1))
    with pytest.raises(StepError, match="not a block"):
        apply_step(EMPTY_LEX, (a("x"),), DissolveStep((), 0, (), 0, 0))


def test_rotation_can_cancel_across_the_block_seam():
    e = (Block((a("x"), a("y"), a("x", -1))),)
    out = apply_step(EMPTY_LEX, e, DissolveStep((), 0, (), 0, 1))
    assert render_expr(out) == "y"
    out = apply_step(EMPTY_LEX, e, DissolveStep((), 0, (), 0, 0))
    assert render_expr(out) == "x y x^-1"


def test_a_cancel_partner_requires_commutative_mode(english):
    # whether steps commute is the lexicon's to say, never the caller's
    e = parse_expr("x y x^-1", ())
    with pytest.raises(StepError, match="commutative"):
        apply_step(EMPTY_LEX, e, CancelStep((), 0, partner=2))
    out = apply_step(COMMUTATIVE_RAW, e, CancelStep((), 0, partner=2))
    assert render_expr(out) == "y"
    # relator multiplication, the other commutative-only step
    with pytest.raises(StepError, match="commutative"):
        apply_step(english, (), ExpandStep((), 0, "r1"))


# ---------------------------------------------------------------------------
# block placement is exhaustive: compare the engine's reachable block-free
# words against an independent enumeration of the documented semantics
# (each block dissolves at some slot of its host, in some rotation)


def _oracle_arrangements(items):
    blocks = [k for k, it in enumerate(items) if isinstance(it, Block)]
    if not blocks:
        return {render_expr(normalize(items))}
    out = set()
    for k in blocks:
        contents, host = items[k].contents, items[:k] + items[k + 1:]
        for r in range(len(contents)):
            rot = contents[r:] + contents[:r]
            for pos in range(len(host) + 1):
                out |= _oracle_arrangements(host[:pos] + rot + host[pos:])
    return out


def _engine_arrangements(expr):
    seen = {expr}
    queue = [expr]
    out = set()
    while queue:
        e = queue.pop()
        if not any(isinstance(i, Block) for i in e):
            out.add(render_expr(e))
            continue
        for _, new, _ in _block_successors(EMPTY_LEX, e):
            if new not in seen:
                seen.add(new)
                queue.append(new)
    return out


@pytest.mark.parametrize("expr", [
    (Block((a("x"), a("y"))), a("b"), a("c")),
    (a("b"), Block((a("x"), a("b", -1))), a("c")),
    (Block((a("x"),)), Block((a("y"),)), a("b")),
    (Block((a("x"), a("y"))), Block((a("y", -1), a("z"))), a("x", -1)),
    (a("b"), Block((a("x"), a("y"), a("x", -1))), a("c")),
])
def test_block_placement_matches_independent_enumeration(expr):
    expr = normalize(expr)
    assert _engine_arrangements(expr) == _oracle_arrangements(expr)


def test_nested_blocks_unfold_completely():
    e = (Block((a("b"), Block((a("c"),)))),)
    assert _engine_arrangements(e) == {"b c", "c b"}


# parsing postpones a placement until it can make a cancel possible


def _postponed(text):
    return _block_successors(EMPTY_LEX, parse_expr(text, ()), True)


def test_postponed_placement_keeps_a_move_that_exposes_a_pair():
    succ = _postponed("f(a,X) { g } f(a,X)^-1")
    # in place nothing touches; moving away leaves the pair adjacent
    assert {render_expr(new) for _, new, _ in succ} == {
        "g f(a,X) f(a,X)^-1", "f(a,X) f(a,X)^-1 g"}
    for steps, _, _ in succ:
        (step,) = steps
        assert (step.target_level, step.slot) != (step.level, step.index)


def test_postponed_placement_joins_blocks_into_a_run():
    succ = _postponed("g { a b } { b^-1 a^-1 }")
    # no single bundle cancels, so every successor dissolves both blocks
    assert succ
    for steps, _, _ in succ:
        assert sum(isinstance(s, DissolveStep) for s in steps) == 2
    assert "g" in {render_expr(new) for _, new, _ in succ}


def test_postponed_placement_drops_inert_blocks():
    assert _postponed("c { a b } d") == []
    assert _block_successors(EMPTY_LEX, parse_expr("c { a b } d", ())) != []


# ---------------------------------------------------------------------------
# generation


GENERATION_GOLDENS = [
    ("s(j,l)", {"john saw louise"}),
    ("i(s(j,l),p)", {"john saw louise in paris"}),
    ("ev(m,#x,sm(w,#y,s(#x,#y)))", {"every man saw some woman"}),
    ("sm(w,#y,ev(m,#x,s(#x,#y)))", {"every man saw some woman"}),
    ("r(t(tt(m,#x,s(l,#x))))", {"the man that louise saw ran"}),
]


@pytest.mark.parametrize("src,expected", GENERATION_GOLDENS)
def test_generation_goldens_are_exact(english, src, expected):
    res = generate(english, lf(src), LIM)
    assert {" ".join(words) for words, _ in res.results} == expected
    assert not res.truncated


def test_generation_derivations_replay_and_are_public(english):
    res = generate(english, lf("ev(m,#x,sm(w,#y,s(#x,#y)))"), LIM)
    for words, d in res.results:
        assert d.mode == "gen"
        end = replay(english, d)
        pub = is_public(english, end, start=d.start[0].payload)
        assert pub == PublicResult(d.start[0].payload, words)


def test_generation_requires_ground_input(english):
    with pytest.raises(InputError, match="ground"):
        generate(english, lf("s(A,l)"), LIM)


@pytest.mark.parametrize("field", ["max_expansions", "max_items", "max_results"])
def test_search_limits_must_be_at_least_one(field):
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
        SearchLimits(**{field: 0})
    assert getattr(SearchLimits(**{field: 1}), field) == 1


def test_generation_truncates_under_tight_limits(english):
    res = generate(english, lf("i(s(j,l),p)"), SearchLimits(max_expansions=2))
    assert res.results == ()
    assert res.truncated


# ---------------------------------------------------------------------------
# parsing


def test_parse_simple_sentence(english):
    res = parse(english, "john saw louise".split(), LIM)
    assert {render_term(t) for t, _ in res.results} == {"s(j,l)"}
    assert not res.truncated


def test_parse_applies_each_token_expansion_once(english, monkeypatch):
    real = engine._apply
    expansions = []

    def counting(lex, expr, step, substitutions=None):
        expansions.append(isinstance(step, ExpandStep))
        return real(lex, expr, step, substitutions)

    monkeypatch.setattr(engine, "_apply", counting)
    res = parse(english, "john saw louise".split(), LIM)
    assert len(res.results) == 1
    # once before the search, once more in the replay of the one reading,
    # which applies each checked step through the same transform
    assert sum(expansions) == 6


def _family():
    return encode_logic_program(parse_logic_program(
        (GRAMMAR_DIR / "family.lp").read_text()))


def test_saturation_instantiates_only_clauses_whose_head_meets_the_subgoal(
        monkeypatch):
    real_apply, real_replay = engine._apply, engine.replay
    proving = False
    search, proof = [], []

    def counting(lex, expr, step, substitutions=None):
        if isinstance(step, ExpandStep):
            (proof if proving else search).append(step)
        return real_apply(lex, expr, step, substitutions)

    def replaying(*args, **kwargs):
        nonlocal proving
        proving = True
        try:
            return real_replay(*args, **kwargs)
        finally:
            proving = False

    lex = _family()
    monkeypatch.setattr(engine, "_apply", counting)
    monkeypatch.setattr(engine, "replay", replaying)
    res = saturate(lex, LIM)
    assert len(res.results) == 9 and not res.truncated
    # the search's own instances; 105 when every clause was instantiated for
    # every subgoal and only then unified, before the skeleton pre-check
    # (term.may_unify) dropped the clauses whose head cannot meet it
    assert len(search) == 29
    # the proof's: each node on the answers' paths once; 23 when each answer
    # was replayed from the empty expression
    assert len(proof) == 18


def _proved_steps(monkeypatch, fn, *args):
    """``fn(*args)``, the number of ``apply_step`` calls it made, and the
    number of steps of the distinct search nodes on its answers' paths."""
    nodes = []

    class Recorded(engine._Node):
        def __init__(self, *fields):
            super().__init__(*fields)
            nodes.append(self)

    checked = []
    real = engine.apply_step

    def counting(*a, **k):
        checked.append(None)
        return real(*a, **k)

    with monkeypatch.context() as m:
        m.setattr(engine, "_Node", Recorded)
        m.setattr(engine, "apply_step", counting)
        res = fn(*args)
    on_paths = set()
    for _, d in res.results:
        node = next(n for n in nodes
                    if n.expr == d.end and n.derivation_steps() == d.steps)
        while node is not None and node not in on_paths:
            on_paths.add(node)
            node = node.parent
    return res, len(checked), sum(len(n.steps) for n in on_paths)


@pytest.mark.parametrize("query", ["family", "every man saw some woman"])
def test_answers_are_proved_once_per_node_of_their_shared_tree(
        monkeypatch, english, query):
    if query == "family":
        res, checked, steps = _proved_steps(monkeypatch, saturate, _family(), LIM)
    else:
        res, checked, steps = _proved_steps(monkeypatch, parse, english,
                                            query.split(), LIM)
    assert res.results
    assert checked == steps
    # the answers share derivation prefixes (family.lp: 31 steps against 37
    # in its derivations; the sentence: 18 against 26)
    assert steps < sum(len(d.steps) for _, d in res.results)


def test_a_wrong_search_expression_on_an_answer_path_fails_the_proof(
        monkeypatch):
    """The search bends one state on the only path to ``q(a)``: it binds
    ``X_1`` in the head but not in the subgoal.  The later steps still
    replay from the right state to ``q(a)``, so only the comparison of the
    node's own expression catches it."""
    lex = encode_logic_program(parse_logic_program("p(a) .\nq(X) :- p(X) .\n"))
    real = engine._saturate_successors

    def bent(lex, node, allow_vacuous):
        out = []
        for steps, new, dexp in real(lex, node, allow_vacuous):
            if render_expr(new) == "q(X_1) p(X_1)^-1":
                new = (Atom(lf("q(a)")), new[1])
            out.append((steps, new, dexp))
        return out

    assert {render_term(t) for t, _ in saturate(lex, LIM).results} == {"p(a)", "q(a)"}
    monkeypatch.setattr(engine, "_saturate_successors", bent)
    with pytest.raises(StepError, match="does not end"):
        saturate(lex, LIM)


def test_engine_results_survive_pickle_and_copies(english):
    """Memo fields (an atom's state key, a term's hash) are left out of
    copies and pickles, and rebuilt on use."""
    family = _family()
    for lex, res in [(english, parse(english, "every man saw some woman".split(), LIM)),
                     (family, saturate(family, LIM))]:
        for again in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
            assert again == res
            assert [render_derivation(d) for _, d in again.results] == \
                [render_derivation(d) for _, d in res.results]
            for _, d in again.results:
                assert replay(lex, d) == d.end
    atom = Atom(lf("ev(m,#x1,P[#x1])"))
    engine._canonical_key((atom,), False)
    hash(atom.payload.args[2])
    for again in (copy.copy(atom), copy.deepcopy(atom),
                  pickle.loads(pickle.dumps(atom))):
        assert again == atom and not hasattr(again, "_key")
        assert hash(again.payload) == hash(atom.payload)
        assert engine._canonical_key((again,), False) == \
            engine._canonical_key((atom,), False)


def test_parse_attachment_ambiguity_is_exactly_two_ways(english):
    res = parse(english, "john saw louise in paris".split(), LIM)
    assert {render_term(t) for t, _ in res.results} == {
        "i(s(j,l),p)", "s(j,i(l,p))"}
    assert not res.truncated


def test_parse_finds_both_quantifier_scopings_and_no_more(scoping_parse):
    got = {render_term(t) for t, _ in scoping_parse.results}
    assert got == {
        "ev(m,#x1,sm(w,#x2,s(#x1,#x2)))",
        "sm(w,#x1,ev(m,#x2,s(#x2,#x1)))",
    }
    assert not scoping_parse.truncated


RELATIVE_CLAUSE_READINGS = {
    "r(t(tt(m,#x1,s(l,#x1))))",
    "r(tt(t(m),#x1,s(l,#x1)))",
    "t(r(tt(m,#x1,s(l,#x1))))",
    "t(tt(m,#x1,r(s(l,#x1))))",
    "t(tt(m,#x1,s(l,r(#x1))))",
    "tt(t(m),#x1,r(s(l,#x1)))",
    "tt(t(m),#x1,s(l,r(#x1)))",
}


def test_parse_relative_clause_readings_all_generate_the_sentence(english):
    sentence = "the man that louise saw ran"
    res = parse(english, sentence.split(), LIM)
    got = {render_term(t) for t, _ in res.results}
    # the untyped system wraps any subterm with r/t, so alongside the two
    # structural readings it returns every sound such placement; each one
    # must still generate exactly this sentence
    assert got == RELATIVE_CLAUSE_READINGS
    assert not res.truncated
    for t, _ in res.results:
        back = generate(english, t, LIM)
        assert {" ".join(w) for w, _ in back.results} == {sentence}


def test_parse_derivations_replay_to_their_logical_form(english):
    res = parse(english, "john saw louise in paris".split(), LIM)
    for t, d in res.results:
        assert d.mode == "parse"
        end = replay(english, d)
        assert len(end) == 1
        pub = is_public(english, end)
        assert render_term(canonical_identifiers(pub.semantics)) == render_term(t)
        assert pub.words == ()


def test_parse_results_contain_no_self_referential_terms(scoping_parse):
    for t, _ in scoping_parse.results:
        for s in subterms(t):
            assert sum(1 for u in subterms(s) if u == s) == 1


def test_parse_round_trips_generation(english):
    for src, _ in GENERATION_GOLDENS[:4]:
        res = generate(english, lf(src), LIM)
        ((words, _),) = res.results
        back = parse(english, words, LIM)
        got = {render_term(t) for t, _ in back.results}
        assert render_term(canonical_identifiers(lf(src))) in got


def test_parse_rejects_bad_input(english):
    with pytest.raises(InputError, match="unknown token"):
        parse(english, ["john", "blinked"], LIM)
    with pytest.raises(InputError, match="more tokens"):
        parse(english, ["john"] * 100, SearchLimits(max_expansions=3))


def test_parse_truncates_at_max_results(english):
    res = parse(english, "john saw louise in paris".split(),
                SearchLimits(max_results=1))
    assert len(res.results) == 1
    assert res.truncated


def test_homonymous_tokens_search_every_rule_assignment():
    lex = parse_grammar(
        "phon bank .\nrelator river_bank bank^-1 .\nrelator money_bank bank^-1 .\n")
    res = parse(lex, ["bank"], LIM)
    assert {render_term(t) for t, _ in res.results} == \
        {"river_bank", "money_bank"}


# ---------------------------------------------------------------------------
# public-result recognition


def test_is_public_shapes(english):
    ok = (Atom(lf("s(j,l)")), a("louise", -1), a("saw", -1), a("john", -1))
    pub = is_public(english, ok)
    assert pub == PublicResult(lf("s(j,l)"), ("john", "saw", "louise"))
    assert is_public(english, (Atom(lf("s(A,l)")),)) is None
    assert is_public(english, (Atom(lf("s(j,l)")), a("saw"))) is None
    assert is_public(english, (a("saw", -1), Atom(lf("s(j,l)")))) is None
    assert is_public(english, ()) is None


def test_is_public_generation_shape(english):
    e = (a("john"), a("saw"))
    assert is_public(english, e, start=lf("s(j,l)")) == \
        PublicResult(lf("s(j,l)"), ("john", "saw"))
    assert is_public(english, (a("john", -1),), start=lf("j")) is None


# ---------------------------------------------------------------------------
# derivation serialization and tamper detection


def test_derivation_text_round_trip(english):
    res = generate(english, lf("r(t(tt(m,#x,s(l,#x))))"), LIM)
    for _, d in res.results:
        text = render_derivation(d)
        again = parse_derivation(text, english.phon_vocab)
        assert again == d
        assert render_derivation(again) == text


def test_derivation_record_round_trip(english):
    res = parse(english, "john saw louise".split(), LIM)
    for _, d in res.results:
        blob = json.dumps(derivation_record(d))
        again = derivation_of_record(json.loads(blob), english.phon_vocab)
        assert again == d
        assert replay(english, again) == d.end


def test_replay_rejects_tampered_steps(english):
    res = generate(english, lf("s(j,l)"), LIM)
    ((_, d),) = res.results
    first = d.steps[0]
    bent = ExpandStep(first.level, first.index + 1, first.rule_id,
                      first.binding, first.meta_map, first.ident_map)
    with pytest.raises(StepError, match="step 1"):
        replay(english, Derivation(d.mode, d.start, (bent,) + d.steps[1:], d.end))


@pytest.mark.parametrize("text, missing", [
    ("expand index=0 rule=p1", "level"),
    ("cancel index=0", "level"),
    ("dissolve level=-", "index"),
    ("dissolve level=- index=0", "to"),
    ("dissolve level=- index=0 to=-:0", "k"),
    ("cancel level=- with=2", "index"),
])
def test_parse_step_names_a_missing_field(text, missing):
    kind = text.split()[0]
    with pytest.raises(ValueError, match=f"{kind} step without field '{missing}'"):
        parse_derivation(f"derivation mode=parse\nstep: {text}", ())


@pytest.mark.parametrize("read, message", [
    (lambda: derivation_of_record({}, ()), "record without field 'mode'"),
    (lambda: derivation_of_record({"mode": "parse", "start": "1", "end": "1"}, ()),
     "record without field 'steps'"),
    (lambda: parse_derivation("step: cancel level", ()),
     "cancel step field 'level' is not name=value"),
    (lambda: parse_derivation("derivation", ()), "derivation line without a mode"),
    (lambda: parse_step("cancel level=- index=0 bind=A"),
     "binding 'A' is not name=value"),
    (lambda: parse_step("expand level=- index=0 rule=p1 rename=A"),
     "renaming 'A' is not name=value"),
    (lambda: derivation_of_record(
        {"mode": "parse", "start": 1, "steps": [], "end": "1"}, ()),
     "record field 'start' is not a string"),
    (lambda: derivation_of_record(
        {"mode": "parse", "start": "1", "steps": "cancel level=- index=0",
         "end": "1"}, ()),
     "record field 'steps' is not a list of strings"),
    (lambda: parse_step("dissolve level=- index=0 to=5 k=0"),
     "dissolve step field 'to' has a bad value '5'"),
    (lambda: parse_step("cancel level=x index=0"),
     "cancel step field 'level' has a bad value 'x'"),
    (lambda: parse_step("dissolve level=- index=0 to=-:0 k=z"),
     "dissolve step field 'k' has a bad value 'z'"),
    (lambda: parse_step("cancel level=- index=0 with=x"),
     "cancel step field 'with' has a bad value 'x'"),
    (lambda: parse_step("cancel level=- index=0 foo=1"),
     "cancel step has an unknown field 'foo'"),
    (lambda: parse_step("expand level=- index=0 rule=p1 bnd=A=j"),
     "expand step has an unknown field 'bnd'"),
    (lambda: parse_step("cancel level=- index=0 index=3"),
     "cancel step repeats field 'index'"),
    (lambda: derivation_of_record(
        {"mode": "parse", "start": "1", "steps": ["cancel level=- index=0 wiht=2"],
         "end": "1"}, ()),
     "cancel step has an unknown field 'wiht'"),
    (lambda: parse_step("swap index=1"), "unknown step kind 'swap'"),
    (lambda: parse_derivation("start: 1\nend: 1", ()),
     "derivation text has 0 'derivation mode=' lines, not one"),
    (lambda: parse_derivation("derivation mode=parse\nend: 1", ()),
     "derivation text has 0 'start:' lines, not one"),
    (lambda: parse_derivation(
        "derivation mode=parse\nderivation mode=gen\nstart: 1\nend: 1", ()),
     "derivation text has 2 'derivation mode=' lines, not one"),
    (lambda: parse_derivation("derivation mode=parse\nstart: 1\nend: 1\nend: 1", ()),
     "derivation text has 2 'end:' lines, not one"),
], ids=["no-mode", "no-steps", "bare-field", "bare-header", "bare-binding",
        "bare-renaming", "start-not-text", "steps-not-a-list", "target-no-slot",
        "level-not-a-number", "k-not-a-number", "partner-not-a-number",
        "unknown-field", "misspelt-bind", "repeated-field",
        "record-misspelt-with", "swap-kind", "no-header-line",
        "no-start-line", "two-header-lines", "two-end-lines"])
def test_derivation_readers_name_the_problem(read, message):
    with pytest.raises(ValueError, match=message):
        read()


@pytest.mark.parametrize("step", [
    DissolveStep((5,), 0, (5,), 0, 0),
    # a negative index would address a block from the end, and rebuild the
    # expression around the wrong position
    DissolveStep((-1,), 1, (-1,), 1, 0),
    DissolveStep((-1,), 1, (), 0, 0),
])
def test_steps_reject_a_level_outside_the_expression(step):
    e = parse_expr("a { b { c d } }", ())
    with pytest.raises(StepError, match="no block at"):
        apply_step(EMPTY_LEX, e, step)
    with pytest.raises(StepError, match="step 1: no block at"):
        replay(EMPTY_LEX, Derivation("parse", e, (step,), e))


def test_replay_rejects_tampered_end(english):
    res = generate(english, lf("s(j,l)"), LIM)
    ((_, d),) = res.results
    with pytest.raises(StepError, match="does not end"):
        replay(english, Derivation(d.mode, d.start, d.steps, (a("saw"),)))


def test_replay_takes_commutativity_from_the_lexicon(english):
    start = (Atom(lf("j")), a("saw"), Atom(lf("j"), -1))
    partnered = Derivation("saturate", start, (CancelStep((), 0, partner=2),),
                           (a("saw"),))
    with pytest.raises(StepError, match="commutative"):
        replay(english, partnered)
    assert replay(_commutative(english), partnered) == (a("saw"),)


@pytest.mark.parametrize("lex, text, step, message", [
    (EMPTY_LEX, "f(X) y f(a)^-1", "cancel level=- index=0 with=2 bind=X=a",
     "requires commutative mode"),
    (COMMUTATIVE_RAW, "{ f(X) y f(a)^-1 }", "cancel level=0 index=0 with=2 bind=X=a",
     "only legal at the top level"),
    (COMMUTATIVE_RAW, "f(X) y f(a)^-1", "cancel level=- index=2 with=0 bind=X=a",
     "must come after its index"),
    (COMMUTATIVE_RAW, "f(X) y f(a)^-1", "cancel level=- index=0 with=0 bind=X=a",
     "must come after its index"),
    (COMMUTATIVE_RAW, "f(X) y f(a)^-1", "cancel level=- index=0 with=3 bind=X=a",
     "partner out of range"),
    (COMMUTATIVE_RAW, "f(X) y f(a)^-1", "cancel level=- index=-1 with=2 bind=X=a",
     "index be 0 or more"),
    (COMMUTATIVE_RAW, "a y a^-1", "cancel level=- index=0 with=2",
     "token pairs"),
    (COMMUTATIVE_RAW, "x y z^-1", "cancel level=- index=0 with=2",
     "does not unify the pair"),
    (COMMUTATIVE_RAW, "f(X) y f(a)^-1", "cancel level=- index=0 with=2 bind=X=a;Z=b",
     "not a unifier the pair admits"),
    (COMMUTATIVE_RAW, "f(X) y f(a)", "cancel level=- index=0 with=2 bind=X=a",
     "opposite signs"),
    (COMMUTATIVE_RAW, "f(X) y { f(a)^-1 }", "cancel level=- index=0 with=2 bind=X=a",
     "two atoms"),
], ids=["not-commutative", "nested", "partner-before", "partner-is-index",
        "partner-out-of-range", "index-out-of-range", "token-pair",
        "unequal-ground-pair", "wrong-unifier", "same-sign", "block-partner"])
def test_replay_rejects_a_tampered_cancel_partner(lex, text, step, message):
    start = parse_expr(text, ("a",))
    d = Derivation("parse", start, (parse_step(step),), start)
    with pytest.raises(StepError, match=f"step 1: .*{message}"):
        replay(lex, d)


def test_replay_rejects_an_unknown_mode(english):
    ((_, d),) = generate(english, lf("s(j,l)"), LIM).results
    with pytest.raises(StepError, match="unknown derivation mode 'bogus'"):
        replay(english, Derivation("bogus", d.start, d.steps, d.end))


# ---------------------------------------------------------------------------
# commutative mode


def test_commutative_parse_ignores_word_order(english):
    lex = _commutative(english)
    res = parse(lex, "saw john louise".split(), LIM)
    assert {render_term(t) for t, _ in res.results} == {"s(j,l)", "s(l,j)"}


def test_commutative_generation_yields_one_representative(english):
    lex = _commutative(english)
    res = generate(lex, lf("ev(m,#x,sm(w,#y,s(#x,#y)))"), LIM)
    ((words, d),) = res.results
    assert sorted(words) == sorted("every man saw some woman".split())
    replay(lex, d)


def test_commutative_derivations_name_cancel_partners(english):
    lex = _commutative(english)
    res = parse(lex, "saw john louise".split(), LIM)
    partners = [s for _, d in res.results for s in d.steps
                if isinstance(s, CancelStep) and s.partner is not None]
    assert partners
    assert all(" with=" in render_step(s) for s in partners)


def test_commutative_cancels_pair_atoms_where_they_stand():
    start = parse_expr("A^-1 x^-1 y x", ())
    out = engine._swap_cancel_successors(COMMUTATIVE_RAW, start, False)
    assert [(render_step(step), render_expr(new)) for (step,), new, _ in out] == [
        ("cancel level=- index=0 with=2 bind=A=y", "1"),
        ("cancel level=- index=0 with=3 bind=A=x", "x^-1 y"),
        ("cancel level=- index=1 with=3", "A^-1 y"),
    ]
    # a chain of swaps bringing x next to A^-1 made x^-1 x adjacent on the
    # way, so they cancelled eagerly and x^-1 y was never reached
    for steps, new, _ in out:
        d = Derivation("parse", start, steps, new)
        again = parse_derivation(render_derivation(d), ())
        assert again == d
        assert replay(COMMUTATIVE_RAW, again) == new


def _commutative(english):
    return Lexicon(english.phon_vocab,
                   english.relators + (commutator_scheme(),))


def test_saturate_guards_its_input(english):
    with pytest.raises(InputError, match="commutative"):
        saturate(english, LIM)
    with pytest.raises(InputError, match="definite-clause"):
        saturate(_commutative(english), LIM)
