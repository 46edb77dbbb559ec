"""The rewriting engine: expressions, steps, search, and derivation replay."""

import copy
import dataclasses
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
)
from ggroup.encodings import (
    commutator_scheme, encode_logic_program, parse_logic_program,
)
from ggroup import lexicon as lx
from ggroup.lexicon import Lexicon, parse_grammar
from ggroup.term import (
    Binding, Const, canonical_identifiers, parse_term, render_term, subterms,
    unify,
)
import matching_oracle as oracle
from test_term import RANDOM_TERMS

LIM = SearchLimits()
GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"


def a(name, sign=1):
    return Atom(name, sign)


def lf(text):
    return parse_term(text)


EMPTY_LEX = Lexicon((), (), raw_mode=True)
COMMUTATIVE_RAW = Lexicon((), (commutator_scheme(),), raw_mode=True)


def _context(lex=EMPTY_LEX):
    """A fresh search context, with empty memos."""
    return engine._Search(lex)


def _successors(gen, expr, lex=EMPTY_LEX):
    """``gen``'s successors of a state holding ``expr``, in a fresh
    context."""
    return gen(engine._Search(lex), engine._Node(expr, 0, None, ()))


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
        for _, new in _successors(engine._block_successors, e):
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


# parsing places blocks as generation does, but a blocks-first parse judges
# each block-free word before it builds its bundle: it gets, in order, the
# bundles of every placement whose word _may_match keeps, and keeps each
# live word's verdict, which its node reads, under the word's atom ids


@pytest.mark.parametrize("text", [
    "f(a,X) { g } f(a,X)^-1", "g { a b } { b^-1 a^-1 }", "c { a b } d"])
def test_parsing_gets_every_placement_that_generation_gets(text):
    expr = parse_expr(text, ())
    plain = engine._Search(EMPTY_LEX, blocks_first=True)
    want, verdicts = [], []
    for steps, new in _successors(engine._block_successors, expr):
        if not engine._has_block(new):
            matchings = engine._may_match(plain, new)
            if not matchings:
                continue
            verdicts.append((tuple(map(id, new)), matchings))
        want.append((steps, new))
    s = engine._Search(EMPTY_LEX, blocks_first=True)
    assert engine._block_successors(s, engine._Node(expr, 0, None, ())) == \
        want
    assert [(key, s.judged[key]) for key, _ in verdicts] == verdicts


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

    def counting(lex, expr, step, *args, **kwargs):
        expansions.append(isinstance(step, ExpandStep))
        return real(lex, expr, step, *args, **kwargs)

    monkeypatch.setattr(engine, "_apply", counting)
    res = parse(english, "john saw louise".split(), LIM)
    assert len(res.results) == 1
    # once before the search, once more in the replay of the one reading,
    # which applies each checked step through the same transform
    assert sum(expansions) == 6


# each word's rule variables are renamed apart by the word's ordinal; the
# renaming must stay injective when a rule's own variable ends in digits
RENAMING = parse_grammar("""phon w0 z w1 w2 .
relator f(A1) A1^-1 w0^-1 .
relator q(N) N^-1 z^-1 .
relator g(A) A^-1 w1^-1 .
relator j w2^-1 .
""")


@pytest.mark.parametrize("zs, reading", [
    (1, "f(q(g(j)))"),
    # the first word's A1 and the eleventh word's A must stay two variables
    (9, "f(q(q(q(q(q(q(q(q(q(g(j)))))))))))"),
])
def test_parse_renames_the_words_of_a_rule_apart(zs, reading):
    res = parse(RENAMING, ["w0"] + ["z"] * zs + ["w1", "w2"], LIM)
    assert [render_term(t) for t, _ in res.results] == [reading]
    for _, d in res.results:
        assert engine.replay(RENAMING, d) == d.end


def _family():
    return encode_logic_program(parse_logic_program(
        (GRAMMAR_DIR / "family.lp").read_text()))


def test_saturation_instantiates_only_clauses_whose_head_meets_the_subgoal(
        monkeypatch):
    real_step, real_apply = engine._clause_step, engine._apply
    proving = _proving(monkeypatch)
    search, proof = [], []

    def stepping(*args, **kwargs):
        found = real_step(*args, **kwargs)
        search.append(found[0])
        return found

    def applying(lex, expr, step, *args, **kwargs):
        if isinstance(step, ExpandStep) and proving.on:
            proof.append(step)
        return real_apply(lex, expr, step, *args, **kwargs)

    lex = _family()
    monkeypatch.setattr(engine, "_clause_step", stepping)
    monkeypatch.setattr(engine, "_apply", applying)
    res = saturate(lex, LIM)
    assert len(res.results) == 9 and not res.truncated
    # the clauses the search tries, each one step for one state (5 roots and
    # 24 heads unified with a subgoal); 105 when every clause was
    # instantiated for every subgoal and only then unified, before the
    # first-argument index (_Tables.candidates) dropped the clauses whose
    # head cannot meet it; on family.lp the index alone drops every clause
    # that a rigid-skeleton comparison of head and subgoal would drop
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

    def bent(*args, **kwargs):
        out = []
        for steps, new in real(*args, **kwargs):
            if render_expr(new) == "q(X_1) p(X_1)^-1":
                new = (Atom(lf("q(a)")), new[1])
            out.append((steps, new))
        return out

    assert {render_term(t) for t, _ in saturate(lex, LIM).results} == {"p(a)", "q(a)"}
    monkeypatch.setattr(engine, "_saturate_successors", bent)
    with pytest.raises(StepError, match="does not end"):
        saturate(lex, LIM)


def _proving(monkeypatch):
    """Wrap ``engine.replay``; the returned flag's ``on`` is true while a
    replay runs, that is, while the search proves its answers."""
    real = engine.replay

    def replaying(*args, **kwargs):
        replaying.on = True
        try:
            return real(*args, **kwargs)
        finally:
            replaying.on = False

    replaying.on = False
    monkeypatch.setattr(engine, "replay", replaying)
    return replaying


def test_the_proof_reads_none_of_the_search_memos(monkeypatch):
    """The search bends the instance of the fact ``p(a)`` into ``p(b)``,
    and its memo of instances keeps the bent one.  The proof builds its own
    instances, so it replays ``p(a)``, and the node's expression differs; a
    proof that read the search's memo would accept ``p(b)``."""
    lex = encode_logic_program(parse_logic_program("p(a) .\nq(X) :- p(X) .\n"))
    assert {render_term(t) for t, _ in saturate(lex, LIM).results} == {"p(a)", "q(a)"}
    real = engine._instantiate_items
    proving = _proving(monkeypatch)

    def bent(*args, **kwargs):
        items = real(*args, **kwargs)
        if not proving.on and items == (Atom(lf("p(a)")),):
            return (Atom(lf("p(b)")),)
        return items

    monkeypatch.setattr(engine, "_instantiate_items", bent)
    with pytest.raises(StepError, match="does not end"):
        saturate(lex, LIM)


def test_saturation_builds_each_instance_once_per_depth_and_the_proof_its_own(
        monkeypatch):
    """The search instantiates each clause once per depth it tries it at, a
    fact once for every depth, and the proof each distinct instance, a rule
    id and a copy number, once for all the answers."""
    real_instantiate, real_apply = engine._instantiate_items, engine._apply
    real_step = engine._clause_step
    proving = _proving(monkeypatch)
    built = {False: 0, True: 0}  # _instantiate_items calls: search, proof
    tried = set()  # (clause, depth) pairs the search tries; a fact's depth
    # is None
    numbered = set()  # the (rule id, instance) pairs the proof replays

    def instantiating(*args, **kwargs):
        built[proving.on] += 1
        return real_instantiate(*args, **kwargs)

    def stepping(tables, memo, clause, depth, index):
        fact = clause[0] in tables.facts
        tried.add((clause[0], None if fact else depth))
        return real_step(tables, memo, clause, depth, index)

    def applying(lex, expr, step, *args, **kwargs):
        if isinstance(step, ExpandStep) and proving.on:
            numbered.add((step.rule_id, step.instance))
        return real_apply(lex, expr, step, *args, **kwargs)

    monkeypatch.setattr(engine, "_instantiate_items", instantiating)
    monkeypatch.setattr(engine, "_clause_step", stepping)
    monkeypatch.setattr(engine, "_apply", applying)
    res = saturate(_family(), LIM)
    assert len(res.results) == 9 and not res.truncated
    assert built[False] == len(tried)
    assert built[True] == len(numbered)
    # 29 and 18 when every clause tried built its instance (see
    # test_saturation_instantiates_only_clauses_whose_head_meets_the_subgoal),
    # 17 and 8 when each fact was built once per depth
    assert (built[False], built[True]) == (11, 8)


def test_engine_results_survive_pickle_and_copies(english):
    """Memo fields (an atom's state key and first-order reading, a term's
    hash) are left out of copies and pickles, and rebuilt on use."""
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
# block-free words that cannot reduce to one atom


def _asked(s, left, right):
    """``_may_cancel`` in the context ``s`` of ``left`` and ``right^-1``,
    over their first-order readings."""
    a, b = Atom(lf(left)), Atom(lf(right), -1)
    return engine._may_cancel(s, a, b, engine._first_order(a)[0],
                              engine._first_order(b)[0])


def _may_cancel(left, right):
    """Whether ``left`` and ``right^-1`` are partners, by the search's
    relation with fresh memos."""
    return _asked(_context(), left, right)


@pytest.mark.parametrize("left, right", [
    # no unifier now: the application's target still holds one, but P4 bound
    # to \#_z.s(#x1,#_z) lets the pair cancel on the way to a reading
    ("P1[#x1]", "sm(w,#x2,P4[#x2])"),
    ("P4[#x2]", "s(A3,B3)"),
    ("f(X)", "f(a)"),
    ("s(j,l)", "s(j,l)"),
])
def test_partners_keep_every_pair_a_substitution_can_cancel(left, right):
    assert _may_cancel(left, right)
    assert _may_cancel(right, left)


def test_partners_do_not_ask_unify_about_applications():
    assert not unify(lf("P1[#x1]"), lf("sm(w,#x2,P4[#x2])"))
    assert _may_cancel("P1[#x1]", "sm(w,#x2,P4[#x2])")


@pytest.mark.parametrize("left, right", [
    # the application or the variable occurs inside the other side through
    # compound arguments only, so every substitution leaves it smaller
    ("P1[#x1]", "ev(N1,#x1,P1[#x1])"),
    ("N1", "ev(N1,#x1,P1[#x1])"),
    ("X", "f(g(X,a))"),
    # rigid skeletons clash under any substitution
    ("f(P1[#x1])", "g(a)"),
    # ground atoms never change; first-order failures persist
    ("s(j,l)", "s(l,j)"),
    ("f(X,X)", "f(a,b)"),
])
def test_partners_reject_pairs_no_substitution_can_cancel(left, right):
    assert not _may_cancel(left, right)
    assert not _may_cancel(right, left)


@pytest.mark.parametrize("left, right", [
    # match_app abstracts the identifier out of the target: without it, or
    # with the identifier as the whole target, no binding of P4 cancels them
    ("P4[#x2]", "s"),
    ("P4[#x2]", "s(j,#x1)"),
    ("P4[#x2]", "#x2"),
])
def test_partners_reject_an_application_whose_identifier_a_ground_atom_lacks(
        left, right):
    assert not _may_cancel(left, right)
    assert not _may_cancel(right, left)
    # a vacuous abstraction, made when P4 matches elsewhere, may turn P4[#x2]
    # into any term: the relation keeps the pair
    assert _asked(engine._Search(EMPTY_LEX, allow_vacuous=True), left, right)


@pytest.mark.parametrize("left, right", [
    ("P4[#x2]", "s(j,#x2)"),
    ("P4[#x2]", "f(#x2)"),
])
def test_partners_keep_an_application_a_ground_atom_can_match(left, right):
    assert _may_cancel(left, right)
    assert _may_cancel(right, left)


def test_partners_need_opposite_signs_and_equal_tokens():
    # atoms of one sign are never partners, however their readings meet;
    # two negative atoms of the kernel's shape are two variables, and g,
    # which lacks #x, is partner to neither
    z = Atom(lf("g"))
    for x, y in ((Atom(lf("f(X)")), Atom(lf("f(a)"))),
                 (Atom(lf("P[#x]"), -1), Atom(lf("Q[#x]"), -1))):
        matchings, s = _matchings((x, y, z))
        assert matchings == [] and _tables(s).partners == [[], [], []]
    # equal tokens cancel when a word is normalized, unequal ones stay, and
    # a word that holds a token is not read first-order: it is kept, and
    # its set of atoms gets no tables
    assert normalize((a("saw"), a("saw", -1))) == ()
    assert len(normalize((a("saw"), a("ran", -1)))) == 2
    matchings, s = _matchings((a("saw"), Atom(lf("X"), -1), z))
    assert matchings is True and _tables(s) is None


@pytest.mark.parametrize("text", [
    # an application to no identifier has no first-order reading, so the
    # relation cannot judge its pairs: P := \#_z.c and M := f(c) cancel
    # M against f(P[M]), and P := \#_z.j cancels s(P[A],l) against s(j,l)
    "M f(P[M])^-1 g",
    "s(P[A],l) s(j,l)^-1 g",
    # the application's argument is a variable: match_app may bind it to
    # any identifier of the target
    "P4[X] s^-1 g",
    # each atom has a reading, but the word applies P to two identifiers
    "f(#x) P[#x]^-1 g(#y) P[#y]^-1 s",
])
def test_words_with_an_atom_of_no_reading_are_kept_unjudged(text):
    matchings, s = _matchings(parse_expr(text, ()))
    assert matchings is True and _tables(s) is None


def test_judging_asks_each_pair_of_opposite_signs_once(monkeypatch):
    real, asked = engine._may_cancel, []
    x, y, z = Atom(lf("s(A,B)")), Atom(lf("P[#x1]"), -1), Atom(lf("j"))
    names = {id(x): "x", id(y): "y", id(z): "z"}

    def asking(s, a, b, u, v):
        # the two readings' terms come from the set's tables
        assert (u, v) == (engine._first_order(a)[0],
                          engine._first_order(b)[0])
        asked.append(names.get(id(a), "?") + names.get(id(b), "?"))
        return real(s, a, b, u, v)

    monkeypatch.setattr(engine, "_may_cancel", asking)
    s = engine._Search(EMPTY_LEX, blocks_first=True)
    # each pair of opposite signs once, the left atom first; another order
    # of the same atoms reads the same tables and asks nothing
    for word in ((x, y, z), (z, y, x)):
        assert engine._may_match(s, word) == []
    assert asked == ["xy", "yz"]
    # a word of one sign, and a word that holds a token, ask nothing
    for text in ("f(X) f(a) g", "X^-1 Y^-1 Z^-1", "saw X^-1 g"):
        _matchings(parse_expr(text, ("saw",)))
    assert asked == ["xy", "yz"]


# the relation compares the first-order readings: it rejects a rigid
# skeleton clash, and, unlike a comparison of skeletons alone, a variable
# bound to two different terms


@pytest.mark.parametrize("left, right, meet", [
    ("s(j,l)", "s(j,l)", True),
    ("s(A,l)", "s(j,B)", True),
    ("A", "s(j,l)", True),
    # #x is not in s(j,l), and no image of P[#x] but a vacuous one meets it
    ("P[#x]", "s(j,l)", False),
    ("s(A,A)", "s(j,l)", False),
    ("s(j,l)", "s(j,m)", False),
    ("s(j,l)", "i(j,l)", False),
    ("s(j)", "s(j,l)", False),
    ("#x", "#y", False),
    ("#x", "x", False),  # an identifier is not a constant
    ("s(f(j),B)", "s(f(l),B)", False),
])
def test_partners_compare_first_order_readings(left, right, meet):
    assert _may_cancel(left, right) is meet
    assert _may_cancel(right, left) is meet


def test_partners_keep_every_pair_that_unifies():
    rejected = 0
    for allow_vacuous in (False, True):
        s = engine._Search(EMPTY_LEX, allow_vacuous=allow_vacuous)
        for x in RANDOM_TERMS[:100]:
            for y in RANDOM_TERMS[100:200]:
                a, b = Atom(x), Atom(y, -1)
                u, v = engine._first_order(a)[0], engine._first_order(b)[0]
                if u is None or v is None:
                    continue  # _atom_set asks no pair of such an atom
                if not engine._may_cancel(s, a, b, u, v):
                    rejected += 1
                    assert unify(x, y, allow_vacuous=allow_vacuous) == []
    assert rejected


def _matchings(word):
    """``_may_match`` of ``word`` in a fresh blocks-first parse context."""
    s = engine._Search(EMPTY_LEX, blocks_first=True)
    return engine._may_match(s, word), s


def _tables(s):
    """The tables of the one set of atoms that ``s`` has read, or ``None``
    when it is not read first-order."""
    [(_, tables)] = s.atom_sets.values()
    return tables


def test_partners_memo_holds_both_atoms_in_word_order():
    x, y, z = Atom(lf("s(A,B)")), Atom(lf("P[#x1]"), -1), Atom(lf("j"))
    matchings, s = _matchings((x, y, z))
    # P's only image, s(A,B), lacks #x1
    assert matchings == []
    # the tables number the atoms in the word's order: x and y are
    # partners, and z, the survivor, has none
    assert _tables(s).partners == [[1], [0], []]


def _judged(text):
    """``_may_match`` of the word ``text`` and its matchings by the
    term-level oracle (``matching_oracle``), as sets of pairs, each in a
    fresh context.  A word that ``_may_match`` keeps unjudged, such as one
    not of the bitset kernel's shape, must leave its set of atoms without
    tables."""
    word = parse_expr(text, ())
    matchings, s = _matchings(word)
    want = [frozenset(m) for m in oracle.matchings(_context(), word)]
    if matchings is True:
        assert _tables(s) is None
    return matchings, want


@pytest.mark.parametrize("text, kernel", [
    ("s(j,l)", True),
    ("f(a) X^-1 g", True),
    ("f(a) g(b) h(c) Z^-1 Y^-1 X^-1 k", True),
    ("f(X) f(a)^-1 g", False),
    ("f(X) g(Y) h(Z) h(b)^-1 g(a)^-1 f(a)^-1 k", False),
])
def test_words_that_may_reduce_pass(text, kernel):
    matchings, want = _judged(text)
    assert want
    assert matchings == (want if kernel else True)


@pytest.mark.parametrize("text, kernel", [
    # the only atom without a partner is negative
    ("f(X) f(a)^-1 g^-1", False),
    ("a X^-1 P[#x]^-1", True),
    # the only atom without a partner sits at an odd index
    ("f(X) g f(a)^-1", False),
    ("f(#x) b P[#x]^-1", True),
    # two atoms without a partner
    ("f(X) f(a)^-1 g h", False),
    ("f(#x) P[#x]^-1 b c", True),
    # the partner sits at an even distance
    ("f(X) g f(a)^-1 h", False),
    ("f(#x) b P[#x]^-1 c", True),
    # a quantifier's two atoms, which can only cancel each other, and the
    # application occurs inside the other
    ("s(A3,B3) sm(N4,#x2,P4[#x2]) P4[#x2]^-1", True),
    # the application's only partner at an odd distance lacks its identifier
    ("sm(N4,#x2,P4[#x2]) P4[#x2]^-1 s", True),
    # the survivor at index 2, but its image, ev(m,#x1,s(A,B)), is not
    # ground
    ("s(A,B) P[#x1]^-1 ev(m,#x1,P[#x1])", True),
])
def test_words_that_cannot_reduce_fail(text, kernel):
    matchings, want = _judged(text)
    assert want == []
    assert matchings == ([] if kernel else True)


# the bitset kernel takes a word whose negative atoms read as distinct
# variables and whose positive atoms read as no variable; each pair's
# equation binds its negative atom's variable once


def _kernel_matchings(text, monkeypatch, vacuous=False):
    """``_may_match`` of the word ``text``, which the bitset kernel must
    read, with every pair of opposite signs taken as partners, so that the
    kernel alone decides which matchings hold."""
    real, read = engine._bit_survivors, []

    def reading(*args):
        read.append(args)
        return real(*args)

    s = engine._Search(EMPTY_LEX, allow_vacuous=vacuous, blocks_first=True)
    with monkeypatch.context() as m:
        m.setattr(engine, "_bit_survivors", reading)
        m.setattr(engine, "_may_cancel", lambda s, a, b, u, v: True)
        found = engine._may_match(s, parse_expr(text, ()))
    assert read, text
    return found


@pytest.mark.parametrize("text, want", [
    # the same variable in two negative atoms: bound to a, then to b
    ("a X^-1 b X^-1 s", []),
    ("a X^-1 a X^-1 s", [{(0, 1), (2, 3)}, {(0, 3), (1, 2)}]),
    # a bare positive variable: X = X binds nothing, and the pair cancels;
    # or X^-1 takes s, and the survivor X reads s
    ("X X^-1 s", [{(1, 2)}, {(0, 1)}]),
])
def test_words_outside_the_kernel_are_kept_unjudged(text, want):
    matchings, found = _judged(text)
    assert matchings is True
    assert found == [frozenset(m) for m in want]


@pytest.mark.parametrize("text, want", [
    ("a X^-1 h(X)", [{(0, 1)}]),
    # Y is held by no negative atom: h(a,Y) is not ground
    ("a X^-1 h(X,Y)", []),
    # a two-pair cycle: X = f(Y) and Y = g(X)
    ("X^-1 f(Y) Y^-1 g(X) s", []),
    ("X^-1 f(Y) Y^-1 g(a) s", [{(0, 1), (2, 3)}]),
    # P[#x] bound straight to #x, which only a vacuous abstraction matches
    ("#x P[#x]^-1 s", []),
    ("f(#x) P[#x]^-1 s", [{(0, 1)}]),
    # P's image g(X) reaches #x only through X
    ("g(X) P[#x]^-1 #x X^-1 s", [{(0, 1), (2, 3)}]),
    ("g(X) P[#x]^-1 #y X^-1 s", []),
])
def test_the_bitset_kernel_checks_each_matching(text, want, monkeypatch):
    assert _kernel_matchings(text, monkeypatch) == \
        [frozenset(m) for m in want]
    # and agrees with the term-level oracle, the partners taken as they come
    matchings, found = _judged(text)
    assert matchings == found


def test_the_bitset_kernel_checks_no_application_under_vacuous_abstraction(
        monkeypatch):
    # without it, no survivor's matching holds: P's image is #x itself or
    # lacks #x
    for text in ("#x P[#x]^-1 s", "#y P[#x]^-1 s"):
        assert _kernel_matchings(text, monkeypatch, vacuous=True) == \
            [frozenset({(1, 2)}), frozenset({(0, 1)})]


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


def _tampered_expansion(d, **changes):
    """``d`` with its first ``ExpandStep`` changed, and that step's number."""
    k = next(k for k, s in enumerate(d.steps) if isinstance(s, ExpandStep))
    steps = list(d.steps)
    steps[k] = dataclasses.replace(steps[k], **changes)
    return dataclasses.replace(d, steps=tuple(steps)), k + 1


def test_replay_rejects_tampered_steps(english):
    ((_, gen),) = generate(english, lf("s(j,l)"), LIM).results
    ((_, par),) = parse(english, "john saw louise".split(), LIM).results
    family = encode_logic_program(parse_logic_program("p(a) .\nq(X) :- p(X) .\n"))
    ((_, sat),) = [(t, d) for t, d in saturate(family, LIM).results
                   if render_term(t) == "q(a)"]
    for lex, d, changes, message in [
        (english, gen, {"index": gen.steps[0].index + 1}, ""),
        # a generation rule is instantiated by its binding, never numbered
        (english, gen, {"instance": 1},
         "a generation step has no instance number"),
        # parsing rules and relators are instantiated by their number; a
        # binding would be ignored
        (english, par, {"binding": Binding({"A": Const("j")})},
         "only a generation step records a binding"),
        (family, sat, {"binding": Binding({"X": Const("a")})},
         "only a generation step records a binding"),
        # X_-1 is a name that parse_term cannot read back
        (english, par, {"instance": -1}, "an instance number is 0 or more"),
        (family, sat, {"instance": -1}, "an instance number is 0 or more"),
        (english, gen, {"instance": -1}, "an instance number is 0 or more"),
        # a relator instance goes after every item of its level
        (family, sat, {"index": sat.steps[0].index + 1},
         "relator instances are appended at the end"),
        (english, dataclasses.replace(par, start=(a("john", -1),) + par.start[1:]),
         {}, "expand target must be a positive atom"),
        (english, par, {"rule_id": "p2"}, "expand target is not the token 'louise'"),
        # a generation rule on a token, and on an atom that is not ground
        (english, par, {"rule_id": "g1", "instance": 0},
         "generation expands ground logical atoms"),
        (english, dataclasses.replace(gen, start=(Atom(lf("s(A,l)")),)), {},
         "generation expands ground logical atoms"),
        # a variable the head lacks, bound to a term that holds it
        (english, gen, {"binding": Binding(
            {**gen.steps[0].binding.terms, "Z": lf("f(Z)")})}, "cyclic binding"),
    ]:
        bent, n = _tampered_expansion(d, **changes)
        with pytest.raises(StepError, match=f"step {n}: {message}"):
            replay(lex, bent)


def test_the_commutator_relator_has_a_renaming():
    """Every rule id has its scheme variables, the commutator relator's
    (none) included, so replaying a step that multiplies it in never stops
    at a missing table entry."""
    lex = encode_logic_program(parse_logic_program("p(a) .\n"))
    tables = engine._tables(lex)
    (rule_id,) = [r for r, rule in tables.by_id.items()
                  if isinstance(rule, lx.RelatorScheme)
                  and lx.is_commutator_scheme(rule)]
    assert set(tables.vars) == set(tables.by_id)
    assert tables.vars[rule_id] == ((), (), ())
    assert engine._renaming(tables, ExpandStep((), 0, rule_id, instance=3)) \
        == Binding()


def test_replaying_the_commutator_relator_is_a_step_error():
    """The commutator relator is r6 of the family.lp encoding.  Its
    conjugator pairs interleave, so it has no instance to multiply in: a step
    that names it fails as a ``StepError``, not as the ``StopIteration``
    that building its instance ended in."""
    lex = _family()
    assert lx.is_commutator_scheme(engine._tables(lex).by_id["r6"])
    d = parse_derivation("derivation mode=saturate\nstart: 1\n"
                         "step: expand level=- index=0 rule=r6\nend: 1",
                         lex.phon_vocab)
    with pytest.raises(StepError,
                       match="step 1: the commutator relator is never "
                             "multiplied in"):
        replay(lex, d)


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
    (lambda: parse_step("expand level=- index=0 rule=g7 bind=A=l;A=j;B=l"),
     "binding repeats name 'A'"),
    (lambda: parse_step("expand level=- index=0 rule=g7 bind=A=j;B=l;zz=j"),
     "binding name 'zz' is not a variable"),
    (lambda: parse_step("cancel level=- index=0 bind==j"),
     "binding name '' is not a variable"),
    # the renaming maps of old derivation text no longer read
    (lambda: parse_step("expand level=- index=0 rule=p1 rename=A=A_1"),
     "expand step has an unknown field 'rename'"),
    (lambda: parse_step("expand level=- index=0 rule=p1 idents=X=x1"),
     "expand step has an unknown field 'idents'"),
    (lambda: parse_step("expand level=- index=0 rule=p1 instance=x"),
     "expand step field 'instance' has a bad value 'x'"),
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
    (lambda: parse_derivation("derivation mode=parse\nstart: 1\nsteps: 0\nend: 1", ()),
     "unexpected trace line 'steps: 0'"),
], ids=["no-mode", "no-steps", "bare-field", "bare-header", "bare-binding",
        "repeated-binding", "binding-no-variable", "binding-empty-name",
        "old-rename-field", "old-idents-field", "instance-not-a-number",
        "start-not-text", "steps-not-a-list", "target-no-slot",
        "level-not-a-number", "k-not-a-number", "partner-not-a-number",
        "unknown-field", "misspelt-bind", "repeated-field",
        "record-misspelt-with", "swap-kind", "no-header-line",
        "no-start-line", "two-header-lines", "two-end-lines",
        "unexpected-line"])
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
    (COMMUTATIVE_RAW, "f(X) y f(a)^-1",
     "cancel level=- index=0 with=2 bind=X=a;Z=f(Z)", "cyclic binding"),
], ids=["not-commutative", "nested", "partner-before", "partner-is-index",
        "partner-out-of-range", "index-out-of-range", "token-pair",
        "unequal-ground-pair", "wrong-unifier", "same-sign", "block-partner",
        "cyclic-binding"])
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
    out = _successors(engine._swap_cancel_successors, start, COMMUTATIVE_RAW)
    assert [(render_step(step), render_expr(new)) for (step,), new in out] == [
        ("cancel level=- index=0 with=2 bind=A=y", "1"),
        ("cancel level=- index=0 with=3 bind=A=x", "x^-1 y"),
        ("cancel level=- index=1 with=3", "A^-1 y"),
    ]
    # a chain of swaps bringing x next to A^-1 made x^-1 x adjacent on the
    # way, so they cancelled eagerly and x^-1 y was never reached
    for steps, new in out:
        d = Derivation("parse", start, steps, new)
        again = parse_derivation(render_derivation(d), ())
        assert again == d
        assert replay(COMMUTATIVE_RAW, again) == new


def _commutative(english):
    return Lexicon(english.phon_vocab,
                   english.relators + (commutator_scheme(),))


def test_commutative_and_saturation_states_never_ask_for_bundles(
        english, monkeypatch):
    # a commutative lexicon instantiates no conjugator pair as a block, so
    # no state of these searches holds one, and the loop asks for bundles
    # only from a state that does
    def never(s, node):
        raise AssertionError(f"bundles asked for {render_expr(node.expr)}")

    monkeypatch.setattr(engine, "_block_successors", never)
    lex = _commutative(english)
    for sentence in ("saw john louise", "every man ran"):
        assert parse(lex, sentence.split(), LIM).results
    assert generate(lex, lf("s(j,l)"), LIM).results
    assert saturate(_family(), LIM).results


def test_saturate_guards_its_input(english):
    with pytest.raises(InputError, match="commutative"):
        saturate(english, LIM)
    with pytest.raises(InputError, match="definite-clause"):
        saturate(_commutative(english), LIM)
