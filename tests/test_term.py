"""Term structure, unification, and abstraction matching."""

import pytest

import random

from ggroup import term
from ggroup.term import (
    MAX_TERM_DEPTH, Abstraction, AbsVar, App, Binding, Compound, Const,
    EMPTY_BINDING, HOLE, Identifier, MetaVar, app_free,
    binding_is_acyclic, canonical_identifiers, identifiers_in, is_ground,
    match_app, parse_abstraction, parse_term,
    render_abstraction, render_term, substitute, subterms, term_size, unify,
)


def t(text):
    return parse_term(text)


# ---------------------------------------------------------------------------
# concrete syntax


@pytest.mark.parametrize("text", [
    "j",
    "#x",
    "A",
    "s(j,l)",
    "ev(m,#x1,P[#x1])",
    "sm(w,#y,ev(m,#x,s(#x,#y)))",
    "r(t(tt(m,#x,s(l,#x))))",
])
def test_parse_render_round_trip(text):
    assert render_term(parse_term(text)) == text


def test_parse_shapes():
    assert t("j") == Const("j")
    assert t("#x") == Identifier("x")
    assert t("A") == MetaVar("A")
    assert t("s(j,l)") == Compound("s", (Const("j"), Const("l")))
    assert t("P[#x]") == App(AbsVar("P"), Identifier("x"))
    assert t(" s( j , l ) ") == t("s(j,l)")


@pytest.mark.parametrize("text", [
    "",
    "s(j,",
    "s(j,l))",
    "S(j)",          # functors are lowercase
    "#X",            # identifiers are lowercase
    "p[#x]",         # abstraction variables are uppercase
    "j k",
    "#_z",           # the hole marker is not accepted in ordinary terms
])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_term(text)


def _nested(depth, leaf="j"):
    """``n(n(...leaf...))``: a term ``depth`` levels deep."""
    return "n(" * (depth - 1) + leaf + ")" * (depth - 1)


def test_parse_accepts_terms_at_the_depth_bound():
    deep = parse_term(_nested(MAX_TERM_DEPTH, "A"))
    assert term_size(deep) == MAX_TERM_DEPTH
    # the recursive walkers stay under the recursion limit at the bound
    b = Binding({"A": Const("j")})
    assert render_term(substitute(deep, b)) == _nested(MAX_TERM_DEPTH)
    assert unify(deep, parse_term(_nested(MAX_TERM_DEPTH))) == [b]
    assert canonical_identifiers(deep) == deep
    assert hash(deep) == hash(parse_term(_nested(MAX_TERM_DEPTH, "A")))


@pytest.mark.parametrize("text", [
    _nested(MAX_TERM_DEPTH + 1),
    _nested(3000),
    "P[" * 3000 + "#x" + "]" * 3000,
])
def test_parse_rejects_terms_past_the_depth_bound(text):
    with pytest.raises(ValueError, match="nested deeper than"):
        parse_term(text)


def test_abstraction_round_trip():
    a = Abstraction(Compound("s", (Const("l"), HOLE)))
    text = render_abstraction(a)
    assert text == "\\#_z.s(l,#_z)"
    assert parse_abstraction(text) == a
    assert a.apply(Const("j")) == t("s(l,j)")


def test_abstraction_applies_to_every_hole():
    a = parse_abstraction("\\#_z.s(#_z,#_z)")
    assert a.apply(Identifier("x")) == t("s(#x,#x)")


# ---------------------------------------------------------------------------
# structural helpers


def test_subterms_preorder():
    assert [render_term(s) for s in subterms(t("s(j,i(l,p))"))] == [
        "s(j,i(l,p))", "j", "i(l,p)", "l", "p"]


def test_term_size_counts_nodes():
    assert term_size(t("j")) == 1
    assert term_size(t("s(j,l)")) == 3
    assert term_size(t("P[#x]")) == 2


def test_groundness():
    assert is_ground(t("s(j,l)"))
    assert is_ground(t("s(#x,l)"))  # identifiers are ground markers
    assert not is_ground(t("s(A,l)"))
    assert not is_ground(t("P[#x]"))


def test_app_free():
    assert app_free(t("s(A,B)"))
    assert not app_free(t("ev(m,#x,P[#x])"))


def test_variable_listings():
    lf = t("ev(N,#x,sm(M,#y,s(#x,#y)))")
    assert [i.name for i in identifiers_in(lf)] == ["x", "y"]


def test_canonical_identifiers_first_occurrence_order():
    lf = t("sm(w,#b,ev(m,#a,s(#a,#b)))")
    assert render_term(canonical_identifiers(lf)) == \
        "sm(w,#x1,ev(m,#x2,s(#x2,#x1)))"
    already = t("s(#x1,#x2)")
    assert canonical_identifiers(already) == already


# ---------------------------------------------------------------------------
# substitution and bindings


def test_substitute_replaces_metavars():
    b = Binding({"A": Const("j")})
    assert substitute(t("s(A,l)"), b) == t("s(j,l)")
    assert substitute(t("s(B,l)"), b) == t("s(B,l)")


def test_substitute_beta_reduces_bound_apps():
    b = Binding({}, {"P": parse_abstraction("\\#_z.s(l,#_z)")})
    assert substitute(t("P[#x]"), b) == t("s(l,#x)")
    assert substitute(t("P[j]"), b) == t("s(l,j)")


def test_substitute_empty_binding_is_identity():
    lf = t("ev(m,#x,P[#x])")
    assert substitute(lf, EMPTY_BINDING) is lf


def test_binding_acyclicity():
    assert binding_is_acyclic(Binding({"A": t("s(j,l)")}))
    assert not binding_is_acyclic(Binding({"A": t("s(A,l)")}))
    assert not binding_is_acyclic(Binding({"A": t("s(B,l)"), "B": t("j")}))
    assert binding_is_acyclic(Binding({}, {"P": parse_abstraction("\\#_z.Q[#_z]")}))
    assert not binding_is_acyclic(
        Binding({}, {"P": parse_abstraction("\\#_z.s(P[#x],#_z)")}))
    assert not binding_is_acyclic(
        Binding({}, {"P": parse_abstraction("\\#_z.Q[#_z]"),
                     "Q": parse_abstraction("\\#_z.s(l,#_z)")}))


# ---------------------------------------------------------------------------
# unification


def test_unify_equal_terms():
    assert unify(t("s(j,l)"), t("s(j,l)")) == [EMPTY_BINDING]


def test_unify_binds_metavars_either_side():
    (b,) = unify(t("A"), t("s(j,l)"))
    assert b.terms == {"A": t("s(j,l)")}
    (b,) = unify(t("s(j,l)"), t("A"))
    assert b.terms == {"A": t("s(j,l)")}


def test_unify_decomposes_compounds():
    (b,) = unify(t("s(A,B)"), t("s(j,l)"))
    assert b.terms == {"A": Const("j"), "B": Const("l")}
    assert unify(t("s(A,B)"), t("i(j,l)")) == []
    assert unify(t("s(A,B)"), Compound("s", (Const("j"),))) == []  # arity mismatch


def test_unify_composes_idempotently():
    (b,) = unify(t("s(A,B)"), t("s(B,j)"))
    assert substitute(t("A"), b) == Const("j")
    assert substitute(t("B"), b) == Const("j")
    # the stored binding is already fully applied
    assert b.terms["A"] == Const("j")


def test_unify_occurs_check():
    assert unify(t("E"), t("i(E,p)")) == []
    assert unify(t("i(E,p)"), t("E")) == []
    assert unify(t("s(A,i(A,p))"), t("s(B,B)")) == []


def test_unify_distinct_identifiers_never_equal():
    assert unify(t("#x"), t("#y")) == []
    assert unify(t("#x"), t("#x")) == [EMPTY_BINDING]


def test_unify_apps_with_same_abstraction_variable():
    (b,) = unify(t("P[A]"), t("P[#y]"))
    assert b.terms == {"A": Identifier("y")}
    assert unify(t("P[#x]"), t("P[#y]")) == []


# ---------------------------------------------------------------------------
# the first-order kernel of unification against the general algorithm


def _first_order_term(rng, depth):
    """An App-free term over few names, so that variables are often shared
    and a constant often meets an identifier of the same name."""
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        kind = rng.random()
        if kind < 0.5:
            return MetaVar(rng.choice("ABCD"))
        if kind < 0.75:
            return Const(rng.choice("ab"))
        return Identifier(rng.choice("ab"))
    return Compound(rng.choice("fg"), tuple(
        _first_order_term(rng, depth - 1) for _ in range(rng.randint(1, 3))))


def _same_unifiers(a, b):
    """The kernel's unifier list, checked against the general algorithm's:
    equal bindings with their variables in the same order."""
    kernel = term._unify_first_order(a, b)
    general = term._unify_general(a, b, EMPTY_BINDING, False)
    assert kernel == general, (render_term(a), render_term(b))
    assert [list(k.terms) for k in kernel] == [list(g.terms) for g in general]
    assert unify(a, b) == kernel
    return kernel


FIRST_ORDER_PAIRS = [
    ("s(A,B)", "s(B,j)"),              # a shared variable
    ("s(A,A)", "s(B,f(B))"),           # occurs check through a chain
    ("s(A,f(A))", "s(B,B)"),
    ("s(A,B,C)", "s(B,C,j)"),          # a chain, bound left to right
    ("s(C,B,A)", "s(j,C,B)"),          # the same chain, bound right to left
    ("s(A,B,A)", "s(B,C,D)"),          # a chain met again through its head
    ("s(A,B)", "s(B,A)"),              # a var-var cycle resolves to one name
    ("f(A)", "f(f(A))"),               # occurs check
    ("s(A,g(B,A))", "s(f(B),g(C,f(j)))"),
    ("a", "#a"),                       # a constant is not an identifier
    ("s(a,A)", "s(#a,b)"),
    ("f(g(A,f(B)),C)", "f(g(f(C),f(g(j,D))),f(j))"),  # nested compounds
    ("f(g(j,l),A)", "f(g(j,l),A)"),    # equal terms bind nothing
    ("f(g(j,l))", "f(g(j,m))"),        # ground compounds that differ
]


@pytest.mark.parametrize("a, b", FIRST_ORDER_PAIRS)
def test_first_order_kernel_matches_the_general_algorithm(a, b):
    for x, y in ((a, b), (b, a)):
        _same_unifiers(t(x), t(y))


def test_first_order_kernel_matches_the_general_algorithm_on_random_pairs():
    rng = random.Random(17)
    unifiable = 0
    for _ in range(5000):
        found = _same_unifiers(_first_order_term(rng, 3),
                               _first_order_term(rng, 3))
        unifiable += bool(found)
    assert 500 < unifiable < 4500  # both outcomes are well covered


def test_apps_and_non_empty_bindings_take_the_general_path(monkeypatch):
    calls = []
    real = term._unify_first_order

    def kernel(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(term, "_unify_first_order", kernel)
    assert unify(t("s(A,B)"), t("s(j,l)")) == \
        [Binding({"A": Const("j"), "B": Const("l")})]
    assert len(calls) == 1
    for a, b, binding in [
            ("P[#x]", "s(j,#x)", EMPTY_BINDING),
            ("s(A,P[#x])", "s(j,l)", EMPTY_BINDING),
            ("s(A,B)", "s(j,P[B])", EMPTY_BINDING),
            ("s(A,B)", "s(j,l)", Binding({"C": Const("m")})),
            ("s(A,B)", "s(j,l)", Binding({}, {"P": Abstraction(HOLE)})),
    ]:
        assert unify(t(a), t(b), binding) == \
            term._unify_general(t(a), t(b), binding, False)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# abstraction matching (P[X] against a concrete term)


def test_match_app_known_argument():
    (b,) = match_app(t("P[#x]"), t("s(j,#x)"))
    assert b.abstractions["P"] == parse_abstraction("\\#_z.s(j,#_z)")


def test_match_app_abstracts_all_occurrences():
    (b,) = match_app(t("P[#x]"), t("s(#x,#x)"))
    assert b.abstractions["P"] == parse_abstraction("\\#_z.s(#_z,#_z)")


def test_match_app_unknown_argument_branches_per_identifier():
    results = match_app(t("P[X]"), t("s(#x,#y)"))
    solutions = {(render_term(b.terms["X"]),
                  render_abstraction(b.abstractions["P"])) for b in results}
    assert solutions == {
        ("#x", "\\#_z.s(#_z,#y)"),
        ("#y", "\\#_z.s(#x,#_z)"),
    }


def test_match_app_rejects_identity_abstraction():
    # the body would be the bare hole, which never names a useful scoping
    assert match_app(t("P[#x]"), t("#x")) == []
    assert match_app(t("P[X]"), t("#x")) == []


def test_match_app_vacuous_only_when_allowed():
    assert match_app(t("P[#y]"), t("s(j,#x)")) == []
    (b,) = match_app(t("P[#y]"), t("s(j,#x)"), allow_vacuous=True)
    assert b.abstractions["P"] == parse_abstraction("\\#_z.s(j,#x)")


def test_match_app_defers_on_unresolved_targets():
    # a target still containing an application is not matched yet
    assert match_app(t("P[#x]"), t("ev(m,#x,Q[#x])")) == []


def test_match_app_via_unify_entry_point():
    (b,) = unify(t("P[#x]"), t("s(j,#x)"))
    assert b.abstractions["P"] == parse_abstraction("\\#_z.s(j,#_z)")


# ---------------------------------------------------------------------------
# memoized metadata: hash, ground flag and variable sets


def _random_term(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        kind = rng.choice("cim")
        if kind == "c":
            return Const(rng.choice("jlm"))
        if kind == "i":
            return Identifier(rng.choice(["x", "y"]))
        return MetaVar(rng.choice("ABC"))
    if roll < 0.4:
        return App(AbsVar(rng.choice("PQ")), _random_term(rng, depth - 1))
    return Compound(rng.choice("fg"),
                    tuple(_random_term(rng, depth - 1)
                          for _ in range(rng.randint(1, 3))))


RANDOM_TERMS = [_random_term(random.Random(seed), 4) for seed in range(300)]


def _rebuild(t):
    """An equal term built from fresh objects, node by node."""
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_rebuild(a) for a in t.args))
    if isinstance(t, App):
        return App(AbsVar(t.abstraction.name), _rebuild(t.arg))
    return type(t)(t.name)


@pytest.mark.parametrize("lf", RANDOM_TERMS[:100])
def test_independently_built_equal_terms_hash_equal(lf):
    for again in (_rebuild(lf), parse_term(render_term(lf))):
        assert again is not lf
        assert again == lf
        assert hash(again) == hash(lf)


def test_memoized_metadata_matches_a_subterms_walk():
    for lf in RANDOM_TERMS:
        metas = {s.name for s in subterms(lf) if isinstance(s, MetaVar)}
        absvars = {s.abstraction.name for s in subterms(lf) if isinstance(s, App)}
        assert lf.metas == metas
        assert lf.absvars == absvars
        assert is_ground(lf) == (not metas and not absvars)
        assert app_free(lf) == (not absvars)


def test_substitute_keeps_terms_the_binding_does_not_touch():
    untouched = Binding({"Z": Const("j")}, {"R": parse_abstraction("\\#_z.s(l,#_z)")})
    touched = Binding({"A": Const("j")})
    for lf in RANDOM_TERMS:
        assert substitute(lf, untouched) is lf
        if is_ground(lf) or "A" not in lf.metas:
            assert substitute(lf, touched) is lf
        else:
            assert substitute(lf, touched) != lf
