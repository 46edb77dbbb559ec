"""Differential tests of saturation's clause index, its memo of clause
instances, its one-step resolution and the first-order unification kernel,
each against a search without it.

``_saturate_successors`` instantiates only the clauses that the
first-argument index (``_Tables.candidates``) proposes for the selected
subgoal, those whose head can meet it.  Its reference is the same search
with the index patched to propose every clause.

The search shares each clause instance among the states of one depth (the
``instances`` memo of the search context).  Its reference hands
``_saturate_successors`` a context with a fresh memo on every call, which
never hits, since one call instantiates each clause at most once.

The search resolves each subgoal in one step: it unifies the instance's head
with the subgoal, then builds the resolvent once.  Its reference builds each
successor in two steps through ``engine._apply``: it splices the instance
onto the state and normalizes, and only then unifies the head with the
subgoal and applies the cancel.

``term.unify`` solves a first-order pair under the empty binding in one
pass over a triangular binding.  Its reference forces every call onto the
general algorithm, ``term._unify_general``.

Each reference must give the search's results, rendered derivations,
truncation and state-key counts, on the shared clause programs,
``family.lp``, seeded random definite programs and seeded ground programs.
"""

import dataclasses
import random
from pathlib import Path

import pytest

from conftest import LOGIC_PROGRAMS
from ggroup import engine, term
from ggroup.encodings import (
    Clause, encode_logic_program, forward_chain, parse_logic_program,
)
from ggroup.engine import (
    Atom, CancelStep, ExpandStep, SearchLimits, render_derivation, render_expr,
    saturate,
)
from ggroup.term import (
    EMPTY_BINDING, Compound, Const, Identifier, MetaVar, parse_term,
    render_term,
)

GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"
# small, so that the 200 random programs saturate in about a second
SMALL = SearchLimits(max_expansions=8, max_items=16, max_results=32)


def unfiltered(m):
    """Every clause proposed for every subgoal."""
    m.setattr(engine._Tables, "candidates",
              lambda tables, subgoal: tables.clauses)


def memo_free(m):
    """A fresh memo of instances for every call of the successors."""
    real = engine._saturate_successors
    m.setattr(engine, "_saturate_successors",
              lambda s, node: real(dataclasses.replace(s, instances={}), node))


def _two_step_successors(s, node):
    """The successors built in two steps: splice the instance onto the state
    and normalize (``engine._apply`` of the ``ExpandStep``), then unify the
    head with the subgoal and apply the cancel, slicing, substituting and
    normalizing again."""
    expr = node.expr
    if expr and not (isinstance(expr[-1], Atom) and expr[-1].sign == -1):
        return []
    out = []
    depth = node.expansions + 1
    memo = s.instances.setdefault(depth, {})
    sel = len(expr) - 1
    subgoal = expr[sel] if expr else None
    lex = s.lex
    tables = engine._tables(lex)
    clauses = (tables.clauses if subgoal is None
               else tables.candidates(subgoal.payload))
    for rule_id, _ in clauses:
        size = len(tables.by_id[rule_id].items)  # logical items only
        # copy number depth, or 0 for a clause without variables
        step = ExpandStep((), len(expr), rule_id,
                          instance=depth if any(tables.vars[rule_id]) else 0)
        new = engine._apply(lex, expr, step, instances=memo)
        if subgoal is None:
            # the first instance picks the root, unless it cancelled inside
            if len(new) == size:
                out.append(((step,), new))
        elif sel >= len(new) or new[sel] is not subgoal:
            # the head cancelled the subgoal eagerly
            out.append(((step,), new))
        elif len(new) == len(expr) + size:  # nothing cancelled
            for delta in engine.unify(subgoal.payload, new[sel + 1].payload,
                                      EMPTY_BINDING, s.allow_vacuous):
                cancel = CancelStep((), sel, delta)
                out.append(((step, cancel), engine._apply(lex, new, cancel)))
    return out


def two_step(m):
    """Each successor spliced and normalized, then unified and cancelled."""
    m.setattr(engine, "_saturate_successors", _two_step_successors)


def general_unify(m):
    """Every unification by the general algorithm, none by the kernel."""
    m.setattr(engine, "unify", term._unify_general)


REFERENCES = [unfiltered, memo_free, two_step, general_unify]


def _run(monkeypatch, lex, lim, reference=None):
    """``saturate(lex, lim)`` and the number of state keys it computed.  No
    state may hold one atom object twice."""
    real = engine._canonical_key
    keys = []

    def counting(expr, commutative):
        keys.append(None)
        assert len({id(i) for i in expr}) == len(expr), render_expr(expr)
        return real(expr, commutative)

    with monkeypatch.context() as m:
        m.setattr(engine, "_canonical_key", counting)
        if reference is not None:
            reference(m)
        return saturate(lex, lim), len(keys)


def _check(monkeypatch, clauses, lim, reference):
    """The search's result, after checking it against ``reference``'s."""
    lex = encode_logic_program(clauses)
    got, got_keys = _run(monkeypatch, lex, lim)
    want, want_keys = _run(monkeypatch, lex, lim, reference)
    assert got.truncated == want.truncated
    assert [(p, render_derivation(d)) for p, d in got.results] == \
        [(p, render_derivation(d)) for p, d in want.results]
    assert got_keys == want_keys
    return got


PROGRAMS = LOGIC_PROGRAMS + [("family", (GRAMMAR_DIR / "family.lp").read_text())]


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("name, text", PROGRAMS, ids=[n for n, _ in PROGRAMS])
def test_clause_programs_saturate_like_the_reference(monkeypatch, name, text,
                                                     reference):
    _check(monkeypatch, parse_logic_program(text), SearchLimits(), reference)


# ---------------------------------------------------------------------------
# seeded random definite programs

PREDICATES = (("p", 1), ("q", 1), ("r", 2))
# adds a zero-arity predicate, whose atoms are constants
WIDE = PREDICATES + (("s", 0),)


def _arg(rng, depth, variables, idents):
    roll = rng.random()
    if roll < 0.35 and variables:
        return MetaVar(rng.choice(variables))
    if roll < 0.55 and depth:
        return Compound("f", (_arg(rng, depth - 1, variables, idents),))
    if idents and rng.random() < 0.3:
        return Identifier(rng.choice("ak"))  # #a is not the constant a
    return Const(rng.choice("abc"))


def _atom(rng, variables, wide):
    functor, arity = rng.choice(WIDE if wide else PREDICATES)
    if not arity:
        return Const(functor)
    return Compound(functor, tuple(_arg(rng, 2, variables, wide)
                                   for _ in range(arity)))


def _random_program(rng, wide=False):
    """Two to four facts, then one to three rules: repeated and distinct
    constants, nested compound and bare-variable arguments, sometimes a body
    atom that is a bare variable or a head with an identifier.  ``wide``
    adds zero-arity atoms, identifier arguments anywhere and heads that are
    a bare variable."""
    clauses = [Clause(_atom(rng, (), wide)) for _ in range(rng.randint(2, 4))]
    for _ in range(rng.randint(1, 3)):
        body = tuple(_atom(rng, "XY", wide) for _ in range(rng.randint(1, 2)))
        if rng.random() < 0.15:
            body += (MetaVar("Z"),)
        head = _atom(rng, "XY", wide)
        if rng.random() < 0.15 and isinstance(head, Compound):
            head = Compound(head.functor, (Identifier("k"),) + head.args[1:])
        elif wide and rng.random() < 0.1:
            head = MetaVar("X")
        clauses.append(Clause(head, body))
    return clauses


def _random_programs(seed, wide):
    rng = random.Random(seed)
    return [_random_program(rng, wide) for _ in range(200)]


def _render(clauses):
    return " ".join(
        render_term(c.head) + "".join(
            (" :- " if k == 0 else ", ") + render_term(b)
            for k, b in enumerate(c.body)) + " ."
        for c in clauses)


def _check_random_programs(monkeypatch, programs, reference, closure=False):
    """Check each program against ``reference``; with ``closure``, also its
    facts against forward chaining: equal when the search was not cut off,
    a subset when it was."""
    for n, clauses in enumerate(programs):
        try:
            res = _check(monkeypatch, clauses, SMALL, reference)
            if closure:
                facts, fixpoint = forward_chain(clauses)
                assert fixpoint
                got = {t for t, _ in res.results}
                assert got <= facts if res.truncated else got == facts
        except AssertionError as e:
            raise AssertionError(f"program {n}: {_render(clauses)}") from e


@pytest.mark.parametrize("reference", REFERENCES)
def test_random_programs_saturate_like_the_reference(monkeypatch, reference):
    _check_random_programs(monkeypatch, _random_programs(9, False), reference)


@pytest.mark.parametrize("reference", REFERENCES)
def test_random_programs_with_constant_and_identifier_atoms_saturate_like_the_reference(
        monkeypatch, reference):
    _check_random_programs(monkeypatch, _random_programs(10, True), reference)


# ---------------------------------------------------------------------------
# seeded ground programs: a ground clause has an empty renaming, so a memo
# of instances that forgot the depth would hand one resolvent the same atom
# object twice.  For q(b) :- q(b), r(c), whose relator is
# q(b) r(c)^-1 q(b)^-1, a second instance resolving the first one's q(b)^-1
# would bring back the first one's r(c)^-1 object.

GROUND_ATOMS = tuple(parse_term(t) for t in ("p(a)", "q(b)", "r(c)", "p(b)", "s"))


def _ground_program(rng):
    """One to three facts, then one to four ground rules: bodies of one to
    three atoms, often repeated, and heads that often occur in the body;
    sometimes a range-restricted rule with a variable too."""
    atoms = rng.sample(GROUND_ATOMS, 3)
    clauses = [Clause(a) for a in rng.sample(atoms, rng.randint(1, 3))]
    for _ in range(rng.randint(1, 4)):
        body = tuple(rng.choice(atoms) for _ in range(rng.randint(1, 3)))
        head = rng.choice(body) if rng.random() < 0.4 else rng.choice(atoms)
        clauses.append(Clause(head, body))
    if rng.random() < 0.3:
        clauses.append(Clause(parse_term("q(X)"), (parse_term("p(X)"),)))
    return clauses


GROUND_PROGRAMS = [
    parse_logic_program("q(b) .\nr(c) .\nq(b) :- q(b), r(c) .\n"
                        "p(a) :- q(b), q(b) .\n"),
    parse_logic_program("q(b) .\np(a) :- q(b), q(b) .\nq(b) :- p(a) .\n"),
    parse_logic_program("s .\ns :- s .\np(a) :- s, s, s .\n"),
] + [_ground_program(rng) for rng in [random.Random(11)] for _ in range(200)]


@pytest.mark.parametrize("reference", REFERENCES)
def test_ground_programs_saturate_like_the_reference_and_forward_chaining(
        monkeypatch, reference):
    _check_random_programs(monkeypatch, GROUND_PROGRAMS, reference,
                           closure=True)


# ---------------------------------------------------------------------------
# variable names that end in an underscore and digits, like the names that
# number a clause copy (X becomes X_3 at depth 3)

CHAIN = "".join(f"edge(n{k},n{k + 1}) .\n" for k in range(13))


@pytest.mark.parametrize("rules", [
    "path(X_1,X) :- edge(X_1,X) .\n"
    "path(X,X_1_1) :- edge(X,X_1), path(X_1,X_1_1) .\n",
    "path(X_12,X_1) :- edge(X_12,X_1) .\n"
    "path(X_1,X_12) :- edge(X_1,X), path(X,X_12) .\n",
], ids=["suffix-1", "suffix-12"])
def test_digit_suffixed_variables_saturate_like_plain_names(rules):
    plain = "path(X,Y) :- edge(X,Y) .\npath(X,Z) :- edge(X,Y), path(Y,Z) .\n"
    lim = SearchLimits(max_results=200)
    want = saturate(encode_logic_program(parse_logic_program(CHAIN + plain)),
                    lim)
    clauses = parse_logic_program(CHAIN + rules)
    got = saturate(encode_logic_program(clauses), lim)
    assert not (want.truncated or got.truncated)
    facts = {render_term(t) for t, _ in got.results}
    assert facts == {render_term(t) for t, _ in want.results}
    # the chain is longer than 11 edges, so copies numbered 1 and 11 meet
    assert "path(n0,n13)" in facts and len(facts) == 13 + 13 * 14 // 2
    assert {t for t, _ in got.results} == forward_chain(clauses)[0]
