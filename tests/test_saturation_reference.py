"""Differential tests of saturation's head pre-check against a search without
it.

Before it instantiates a clause, ``_saturate_successors`` skips the clauses
whose head cannot meet the selected subgoal: the first-argument index
(``_Tables.candidates``) proposes clauses, and ``term.may_unify`` keeps those
whose head can meet the subgoal.  The reference is the same search with the
index patched to propose every clause and the pre-check patched to accept
every clause.  Both must give equal results, rendered derivations, truncation
and state-key counts, on the shared clause programs, ``family.lp`` and seeded
random definite programs.
"""

import random
from pathlib import Path

import pytest

from conftest import LOGIC_PROGRAMS
from ggroup import engine
from ggroup.encodings import Clause, encode_logic_program, parse_logic_program
from ggroup.engine import SearchLimits, render_derivation, saturate
from ggroup.term import Compound, Const, Identifier, MetaVar, render_term

GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"
# small, so that the 200 random programs saturate in about a second
SMALL = SearchLimits(max_expansions=8, max_items=16, max_results=32)


def _run(monkeypatch, lex, lim, filtered):
    """``saturate(lex, lim)`` and the number of state keys it computed."""
    real = engine._canonical_key
    keys = []

    def counting(*args):
        keys.append(None)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(engine, "_canonical_key", counting)
        if not filtered:
            m.setattr(engine._Tables, "candidates",
                      lambda tables, subgoal: tables.clauses)
            m.setattr(engine, "may_unify", lambda a, b: True)
        return saturate(lex, lim), len(keys)


def _check(monkeypatch, clauses, lim):
    lex = encode_logic_program(clauses)
    got, got_keys = _run(monkeypatch, lex, lim, True)
    want, want_keys = _run(monkeypatch, lex, lim, False)
    assert got.truncated == want.truncated
    assert [(p, render_derivation(d)) for p, d in got.results] == \
        [(p, render_derivation(d)) for p, d in want.results]
    assert got_keys == want_keys


PROGRAMS = LOGIC_PROGRAMS + [("family", (GRAMMAR_DIR / "family.lp").read_text())]


@pytest.mark.parametrize("name, text", PROGRAMS, ids=[n for n, _ in PROGRAMS])
def test_clause_programs_saturate_like_the_reference(monkeypatch, name, text):
    _check(monkeypatch, parse_logic_program(text), SearchLimits())


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


def _check_random_programs(monkeypatch, programs):
    for n, clauses in enumerate(programs):
        try:
            _check(monkeypatch, clauses, SMALL)
        except AssertionError as e:
            program = " ".join(
                render_term(c.head) + "".join(
                    (" :- " if k == 0 else ", ") + render_term(b)
                    for k, b in enumerate(c.body)) + " ."
                for c in clauses)
            raise AssertionError(f"program {n}: {program}") from e


def test_random_programs_saturate_like_the_reference(monkeypatch):
    _check_random_programs(monkeypatch, _random_programs(9, False))


def test_random_programs_with_constant_and_identifier_atoms_saturate_like_the_reference(
        monkeypatch):
    _check_random_programs(monkeypatch, _random_programs(10, True))
