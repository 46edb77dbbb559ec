"""Differential tests of saturation's head pre-check against a search without
it.

Before it instantiates a clause, ``_saturate_successors`` skips the clauses
whose head cannot meet the selected subgoal (``term.may_unify``).  The
reference is the same search with the pre-check patched to accept every
clause.  Both must give equal results, rendered derivations, truncation and
state-key counts, on the shared clause programs, ``family.lp`` and seeded
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


def _arg(rng, depth, variables):
    roll = rng.random()
    if roll < 0.35 and variables:
        return MetaVar(rng.choice(variables))
    if roll < 0.55 and depth:
        return Compound("f", (_arg(rng, depth - 1, variables),))
    return Const(rng.choice("abc"))


def _atom(rng, variables):
    functor, arity = rng.choice(PREDICATES)
    return Compound(functor, tuple(_arg(rng, 2, variables) for _ in range(arity)))


def _random_program(rng):
    """Two to four facts, then one to three rules: repeated and distinct
    constants, nested compound and bare-variable arguments, sometimes a body
    atom that is a bare variable or a head with an identifier."""
    clauses = [Clause(_atom(rng, ())) for _ in range(rng.randint(2, 4))]
    for _ in range(rng.randint(1, 3)):
        body = tuple(_atom(rng, "XY") for _ in range(rng.randint(1, 2)))
        if rng.random() < 0.15:
            body += (MetaVar("Z"),)
        head = _atom(rng, "XY")
        if rng.random() < 0.15:
            head = Compound(head.functor, (Identifier("k"),) + head.args[1:])
        clauses.append(Clause(head, body))
    return clauses


def _random_programs():
    rng = random.Random(9)
    return [_random_program(rng) for _ in range(200)]


def test_random_programs_saturate_like_the_reference(monkeypatch):
    for n, clauses in enumerate(_random_programs()):
        try:
            _check(monkeypatch, clauses, SMALL)
        except AssertionError as e:
            program = " ".join(
                render_term(c.head) + "".join(
                    (" :- " if k == 0 else ", ") + render_term(b)
                    for k, b in enumerate(c.body)) + " ."
                for c in clauses)
            raise AssertionError(f"program {n}: {program}") from e
