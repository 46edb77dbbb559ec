"""Tests for the logic-program and phrase-rule encodings."""

from pathlib import Path

import pytest

from conftest import LOGIC_PROGRAMS
from ggroup.encodings import (
    Clause,
    DcgRule,
    add_depth_counter,
    commutator_scheme,
    encode_dcg,
    encode_logic_program,
    forward_chain,
    parse_dcg,
    parse_logic_program,
)
from ggroup.engine import SearchLimits, generate, saturate
from ggroup.lexicon import is_commutator_scheme, render_item
from ggroup.term import parse_term, render_term

GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"

FAMILY = (GRAMMAR_DIR / "family.lp").read_text()
ADVERBS = (GRAMMAR_DIR / "often.dcg").read_text()


# -------------------------------------------------------------------- parsing


def test_parse_logic_program_structure():
    clauses = parse_logic_program(FAMILY)
    assert len(clauses) == 5
    facts = [c for c in clauses if not c.body]
    rules = [c for c in clauses if c.body]
    assert len(facts) == 3
    assert {render_term(c.head) for c in facts} == {
        "parent(alice,bea)", "parent(bea,carl)", "parent(carl,dana)",
    }
    base, rec = rules
    assert render_term(base.head) == "ancestor(X,Y)"
    assert [render_term(b) for b in base.body] == ["parent(X,Y)"]
    assert [render_term(b) for b in rec.body] == ["parent(X,Y)", "ancestor(Y,Z)"]


def test_parse_logic_program_skips_comments_and_blanks():
    clauses = parse_logic_program("# closure\n\np(a) .\n")
    assert clauses == (Clause(parse_term("p(a)")),)


def test_parse_logic_program_requires_final_dot():
    with pytest.raises(ValueError, match="program line 2: statement must end with '.'"):
        parse_logic_program("p(a) .\nq(b)\n")


def test_parse_dcg_structure():
    vocab, rules = parse_dcg(ADVERBS)
    assert vocab == ("john", "ran", "often")
    assert len(rules) == 4
    # Declared tokens stay strings; everything else is a logical pattern.
    assert rules[0] == DcgRule(parse_term("sent"), (parse_term("np"), parse_term("vp")))
    assert rules[1] == DcgRule(parse_term("np"), ("john",))
    assert rules[2] == DcgRule(parse_term("vp"), ("ran",))
    assert rules[3] == DcgRule(parse_term("vp"), ("often", parse_term("vp")))


def test_parse_dcg_rejects_duplicate_token():
    with pytest.raises(ValueError, match="duplicate"):
        parse_dcg("phon a .\nphon a .\n")


def test_parse_dcg_requires_final_dot():
    with pytest.raises(ValueError, match="rules line 1"):
        parse_dcg("phon a\n")


# ------------------------------------------------------------------- encoding


def test_encode_logic_program_builds_clause_relators():
    clauses = parse_logic_program(FAMILY)
    lex = encode_logic_program(clauses)
    assert lex.raw_mode
    assert lex.phon_vocab == ()
    assert lex.commutative()
    assert len(lex.relators) == 6
    assert is_commutator_scheme(lex.relators[-1])
    # A clause becomes head followed by its subgoals inverted in reverse order.
    rec = lex.relators[4]
    assert [render_item(i) for i in rec.items] == [
        "ancestor(X,Z)", "ancestor(Y,Z)^-1", "parent(X,Y)^-1",
    ]
    # each relator carries its clause's source line (after a comment and a
    # blank line)
    assert [r.line for r in lex.relators[:-1]] == [3, 4, 5, 6, 7]


def test_encode_dcg_builds_phrase_relators():
    vocab, rules = parse_dcg(ADVERBS)
    lex = encode_dcg(vocab, rules)
    assert lex.raw_mode
    assert lex.phon_vocab == ("john", "ran", "often")
    assert not lex.commutative()
    rendered = [[render_item(i) for i in r.items] for r in lex.relators]
    assert rendered == [
        ["sent", "vp^-1", "np^-1"],
        ["np", "john^-1"],
        ["vp", "ran^-1"],
        ["vp", "vp^-1", "often^-1"],
    ]


def test_commutator_scheme_is_recognized():
    assert is_commutator_scheme(commutator_scheme())


# ------------------------------------------------------------- forward chain


def test_forward_chain_computes_ancestry_closure():
    facts, fixpoint = forward_chain(parse_logic_program(FAMILY))
    assert fixpoint
    assert {render_term(f) for f in facts} == {
        "parent(alice,bea)", "parent(bea,carl)", "parent(carl,dana)",
        "ancestor(alice,bea)", "ancestor(bea,carl)", "ancestor(carl,dana)",
        "ancestor(alice,carl)", "ancestor(bea,dana)",
        "ancestor(alice,dana)",
    }


def test_forward_chain_derives_no_fact_with_an_application():
    # p(A[B]) holds an App, so it is no ground fact, and q(X) has nothing
    # to chain from
    clauses = parse_logic_program("p(A[B]) .\nq(X) :- p(X) .\n")
    facts, fixpoint = forward_chain(clauses)
    assert fixpoint
    assert facts == frozenset()


def test_forward_chain_reports_missed_fixpoint():
    clauses = parse_logic_program("p(a) .\np(s(X)) :- p(X) .\n")
    facts, fixpoint = forward_chain(clauses, max_rounds=5)
    assert not fixpoint
    assert len(facts) == 5  # one deeper term per round


EXPECTED_CLOSURE_SIZES = {
    "ancestry": 9,
    "graph-paths": 9,
    "mutual-friends": 5,
    "unary-chain": 4,
    "shared-parent": 6,
}


@pytest.mark.parametrize("name,text", LOGIC_PROGRAMS)
def test_saturation_agrees_with_forward_chaining(name, text):
    clauses = parse_logic_program(text)
    oracle, fixpoint = forward_chain(clauses)
    assert fixpoint
    assert len(oracle) == EXPECTED_CLOSURE_SIZES[name]

    res = saturate(encode_logic_program(clauses))
    assert not res.truncated
    assert {fact for fact, _ in res.results} == set(oracle)
    for _, d in res.results:
        assert d.mode == "saturate"


def test_a_self_cancelling_clause_resolves_nothing():
    # p(a)'s relator is p(a) . p(a)^-1 q(b)^-1: its head cancels its own
    # last body atom inside the instance, and must not count as a resolution
    # step, which would let every state grow by q(b)^-1 until a limit cuts
    clauses = parse_logic_program(
        "q(b) .\np(a) :- q(b), p(a) .\nr(c) .\ns(X) :- r(X) .\n")
    oracle, fixpoint = forward_chain(clauses)
    assert fixpoint
    res = saturate(encode_logic_program(clauses))
    assert not res.truncated
    assert {fact for fact, _ in res.results} == set(oracle)


# ------------------------------------------------------------ depth counters


def test_unbounded_adverb_chain_truncates():
    vocab, rules = parse_dcg(ADVERBS)
    lex = encode_dcg(vocab, rules)
    res = generate(lex, parse_term("sent"), SearchLimits(max_expansions=12))
    assert res.truncated
    strings = {" ".join(words) for words, _ in res.results}
    assert "john ran" in strings
    assert "john often ran" in strings
    for s in strings:
        words = s.split()
        assert words[0] == "john" and words[-1] == "ran"
        assert set(words[1:-1]) <= {"often"}


def test_add_depth_counter_threads_a_shrinking_argument():
    _, rules = parse_dcg(ADVERBS)
    enriched = add_depth_counter(rules)
    assert enriched[0] == DcgRule(
        parse_term("sent(s(D))"), (parse_term("np(D)"), parse_term("vp(D)")),
    )
    assert enriched[1] == DcgRule(parse_term("np(s(D))"), ("john",))
    assert enriched[3] == DcgRule(parse_term("vp(s(D))"), ("often", parse_term("vp(D)")))


def test_add_depth_counter_avoids_existing_names():
    rules = (DcgRule(parse_term("a(D)"), (parse_term("b(D)"),)),)
    (enriched,) = add_depth_counter(rules)
    assert render_term(enriched.lhs) == "a(D,s(D1))"
    assert render_term(enriched.rhs[0]) == "b(D,D1)"


def test_add_depth_counter_rejects_variable_heads():
    with pytest.raises(ValueError, match="cannot thread a counter"):
        add_depth_counter((DcgRule(parse_term("X"), ()),))


def test_depth_counter_bounds_generation():
    vocab, rules = parse_dcg(ADVERBS)
    lex = encode_dcg(vocab, add_depth_counter(rules))
    res = generate(lex, parse_term("sent(s(s(s(d0))))"), SearchLimits())
    assert not res.truncated
    assert {" ".join(words) for words, _ in res.results} == {
        "john ran", "john often ran",
    }
