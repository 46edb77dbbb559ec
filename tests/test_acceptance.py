"""The acceptance gate: one test per required behaviour of the system.

Each test here is intentionally self-contained — expected values are frozen
into this file rather than imported from the unit suites, so the gate stays
meaningful even if those suites change.  A terminal-summary hook in conftest
prints one PASS/FAIL line per criterion after a run.
"""

import random

from conftest import LOGIC_PROGRAMS
from ggroup.analysis import check_size_decrease, reversibility_report
from ggroup.encodings import (
    encode_dcg, encode_logic_program, forward_chain, parse_dcg,
    parse_logic_program,
)
from ggroup.engine import (
    Atom, PublicResult, SearchLimits, conjugate, generate, inverse, is_public,
    normalize, parse, parse_expr, product, render_expr, replay, saturate,
)
from ggroup.lexicon import gen_rules, parse_rules, render_item
from ggroup.term import (
    MetaVar, canonical_identifiers, parse_term, render_term, subterms, unify,
)

LIM = SearchLimits()


def _rendered(results):
    return {render_term(t) for t, _ in results}


def _strings(results):
    return {" ".join(words) for words, _ in results}


# --------------------------------------------------------------- criterion 1


def test_c01_relator_product_reduces_to_public_pair():
    """Three conjugated lexical relators multiply to form ⟨meaning, words⁻¹⟩."""
    vocab = ["john", "saw", "louise"]
    r1 = parse_expr("j^-1 s(j,l) l^-1 saw^-1", vocab)
    r2 = parse_expr("l louise^-1", vocab)
    r3 = parse_expr("j john^-1", vocab)
    q1 = conjugate(r1, parse_expr("j", vocab))
    q2 = conjugate(r2, parse_expr("j saw", vocab))
    out = product(q1, q2, r3)
    assert render_expr(out) == "s(j,l) louise^-1 saw^-1 john^-1"


# --------------------------------------------------------------- criterion 2


def test_c02_derived_rules_match_expected_tables(english):
    """Both rule tables derived from the relators match, row for row."""
    got_gen = [(g.rule_id, render_term(g.lhs),
                " ".join(render_item(i) for i in g.rhs))
               for g in gen_rules(english)]
    assert got_gen == [
        ("g1", "j", "john"),
        ("g2", "l", "louise"),
        ("g3", "p", "paris"),
        ("g4", "m", "man"),
        ("g5", "w", "woman"),
        ("g6", "r(A)", "A ran"),
        ("g7", "s(A,B)", "A saw B"),
        ("g8", "i(E,A)", "E in A"),
        ("g9", "t(N)", "the N"),
        ("g10", "ev(N,X,P[X])", "@a^-1 every N X^-1 @a P[X]"),
        ("g11", "sm(N,X,P[X])", "@a^-1 some N X^-1 @a P[X]"),
        ("g12", "tt(N,X,P[X])", "N that @a^-1 X^-1 @a P[X]"),
    ]
    got_parse = [(p.rule_id, p.word,
                  " ".join(render_item(i) for i in p.rhs))
                 for p in parse_rules(english)]
    assert got_parse == [
        ("p1", "john", "j"),
        ("p2", "louise", "l"),
        ("p3", "paris", "p"),
        ("p4", "man", "m"),
        ("p5", "woman", "w"),
        ("p6", "ran", "A^-1 r(A)"),
        ("p7", "saw", "A^-1 s(A,B) B^-1"),
        ("p8", "in", "E^-1 i(E,A) A^-1"),
        ("p9", "the", "t(N) N^-1"),
        ("p10", "every", "@a ev(N,X,P[X]) P[X]^-1 @a^-1 X N^-1"),
        ("p11", "some", "@a sm(N,X,P[X]) P[X]^-1 @a^-1 X N^-1"),
        ("p12", "that", "N^-1 tt(N,X,P[X]) P[X]^-1 @a^-1 X @a"),
    ]


# --------------------------------------------------------------- criterion 3


GENERATION_GOLDENS = [
    ("s(j,l)", "john saw louise"),
    ("i(s(j,l),p)", "john saw louise in paris"),
    ("ev(m,#x,sm(w,#y,s(#x,#y)))", "every man saw some woman"),
    ("sm(w,#y,ev(m,#x,s(#x,#y)))", "every man saw some woman"),
    ("r(t(tt(m,#x,s(l,#x))))", "the man that louise saw ran"),
]


def test_c03_generation_golden_set(english):
    """Each logical form generates exactly its sentence — no others."""
    produced = set()
    for src, sentence in GENERATION_GOLDENS:
        res = generate(english, parse_term(src), LIM)
        assert not res.truncated
        assert _strings(res.results) == {sentence}
        produced |= _strings(res.results)
    assert len(produced) == 4  # two scopings share one surface string


# --------------------------------------------------------------- criterion 4


PINNED_RELATIVE = "r(tt(t(m),#x1,s(l,#x1)))"


def test_c04_parsing_golden_set(english, scoping_parse, relative_parse):
    res = parse(english, "john saw louise".split(), LIM)
    assert _rendered(res.results) == {"s(j,l)"}

    res = parse(english, "john saw louise in paris".split(), LIM)
    assert _rendered(res.results) >= {"i(s(j,l),p)", "s(j,i(l,p))"}

    assert _rendered(scoping_parse.results) == {
        "ev(m,#x1,sm(w,#x2,s(#x1,#x2)))",
        "sm(w,#x1,ev(m,#x2,s(#x2,#x1)))",
    }
    assert not scoping_parse.truncated

    assert PINNED_RELATIVE in _rendered(relative_parse.results)


# --------------------------------------------------------------- criterion 5


def test_c05_every_derivation_replays(english, scoping_parse, relative_parse):
    """Every derivation from criteria 3 and 4 replays to a public pair."""
    audited = 0

    for src, _ in GENERATION_GOLDENS:
        res = generate(english, parse_term(src), LIM)
        for words, d in res.results:
            end = replay(english, d)
            assert is_public(english, end, start=d.start[0].payload) == \
                PublicResult(d.start[0].payload, words)
            audited += 1

    parse_runs = [
        parse(english, "john saw louise".split(), LIM),
        parse(english, "john saw louise in paris".split(), LIM),
        scoping_parse,
        relative_parse,
    ]
    for res in parse_runs:
        for t, d in res.results:
            end = replay(english, d)
            pub = is_public(english, end)
            assert pub is not None and pub.words == ()
            assert render_term(canonical_identifiers(pub.semantics)) == \
                render_term(t)
            audited += 1

    assert audited >= 5 + 1 + 2 + 2 + 7


# --------------------------------------------------------------- criterion 6


def test_c06_free_group_property_suite():
    """Five algebraic laws, a thousand randomized cases each."""
    alphabet = ["a", "b", "c", parse_term("s(j,l)")]

    def raw(rng, max_len=12):
        return tuple(Atom(rng.choice(alphabet), rng.choice((1, -1)))
                     for _ in range(rng.randrange(max_len + 1)))

    rng = random.Random(2001)
    for _ in range(1000):
        seq = raw(rng)
        cut = rng.randrange(len(seq) + 1)
        whole = normalize(seq)
        assert normalize(whole) == whole
        assert product(normalize(seq[:cut]), normalize(seq[cut:])) == whole

    rng = random.Random(2002)
    for _ in range(1000):
        x, y, z = (normalize(raw(rng)) for _ in range(3))
        assert product(product(x, y), z) == product(x, product(y, z))

    rng = random.Random(2003)
    for _ in range(1000):
        x = normalize(raw(rng))
        assert product(x, ()) == x == product((), x)

    rng = random.Random(2004)
    for _ in range(1000):
        x = normalize(raw(rng))
        assert product(x, inverse(x)) == () == product(inverse(x), x)

    rng = random.Random(2005)
    for _ in range(1000):
        x = normalize(raw(rng))
        by = normalize(raw(rng, max_len=6))
        assert (conjugate(x, by) == ()) == (x == ())


# --------------------------------------------------------------- criterion 7


def test_c07_occurs_check_blocks_cyclic_forms(scoping_parse, relative_parse):
    """E never unifies with i(E,p), and no parse emits a self-containing term."""
    e = MetaVar("E")
    assert unify(e, parse_term("i(E,p)")) == []

    for res in (scoping_parse, relative_parse):
        for t, _ in res.results:
            for s in subterms(t):
                assert sum(1 for u in subterms(s) if u == s) == 1


# --------------------------------------------------------------- criterion 8


def test_c08_parse_generate_round_trips(english, relative_parse):
    """Generation and parsing invert each other on the golden forms."""
    for src, _ in GENERATION_GOLDENS[:4]:
        res = generate(english, parse_term(src), LIM)
        ((words, _),) = res.results
        back = parse(english, words, LIM)
        assert render_term(canonical_identifiers(parse_term(src))) in \
            _rendered(back.results)

    # The relative clause closes through its other bracketing: parsing the
    # sentence yields the reading with the determiner inside the clause, and
    # that reading generates the same sentence again.
    assert PINNED_RELATIVE in _rendered(relative_parse.results)
    back = generate(english, parse_term(PINNED_RELATIVE), LIM)
    assert _strings(back.results) == {"the man that louise saw ran"}


# --------------------------------------------------------------- criterion 9


def test_c09_termination_analysis_and_witness(english):
    """The analysis accepts the reversible grammar and flags the adverb loop."""
    report = reversibility_report(english)
    assert report.reversible()
    assert [f.status for f in report.gen.findings] == ["size-decreasing"] * 12
    assert [f.status for f in report.parse.findings] == \
        ["no tokens introduced"] * 12

    vocab, rules = parse_dcg(
        "phon john ran often .\n"
        "sent ==> np vp .\nnp ==> john .\nvp ==> ran .\nvp ==> often vp .\n")
    adverbs = encode_dcg(vocab, rules)
    findings = {f.rule_id: f for f in (check_size_decrease(g)
                                       for g in gen_rules(adverbs))}
    assert findings["g4"].status == "self-cycle"
    assert not reversibility_report(adverbs).gen.terminating

    # the flagged loop is real: the engine keeps finding longer word strings
    res = generate(adverbs, parse_term("sent"), SearchLimits(max_expansions=12))
    assert res.truncated
    strings = _strings(res.results)
    assert {"john ran", "john often ran"} <= strings
    assert all(s.split()[0] == "john" and s.split()[-1] == "ran"
               and set(s.split()[1:-1]) <= {"often"} for s in strings)


# -------------------------------------------------------------- criterion 10


def test_c10_commutative_engine_matches_forward_chaining():
    """Saturation of each encoded program equals its forward-chained closure."""
    for _, text in LOGIC_PROGRAMS:
        clauses = parse_logic_program(text)
        oracle, fixpoint = forward_chain(clauses)
        assert fixpoint
        res = saturate(encode_logic_program(clauses))
        assert not res.truncated
        assert {t for t, _ in res.results} == set(oracle)
