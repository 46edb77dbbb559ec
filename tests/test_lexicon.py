"""Grammar files, relator schemes, and the two derived rule systems."""

import pytest

from ggroup import engine
from ggroup.engine import Atom, inverse, normalize, product
from ggroup.lexicon import (
    ExprMeta, GenRule, GrammarError, Lexicon, LogItem, ParseRule, PhonItem,
    RelatorScheme, arity_table, derive, gen_rules, is_commutator_scheme,
    parse_grammar, parse_rules, render_grammar, render_item,
)
from ggroup.term import Binding, parse_abstraction, parse_term, render_term, substitute


def test_english_loads(english):
    assert english.phon_vocab == (
        "john", "louise", "paris", "man", "woman", "ran", "saw", "in", "the",
        "every", "some", "that")
    assert len(english.relators) == 12
    assert not english.commutative()
    assert not english.raw_mode


def test_arity_table(english):
    assert arity_table(english) == {
        "j": 0, "l": 0, "p": 0, "m": 0, "w": 0,
        "r": 1, "s": 2, "i": 2, "t": 1, "ev": 3, "sm": 3, "tt": 3,
    }


def test_grammar_round_trip(english):
    again = parse_grammar(render_grammar(english))
    assert again.phon_vocab == english.phon_vocab
    assert again.relators == english.relators


# ---------------------------------------------------------------------------
# the derived rule tables, frozen item by item


EXPECTED_GEN = [
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

EXPECTED_PARSE = [
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


def test_generation_rules_match_expected_table(english):
    got = [(g.rule_id, render_term(g.lhs),
            " ".join(render_item(i) for i in g.rhs))
           for g in gen_rules(english)]
    assert got == EXPECTED_GEN


def test_parsing_rules_match_expected_table(english):
    got = [(p.rule_id, p.word, " ".join(render_item(i) for i in p.rhs))
           for p in parse_rules(english)]
    assert got == EXPECTED_PARSE


# ---------------------------------------------------------------------------
# each derived rule is its relator read as a rewrite: on any ground
# instantiation, lhs . rhs^-1 is a conjugate (here: cyclic rotation) of the
# instantiated relator


def cyclic_rotations(word):
    """All rotations of a word, each re-reduced."""
    return {normalize(word[k:] + word[:k]) for k in range(len(word))} or {word}


def _items_to_word(items, binding, conjugators):
    atoms = []
    for i in items:
        if isinstance(i, PhonItem):
            atoms.append(Atom(i.token, i.sign))
        elif isinstance(i, LogItem):
            atoms.append(Atom(substitute(i.term, binding), i.sign))
        else:
            w = conjugators[i.name]
            atoms.extend(w if i.sign == 1 else inverse(w))
    assert all(a.ground() for a in atoms), "instantiations must be ground"
    return normalize(tuple(atoms))


INSTANTIATIONS = [
    # (relator index, rule index, term binding, conjugator words)
    (0, 0, Binding(), {}),
    (6, 6, Binding({"A": parse_term("j"), "B": parse_term("l")}), {}),
    (8, 8, Binding({"N": parse_term("m")}), {}),
    (9, 9,
     Binding({"N": parse_term("m"), "X": parse_term("#x")},
             {"P": parse_abstraction("\\#_z.r(#_z)")}),
     {"a": (Atom("the"), Atom(parse_term("w")))}),
]


@pytest.mark.parametrize("rel_idx,rule_idx,binding,conj", INSTANTIATIONS)
def test_gen_rule_is_a_rotation_of_its_relator(english, rel_idx, rule_idx,
                                               binding, conj):
    relator = _items_to_word(english.relators[rel_idx].items, binding, conj)
    rule = gen_rules(english)[rule_idx]
    lhs = (Atom(substitute(rule.lhs, binding)),)
    rhs = _items_to_word(rule.rhs, binding, conj)
    assert product(lhs, inverse(rhs)) in cyclic_rotations(relator)


@pytest.mark.parametrize("rel_idx,rule_idx,binding,conj", INSTANTIATIONS)
def test_parse_rule_is_a_rotation_of_the_inverted_relator(english, rel_idx,
                                                          rule_idx, binding,
                                                          conj):
    relator = _items_to_word(english.relators[rel_idx].items, binding, conj)
    rule = parse_rules(english)[rule_idx]
    lhs = (Atom(rule.word),)
    rhs = _items_to_word(rule.rhs, binding, conj)
    assert inverse(product(lhs, inverse(rhs))) in cyclic_rotations(relator)


# ---------------------------------------------------------------------------
# grammar syntax diagnostics


def _problems(text):
    with pytest.raises(GrammarError) as e:
        parse_grammar(text)
    return [msg for _, msg in e.value.problems]


def test_unpaired_conjugator_rejected():
    msgs = _problems("phon w .\nrelator @a j w^-1 .\n")
    assert any("exactly twice" in m for m in msgs)


def test_interleaved_conjugators_rejected():
    msgs = _problems("phon w .\nrelator @a j @b @a^-1 @b^-1 w^-1 .\n")
    assert any("interleave" in m for m in msgs)


def _nested_conjugators(n):
    """A grammar whose one relator, on line 2, nests ``n`` conjugator pairs
    around ``x``."""
    left = " ".join(f"@a{i}" for i in range(n))
    right = " ".join(f"@a{i}^-1" for i in reversed(range(n)))
    return f"phon w .\nrelator {left} x {right} w^-1 .\n"


def test_conjugators_nested_past_the_term_depth_rejected_with_line():
    # rule instantiation builds one block per pair, recursing per level
    assert len(parse_grammar(_nested_conjugators(100)).relators) == 1
    with pytest.raises(GrammarError) as e:
        parse_grammar(_nested_conjugators(101))
    assert e.value.problems == [
        (2, "conjugator pairs nested deeper than 100 levels")]


def test_duplicate_token_rejected():
    msgs = _problems("phon w w .\n")
    assert any("duplicate" in m for m in msgs)


def test_missing_terminator_rejected():
    msgs = _problems("phon w\n")
    assert any("does not end with" in m for m in msgs)


def test_unknown_statement_rejected():
    msgs = _problems("lexicon w .\n")
    assert any("unknown statement" in m for m in msgs)


def test_shared_term_and_abstraction_name_rejected():
    msgs = _problems("phon that .\nrelator N^-1 tt(N,X,N[X]) @a^-1 X @a that^-1 .\n")
    assert any("both as term and abstraction" in m for m in msgs)


def test_bad_term_syntax_reported_with_line():
    with pytest.raises(GrammarError) as e:
        parse_grammar("phon w .\n\nrelator s(j w^-1 .\n")
    assert e.value.problems[0][0] == 3


# ---------------------------------------------------------------------------
# rule-derivation diagnostics: strict grammars raise, raw ones skip


AMBIGUOUS_HEAD = "phon w .\nrelator j l w^-1 .\n"
UNINVERTED_TOKEN = "phon w .\nrelator j w .\n"


def test_strict_mode_requires_unique_head():
    lex = parse_grammar(AMBIGUOUS_HEAD)
    with pytest.raises(GrammarError, match="no unique semantic head"):
        gen_rules(lex)
    with pytest.raises(GrammarError, match="no unique semantic head"):
        parse_rules(lex)


def test_strict_mode_requires_inverted_token_for_parsing():
    lex = parse_grammar(UNINVERTED_TOKEN)
    with pytest.raises(GrammarError, match="must be inverted"):
        parse_rules(lex)
    # generation direction has no such requirement: the relator j.w says
    # j = w^-1, and that is exactly the rule it yields
    (g,) = gen_rules(lex)
    assert (render_term(g.lhs), [render_item(i) for i in g.rhs]) == ("j", ["w^-1"])


def test_token_free_relator_carries_no_parse_rule():
    lex = parse_grammar("phon w .\nrelator j l^-1 .\n")
    with pytest.raises(GrammarError, match="exactly one surface token, found 0"):
        parse_rules(lex)


def test_raw_mode_skips_instead_of_raising():
    lex = parse_grammar(AMBIGUOUS_HEAD, raw_mode=True)
    assert gen_rules(lex) == ()
    assert parse_rules(lex) == ()
    (scheme, reasons), = derive(lex, "gen")[1]
    assert scheme == lex.relators[0]
    assert reasons == ["no unique semantic head"]


# two strict grammars that derive rules in one direction only: each
# direction reports only its own problems, and the other one still runs
NO_PARSE_RULES = ("phon a b c .\nrelator x a^-1 .\nrelator y b^-1 c^-1 .\n"
                  "relator X^-1 f(X) .\n")
NO_GEN_RULES = "phon a b .\nrelator x a^-1 .\nrelator X^-1 f(Y) b^-1 .\n"


def test_strict_grammar_problems_are_reported_per_direction():
    lex = parse_grammar(NO_PARSE_RULES)
    (words, _), = engine.generate(lex, parse_term("f(x)")).results
    assert words == ("a",)
    with pytest.raises(GrammarError) as e:
        engine.parse(lex, ["a"])
    assert e.value.problems == [
        (3, "expected exactly one surface token, found 2"),
        (4, "expected exactly one surface token, found 0")]
    lex = parse_grammar(NO_GEN_RULES)
    (term, _), = engine.parse(lex, ["a", "b"]).results
    assert render_term(term) == "x"
    with pytest.raises(GrammarError) as e:
        engine.generate(lex, parse_term("x"))
    assert e.value.problems == [(3, "meta-variables not bound by the head: X")]


def test_rule_ids_keep_relator_numbering_in_raw_mode():
    text = "phon u v .\nrelator j l u^-1 .\nrelator l v^-1 .\n"
    lex = parse_grammar(text, raw_mode=True)
    (g,) = gen_rules(lex)
    assert g.rule_id == "g2"  # relator 1 has no unique head and is skipped


# ---------------------------------------------------------------------------
# the commutator scheme


def _commutator():
    return RelatorScheme((ExprMeta("a", 1), ExprMeta("b", 1),
                          ExprMeta("a", -1), ExprMeta("b", -1)))


def test_commutator_scheme_recognition():
    assert is_commutator_scheme(_commutator())
    assert not is_commutator_scheme(RelatorScheme((
        ExprMeta("a", 1), ExprMeta("a", -1),
        ExprMeta("b", 1), ExprMeta("b", -1))))
    assert not is_commutator_scheme(RelatorScheme((LogItem(parse_term("j")),)))


def test_commutator_scheme_carries_no_rules(english):
    lex = Lexicon(english.phon_vocab, english.relators + (_commutator(),))
    assert lex.commutative()
    # still derives the full strict tables; the scheme itself is skipped
    assert len(gen_rules(lex)) == 12
    assert len(parse_rules(lex)) == 12
