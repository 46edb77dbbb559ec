"""Tests for the reversibility analysis."""

from pathlib import Path

from ggroup.analysis import (
    check_size_decrease,
    check_token_free,
    reversibility_report,
)
from ggroup.encodings import (
    add_depth_counter, encode_dcg, encode_logic_program, parse_dcg,
    parse_logic_program,
)
from ggroup.lexicon import GenRule, LogItem, ParseRule, PhonItem, parse_grammar
from ggroup.term import parse_term

GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"


def _often_lexicon():
    vocab, rules = parse_dcg((GRAMMAR_DIR / "often.dcg").read_text())
    return encode_dcg(vocab, rules)


# ---------------------------------------------------------------- rule checks


def test_size_decrease_accepts_proper_subterm():
    rule = GenRule("g1", parse_term("r(A)"), (LogItem(parse_term("A")), PhonItem("ran", -1)))
    finding = check_size_decrease(rule)
    assert finding.status == "size-decreasing"


def test_size_decrease_accepts_strictly_smaller_terms():
    rule = GenRule("g1", parse_term("vp(s(D))"), (PhonItem("often", -1), LogItem(parse_term("vp(D)"))))
    finding = check_size_decrease(rule)
    assert finding.status == "size-decreasing"


def test_size_decrease_reports_self_cycle():
    rule = GenRule("g1", parse_term("vp"), (PhonItem("often", -1), LogItem(parse_term("vp"))))
    finding = check_size_decrease(rule)
    assert finding.status == "self-cycle"
    assert "vp" in finding.detail


def test_size_decrease_rejects_equal_size():
    rule = GenRule("g1", parse_term("a(X)"), (LogItem(parse_term("b(X)")),))
    finding = check_size_decrease(rule)
    assert finding.status == "criterion not met"
    assert "does not shrink below" in finding.detail


def test_size_decrease_rejects_duplicated_variables():
    # p(X,X) is smaller than q(X,Y,Z) but mentions X more often than the
    # head does, so repeated rewriting could still grow the overall form.
    rule = GenRule("g1", parse_term("q(X,Y,Z)"), (LogItem(parse_term("p(X,X)")),))
    finding = check_size_decrease(rule)
    assert finding.status == "criterion not met"


def test_size_decrease_counts_abstraction_applications():
    rule = GenRule(
        "g1",
        parse_term("ev(N,X,P[X])"),
        (LogItem(parse_term("N")), LogItem(parse_term("P[X]"))),
    )
    finding = check_size_decrease(rule)
    assert finding.status == "size-decreasing"


def test_token_free_accepts_rule_without_tokens():
    rule = ParseRule("p1", "saw", (LogItem(parse_term("s(A,B)")), LogItem(parse_term("B"), -1)))
    finding = check_token_free(rule)
    assert finding.status == "no tokens introduced"


def test_token_free_rejects_reintroduced_token():
    rule = ParseRule("p1", "saw", (LogItem(parse_term("s(A,B)")), PhonItem("saw", -1)))
    finding = check_token_free(rule)
    assert finding.status == "criterion not met"
    assert finding.detail == "right-hand side reintroduces the token 'saw'"


# -------------------------------------------------------------- full reports


def test_english_grammar_is_reversible(english):
    report = reversibility_report(english)
    assert report.reversible()
    assert report.gen.terminating
    assert report.parse.terminating
    assert len(report.gen.findings) == 12
    assert len(report.parse.findings) == 12
    assert not report.gen.skipped
    assert not report.parse.skipped
    assert all(f.status == "size-decreasing" for f in report.gen.findings)
    assert all(f.status == "no tokens introduced" for f in report.parse.findings)


def test_english_report_renders_verdict(english):
    text = reversibility_report(english).render()
    lines = text.splitlines()
    assert lines[0] == "gen: 12 rules, terminating"
    assert (
        "  g7: size-decreasing (every right-hand pattern is a proper subterm"
        " of the head or strictly smaller)" in lines
    )
    assert lines[-1] == "verdict: reversible"


def test_adverb_grammar_is_not_reversible():
    report = reversibility_report(_often_lexicon())
    assert not report.reversible()
    assert not report.gen.terminating
    # The phrase rule rewrites one name into two, and the adverb rule
    # rewrites vp into a sequence containing vp again.
    statuses = {f.rule_id: f.status for f in report.gen.findings}
    assert statuses == {
        "g1": "criterion not met",
        "g2": "size-decreasing",
        "g3": "size-decreasing",
        "g4": "self-cycle",
    }
    by_id = {f.rule_id: f for f in report.gen.findings}
    assert by_id["g1"].detail == "np does not shrink below sent"
    assert by_id["g4"].detail == "vp rewrites to a sequence containing vp"


def test_adverb_grammar_parse_direction_skips_phrase_relator():
    report = reversibility_report(_often_lexicon())
    # Word relators still parse, but the token-free phrase relator has no
    # word to trigger on.
    assert report.parse.terminating
    assert len(report.parse.findings) == 3
    assert report.parse.skipped == (
        (6, "expected exactly one surface token, found 0"),
    )


def test_adverb_report_renders_failures():
    text = reversibility_report(_often_lexicon()).render()
    lines = text.splitlines()
    assert lines[0] == "gen: 4 rules, not shown terminating"
    assert "  g4: self-cycle (vp rewrites to a sequence containing vp)" in lines
    assert "  relator at line 6 skipped: expected exactly one surface token, found 0" in lines
    assert lines[-1] == "verdict: reversibility not established"


def test_depth_counter_restores_termination():
    vocab, rules = parse_dcg((GRAMMAR_DIR / "often.dcg").read_text())
    enriched = encode_dcg(vocab, add_depth_counter(rules))
    report = reversibility_report(enriched)
    assert report.gen.terminating
    assert all(f.status == "size-decreasing" for f in report.gen.findings)


def test_report_on_odd_relator_skips_instead_of_raising():
    # A relator that determines no rule in either direction is reported as
    # skipped rather than raising, even in a strict-mode lexicon.
    lex = parse_grammar("phon a .\nrelator a a^-1 .\n")
    report = reversibility_report(lex)
    assert report.gen.findings == ()
    assert report.gen.skipped == ((2, "no unique semantic head"),)
    assert report.parse.findings == ()
    assert report.parse.skipped[0][0] == 2
    assert "expected exactly one surface token, found 2" in report.parse.skipped[0][1]


def test_report_counts_one_rule_in_the_singular():
    lines = reversibility_report(parse_grammar(
        "phon a .\nrelator x a^-1 .\n")).render().splitlines()
    assert lines[0] == "gen: 1 rule, terminating"
    assert lines[2] == "parse: 1 rule, terminating"


def _family_report():
    return reversibility_report(encode_logic_program(parse_logic_program(
        (GRAMMAR_DIR / "family.lp").read_text())))


def test_report_names_the_source_line_of_each_skipped_clause():
    # family.lp opens with a comment and a blank line: its clauses are on
    # lines 3 to 7, and the one with a loose Y is on line 7
    report = _family_report()
    assert [line for line, _ in report.gen.skipped] == [7]
    assert [line for line, _ in report.parse.skipped] == [3, 4, 5, 6, 7]


def test_report_names_the_commutator_scheme_instead_of_a_line():
    report = _family_report()
    assert report.gen.commutator and report.parse.commutator
    lines = report.render().splitlines()
    assert not [line for line in lines if "line 0" in line]
    assert lines.count(
        "  commutator scheme skipped: it carries no rewrite rule") == 2


def test_report_names_each_loose_meta_variable_once():
    lex = encode_logic_program(parse_logic_program(
        "p(X) :- q(X,Y), r(Y,Z), s(Z,Y) ."))
    (_, reason), = reversibility_report(lex).gen.skipped
    assert reason == "meta-variables not bound by the head: Y, Z"
