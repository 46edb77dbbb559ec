"""End-to-end tests that drive the command line entry point."""

import json
from pathlib import Path

import pytest

from ggroup import engine
from ggroup.cli import main
from test_lexicon import NO_GEN_RULES, NO_PARSE_RULES

GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"
ENGLISH = str(GRAMMAR_DIR / "english.gg")
ADVERBS = str(GRAMMAR_DIR / "often.dcg")
FAMILY = str(GRAMMAR_DIR / "family.lp")


# ----------------------------------------------------------------- generate


def test_generate_prints_word_string(capsys):
    assert main(["generate", ENGLISH, "s(j,l)"]) == 0
    assert capsys.readouterr().out == "john saw louise\n"


def test_generate_rejects_bad_arity(capsys):
    assert main(["generate", ENGLISH, "s(j)"]) == 2
    assert capsys.readouterr().err == "error: s takes 2 arguments, got 1\n"


def test_generate_rejects_unknown_functor(capsys):
    assert main(["generate", ENGLISH, "foo(j)"]) == 2
    assert capsys.readouterr().err == "error: unknown functor foo/1\n"


def test_generate_rejects_open_terms(capsys):
    assert main(["generate", ENGLISH, "s(A,l)"]) == 2
    assert "must be ground" in capsys.readouterr().err


def test_generate_rejects_deeply_nested_term(capsys):
    deep = "r(" * 3000 + "j" + ")" * 3000
    assert main(["generate", ENGLISH, deep]) == 2
    assert "nested deeper than" in capsys.readouterr().err


def test_reduce_rejects_deeply_nested_blocks(capsys):
    deep = "{ " * 3000 + "john" + " }" * 3000
    assert main(["reduce", ENGLISH, deep]) == 2
    err = capsys.readouterr().err
    assert err == "error: blocks nested deeper than 100 levels\n"
    # the derivation readers share the limit, and a hundred levels still read
    text = "{ " * 100 + "john" + " }" * 100
    assert engine.render_expr(engine.parse_expr(text, ["john"])) == text
    with pytest.raises(ValueError, match="nested deeper than"):
        engine.parse_expr("{ " + text + " }", ["john"])


def test_generate_truncation_still_prints_partials(capsys):
    code = main(["generate", ADVERBS, "sent", "--max-expansions", "12"])
    assert code == 3
    lines = capsys.readouterr().out.splitlines()
    assert "john ran" in lines
    assert "john often ran" in lines


# -------------------------------------------------------------------- parse


def test_parse_prints_logical_form(capsys):
    assert main(["parse", ENGLISH, "john saw louise"]) == 0
    assert capsys.readouterr().out == "s(j,l)\n"


def test_parse_prints_every_attachment(capsys):
    assert main(["parse", ENGLISH, "john saw louise in paris"]) == 0
    assert set(capsys.readouterr().out.splitlines()) == {
        "i(s(j,l),p)", "s(j,i(l,p))",
    }


def test_parse_scrambled_order_fails_without_commutator(capsys):
    assert main(["parse", ENGLISH, "saw john louise"]) == 1
    assert capsys.readouterr().out == ""


def test_parse_scrambled_order_succeeds_with_commutator(capsys):
    assert main(["parse", ENGLISH, "saw john louise", "--commutative"]) == 0
    assert set(capsys.readouterr().out.splitlines()) == {"s(j,l)", "s(l,j)"}


def test_parse_rejects_unknown_token(capsys):
    assert main(["parse", ENGLISH, "john saw bob"]) == 2
    assert capsys.readouterr().err == "error: unknown token 'bob'\n"


@pytest.mark.parametrize("text, argv, err", [
    (NO_PARSE_RULES, ["parse", "a"],
     "error: line 3: expected exactly one surface token, found 2; "
     "line 4: expected exactly one surface token, found 0\n"),
    (NO_GEN_RULES, ["generate", "x"],
     "error: line 3: meta-variables not bound by the head: X\n"),
    # a declared token that no relator uses
    ("phon a b .\nrelator x a^-1 .\n", ["parse", "b"],
     "error: no parsing rule for token 'b'\n"),
], ids=["parse", "generate", "unused-token"])
def test_grammar_problems_of_the_direction_asked_for(tmp_path, capsys,
                                                     text, argv, err):
    grammar = tmp_path / "g.gg"
    grammar.write_text(text)
    assert main([argv[0], str(grammar), argv[1]]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("text, argv, out", [
    (NO_PARSE_RULES, ["generate", "f(x)"], "a\n"),
    (NO_GEN_RULES, ["parse", "a b"], "x\n"),
], ids=["generate", "parse"])
def test_strict_grammars_run_the_direction_that_has_rules(tmp_path, capsys,
                                                          text, argv, out):
    grammar = tmp_path / "g.gg"
    grammar.write_text(text)
    assert main([argv[0], str(grammar), argv[1]]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("flag,value", [
    ("--max-results", "0"), ("--max-expansions", "-1"), ("--max-items", "0"),
])
def test_limits_below_one_are_rejected(capsys, flag, value):
    assert main(["generate", ENGLISH, "s(j,l)", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: max_")
    assert "must be at least 1" in captured.err


def test_parse_result_cap_reports_truncation(capsys):
    code = main(["parse", ENGLISH, "john saw louise in paris", "--max-results", "1"])
    assert code == 3
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_replay_failure_is_not_reported_as_bad_input(monkeypatch):
    def broken(*args, **kwargs):
        raise engine.StepError("step 3: cancel position out of range")

    monkeypatch.setattr(engine, "parse", broken)
    # a derivation the engine built that fails replay is a bug: it propagates
    # instead of becoming "error: ..." with exit code 2
    with pytest.raises(engine.StepError):
        main(["parse", ENGLISH, "john saw louise"])


# -------------------------------------------------------------------- check


def test_check_reversible_grammar(capsys):
    assert main(["check", ENGLISH]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: reversible"


def test_check_irreversible_grammar(capsys):
    assert main(["check", ADVERBS]) == 1
    out = capsys.readouterr().out
    assert "g4: self-cycle (vp rewrites to a sequence containing vp)" in out
    assert out.splitlines()[-1] == "verdict: reversibility not established"


# -------------------------------------------------------------------- reduce


def test_reduce_cancels_inverse_tokens(capsys):
    assert main(["reduce", ENGLISH, "saw saw^-1 john"]) == 0
    assert capsys.readouterr().out == "john\n"


def test_reduce_prints_neutral_word(capsys):
    assert main(["reduce", ENGLISH, "saw saw^-1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_reduce_handles_term_atoms(capsys):
    assert main(["reduce", ENGLISH, "s(j,l) john^-1 john"]) == 0
    assert capsys.readouterr().out == "s(j,l)\n"


@pytest.mark.parametrize("word", ["s(A,l)", "{ john }", "{ john", "^-1"],
                         ids=["non-ground", "block", "unbalanced", "empty-atom"])
def test_reduce_rejects_what_is_not_a_word(capsys, word):
    assert main(["reduce", ENGLISH, word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    if word == "^-1":
        assert "'^-1'" in captured.err


@pytest.mark.parametrize("argv", [
    ["reduce", ENGLISH, "saw saw^-1 john", "--trace", "json", "--max-results", "5",
     "--commutative"],
    ["check", ENGLISH, "--max-items", "3"],
    ["logic", FAMILY, "--trace", "text"],
], ids=["reduce", "check", "logic"])
def test_subcommands_reject_options_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# --------------------------------------------------------------------- logic


def test_logic_compare_matches_forward_chaining(capsys):
    assert main(["logic", FAMILY]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "MATCH"
    facts = lines[:-1]
    assert len(facts) == 9
    assert facts == sorted(facts)
    assert "ancestor(alice,dana)" in facts


def test_logic_goal_derived(capsys):
    assert main(["logic", FAMILY, "ancestor(alice,dana)"]) == 0
    assert capsys.readouterr().out == "derived\n"


def test_logic_goal_not_derived(capsys):
    assert main(["logic", FAMILY, "ancestor(dana,alice)"]) == 1
    assert capsys.readouterr().out == "not derived\n"


def test_logic_goal_must_be_ground(capsys):
    assert main(["logic", FAMILY, "ancestor(X,dana)"]) == 2
    assert "must be ground" in capsys.readouterr().err


@pytest.mark.parametrize("program, line, name", [
    # saturation derives q(a), since p(a) is an instance of p(X); forward
    # chaining only adds ground facts, so the comparison would say DIFFER
    ("p(X) .\nq(a) :- p(a) .\n", 1, "X"),
    ("p(A[B]) .\n", 1, "A"),
    ("# a comment\n\nq(a) .\nr(X,Y) :- q(X) .\n", 4, "Y"),
], ids=["fact", "abstraction", "rule"])
@pytest.mark.parametrize("goal", [[], ["q(a)"]], ids=["compare", "goal"])
def test_logic_rejects_a_head_variable_missing_from_the_body(
        tmp_path, capsys, program, line, name, goal):
    path = tmp_path / "program.lp"
    path.write_text(program)
    assert main(["logic", str(path)] + goal) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: program line {line}: head variable {name} does not occur "
        "in the body (logic needs range-restricted clauses)\n")


def test_logic_accepts_a_head_variable_that_occurs_in_the_body(
        tmp_path, capsys):
    path = tmp_path / "program.lp"
    path.write_text("p(a) .\nq(X) :- p(X) .\n")
    assert main(["logic", str(path)]) == 0
    assert capsys.readouterr().out == "p(a)\nq(a)\nMATCH\n"


# -------------------------------------------------------------------- traces


def test_generate_trace_text(capsys):
    assert main(["generate", ENGLISH, "s(j,l)", "--trace", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "john saw louise"
    assert lines[1].startswith("  derivation mode=gen")
    assert all(line.startswith("  ") for line in lines[1:])
    assert any(line.startswith("  end:") for line in lines)


def test_parse_trace_json(capsys):
    assert main(["parse", ENGLISH, "john ran", "--trace", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r(j)"
    record = json.loads(lines[1])
    assert record["mode"] == "parse"
    assert record["steps"]


# ------------------------------------------------------------ input handling


def test_missing_grammar_file(capsys):
    assert main(["generate", str(GRAMMAR_DIR / "nope.gg"), "s(j,l)"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_grammar_file(tmp_path, capsys):
    bad = tmp_path / "bad.gg"
    bad.write_text("relator .\n")
    assert main(["parse", str(bad), "john"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "empty relator" in err
