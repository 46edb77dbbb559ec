"""Command line interface.

Commands: ``generate`` (logical form to word strings), ``parse`` (word string
to logical forms), ``check`` (reversibility report), ``reduce`` (parse a word,
a string of ground atoms without blocks, and print its ``engine.normalize``
reduction), ``logic`` (saturate a clause program and compare with
forward chaining).  Grammar files are dispatched on extension: ``.dcg`` for
phrase rules, ``.lp`` for clause programs, anything else for the relator DSL.

Exit codes: 0 success, 1 no results / criterion not met / sets differ,
2 malformed grammar or input, 3 result list cut off by the search limits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, encodings, engine
from . import lexicon as lx
from .term import (
    App, Compound, MetaVar, is_ground, parse_term, render_term, subterms,
)


def _parser() -> argparse.ArgumentParser:
    default = engine.SearchLimits()
    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--max-expansions", type=int,
                        default=default.max_expansions,
                        help="cap on rule/relator expansions per derivation")
    limits.add_argument("--max-items", type=int, default=default.max_items,
                        help="cap on items in a working expression")
    limits.add_argument("--max-results", type=int, default=default.max_results,
                        help="cap on the number of reported results")
    limits.add_argument("--allow-vacuous", action="store_true",
                        help="let abstractions ignore their argument")
    commutative = argparse.ArgumentParser(add_help=False)
    commutative.add_argument("--commutative", action="store_true",
                             help="add the order-collapsing commutator scheme")
    search = argparse.ArgumentParser(add_help=False, parents=[limits, commutative])
    search.add_argument("--trace", choices=("text", "json"), default=None,
                        help="print a replayed derivation for every result")

    p = argparse.ArgumentParser(
        prog="ggroup",
        description="Bidirectional grammar engine over free-group relators.")
    sub = p.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("generate", parents=[search],
                        help="word strings for a ground logical form")
    sp.add_argument("grammar")
    sp.add_argument("input", metavar="term")
    sp = sub.add_parser("parse", parents=[search],
                        help="logical forms for a string of tokens")
    sp.add_argument("grammar")
    sp.add_argument("input", metavar="sentence")
    sp = sub.add_parser("check", parents=[commutative],
                        help="reversibility report for a grammar")
    sp.add_argument("grammar")
    sp = sub.add_parser("reduce",
                        help="reduce a free-group word over the grammar's atoms")
    sp.add_argument("grammar")
    sp.add_argument("input", metavar="word")
    sp = sub.add_parser("logic", parents=[limits],
                        help="saturate a clause program; check a goal or "
                             "compare with forward chaining")
    sp.add_argument("grammar", metavar="program")
    sp.add_argument("input", metavar="goal", nargs="?", default=None)
    return p


def _load_lexicon(path: str, commutative: bool) -> lx.Lexicon:
    text = Path(path).read_text()
    if path.endswith(".dcg"):
        vocab, rules = encodings.parse_dcg(text)
        lexi = encodings.encode_dcg(vocab, rules)
    elif path.endswith(".lp"):
        lexi = encodings.encode_logic_program(encodings.parse_logic_program(text))
    else:
        lexi = lx.parse_grammar(text)
    if commutative and not lexi.commutative():
        lexi = lx.Lexicon(lexi.phon_vocab,
                          lexi.relators + (encodings.commutator_scheme(),),
                          raw_mode=lexi.raw_mode)
    return lexi


def _limits(args) -> engine.SearchLimits:
    return engine.SearchLimits(args.max_expansions, args.max_items,
                               args.max_results, args.allow_vacuous)


def _validate_input_term(lexi: lx.Lexicon, t) -> None:
    table = lx.arity_table(lexi)
    for s in subterms(t):
        if isinstance(s, Compound):
            arity = table.get(s.functor)
            if arity is None:
                raise engine.InputError(f"unknown functor {s.functor}/{len(s.args)}")
            if arity != len(s.args):
                raise engine.InputError(
                    f"{s.functor} takes {arity} arguments, got {len(s.args)}")


def _print_trace(lexi: lx.Lexicon, d: engine.Derivation, fmt: str,
                 allow_vacuous: bool) -> None:
    # round-trip through the serialized form and replay it before printing
    if fmt == "text":
        text = engine.render_derivation(d)
        again = engine.parse_derivation(text, lexi.phon_vocab)
        engine.replay(lexi, again, allow_vacuous=allow_vacuous)
        for line in text.splitlines():
            print("  " + line)
    else:
        record = json.loads(json.dumps(engine.derivation_record(d)))
        again = engine.derivation_of_record(record, lexi.phon_vocab)
        engine.replay(lexi, again, allow_vacuous=allow_vacuous)
        print(json.dumps(record, sort_keys=True))


def _finish(results_shown: int, truncated: bool) -> int:
    if truncated:
        return 3
    return 0 if results_shown else 1


def _cmd_generate(args) -> int:
    lexi = _load_lexicon(args.grammar, args.commutative)
    t = parse_term(args.input)
    _validate_input_term(lexi, t)
    res = engine.generate(lexi, t, _limits(args))
    for words, d in res.results:
        print(" ".join(words) if words else "1")
        if args.trace:
            _print_trace(lexi, d, args.trace, args.allow_vacuous)
    return _finish(len(res.results), res.truncated)


def _cmd_parse(args) -> int:
    lexi = _load_lexicon(args.grammar, args.commutative)
    res = engine.parse(lexi, args.input.split(), _limits(args))
    for term, d in res.results:
        print(render_term(term))
        if args.trace:
            _print_trace(lexi, d, args.trace, args.allow_vacuous)
    return _finish(len(res.results), res.truncated)


def _cmd_check(args) -> int:
    lexi = _load_lexicon(args.grammar, args.commutative)
    report = analysis.reversibility_report(lexi)
    print(report.render())
    return 0 if report.reversible() else 1


def _cmd_reduce(args) -> int:
    lexi = _load_lexicon(args.grammar, False)
    word = engine.parse_expr(args.input, lexi.phon_vocab)
    for item in word:
        if not (isinstance(item, engine.Atom) and item.ground()):
            raise engine.InputError("a word is ground atoms without blocks, "
                                    f"got {engine.render_expr((item,))!r}")
    print(engine.render_expr(engine.normalize(word)))
    return 0


def _variables(t) -> list[str]:
    """Names of the meta-variables and abstraction variables of ``t``, in
    preorder, repeats included."""
    return [s.name if isinstance(s, MetaVar) else s.abstraction.name
            for s in subterms(t) if isinstance(s, (MetaVar, App))]


def _check_range_restricted(clauses) -> None:
    """Every head variable must occur in the clause's body, as in Datalog.
    Forward chaining, which ``logic`` compares with, only adds ground facts,
    while saturation also derives the ground instances of a clause like
    ``p(X) .``, so such a program would read as DIFFER."""
    for c in clauses:
        body = {name for b in c.body for name in _variables(b)}
        for name in _variables(c.head):
            if name not in body:
                raise engine.InputError(
                    f"program line {c.line}: head variable {name} does not "
                    "occur in the body (logic needs range-restricted "
                    "clauses)")


def _cmd_logic(args) -> int:
    clauses = encodings.parse_logic_program(Path(args.grammar).read_text())
    _check_range_restricted(clauses)
    lexi = encodings.encode_logic_program(clauses)
    res = engine.saturate(lexi, _limits(args))
    derived = {render_term(t) for t, _ in res.results}
    oracle, fixpoint = encodings.forward_chain(clauses)
    oracle_rendered = {render_term(t) for t in oracle}
    complete = fixpoint and derived == oracle_rendered
    if args.input is not None:
        goal = parse_term(args.input)
        if not is_ground(goal):
            raise engine.InputError("the goal must be ground")
        if render_term(goal) in derived:
            print("derived")
            return 0
        if complete:
            print("not derived")
            return 1
        print("INCOMPLETE")
        return 3
    for line in sorted(derived):
        print(line)
    if complete:
        print("MATCH")
        return 0
    if not fixpoint or (derived < oracle_rendered and res.truncated):
        print("INCOMPLETE")
        return 3
    print("DIFFER")
    return 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"generate": _cmd_generate, "parse": _cmd_parse,
                "check": _cmd_check, "reduce": _cmd_reduce,
                "logic": _cmd_logic}
    try:
        return handlers[args.command](args)
    except engine.StepError:
        raise  # a derivation the engine built failed replay: a bug, not bad input
    except (ValueError, OSError) as e:  # GrammarError and InputError too
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
