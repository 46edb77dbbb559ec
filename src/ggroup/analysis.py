"""Static checks that a grammar's rewriting terminates in both directions.

Generation terminates when every derived generation rule strictly shrinks the
logical material: each logical pattern on the right is a proper subterm of
the head, or has strictly smaller skeleton and introduces no meta-variable
occurrences the head lacks.  Parsing terminates when no parsing rule
reintroduces surface tokens, since each input token is expanded exactly once
and every other step is non-increasing.

Both checks read the rules that ``lexicon.derive`` gives for the lexicon as
it is, strict or raw, and list the relators that carry no rule as skipped;
the commutator scheme, which carries none by design, is named on its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import lexicon as lx
from .term import App, MetaVar, Term, render_term, subterms, term_size

__all__ = [
    "RuleFinding", "DirectionReport", "ReversibilityReport",
    "check_size_decrease", "check_token_free", "reversibility_report",
]


@dataclass(frozen=True)
class RuleFinding:
    rule_id: str
    status: str  # "size-decreasing" | "no tokens introduced" | "self-cycle" | "criterion not met"
    detail: str


@dataclass(frozen=True)
class DirectionReport:
    direction: str
    findings: tuple[RuleFinding, ...]
    skipped: tuple[tuple[int, str], ...]  # (relator line number, reason)
    terminating: bool
    # whether the lexicon has the commutator scheme, which carries no rule
    # and is reported by name rather than with the other skipped relators
    commutator: bool = False


@dataclass(frozen=True)
class ReversibilityReport:
    gen: DirectionReport
    parse: DirectionReport

    def reversible(self) -> bool:
        return self.gen.terminating and self.parse.terminating

    def render(self) -> str:
        lines = []
        for rep in (self.gen, self.parse):
            verdict = "terminating" if rep.terminating else "not shown terminating"
            n = len(rep.findings)
            lines.append(f"{rep.direction}: {n} rule{'' if n == 1 else 's'}, "
                         f"{verdict}")
            for f in rep.findings:
                lines.append(f"  {f.rule_id}: {f.status} ({f.detail})")
            for line_no, reason in rep.skipped:
                lines.append(f"  relator at line {line_no} skipped: {reason}")
            if rep.commutator:
                lines.append("  commutator scheme skipped: it carries no "
                             "rewrite rule")
        lines.append("verdict: " + ("reversible" if self.reversible()
                                    else "reversibility not established"))
        return "\n".join(lines)


def _meta_occurrences(t: Term) -> Counter:
    c: Counter = Counter()
    for s in subterms(t):
        if isinstance(s, MetaVar):
            c[s.name] += 1
        elif isinstance(s, App):
            c[s.abstraction.name] += 1
    return c


def check_size_decrease(rule: lx.GenRule) -> RuleFinding:
    """Does every logical pattern on the right shrink relative to the head?"""
    head = rule.lhs
    head_subterms = list(subterms(head))[1:]  # proper subterms only
    head_metas = _meta_occurrences(head)
    for item in rule.rhs:
        if not isinstance(item, lx.LogItem):
            continue
        t = item.term
        if t == head:
            return RuleFinding(rule.rule_id, "self-cycle",
                               f"{render_term(head)} rewrites to a sequence "
                               f"containing {render_term(t)}")
        if t in head_subterms:
            continue
        if term_size(t) < term_size(head) and \
                not (_meta_occurrences(t) - head_metas):
            continue
        return RuleFinding(rule.rule_id, "criterion not met",
                           f"{render_term(t)} does not shrink below "
                           f"{render_term(head)}")
    return RuleFinding(rule.rule_id, "size-decreasing",
                       "every right-hand pattern is a proper subterm of the "
                       "head or strictly smaller")


def check_token_free(rule: lx.ParseRule) -> RuleFinding:
    """Does the rule avoid reintroducing surface tokens?"""
    for item in rule.rhs:
        if isinstance(item, lx.PhonItem):
            return RuleFinding(rule.rule_id, "criterion not met",
                               f"right-hand side reintroduces the token "
                               f"{item.token!r}")
    return RuleFinding(rule.rule_id, "no tokens introduced",
                       "right-hand side is purely logical")


def reversibility_report(lex: lx.Lexicon) -> ReversibilityReport:
    """Check both directions over the rules that ``lexicon.derive`` gives,
    strict grammar or not; the relators that carry no rule are listed as
    skipped, with their reasons."""
    reports = {}
    for direction, check in (("gen", check_size_decrease),
                             ("parse", check_token_free)):
        rules, underivable = lx.derive(lex, direction)
        findings = tuple(map(check, rules))
        skipped = tuple((r.line, "; ".join(reasons)) for r, reasons in underivable)
        ok = all(f.status in ("size-decreasing", "no tokens introduced")
                 for f in findings)
        reports[direction] = DirectionReport(direction, findings, skipped, ok,
                                             lex.commutative())
    return ReversibilityReport(reports["gen"], reports["parse"])
