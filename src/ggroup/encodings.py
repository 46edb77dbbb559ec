"""Encodings of familiar formalisms as relator systems.

A definite clause ``P0 :- P1, ..., Pn`` becomes the relator
``P0 . Pn^-1 ... P1^-1`` together with the order-collapsing commutator
scheme; saturation of the resulting system is consequence closure, checked
here against an independent forward-chaining oracle.

A phrase rule ``A0 ==> A1 ... An`` becomes the relator
``A0 . An^-1 ... A1^-1`` with terminals as surface tokens, kept exactly as
written: a rule like ``vp ==> often vp`` then yields a generation rule that
rewrites ``vp`` to a sequence containing ``vp`` itself, the textbook
non-terminating case.  ``add_depth_counter`` threads a derivation-depth
argument through such rules to restore termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from .lexicon import Lexicon, LogItem, ExprMeta, PhonItem, RelatorScheme
from .term import App, Compound, Const, MetaVar, Term, parse_term

__all__ = [
    "Clause", "DcgRule", "parse_logic_program", "parse_dcg",
    "commutator_scheme", "encode_logic_program", "encode_dcg",
    "forward_chain", "add_depth_counter",
]


@dataclass(frozen=True)
class Clause:
    """One clause; ``line`` is its statement's source line (0 when built in
    code), which the encoded relator carries for reports."""

    head: Term
    body: tuple[Term, ...] = ()
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class DcgRule:
    """One phrase rule; right-hand entries are tokens (str) or term patterns.
    ``line`` is as in ``Clause``."""

    lhs: Term
    rhs: tuple[Union[str, Term], ...] = ()
    line: int = field(default=0, compare=False)


def _statements(text: str, path_hint: str = "input") -> Iterable[tuple[int, str]]:
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.endswith("."):
            raise ValueError(f"{path_hint} line {n}: statement must end with '.'")
        yield n, line[:-1].strip()


def _split_top_commas(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:k])
            start = k + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def parse_logic_program(text: str) -> tuple[Clause, ...]:
    """Read clauses ``head :- b1, b2 .`` and facts ``head .``"""
    clauses = []
    for n, stmt in _statements(text, "program"):
        if ":-" in stmt:
            head_text, body_text = stmt.split(":-", 1)
            body = tuple(parse_term(p) for p in _split_top_commas(body_text))
        else:
            head_text, body = stmt, ()
        clauses.append(Clause(parse_term(head_text.strip()), body, n))
    return tuple(clauses)


def parse_dcg(text: str) -> tuple[tuple[str, ...], tuple[DcgRule, ...]]:
    """Read ``phon tok ... .`` declarations and rules ``lhs ==> item ... .``"""
    vocab: list[str] = []
    rules: list[DcgRule] = []
    for n, stmt in _statements(text, "rules"):
        fields = stmt.split()
        if fields[0] == "phon":
            for tok in fields[1:]:
                if tok in vocab:
                    raise ValueError(f"rules line {n}: duplicate token {tok!r}")
                vocab.append(tok)
            continue
        if len(fields) < 2 or fields[1] != "==>":
            raise ValueError(f"rules line {n}: expected 'lhs ==> ...'")
        lhs = parse_term(fields[0])
        rhs = tuple(f if f in vocab else parse_term(f) for f in fields[2:])
        rules.append(DcgRule(lhs, rhs, n))
    return tuple(vocab), tuple(rules)


def commutator_scheme() -> RelatorScheme:
    return RelatorScheme((ExprMeta("a", 1), ExprMeta("b", 1),
                          ExprMeta("a", -1), ExprMeta("b", -1)))


def encode_logic_program(clauses: Iterable[Clause]) -> Lexicon:
    relators = [RelatorScheme((LogItem(c.head, 1),)
                              + tuple(LogItem(b, -1) for b in reversed(c.body)),
                              line=c.line)
                for c in clauses]
    relators.append(commutator_scheme())
    return Lexicon((), tuple(relators), raw_mode=True)


def encode_dcg(vocab: Iterable[str], rules: Iterable[DcgRule]) -> Lexicon:
    relators = []
    for r in rules:
        items: list = [LogItem(r.lhs, 1)]
        for entry in reversed(r.rhs):
            if isinstance(entry, str):
                items.append(PhonItem(entry, -1))
            else:
                items.append(LogItem(entry, -1))
        relators.append(RelatorScheme(tuple(items), line=r.line))
    return Lexicon(tuple(vocab), tuple(relators), raw_mode=True)


# ---------------------------------------------------------------------------
# Independent consequence oracle (deliberately not built on term.unify)


def _fc_ground(t: Term) -> bool:
    """No meta-variable and no application ``P[X]`` anywhere in ``t``."""
    if isinstance(t, (MetaVar, App)):
        return False
    if isinstance(t, Compound):
        return all(_fc_ground(a) for a in t.args)
    return True


def _fc_apply(t: Term, env: dict) -> Term:
    if isinstance(t, MetaVar):
        return env.get(t.name, t)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_fc_apply(a, env) for a in t.args))
    return t


def _fc_match(pattern: Term, fact: Term, env: dict):
    if isinstance(pattern, MetaVar):
        bound = env.get(pattern.name)
        if bound is None:
            out = dict(env)
            out[pattern.name] = fact
            return out
        return env if bound == fact else None
    if isinstance(pattern, Compound):
        if not (isinstance(fact, Compound) and fact.functor == pattern.functor
                and len(fact.args) == len(pattern.args)):
            return None
        for pa, fa in zip(pattern.args, fact.args):
            env = _fc_match(pa, fa, env)
            if env is None:
                return None
        return env
    return env if pattern == fact else None


def _fc_solve(atoms: tuple[Term, ...], facts, env: dict):
    if not atoms:
        yield env
        return
    for f in facts:
        env2 = _fc_match(atoms[0], f, env)
        if env2 is not None:
            yield from _fc_solve(atoms[1:], facts, env2)


def forward_chain(clauses: Iterable[Clause],
                  max_rounds: int = 64) -> tuple[frozenset, bool]:
    """Bottom-up closure; returns (derived ground facts, reached fixpoint)."""
    clauses = tuple(clauses)
    facts: set[Term] = set()
    for _ in range(max_rounds):
        new = set()
        for c in clauses:
            for env in _fc_solve(c.body, tuple(facts), {}):
                h = _fc_apply(c.head, env)
                if _fc_ground(h) and h not in facts:
                    new.add(h)
        if not new:
            return frozenset(facts), True
        facts |= new
    return frozenset(facts), False


# ---------------------------------------------------------------------------
# Depth-counter enrichment


def _counter_name(rules: Iterable[DcgRule]) -> str:
    used = set()
    def collect(t: Term) -> None:
        if isinstance(t, MetaVar):
            used.add(t.name)
        elif isinstance(t, Compound):
            for a in t.args:
                collect(a)
    for r in rules:
        collect(r.lhs)
        for entry in r.rhs:
            if not isinstance(entry, str):
                collect(entry)
    name = "D"
    k = 0
    while name in used:
        k += 1
        name = f"D{k}"
    return name


def _with_arg(t: Term, extra: Term) -> Term:
    if isinstance(t, Const):
        return Compound(t.name, (extra,))
    if isinstance(t, Compound):
        return Compound(t.functor, t.args + (extra,))
    raise ValueError(f"cannot thread a counter through {t!r}")


def add_depth_counter(rules: Iterable[DcgRule]) -> tuple[DcgRule, ...]:
    """Thread a strictly decreasing depth argument through every rule.

    The left-hand side receives ``s(D)`` and each right-hand pattern ``D``,
    so every derived generation rule shrinks its counter even when the bare
    rule rewrites a symbol to a sequence containing that same symbol.
    """
    rules = tuple(rules)
    d = MetaVar(_counter_name(rules))
    out = []
    for r in rules:
        lhs = _with_arg(r.lhs, Compound("s", (d,)))
        rhs = tuple(entry if isinstance(entry, str) else _with_arg(entry, d)
                    for entry in r.rhs)
        out.append(DcgRule(lhs, rhs, r.line))
    return tuple(out)
