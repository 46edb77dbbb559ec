"""Lexicons: relator schemes over the free group, and derived rewrite rules.

A grammar is a list of relator schemes.  Each scheme is a sequence of signed
items: surface tokens, logical-form patterns (which may contain meta-variables
and ``P[X]`` applications), and expression meta-variables ``@a`` that stand
for an arbitrary word and must occur exactly twice with opposite signs (a
conjugating pair).  Setting each relator equal to the neutral element induces
two oriented rewrite systems, one per direction:

* generation: the semantic head rewrites to the rest of the relator, moved
  to the other side (``b -> a^-1 c^-1`` for a relator ``a b c``);
* parsing: the surface token rewrites to the rest (``w -> v u`` for a
  relator ``u w^-1 v``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .term import (
    MAX_TERM_DEPTH, Compound, Const, MetaVar, Term, parse_term, render_term,
    subterms,
)

__all__ = [
    "PhonItem", "LogItem", "ExprMeta", "SchemeItem", "RelatorScheme",
    "Lexicon", "GenRule", "ParseRule", "GrammarError",
    "parse_grammar", "render_grammar", "derive", "gen_rules", "parse_rules",
    "arity_table", "is_commutator_scheme",
]


@dataclass(frozen=True)
class PhonItem:
    token: str
    sign: int = 1


@dataclass(frozen=True)
class LogItem:
    term: Term
    sign: int = 1


@dataclass(frozen=True)
class ExprMeta:
    """Conjugator variable ``@name``: ranges over whole words of the group."""

    name: str
    sign: int = 1


SchemeItem = Union[PhonItem, LogItem, ExprMeta]


def _flip(item: SchemeItem) -> SchemeItem:
    if isinstance(item, PhonItem):
        return PhonItem(item.token, -item.sign)
    if isinstance(item, LogItem):
        return LogItem(item.term, -item.sign)
    return ExprMeta(item.name, -item.sign)


def _inverse_items(items: Iterable[SchemeItem]) -> tuple[SchemeItem, ...]:
    return tuple(_flip(i) for i in reversed(tuple(items)))


@dataclass(frozen=True)
class RelatorScheme:
    items: tuple[SchemeItem, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Lexicon:
    phon_vocab: tuple[str, ...]
    relators: tuple[RelatorScheme, ...]
    raw_mode: bool = False
    # The engine's rule tables for this lexicon, built on first use (see
    # ``engine._tables``); a memo, outside equality and hashing.
    tables: Optional[object] = field(default=None, init=False, repr=False,
                                     compare=False)

    def commutative(self) -> bool:
        return any(is_commutator_scheme(r) for r in self.relators)


def is_commutator_scheme(r: RelatorScheme) -> bool:
    """Recognize ``@a @b @a^-1 @b^-1``: the scheme that collapses order."""
    it = r.items
    return (len(it) == 4
            and all(isinstance(i, ExprMeta) for i in it)
            and it[0].name == it[2].name and it[1].name == it[3].name
            and it[0].name != it[1].name
            and it[0].sign == 1 and it[1].sign == 1
            and it[2].sign == -1 and it[3].sign == -1)


@dataclass(frozen=True)
class GenRule:
    """``lhs`` is a logical-form pattern; ``rhs`` the items it rewrites to."""

    rule_id: str
    lhs: Term
    rhs: tuple[SchemeItem, ...]


@dataclass(frozen=True)
class ParseRule:
    """``word`` rewrites to ``rhs``; meta-variables are renamed fresh and
    abstraction arguments get fresh identifiers at each application."""

    rule_id: str
    word: str
    rhs: tuple[SchemeItem, ...]


class GrammarError(ValueError):
    def __init__(self, problems: list[tuple[int, str]]):
        self.problems = problems
        super().__init__("; ".join(f"line {ln}: {msg}" for ln, msg in problems))


# ---------------------------------------------------------------------------
# Grammar file syntax


def _classify_token(tok: str, phon_vocab: set[str], line: int,
                    problems: list[tuple[int, str]]) -> Optional[SchemeItem]:
    sign = 1
    if tok.endswith("^-1"):
        sign = -1
        tok = tok[:-3]
    if tok.startswith("@"):
        name = tok[1:]
        if not name.isidentifier():
            problems.append((line, f"bad conjugator name {tok!r}"))
            return None
        return ExprMeta(name, sign)
    if tok in phon_vocab:
        return PhonItem(tok, sign)
    try:
        return LogItem(parse_term(tok), sign)
    except ValueError as e:
        problems.append((line, str(e)))
        return None


def parse_grammar(text: str, raw_mode: bool = False) -> Lexicon:
    """Parse the line-oriented grammar syntax.

    ``phon tok tok .`` declares surface tokens; ``relator item item .``
    gives one relator; ``#`` starts a comment.  Every statement ends with a
    bare ``.`` token.
    """
    phon: list[str] = []
    relators: list[RelatorScheme] = []
    problems: list[tuple[int, str]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[-1] != ".":
            problems.append((ln, "statement does not end with '.'"))
            continue
        head, args = toks[0], toks[1:-1]
        if head == "phon":
            for t in args:
                if not t.isidentifier() or not t[0].islower():
                    problems.append((ln, f"bad surface token {t!r}"))
                elif t in phon:
                    problems.append((ln, f"duplicate surface token {t!r}"))
                else:
                    phon.append(t)
        elif head == "relator":
            items = []
            ok = True
            for t in args:
                item = _classify_token(t, set(phon), ln, problems)
                if item is None:
                    ok = False
                else:
                    items.append(item)
            if not items:
                problems.append((ln, "empty relator"))
                ok = False
            if ok:
                scheme = RelatorScheme(tuple(items), line=ln)
                _validate_scheme(scheme, problems)
                relators.append(scheme)
        else:
            problems.append((ln, f"unknown statement {head!r}"))
    if problems:
        raise GrammarError(problems)
    return Lexicon(tuple(phon), tuple(relators), raw_mode=raw_mode)


def _validate_scheme(r: RelatorScheme, problems: list[tuple[int, str]]) -> None:
    # conjugator pairing: exactly two occurrences, opposite signs, and the
    # pairs must nest (the commutator scheme is the recognized exception),
    # no deeper than MAX_TERM_DEPTH levels, as the rule instantiation that
    # builds their blocks recurses per level
    counts: dict[str, list[int]] = {}
    for i in r.items:
        if isinstance(i, ExprMeta):
            counts.setdefault(i.name, []).append(i.sign)
    for name, signs in counts.items():
        if len(signs) != 2 or sum(signs) != 0:
            problems.append((r.line, f"conjugator @{name} must occur exactly twice "
                                     "with opposite signs"))
    if not is_commutator_scheme(r):
        stack: list[str] = []
        depth = 0
        for i in r.items:
            if isinstance(i, ExprMeta) and i.name in counts and len(counts[i.name]) == 2:
                if stack and stack[-1] == i.name:
                    stack.pop()
                else:
                    stack.append(i.name)
                    depth = max(depth, len(stack))
        if stack:
            problems.append((r.line, "conjugator pairs interleave"))
        if depth > MAX_TERM_DEPTH:
            problems.append((r.line, "conjugator pairs nested deeper than "
                                     f"{MAX_TERM_DEPTH} levels"))
    # a name must not be used both as meta-variable and abstraction variable
    terms = [i.term for i in r.items if isinstance(i, LogItem)]
    metas = set().union(*(t.metas for t in terms))
    absvars = set().union(*(t.absvars for t in terms))
    for name in metas & absvars:
        problems.append((r.line, f"{name} used both as term and abstraction variable"))


def render_item(item: SchemeItem) -> str:
    if isinstance(item, PhonItem):
        text = item.token
    elif isinstance(item, LogItem):
        text = render_term(item.term)
    else:
        text = "@" + item.name
    return text + ("^-1" if item.sign < 0 else "")


def render_grammar(lex: Lexicon) -> str:
    lines = []
    if lex.phon_vocab:
        lines.append("phon " + " ".join(lex.phon_vocab) + " .")
    for r in lex.relators:
        lines.append("relator " + " ".join(render_item(i) for i in r.items) + " .")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Rule derivation


def _head_index(r: RelatorScheme) -> Optional[int]:
    """The unique positive logical item that is not a bare meta-variable."""
    idxs = [k for k, i in enumerate(r.items)
            if isinstance(i, LogItem) and i.sign == 1
            and not isinstance(i.term, MetaVar)]
    return idxs[0] if len(idxs) == 1 else None


def _phon_index(r: RelatorScheme) -> Optional[int]:
    idxs = [k for k, i in enumerate(r.items) if isinstance(i, PhonItem)]
    return idxs[0] if len(idxs) == 1 else None


def _scheme_problems(r: RelatorScheme, direction: str) -> list[str]:
    out = []
    h = _head_index(r)
    if h is None:
        out.append("no unique semantic head")
    if direction == "parse":
        phon = [i for i in r.items if isinstance(i, PhonItem)]
        if len(phon) != 1:
            out.append(f"expected exactly one surface token, found {len(phon)}")
        elif phon[0].sign != -1:
            out.append("surface token must be inverted for a parsing rule")
    elif h is not None:
        head = r.items[h].term
        loose = set().union(*(i.term.metas for i in r.items
                              if isinstance(i, LogItem))) - head.metas
        if loose:
            out.append("meta-variables not bound by the head: "
                       + ", ".join(sorted(loose)))
    return out


def _gen_rule(r: RelatorScheme, rule_id: str) -> GenRule:
    # for a relator a.b.c with head b, the rule is b -> a^-1.c^-1
    h = _head_index(r)
    rhs = _inverse_items(r.items[:h]) + _inverse_items(r.items[h + 1:])
    return GenRule(rule_id, r.items[h].term, rhs)


def _parse_rule(r: RelatorScheme, rule_id: str) -> ParseRule:
    w = _phon_index(r)
    before, after = r.items[:w], r.items[w + 1:]
    return ParseRule(rule_id, r.items[w].token, tuple(after) + tuple(before))


def derive(lex: Lexicon, direction: str) -> tuple[tuple, list]:
    """One pass over the relators for ``direction`` (``"gen"`` or
    ``"parse"``): ``(rules, skipped)``.

    ``rules`` are the rules of that direction, numbered ``g<n>`` or ``p<n>``
    by the position of their relator.  ``skipped`` pairs every relator that
    carries no rule with the reasons why, whatever ``raw_mode`` is; the
    commutator scheme, which carries no rule in either direction by design,
    is in neither.
    """
    rules = []
    skipped = []
    for n, r in enumerate(lex.relators, start=1):
        if is_commutator_scheme(r):
            continue
        issues = _scheme_problems(r, direction)
        if issues:
            skipped.append((r, issues))
        elif direction == "gen":
            rules.append(_gen_rule(r, f"g{n}"))
        else:
            rules.append(_parse_rule(r, f"p{n}"))
    return tuple(rules), skipped


def gen_rules(lex: Lexicon) -> tuple[GenRule, ...]:
    """One generation rule per relator: head rewrites to the moved remainder.

    A strict grammar with a relator that carries no rule raises
    ``GrammarError`` with every such relator's line and reasons; in raw mode
    those relators are skipped (see ``derive``).
    """
    return _strict(lex, "gen")


def parse_rules(lex: Lexicon) -> tuple[ParseRule, ...]:
    """One parsing rule per relator: the surface token rewrites to the rest.

    Strict and raw grammars differ as for ``gen_rules``.
    """
    return _strict(lex, "parse")


def _strict(lex: Lexicon, direction: str) -> tuple:
    rules, skipped = derive(lex, direction)
    if skipped and not lex.raw_mode:
        raise GrammarError([(r.line, reason)
                            for r, reasons in skipped for reason in reasons])
    return rules


def arity_table(lex: Lexicon) -> dict[str, int]:
    """Functor/constant arities observed in the relator patterns."""
    table: dict[str, int] = {}
    for r in lex.relators:
        for i in r.items:
            if isinstance(i, LogItem):
                for s in subterms(i.term):
                    if isinstance(s, Compound):
                        table.setdefault(s.functor, len(s.args))
                    elif isinstance(s, Const):
                        table.setdefault(s.name, 0)
    return table
