"""Logical-form terms: first-order structures extended with one-hole abstractions.

A term is built from constants, compound applications of a functor to
argument terms, identifiers (ground markers written ``#x1``), meta-variables
(uppercase, standing for unknown terms), and applications ``P[X]`` of an
abstraction variable to an argument.  Abstraction variables only ever appear
applied; actual lambda values (``Abstraction``) live inside bindings and are
produced by ``match_app``.

Terms are immutable.  Every term answers ``ground`` (no meta-variable and no
application), ``metas`` (the names of its meta-variables) and ``absvars`` (the
names of its abstraction variables).  A ``Compound`` or ``App`` computes these
from its children's when it is built, and its hash on first use.  These memo
fields are outside equality and hashing, so two independently built equal
terms compare and hash equal, and a copy or a pickle rebuilds a term from its
other fields, without them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Mapping, Optional, Union

__all__ = [
    "Const", "Identifier", "MetaVar", "AbsVar", "Compound", "App", "Term",
    "Abstraction", "Binding", "EMPTY_BINDING",
    "substitute", "unify", "match_app", "term_size", "is_ground",
    "app_free", "identifiers_in", "subterms",
    "canonical_identifiers", "binding_is_acyclic", "parse_term", "render_term",
    "parse_abstraction", "render_abstraction", "MAX_TERM_DEPTH",
]

_NO_VARS: frozenset = frozenset()

# Deepest nesting the term parser accepts.  The term walkers recurse, at most
# a few frames per level, so this keeps them well inside the interpreter's
# default recursion limit.
MAX_TERM_DEPTH = 100


def _memo():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Const:
    name: str
    ground: ClassVar[bool] = True
    metas: ClassVar[frozenset] = _NO_VARS
    absvars: ClassVar[frozenset] = _NO_VARS


@dataclass(frozen=True, slots=True)
class Identifier:
    """Ground marker, rendered ``#name``.  Distinct identifiers never unify."""

    name: str
    ground: ClassVar[bool] = True
    metas: ClassVar[frozenset] = _NO_VARS
    absvars: ClassVar[frozenset] = _NO_VARS


@dataclass(frozen=True, slots=True)
class MetaVar:
    name: str
    ground: ClassVar[bool] = False
    absvars: ClassVar[frozenset] = _NO_VARS

    @property
    def metas(self) -> frozenset:
        return frozenset((self.name,))


@dataclass(frozen=True, slots=True)
class AbsVar:
    """Variable ranging over one-argument abstractions; appears only in App."""

    name: str


def _join(a: frozenset, b: frozenset) -> frozenset:
    """``a | b``, sharing an operand when it already holds the union."""
    if b <= a:
        return a
    return a | b if a else b


def _memo_hash(t: Term, fields: tuple) -> int:
    object.__setattr__(t, "_hash", hash(fields))
    return t._hash


@dataclass(frozen=True, slots=True)
class Compound:
    functor: str
    args: tuple["Term", ...]
    ground: bool = _memo()
    metas: frozenset = _memo()
    absvars: frozenset = _memo()
    _hash: int = _memo()  # set on first use

    def __post_init__(self) -> None:
        metas = absvars = _NO_VARS
        for a in self.args:
            if not a.ground:
                metas = _join(metas, a.metas)
                absvars = _join(absvars, a.absvars)
        object.__setattr__(self, "metas", metas)
        object.__setattr__(self, "absvars", absvars)
        object.__setattr__(self, "ground", not metas and not absvars)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return _memo_hash(self, (self.functor, self.args))

    def __reduce__(self):
        return Compound, (self.functor, self.args)


@dataclass(frozen=True, slots=True)
class App:
    """Application ``P[X]`` of an abstraction variable to an argument term."""

    abstraction: AbsVar
    arg: "Term"
    ground: ClassVar[bool] = False
    metas: frozenset = _memo()
    absvars: frozenset = _memo()
    _hash: int = _memo()  # set on first use

    def __post_init__(self) -> None:
        object.__setattr__(self, "metas", self.arg.metas)
        object.__setattr__(self, "absvars", self.arg.absvars | {self.abstraction.name})

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return _memo_hash(self, (self.abstraction, self.arg))

    def __reduce__(self):
        return App, (self.abstraction, self.arg)


Term = Union[Const, Identifier, MetaVar, Compound, App]

# Reserved hole marker for abstraction bodies.  The term parser rejects
# identifiers with a leading underscore, so it cannot collide with input.
HOLE = Identifier("_z")


@dataclass(frozen=True)
class Abstraction:
    """A one-hole term ``\\#_z.body``; the hole is always ``HOLE``."""

    body: Term

    def apply(self, arg: Term) -> Term:
        return _replace_identifier(self.body, HOLE, arg)


@dataclass(frozen=True)
class Binding:
    """Idempotent, acyclic substitution for meta- and abstraction variables."""

    terms: Mapping[str, Term] = field(default_factory=dict)
    abstractions: Mapping[str, Abstraction] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not self.terms and not self.abstractions


EMPTY_BINDING = Binding()


def substitute(t: Term, b: Binding) -> Term:
    """Apply a binding to a term; bound App nodes beta-reduce.

    A term that shares no variable with the binding comes back as the same
    object.
    """
    if t.ground:
        return t
    if isinstance(t, MetaVar):
        return b.terms.get(t.name, t)
    if t.metas.isdisjoint(b.terms) and t.absvars.isdisjoint(b.abstractions):
        return t
    if isinstance(t, Compound):
        return Compound(t.functor, tuple([substitute(a, b) for a in t.args]))
    arg = substitute(t.arg, b)
    abstraction = b.abstractions.get(t.abstraction.name)
    if abstraction is not None:
        return abstraction.apply(arg)
    return App(t.abstraction, arg)


def _replace_identifier(t: Term, old: Identifier, new: Term) -> Term:
    if t == old:
        return new
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_replace_identifier(a, old, new) for a in t.args))
    if isinstance(t, App):
        return App(t.abstraction, _replace_identifier(t.arg, old, new))
    return t


def subterms(t: Term) -> Iterator[Term]:
    """Preorder traversal including ``t`` itself."""
    yield t
    if isinstance(t, Compound):
        for a in t.args:
            yield from subterms(a)
    elif isinstance(t, App):
        yield from subterms(t.arg)


def term_size(t: Term) -> int:
    """Node count: identifiers, constants and meta-variables count 1."""
    return sum(1 for _ in subterms(t))


def is_ground(t: Term) -> bool:
    return t.ground


def app_free(t: Term) -> bool:
    return not t.absvars


def identifiers_in(t: Term) -> list[Identifier]:
    """Distinct identifiers in first-occurrence (preorder) order."""
    seen: list[Identifier] = []
    for s in subterms(t):
        if isinstance(s, Identifier) and s not in seen:
            seen.append(s)
    return seen


def _compose(b: Binding, terms: dict, abstractions: dict) -> Binding:
    """Extend ``b`` with a delta, keeping the result idempotent."""
    delta = Binding(terms, abstractions)
    new_terms = {k: substitute(v, delta) for k, v in b.terms.items()}
    new_abs = {k: Abstraction(substitute(a.body, delta)) for k, a in b.abstractions.items()}
    new_terms.update(terms)
    new_abs.update(abstractions)
    return Binding(new_terms, new_abs)


def binding_is_acyclic(b: Binding) -> bool:
    """No bound variable may occur in its own (or any) bound value."""
    return (all(v.metas.isdisjoint(b.terms) for v in b.terms.values())
            and all(a.body.absvars.isdisjoint(b.abstractions)
                    for a in b.abstractions.values()))


def unify(t1: Term, t2: Term, b: Binding = EMPTY_BINDING,
          allow_vacuous: bool = False) -> list[Binding]:
    """All most-general extensions of ``b`` making the two terms equal.

    Deterministic order; the list is empty when unification fails.  Branching
    only arises through App patterns with an unresolved argument.

    A pair with no App on either side, under the empty binding, has at most
    one unifier, and ``_unify_first_order`` finds it in one pass.  Every other
    pair takes ``_unify_general``, which substitutes the binding so far into
    both terms at every level and keeps it idempotent after every variable it
    binds.  Both give the same list for a first-order pair.
    """
    if t1.absvars or t2.absvars or b.terms or b.abstractions:
        return _unify_general(t1, t2, b, allow_vacuous)
    return _unify_first_order(t1, t2)


def _unify_general(t1: Term, t2: Term, b: Binding,
                   allow_vacuous: bool) -> list[Binding]:
    """``unify`` for any pair: App patterns reach ``match_app`` with the
    binding so far applied to both sides."""
    t1 = substitute(t1, b)
    t2 = substitute(t2, b)
    if t1 == t2:
        return [b]
    if isinstance(t1, MetaVar):
        if t1.name in t2.metas:
            return []  # occurs check: no infinite-tree solutions
        return [_compose(b, {t1.name: t2}, {})]
    if isinstance(t2, MetaVar):
        if t2.name in t1.metas:
            return []
        return [_compose(b, {t2.name: t1}, {})]
    if isinstance(t1, App) and isinstance(t2, App):
        if t1.abstraction == t2.abstraction:
            return _unify_general(t1.arg, t2.arg, b, allow_vacuous)
        return []
    if isinstance(t1, App):
        return match_app(t1, t2, b, allow_vacuous)
    if isinstance(t2, App):
        return match_app(t2, t1, b, allow_vacuous)
    if isinstance(t1, Compound) and isinstance(t2, Compound):
        if t1.functor != t2.functor or len(t1.args) != len(t2.args):
            return []
        results = [b]
        for a1, a2 in zip(t1.args, t2.args):
            results = [b3 for b2 in results
                       for b3 in _unify_general(a1, a2, b2, allow_vacuous)]
            if not results:
                return []
        return results
    return []


def _unify_first_order(t1: Term, t2: Term) -> list[Binding]:
    """``unify`` of two App-free terms under the empty binding.

    One pass over the argument pairs (``_bind``), depth first and left to
    right as ``_unify_general`` visits them, binds variables in a triangular
    working binding: a bound value may hold variables bound after it, and a
    variable met later is looked up through its chain of bindings.  The same
    variables are bound, on the same side and in the same order, so resolving
    the working binding once at the end (``_resolve``) gives the general
    algorithm's idempotent ``Binding``.
    """
    bound: dict[str, Term] = {}
    if not _bind(t1, t2, bound):
        return []
    if not bound:
        return [EMPTY_BINDING]
    resolved: dict[str, Term] = {}
    return [Binding({name: _resolve(value, bound, resolved)
                     for name, value in bound.items()}, {})]


def _bind(x: Term, y: Term, bound: dict) -> bool:
    """Extend the triangular binding ``bound`` so that ``x`` and ``y``
    become equal; False when no extension can."""
    while type(x) is MetaVar and x.name in bound:
        x = bound[x.name]
    while type(y) is MetaVar and y.name in bound:
        y = bound[y.name]
    if x is y:
        return True
    if type(x) is MetaVar:
        if x == y:
            return True
        if _occurs(x.name, y, bound):
            return False
        bound[x.name] = y
        return True
    if type(y) is MetaVar:
        if _occurs(y.name, x, bound):
            return False
        bound[y.name] = x
        return True
    if type(x) is Compound and type(y) is Compound \
            and not (x.ground and y.ground):
        if x.functor != y.functor or len(x.args) != len(y.args):
            return False
        for a, b in zip(x.args, y.args):
            if not _bind(a, b, bound):
                return False
        return True
    return x == y


def _occurs(name: str, t: Term, bound: dict) -> bool:
    """Whether the unbound variable ``name`` occurs in the App-free ``t``
    once the triangular binding ``bound`` is applied to it (the occurs
    check)."""
    if type(t) is MetaVar:
        value = bound.get(t.name)
        return t.name == name if value is None else _occurs(name, value, bound)
    if t.ground:
        return False
    metas = t.metas
    return name in metas or any(
        _occurs(name, bound[m], bound) for m in metas if m in bound)


def _resolve(t: Term, bound: dict, resolved: dict) -> Term:
    """``t`` with the triangular binding ``bound`` applied until no bound
    variable is left; ``resolved`` memoizes each variable's value."""
    if t.ground:
        return t
    if type(t) is MetaVar:
        value = resolved.get(t.name)
        if value is None:
            value = bound.get(t.name)
            if value is None:
                return t
            value = resolved[t.name] = _resolve(value, bound, resolved)
        return value
    if t.metas.isdisjoint(bound):
        return t
    return Compound(t.functor,
                    tuple([_resolve(a, bound, resolved) for a in t.args]))


def _abstract(t: Term, i: Identifier) -> Abstraction:
    """All-occurrences abstraction of ``i`` out of ``t``."""
    return Abstraction(_replace_identifier(t, i, HOLE))


def match_app(app: App, t: Term, b: Binding = EMPTY_BINDING,
              allow_vacuous: bool = False) -> list[Binding]:
    """Solve ``P[X] = t`` for the abstraction variable ``P``.

    The target must already be free of App nodes (unresolved applications are
    matched only once their own abstractions are known; attempting earlier is
    simply inapplicable, which realizes scoping-order choice points upstream).
    Only occurrences of the argument identifier literally present in ``t`` are
    abstracted.  Degenerate solutions are rejected: the identity abstraction
    always, the vacuous one unless explicitly allowed.
    """
    t = substitute(t, b)
    if not app_free(t):
        return []
    arg = substitute(app.arg, b)
    name = app.abstraction.name
    if isinstance(arg, Identifier):
        candidates = [arg]
    elif isinstance(arg, MetaVar):
        candidates = identifiers_in(t)
        if not candidates and allow_vacuous:
            # nothing to abstract anywhere: no principled argument choice
            return []
    else:
        return []
    out: list[Binding] = []
    for i in candidates:
        if t == i:
            continue  # identity abstraction: body would be the bare hole
        if i not in identifiers_in(t) and not allow_vacuous:
            continue
        terms = {} if isinstance(arg, Identifier) else {arg.name: i}
        out.append(_compose(b, terms, {name: _abstract(t, i)}))
    return out


def canonical_identifiers(t: Term) -> Term:
    """Rename identifiers to #x1, #x2, ... in first-occurrence order; ``t``
    itself when they have those names already, or it holds none."""
    mapping: dict[str, str] = {}
    for i in identifiers_in(t):
        mapping.setdefault(i.name, f"x{len(mapping) + 1}")
    if all(old == new for old, new in mapping.items()):
        return t
    return _rename_identifiers(t, mapping)


def _rename_identifiers(t: Term, mapping: dict[str, str]) -> Term:
    if isinstance(t, Identifier):
        return Identifier(mapping[t.name])
    if isinstance(t, Compound):
        return Compound(t.functor,
                        tuple(_rename_identifiers(a, mapping) for a in t.args))
    if isinstance(t, App):
        return App(t.abstraction, _rename_identifiers(t.arg, mapping))
    return t


# ---------------------------------------------------------------------------
# Concrete syntax


def render_term(t: Term) -> str:
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Identifier):
        return "#" + t.name
    if isinstance(t, MetaVar):
        return t.name
    if isinstance(t, Compound):
        return t.functor + "(" + ",".join(render_term(a) for a in t.args) + ")"
    if isinstance(t, App):
        return t.abstraction.name + "[" + render_term(t.arg) + "]"
    raise TypeError(f"not a term: {t!r}")


def render_abstraction(a: Abstraction) -> str:
    return "\\#_z." + render_term(a.body)


class _Scanner:
    def __init__(self, text: str, allow_hole: bool = False):
        self.text = text
        self.pos = 0
        self.allow_hole = allow_hole

    def error(self, msg: str) -> ValueError:
        return ValueError(f"{msg} at column {self.pos + 1} in {self.text!r}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> None:
        while self.peek().isspace():
            self.pos += 1

    def take_name(self) -> str:
        start = self.pos
        if not (self.peek().isalpha()):
            raise self.error("expected a name")
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        return self.text[start:self.pos]


def _parse_term(sc: _Scanner, depth: int = 1) -> Term:
    if depth > MAX_TERM_DEPTH:
        raise sc.error(f"term nested deeper than {MAX_TERM_DEPTH} levels")
    sc.skip_ws()
    if sc.peek() == "#":
        sc.pos += 1
        if sc.allow_hole and sc.text.startswith(HOLE.name, sc.pos):
            sc.pos += len(HOLE.name)
            return HOLE
        name = sc.take_name()
        if not name[0].islower():
            raise sc.error("identifier names are lowercase")
        return Identifier(name)
    name = sc.take_name()
    if sc.peek() == "(":
        if not name[0].islower():
            raise sc.error("functors are lowercase")
        sc.pos += 1
        args = [_parse_term(sc, depth + 1)]
        sc.skip_ws()
        while sc.peek() == ",":
            sc.pos += 1
            args.append(_parse_term(sc, depth + 1))
            sc.skip_ws()
        if sc.peek() != ")":
            raise sc.error("expected ')'")
        sc.pos += 1
        return Compound(name, tuple(args))
    if sc.peek() == "[":
        if not name[0].isupper():
            raise sc.error("abstraction variables are uppercase")
        sc.pos += 1
        arg = _parse_term(sc, depth + 1)
        sc.skip_ws()
        if sc.peek() != "]":
            raise sc.error("expected ']'")
        sc.pos += 1
        return App(AbsVar(name), arg)
    if name[0].isupper():
        return MetaVar(name)
    return Const(name)


def parse_term(text: str) -> Term:
    """Parse the canonical term syntax, e.g. ``ev(m,#x1,P[#x1])``."""
    sc = _Scanner(text)
    t = _parse_term(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise sc.error("trailing input")
    return t


def parse_abstraction(text: str) -> Abstraction:
    prefix = "\\#_z."
    if not text.startswith(prefix):
        raise ValueError(f"not an abstraction: {text!r}")
    sc = _Scanner(text[len(prefix):], allow_hole=True)
    body = _parse_term(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise sc.error("trailing input")
    return Abstraction(body)
