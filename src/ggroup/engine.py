"""Rewriting engine: generation, parsing and saturation over one search core.

Working expressions are sequences of signed atoms (surface tokens or
logical-form payloads, the latter possibly containing meta-variables) and
*blocks*.  A block operationalizes a conjugated segment ``y . items . y^-1``
with the conjugator left free.  One step, ``DissolveStep``, removes a block,
rotates its contents cyclically and splices them into a slot of the block's
own level or an enclosing one; its slots and rotations realize exactly the
arrangements the free conjugator can produce.  Block contents are cyclic:
their last item also touches their first, and a cancel may join the two.
Ground mutually-inverse neighbours cancel eagerly after every step;
cancellations that need unification are explicit steps.  In a commutative
lexicon (one with the commutator relator) no step reorders items: a
top-level cancel names its partner, and the two cancel where they stand.

A word of the free group is a ground expression without blocks, and
``normalize`` is its reduction; ``product``, ``inverse`` and ``conjugate``
are the group operations on words.

Every rule is instantiated one way, by ``_instantiate_items`` under a
binding: a generation rule's recorded unifier, or the fresh renaming that a
parsing rule or relator instance records (``_renaming``).  Whether steps
commute is the lexicon's to decide, never a caller's.

A derivation is its answer's proof and ``replay`` its checker: the search
applies the steps it builds itself unchecked (``_apply``), and ``_search``
proves its answers over the search tree they share.  Each node on an
answer's path is proved once, by one ``replay`` of the node's own steps from
its parent's proved expression, which checks every step (``apply_step``)
and that the node's expression is the one the search built.  Answers that
share a derivation prefix share the proof of its nodes.

Each query is one search.  Parsing starts it from every assignment of rules
to homonymous tokens: ``max_results`` counts readings across them all, and a
reading's derivation may start from any assignment that reaches it.

Generation explores every placement and rotation of every block (a bundle,
one ``DissolveStep``), since inert final placements give distinct strings.
Parsing postpones placement (a partial-order reduction): a bundle is a state
only when it is productive, and an unproductive one is extended into a run
of bundles, emitted once productive.  No reading is lost, and intermediate
states can be larger by up to one item per block (see ``_block_successors``).

The same commutation prunes cancels: a state reached by a bundle skips its
top-level cancels of pairs that were adjacent before the bundle (see
``_search``).

Saturation instantiates only the clauses whose head can meet the selected
subgoal, judged on rigid skeletons (``may_unify``).  Renaming and
substitution never change a rigid position, and variables and App nodes are
wildcards, so no resolvent is lost and the rest keep their order (see
``_saturate_successors``).  A first-argument index (``_Tables.candidates``)
narrows the clauses that ``may_unify`` is asked about.

Expressions, like terms, are immutable, and steps that leave an item alone
keep it as the same object; ``normalize`` returns its argument itself when
nothing cancels and no block is dropped or rebuilt.  An atom computes its
class when it is built (whether it is a surface token, whether it is ground)
and memoizes its state-key fragment (see ``_canonical_key``), and a lexicon
memoizes its rule tables (see ``_tables``).  These memo fields are outside
equality and hashing, and a copy or a pickle is rebuilt from the other
fields, which computes the class again.

Most parse states have no blocks, and those cost the least.  A block-free
state in non-commutative mode gets a flat key, its atoms' fragments and the
ordinals of their variables, instead of one key per item; both shapes put
states in the same classes, and the shapes never meet.  The search hashes
each key once and goes on with a small int per state, and the successor
generators and ``_apply`` skip the walks over block levels when the top
level holds no block.

Each search keeps two memos, alive for that search only: the unifiers of
atom pairs, and the substitutions its cancels make.  The first is keyed by
the pair's identity, ``(id(a), id(b))``, and, for a pair met the first time,
by its payloads, so equal payloads still share one ``unify``.  The second is
keyed by identity, ``(id(unifier), id(atom))``, so the same atom object under
the same unifier object gives one shared result atom in every state that
needs it, while distinct atoms, even equal ones, never merge: no atom object
occurs twice in one state.  Each identity-keyed entry holds the objects whose
ids it uses, so no id is reused while the memo lives.  ``replay`` and
``apply_step`` read neither memo, so the proof recomputes every step.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from . import lexicon as lx
from .term import (
    HOLE, AbsVar, Abstraction, App, Binding, Compound, Const, EMPTY_BINDING,
    Identifier, IdentifierSource, MetaVar, Term, binding_is_acyclic,
    canonical_identifiers, is_ground, may_unify, parse_abstraction,
    parse_term, render_abstraction, render_term, substitute, subterms, unify,
)

__all__ = [
    "Atom", "Block", "Expr", "PublicResult", "SearchLimits", "EngineResult",
    "Derivation", "ExpandStep", "CancelStep", "DissolveStep",
    "InputError", "StepError",
    "generate", "parse", "saturate", "replay", "is_public",
    "normalize", "inverse", "product", "conjugate", "render_expr", "parse_expr",
    "render_derivation", "parse_derivation", "derivation_record",
    "derivation_of_record",
]


class InputError(ValueError):
    """A query (not the grammar) is malformed."""


class StepError(ValueError):
    """A derivation step failed validation during replay."""


@dataclass(frozen=True, slots=True)
class Atom:
    """Signed atom; ``payload`` is a surface token (str) or a Term."""

    payload: Union[str, Term]
    sign: int = 1
    # the atom's class, set when it is built: a surface token, and ground (a
    # token or a ground term)
    _phon: bool = field(init=False, repr=False, compare=False)
    _ground: bool = field(init=False, repr=False, compare=False)
    # state-key fragment and its variable names, set on first use by
    # _atom_key
    _key: tuple = field(init=False, repr=False, compare=False)
    _vars: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        phon = isinstance(self.payload, str)
        object.__setattr__(self, "_phon", phon)
        object.__setattr__(self, "_ground", phon or self.payload.ground)

    def __reduce__(self):
        return Atom, (self.payload, self.sign)

    def is_phon(self) -> bool:
        return self._phon

    def ground(self) -> bool:
        return self._ground


@dataclass(frozen=True, slots=True)
class Block:
    contents: tuple["Item", ...]


Item = Union[Atom, Block]
Expr = tuple[Item, ...]


def _inverse_pair(a: Item, b: Item) -> bool:
    return (isinstance(a, Atom) and isinstance(b, Atom) and a._ground
            and a.sign == -b.sign and a.payload == b.payload)


def _has_block(expr: Expr) -> bool:
    """Whether any top-level item is a block (a scan at C speed)."""
    return Block in map(type, expr)


def normalize(expr: Expr) -> Expr:
    """Eagerly cancel adjacent ground inverse atoms; drop empty blocks.

    An expression that is already normal comes back as the same object, and
    so does each block whose contents are, so a caller can find an item
    again after a structural step.  A block whose contents are empty is
    dropped even when nothing inside it changed.
    """
    stack: list[Item] = []
    changed = False
    for item in expr:
        if isinstance(item, Block):
            inner = normalize(item.contents)
            if not inner:
                changed = True
                continue
            if inner is not item.contents:
                item = Block(inner)
                changed = True
        elif item._ground and stack:
            # _inverse_pair inline: an atom equal in payload to a ground
            # one is ground too
            top = stack[-1]
            if isinstance(top, Atom) and top.sign == -item.sign \
                    and top.payload == item.payload:
                stack.pop()
                changed = True
                continue
        stack.append(item)
    return tuple(stack) if changed else expr


# The group operations are defined on words only.  Blocks are not group
# elements: their conjugator is free, and normalize never cancels one block
# against another.


def inverse(word: Expr) -> Expr:
    return tuple(Atom(a.payload, -a.sign) for a in reversed(word))


def product(*words: Expr) -> Expr:
    return normalize(tuple(itertools.chain.from_iterable(words)))


def conjugate(word: Expr, by: Expr) -> Expr:
    """The quasi-element ``by . word . by^-1``."""
    return product(by, word, inverse(by))


def substitute_expr(expr: Expr, b: Binding,
                    memo: Optional[dict] = None) -> Expr:
    """Apply a binding to every atom.  Atoms and blocks it leaves unchanged
    are kept as the same objects, and so is ``expr`` when nothing changes.

    ``memo``, when given, maps ``(id(b), id(atom))`` to ``(b, atom, result)``
    (see ``_search``): the same atom object under the same binding object
    gets the same result object.  The value holds both keyed objects, so
    their ids cannot be reused while the memo lives.
    """
    out: list[Item] = []
    changed = False
    for item in expr:
        if isinstance(item, Block):
            inner = substitute_expr(item.contents, b, memo)
            if inner is not item.contents:
                item = Block(inner)
                changed = True
        elif not item._ground:
            if memo is None:
                new = _substitute_atom(item, b)
            else:
                key = (id(b), id(item))
                found = memo.get(key)
                if found is None:
                    found = memo[key] = (b, item, _substitute_atom(item, b))
                new = found[2]
            if new is not item:
                item = new
                changed = True
        out.append(item)
    return tuple(out) if changed else expr


def _substitute_atom(a: Atom, b: Binding) -> Atom:
    payload = substitute(a.payload, b)
    return a if payload is a.payload else Atom(payload, a.sign)


# ---------------------------------------------------------------------------
# Level addressing: () is the top level, (i,) the contents of the block at
# top-level index i, and so on.  Slots are gap positions within one level.


def level_items(expr: Expr, level: tuple[int, ...]) -> Expr:
    for i in level:
        if not (0 <= i < len(expr) and isinstance(expr[i], Block)):
            raise StepError(f"no block at {level}")
        expr = expr[i].contents
    return expr


def _replace_level(expr: Expr, level: tuple[int, ...], new_items: Expr) -> Expr:
    if not level:
        return new_items
    i = level[0]
    block = expr[i]
    assert isinstance(block, Block)
    inner = _replace_level(block.contents, level[1:], new_items)
    return expr[:i] + (Block(inner),) + expr[i + 1:]


def _splice(expr: Expr, level: tuple[int, ...], start: int, stop: int,
            replacement: Expr) -> Expr:
    items = level_items(expr, level)
    return _replace_level(expr, level, items[:start] + replacement + items[stop:])


def _pair_count(level: tuple[int, ...], n: int) -> int:
    """Adjacent pairs among ``n`` items at ``level``.  Block contents are
    cyclic: with two items or more, the last also pairs with the first."""
    return n if level and n > 1 else n - 1


# ---------------------------------------------------------------------------
# Derivation steps


@dataclass(frozen=True)
class ExpandStep:
    """Rewrite an atom by a rule, or multiply in a relator instance.

    ``rule_id`` is ``g<n>`` (generation rule), ``p<n>`` (parsing rule) or
    ``r<n>`` (bare relator, saturation mode).  ``binding`` instantiates the
    rule against the target atom (generation); ``meta_map``/``ident_map``
    record the fresh renaming chosen at application time (parsing and
    saturation), making replay deterministic, and ``_renaming`` turns them
    into the binding the rule is instantiated with.
    """

    level: tuple[int, ...]
    index: int
    rule_id: str
    binding: Binding = EMPTY_BINDING
    meta_map: tuple[tuple[str, str], ...] = ()
    ident_map: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class CancelStep:
    """Cancel the pair at ``index`` and ``index + 1``; in a block's contents,
    index ``n - 1`` is the wrap pair (last item, first item).  A top-level
    cancel in a commutative lexicon may name a later ``partner`` instead,
    and the two cancel where they stand."""

    level: tuple[int, ...]
    index: int
    delta: Binding = EMPTY_BINDING
    partner: Optional[int] = None


@dataclass(frozen=True)
class DissolveStep:
    """Remove the block at ``index`` of ``level``, rotate its contents by
    ``k`` and splice them into ``slot`` of ``target_level``: the block's own
    level or an enclosing one, in post-removal coordinates.  In place is
    ``target_level == level`` and ``slot == index``."""

    level: tuple[int, ...]
    index: int
    target_level: tuple[int, ...]
    slot: int
    k: int


Step = Union[ExpandStep, CancelStep, DissolveStep]


@dataclass(frozen=True)
class Derivation:
    mode: str  # "gen" | "parse" | "saturate"
    start: Expr
    steps: tuple[Step, ...]
    end: Expr


@dataclass(frozen=True)
class SearchLimits:
    max_expansions: int = 64
    max_items: int = 256
    max_results: int = 32
    allow_vacuous_abstraction: bool = False

    def __post_init__(self) -> None:
        for name in ("max_expansions", "max_items", "max_results"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class PublicResult:
    semantics: Term
    words: tuple[str, ...]


@dataclass(frozen=True)
class EngineResult:
    results: tuple  # pairs (payload, Derivation)
    truncated: bool


# ---------------------------------------------------------------------------
# Scheme instantiation


def _instantiate_items(items: tuple[lx.SchemeItem, ...], b: Binding,
                       commutative: bool) -> Expr:
    """Build expression items from scheme items; conjugator pairs become
    blocks (or vanish in commutative mode, where conjugation is trivial)."""
    out: list[Item] = []
    i = 0
    while i < len(items):
        it = items[i]
        if isinstance(it, lx.ExprMeta):
            j = next(k for k in range(i + 1, len(items))
                     if isinstance(items[k], lx.ExprMeta) and items[k].name == it.name)
            inner = _instantiate_items(items[i + 1:j], b, commutative)
            out.extend(inner if commutative else (Block(inner),))
            i = j + 1
        else:
            payload = it.token if isinstance(it, lx.PhonItem) else substitute(it.term, b)
            out.append(Atom(payload, it.sign))
            i += 1
    return tuple(out)


def _renaming(step: ExpandStep) -> Binding:
    """The fresh renaming a parsing or relator step records, as a binding.

    Meta-variables become ``MetaVar(new)`` and abstraction variables
    ``\\#_z.new[#_z]``, which ``substitute`` beta-reduces to ``new[arg]``;
    names used as abstraction arguments become identifiers, and win over
    ``meta_map`` when a name is in both maps.
    """
    terms: dict[str, Term] = {old: MetaVar(new) for old, new in step.meta_map}
    terms.update((old, Identifier(new)) for old, new in step.ident_map)
    return Binding(terms, {old: Abstraction(App(AbsVar(new), HOLE))
                           for old, new in step.meta_map})


def _scheme_variables(items: tuple[lx.SchemeItem, ...]) -> tuple[list[str], list[str]]:
    """(all meta/abstraction names, names used as abstraction arguments)."""
    names: list[str] = []
    app_args: list[str] = []
    for it in items:
        if isinstance(it, lx.LogItem):
            for s in subterms(it.term):
                if isinstance(s, MetaVar) and s.name not in names:
                    names.append(s.name)
                elif isinstance(s, App):
                    if s.abstraction.name not in names:
                        names.append(s.abstraction.name)
                    if isinstance(s.arg, MetaVar) and s.arg.name not in app_args:
                        app_args.append(s.arg.name)
    return names, app_args


# ---------------------------------------------------------------------------
# Step application: unchecked in the search (_apply), checked in replay


def _head_key(t: Term) -> str:
    if isinstance(t, Compound):
        return f"{t.functor}/{len(t.args)}"
    if isinstance(t, Const):
        return f"{t.name}/0"
    return "*"


def _rigid_key(t: Term):
    """A term's coarse rigid key for the clause index: its ``_head_key`` and
    its first argument when that is a constant or an identifier (else None).
    A variable, an App or an identifier has no key (None)."""
    head = _head_key(t)
    if head == "*":
        return None
    first = t.args[0] if isinstance(t, Compound) and t.args else None
    return head, first if isinstance(first, (Const, Identifier)) else None


def _keys_meet(head_key, key) -> bool:
    """Whether a clause head with ``head_key`` may meet a subgoal with rigid
    key ``key``: a head without a key meets every key, and a first argument
    left out of a key agrees with any."""
    return head_key is None or head_key[0] == key[0] and (
        head_key[1] is None or key[1] is None or head_key[1] == key[1])


def _derive_rules(rules_of, lex: lx.Lexicon) -> tuple[tuple, list]:
    """(rules, problems): a strict grammar's problems come back instead of
    being raised, so that only the direction asked for reports them."""
    try:
        return rules_of(lex), []
    except lx.GrammarError as e:
        return (), e.problems


class _Tables:
    """A lexicon's derived rule tables, built once by ``_tables``."""

    def __init__(self, lex: lx.Lexicon):
        gen_rules, self.gen_problems = _derive_rules(lx.gen_rules, lex)
        parse_rules, self.parse_problems = _derive_rules(lx.parse_rules, lex)
        self.by_id: dict[str, object] = {r.rule_id: r for r in gen_rules + parse_rules}
        self.by_id.update((f"r{n}", r) for n, r in enumerate(lex.relators, start=1))
        self.commutative = lex.commutative()
        # generation rules by the head key of their left-hand side
        self.gen_index: dict[str, list[lx.GenRule]] = {}
        for r in gen_rules:
            self.gen_index.setdefault(_head_key(r.lhs), []).append(r)
        # parsing rules by their surface token, and the scheme variables
        # and abstraction arguments of each
        self.parse_index: dict[str, list[lx.ParseRule]] = {}
        self.parse_vars: dict[str, tuple[list[str], list[str]]] = {}
        for r in parse_rules:
            self.parse_index.setdefault(r.word, []).append(r)
            self.parse_vars[r.rule_id] = _scheme_variables(r.rhs)
        # saturation: (rule id, head term or None, scheme variables, names
        # used as abstraction arguments, items in a commutative instance) for
        # each clause relator; a relator that does not begin with a logical
        # atom has no head
        self.clauses = []
        for n, r in enumerate(lex.relators, start=1):
            if not lx.is_commutator_scheme(r):
                first = r.items[0] if r.items else None
                head = first.term if isinstance(first, lx.LogItem) else None
                names, app_args = _scheme_variables(r.items)
                size = sum(not isinstance(i, lx.ExprMeta) for i in r.items)
                self.clauses.append((f"r{n}", head, names, app_args, size))
        self._head_keys = [None if head is None else _rigid_key(head)
                           for _, head, *_ in self.clauses]
        self._candidates: dict = {}

    def candidates(self, subgoal: Term) -> list:
        """The clauses whose head may meet ``subgoal``, in their order: a
        superset of those ``may_unify`` admits, memoized by the subgoal's
        rigid key (first-argument indexing).  A subgoal without a rigid key
        gets every clause."""
        key = _rigid_key(subgoal)
        if key is None:
            return self.clauses
        found = self._candidates.get(key)
        if found is None:
            found = self._candidates[key] = [
                c for c, head_key in zip(self.clauses, self._head_keys)
                if _keys_meet(head_key, key)]
        return found


def _tables(lex: lx.Lexicon) -> _Tables:
    tables = lex.tables
    if tables is None:
        tables = _Tables(lex)
        object.__setattr__(lex, "tables", tables)
    return tables


def _apply(lex: lx.Lexicon, expr: Expr, step: Step,
           substitutions: Optional[dict] = None) -> Expr:
    """Apply one derivation step without checking it.  The search applies the
    steps it builds itself this way, a cancel with the search's
    ``substitutions`` memo (see ``substitute_expr``); ``apply_step`` checks
    first and passes no memo."""
    if isinstance(step, ExpandStep):
        tables = _tables(lex)
        rule = tables.by_id[step.rule_id]
        if step.rule_id.startswith("r"):
            scheme, stop = rule.items, step.index
        else:
            scheme, stop = rule.rhs, step.index + 1
        binding = step.binding if step.rule_id.startswith("g") else _renaming(step)
        new_items = _instantiate_items(scheme, binding, tables.commutative)
        return normalize(_splice(expr, step.level, step.index, stop, new_items))
    if isinstance(step, CancelStep):
        i = step.index
        if step.level:
            items = level_items(expr, step.level)
            kept = items[1:i] if i == len(items) - 1 else items[:i] + items[i + 2:]
            removed = _replace_level(expr, step.level, kept)
        else:  # the top level has no wrap pair
            j = i + 1 if step.partner is None else step.partner
            removed = expr[:i] + expr[i + 1:j] + expr[j + 1:]
        return normalize(substitute_expr(removed, step.delta, substitutions))
    c = level_items(expr, step.level)[step.index].contents
    removed = _splice(expr, step.level, step.index, step.index + 1, ())
    return normalize(_splice(removed, step.target_level, step.slot, step.slot,
                             c[step.k:] + c[:step.k]))


def apply_step(lex: lx.Lexicon, expr: Expr, step: Step, *,
               allow_vacuous: bool = False) -> Expr:
    """Check every precondition of a derivation step, then apply it
    (``_apply``).  Whether steps commute is the lexicon's to decide."""
    if isinstance(step, ExpandStep):
        tables = _tables(lex)
        rule = tables.by_id.get(step.rule_id)
        if rule is None:
            raise StepError(f"unknown rule {step.rule_id}")
        if step.rule_id.startswith("r"):
            if not tables.commutative:
                raise StepError("relator multiplication requires commutative mode")
            if step.index != len(level_items(expr, step.level)):
                raise StepError("relator instances are appended at the end")
            return _apply(lex, expr, step)
        items = level_items(expr, step.level)
        if not (0 <= step.index < len(items)):
            raise StepError("expand target out of range")
        target = items[step.index]
        if not isinstance(target, Atom) or target.sign != 1:
            raise StepError("expand target must be a positive atom")
        if not step.rule_id.startswith("g"):
            if not target.is_phon() or target.payload != rule.word:
                raise StepError(f"expand target is not the token {rule.word!r}")
        elif target.is_phon() or not is_ground(target.payload):
            raise StepError("generation expands ground logical atoms")
        elif substitute(rule.lhs, step.binding) != target.payload:
            raise StepError("recorded binding does not match the target")
        elif not binding_is_acyclic(step.binding):
            raise StepError("cyclic binding")
    elif isinstance(step, CancelStep):
        items = level_items(expr, step.level)
        if step.partner is None:
            if not (0 <= step.index < _pair_count(step.level, len(items))):
                raise StepError("cancel position out of range")
            a, b = items[step.index], items[(step.index + 1) % len(items)]
        else:
            if not _tables(lex).commutative:
                raise StepError("a cancel partner requires commutative mode")
            if step.level:
                raise StepError("a cancel partner is only legal at the top level")
            if not (0 <= step.index < step.partner):
                raise StepError("a cancel partner must come after its index, "
                                "and the index be 0 or more")
            if step.partner >= len(items):
                raise StepError("cancel partner out of range")
            a, b = items[step.index], items[step.partner]
        if not (isinstance(a, Atom) and isinstance(b, Atom)):
            raise StepError("cancel needs two atoms")
        if a.sign != -b.sign:
            raise StepError("cancel needs opposite signs")
        if a.is_phon() or b.is_phon():
            raise StepError("token pairs cancel eagerly, not by unification")
        if not binding_is_acyclic(step.delta):
            raise StepError("cyclic binding")
        if substitute(a.payload, step.delta) != substitute(b.payload, step.delta):
            raise StepError("recorded binding does not unify the pair")
        if step.delta not in unify(a.payload, b.payload, EMPTY_BINDING, allow_vacuous):
            raise StepError("recorded binding is not a unifier the pair admits")
    elif isinstance(step, DissolveStep):
        items = level_items(expr, step.level)
        if not (0 <= step.index < len(items)) or not isinstance(items[step.index], Block):
            raise StepError("dissolve target is not a block")
        if not (0 <= step.k < max(len(items[step.index].contents), 1)):
            raise StepError("rotation out of range")
        if step.level[:len(step.target_level)] != step.target_level:
            raise StepError("a block may dissolve into its own level or an enclosing one")
        # the target level without the block
        room = len(level_items(expr, step.target_level)) - (step.target_level == step.level)
        if not (0 <= step.slot <= room):
            raise StepError("dissolve slot out of range")
    else:
        raise StepError(f"unknown step {step!r}")
    return _apply(lex, expr, step)


def replay(lex: lx.Lexicon, d: Derivation, *,
           allow_vacuous: bool = False) -> Expr:
    """Re-execute a derivation from scratch, validating every step.

    Returns the final expression, which must equal ``d.end``.  Whether the
    steps commute is the lexicon's to say, never the derivation's.
    """
    if d.mode not in ("gen", "parse", "saturate"):
        raise StepError(f"unknown derivation mode {d.mode!r}")
    expr = normalize(d.start)
    for n, step in enumerate(d.steps):
        try:
            expr = apply_step(lex, expr, step, allow_vacuous=allow_vacuous)
        except StepError as e:
            raise StepError(f"step {n + 1}: {e}") from None
    if expr != d.end:
        raise StepError("derivation does not end at its recorded expression")
    return expr


# ---------------------------------------------------------------------------
# Public-result recognition


def is_public(lex: lx.Lexicon, expr: Expr,
              start: Optional[Term] = None) -> Optional[PublicResult]:
    """Decode the acceptor shape ``S . Wn^-1 ... W1^-1``.

    With ``start`` given (generation), the expression itself is the word
    string and ``start`` the semantics.  Without it, the expression must be a
    single ground logical atom followed by inverted tokens (possibly none).
    """
    if start is not None:
        if all(isinstance(i, Atom) and i.is_phon() and i.sign == 1 for i in expr):
            return PublicResult(start, tuple(i.payload for i in expr))
        return None
    if not expr or not isinstance(expr[0], Atom):
        return None
    head = expr[0]
    if head.is_phon() or head.sign != 1 or not is_ground(head.payload):
        return None
    words: list[str] = []
    for i in expr[1:]:
        if not (isinstance(i, Atom) and i.is_phon() and i.sign == -1):
            return None
        words.append(i.payload)
    return PublicResult(head.payload, tuple(reversed(words)))


# ---------------------------------------------------------------------------
# Search


def _term_key(t: Term, var_ordinal) -> tuple:
    if isinstance(t, MetaVar):
        return ("M", var_ordinal("M" + t.name))
    if isinstance(t, Compound):
        return ("f", t.functor) + tuple(_term_key(a, var_ordinal) for a in t.args)
    if isinstance(t, App):
        return ("F", var_ordinal("F" + t.abstraction.name), _term_key(t.arg, var_ordinal))
    if isinstance(t, Identifier):
        return ("#", t.name)
    return ("c", t.name)


def _atom_key(a: Atom) -> tuple[tuple, tuple[str, ...]]:
    """The atom's key fragment and variable names, memoized on the atom
    (``_key`` and ``_vars``): its key with variables numbered by first
    occurrence within the atom, and the variable names (M or F prefixed) in
    that order; ground atoms have no variables."""
    try:
        return a._key, a._vars
    except AttributeError:
        pass
    names: dict[str, int] = {}
    if a._phon:
        key = ("p", a.payload, a.sign)
    elif a._ground:
        key = ("g", render_term(a.payload), a.sign)
    else:
        key = ("a", _term_key(a.payload,
                              lambda v: names.setdefault(v, len(names) + 1)), a.sign)
    names = tuple(names)
    object.__setattr__(a, "_vars", names)
    object.__setattr__(a, "_key", key)
    return key, names


def _canonical_key(expr: Expr, commutative: bool):
    """Hashable state key: variables renumbered by first occurrence, block
    contents at their least rotation, order forgotten when commutative.

    Each atom's fragment is computed once (``_atom_key``); a state only maps
    the atoms' local variable numbers to ordinals over the whole expression.
    The key has one of two shapes:

    * flat, for an expression without blocks in non-commutative mode:
      ``(fragments, ordinals)``, the atoms' fragments and the ordinals, by
      first occurrence, of their variable names concatenated; a ground
      expression's key is ``fragments`` alone;
    * per item otherwise: one key per item, an atom's fragment followed by
      the ordinals of its variables, sorted when commutative.

    Both put expressions in the same classes as a key that numbers the
    variables while walking every term afresh: the local fragments fix each
    atom up to renaming, and the ordinals say which of their variables are
    one variable.  Keys of different shapes never meet: the first element of
    a non-ground flat key is a tuple of fragments, and every element of any
    other key is a fragment or a block's key, a tuple that starts with a
    string.  (A ground flat key is the per-item key of the same expression.)
    """
    if not commutative and not _has_block(expr):
        try:
            fragments = tuple([a._key for a in expr])
        except AttributeError:  # some fragment not built yet
            fragments = tuple([_atom_key(a)[0] for a in expr])
        names = [v for a in expr for v in a._vars]
        if not names:
            return fragments
        order = dict(zip(dict.fromkeys(names), itertools.count()))
        return fragments, tuple(map(order.__getitem__, names))
    mapping: dict[str, int] = {}
    keys = [_item_key(i, mapping) for i in expr]
    if commutative:
        keys.sort()
    return tuple(keys)


def _item_key(i: Item, mapping: dict[str, int]):
    """One item's part of ``_canonical_key``; ``mapping`` numbers the
    variables of the whole expression by first occurrence."""
    if isinstance(i, Atom):
        key, names = _atom_key(i)
        if not names:
            return key
        return key + (tuple([mapping.setdefault(v, len(mapping) + 1)
                             for v in names]),)
    parts = [_item_key(c, mapping) for c in i.contents]
    if len(parts) > 1:
        best = min(range(len(parts)), key=lambda k: parts[k:] + parts[:k])
        parts = parts[best:] + parts[:best]
    return ("b", tuple(parts))


def _expr_size(expr: Expr) -> int:
    if not _has_block(expr):
        return len(expr)
    n = 0
    for i in expr:
        n += 1 if isinstance(i, Atom) else 1 + _expr_size(i.contents)
    return n


def _levels(expr: Expr, prefix: tuple[int, ...] = ()) -> Iterable[tuple[tuple[int, ...], Expr]]:
    yield prefix, expr
    for k, i in enumerate(expr):
        if isinstance(i, Block):
            yield from _levels(i.contents, prefix + (k,))


class _Node:
    __slots__ = ("expr", "expansions", "parent", "steps", "key")

    def __init__(self, expr, expansions, parent, steps, key=None):
        self.expr = expr
        self.expansions = expansions
        self.parent = parent
        self.steps = steps
        self.key = key

    def derivation_steps(self) -> tuple[Step, ...]:
        chain: list[Step] = []
        node = self
        while node.parent is not None:
            chain[:0] = node.steps
            node = node.parent
        return tuple(chain)


def _expand_successors(lex, expr, allow_vacuous):
    gen_index = _tables(lex).gen_index
    out = []
    for level, items in _levels(expr):
        for idx, item in enumerate(items):
            if not isinstance(item, Atom) or item.sign != 1 or item._phon \
                    or not item._ground:
                continue
            for rule in gen_index.get(_head_key(item.payload), []) + gen_index.get("*", []):
                for b in unify(rule.lhs, item.payload, EMPTY_BINDING, allow_vacuous):
                    step = ExpandStep(level, idx, rule.rule_id, binding=b)
                    out.append(((step,), _apply(lex, expr, step), 1))
    return out


def _cancel_pair(a, b) -> bool:
    """Whether adjacent items may cancel by an explicit step: logical atoms
    of opposite sign, not both ground (ground inverses cancel eagerly)."""
    return (isinstance(a, Atom) and isinstance(b, Atom) and a.sign == -b.sign
            and not (a._phon or b._phon) and not (a._ground and b._ground))


def _pair_unifiers(a: Atom, b: Atom, allow_vacuous: bool, unifiers: dict) -> list:
    """``unify(a.payload, b.payload, EMPTY_BINDING, allow_vacuous)``, kept in
    ``unifiers``, the search's memo of pair unifiers.

    The memo is looked up by identity first, ``(id(a), id(b))`` to ``(a, b,
    unifiers)``, which hashes two ints; the value holds both atoms, so their
    ids cannot be reused while the memo lives.  An atom pair seen for the
    first time falls back to the entry keyed by the payload pair, so equal
    payloads in distinct atoms still share one ``unify`` and one list of
    unifier objects."""
    ids = (id(a), id(b))
    found = unifiers.get(ids)
    if found is not None:
        return found[2]
    key = (a.payload, b.payload)
    deltas = unifiers.get(key)
    if deltas is None:
        deltas = unifiers[key] = unify(a.payload, b.payload, EMPTY_BINDING,
                                       allow_vacuous)
    unifiers[ids] = (a, b, deltas)
    return deltas


def _cancel_successors(lex, expr, allow_vacuous, unifiers, substitutions,
                       skip=0, nested=True):
    """Every explicit cancel of an adjacent pair, at every level (only the
    top level without ``nested``), except at the top-level positions set in
    the bit mask ``skip`` (see ``_commuting_cancels``).  Inside a block the
    pairs include the wrap pair (last item, first item).  ``unifiers`` and
    ``substitutions`` are the search's memos (see ``_search``)."""
    out = []
    levels = _levels(expr) if nested and _has_block(expr) else [((), expr)]
    for level, items in levels:
        n = len(items)
        for i in range(_pair_count(level, n)):
            if not level and skip >> i & 1:
                continue
            a, b = items[i], items[(i + 1) % n]
            if not _cancel_pair(a, b):
                continue
            for delta in _pair_unifiers(a, b, allow_vacuous, unifiers):
                step = CancelStep(level, i, delta)
                out.append(((step,), _apply(lex, expr, step, substitutions), 0))
    return out


def _adjacent_pairs(expr: Expr) -> set:
    """Ids of the adjacent item pairs, left then right, at every level; block
    contents are cyclic, their last item touches their first."""
    pairs = set()
    for level, items in _levels(expr):
        ids = [id(i) for i in items]
        pairs.update(zip(ids, ids[1:] + ids[:1] if level else ids[1:]))
    return pairs


def _commuting_cancels(adjacent: set, new: Expr, allow_vacuous: bool,
                       unifiers: dict) -> int:
    """Bit mask of the top-level positions of ``new``, a bundle's result,
    whose cancel pairs two atoms already adjacent in the bundle's parent
    (``adjacent``, from ``_adjacent_pairs``).  Such a cancel commutes back
    before the bundle, so the search skips it (see ``_block_successors``)."""
    mask = 0
    for i in range(len(new) - 1):
        a, b = new[i], new[i + 1]
        if (id(a), id(b)) in adjacent and _cancel_pair(a, b) \
                and _pair_unifiers(a, b, allow_vacuous, unifiers):
            mask |= 1 << i
    return mask


def _narrow(masks: dict, key, mask: int) -> int:
    """Intersect the skip mask kept for ``key`` with ``mask``; return the
    bits taken out.  States whose mask becomes 0 leave ``masks``."""
    old = masks.get(key, 0)
    dropped = old & ~mask
    if dropped:
        if old & mask:
            masks[key] = old & mask
        else:
            del masks[key]
    return dropped


def _placements(expr: Expr):
    """Every block with every place it can dissolve: ``(level, index, block,
    target_level, slot)``, in place first, then the other slots of the
    block's own level, then those of each enclosing level outwards."""
    for level, items in _levels(expr):
        for idx, item in enumerate(items):
            if not isinstance(item, Block):
                continue
            yield level, idx, item, level, idx
            for s in range(len(items)):
                if s != idx:
                    yield level, idx, item, level, s
            anc = level
            while anc:
                anc = anc[:-1]
                for s in range(len(level_items(expr, anc)) + 1):
                    yield level, idx, item, anc, s


def _joinable(x, y, allow_vacuous: bool, unifiers: dict) -> bool:
    """Whether adjacent items can cancel: eagerly (ground inverses) or by an
    explicit cancel (logical atoms of opposite sign that ``unify`` admits)."""
    return _inverse_pair(x, y) or (
        _cancel_pair(x, y) and bool(_pair_unifiers(x, y, allow_vacuous, unifiers)))


def _neighbours(items: Expr, slot: int, cyclic: bool):
    """The items left and right of a slot (None past an end); block contents
    are cyclic, their last item touches their first."""
    n = len(items)
    if cyclic and n:
        return items[slot - 1], items[slot % n]
    return (items[slot - 1] if slot > 0 else None,
            items[slot] if slot < n else None)


def _block_successors(lex, expr, postpone=False, allow_vacuous=False,
                      unifiers=None):
    """Place each block, rotate it, and dissolve it in one go.

    A block's position only matters at the moment it dissolves, so exploring
    placements as separate states would multiply intermediates without adding
    any reachable arrangement.  Each successor is one ``DissolveStep`` (a
    bundle): a slot at the same level or an enclosing one, and a rotation.

    Without ``postpone`` every bundle is a successor.  With it (parsing) a
    bundle is a successor only when it is productive: normalization cancels,
    the result is a single atom, or a pair it makes adjacent can cancel
    (``_joinable``).  Those pairs are the first and last item with their new
    neighbours, the two items that flanked the block before it moved away,
    and, after a rotation, the block's last and first item when they are
    ground inverses (other pairs at that seam cancel inside the block, whose
    contents are cyclic).  Any other bundle starts a run: further bundles,
    each dissolving next to or between items released earlier in the run,
    emitted as one successor once its last bundle is productive.  A run has
    at most as many bundles as there are blocks.

    No reading is lost.  A dissolve that is not productive commutes forward
    past every step that does not use an adjacency it created: a cancel of a
    pair adjacent before it (inside the block, or elsewhere), or a bundle
    elsewhere (a block nested in the dissolved one can move out directly).
    Repeating the swap turns any derivation into one where each such
    dissolve comes just before the step that uses it.  That step is a cancel
    of a pair it made adjacent, so the dissolve was productive, or a bundle
    dissolving next to its items, so the two are a run.

    Postponed dissolves keep blocks longer, so an intermediate state can be
    larger than in the exhaustive search, by up to one item per block, when
    measured against ``max_items``.

    The same swap prunes cancels after a bundle (any successor returned
    here, runs included).  A top-level cancel of two atoms that were
    adjacent in the bundle's parent, at any level and with block contents
    read cyclically, uses no adjacency the bundle created, so it commutes
    back before the bundle: the parent has it as a successor, and the
    bundle, if still productive after it, follows; if not, the argument
    above postpones it.
    ``_search`` skips such cancels (``_commuting_cancels``), and keeps the
    skip sound under state caching.  Cancels inside blocks are never skipped:
    their positions depend on the block's rotation, which the state key
    forgets.

    ``unifiers`` is the search's memo of pair unifiers (``_pair_unifiers``);
    a call without one gets a fresh memo.
    """
    if not _has_block(expr):
        return []
    out = []
    if postpone:
        _runs(lex, expr, (), None, allow_vacuous,
              {} if unifiers is None else unifiers, out)
        return out
    for level, idx, block, tlevel, slot in _placements(expr):
        for k in range(len(block.contents)):
            step = DissolveStep(level, idx, tlevel, slot, k)
            out.append(((step,), _apply(lex, expr, step), 0))
    return out


def _runs(lex, expr, prefix, released, allow_vacuous, unifiers, out):
    """Append to ``out`` the productive bundles of ``expr``, each after the
    ``prefix`` steps, and extend the others into runs.

    ``released`` holds the ids of the items dissolved earlier in the run (None
    for its first bundle); a later bundle must dissolve next to one of them.
    Productivity is predicted from the slot and rotation, so only bundles
    that are productive or can start a run are applied.
    """
    extend = sum(isinstance(i, Block) for _, items in _levels(expr)
                 for i in items) > 1
    for level, idx, block, tlevel, slot in _placements(expr):
        items = level_items(expr, level)
        rest = items[:idx] + items[idx + 1:]
        titems = rest if tlevel == level else level_items(expr, tlevel)
        # dissolving elsewhere joins the items that flanked the block; if it
        # empties the enclosing block, normalization drops that block and
        # joins items further out: keep it as productive
        flank = (tlevel, slot) != (level, idx) and (
            (bool(level) and not rest) or _joinable(
                *_neighbours(rest, idx, bool(level)), allow_vacuous, unifiers))
        left, right = _neighbours(titems, slot, bool(tlevel))
        if released is not None and id(left) not in released \
                and id(right) not in released:
            continue
        c = block.contents
        goal = not level and len(expr) == 1 and len(c) == 1
        seam = _inverse_pair(c[-1], c[0])
        for k in range(len(c)):
            productive = (flank or goal or (k > 0 and seam)
                          or _joinable(left, c[k], allow_vacuous, unifiers)
                          or _joinable(c[k - 1], right, allow_vacuous, unifiers))
            if not (productive or extend):
                continue
            step = DissolveStep(level, idx, tlevel, slot, k)
            new = _apply(lex, expr, step)
            if productive:
                out.append((prefix + (step,), new, 0))
            else:
                more = (released or set()) | {id(i) for i in c}
                _runs(lex, new, prefix + (step,), more, allow_vacuous,
                      unifiers, out)


def _swap_cancel_successors(lex, expr, allow_vacuous):
    """All-pairs cancellation for commutative mode: each top-level pair of
    logical atoms of opposite sign cancels where it stands, under each
    unifier, by a cancel that names its partner unless the two are
    adjacent.  A ground pair of inverses cancels under the empty unifier.

    The name dates from when such a cancel was a chain of swaps; the
    benchmark's tracer still wraps the generator by that name.
    """
    out = []
    n = len(expr)
    for i in range(n - 1):
        a = expr[i]
        if not isinstance(a, Atom) or a._phon:
            continue
        for j in range(i + 1, n):
            b = expr[j]
            if not isinstance(b, Atom) or b._phon or a.sign != -b.sign:
                continue
            for delta in unify(a.payload, b.payload, EMPTY_BINDING,
                               allow_vacuous):
                step = CancelStep((), i, delta, None if j == i + 1 else j)
                out.append(((step,), _apply(lex, expr, step), 0))
    return out


def _saturate_successors(lex, node, allow_vacuous):
    """Successors under a resolution strategy.

    The rightmost inverted atom is the selected subgoal; multiplying in a
    relator instance is only allowed when its head immediately cancels
    against that subgoal (the first instance, taken on the empty expression,
    picks the root).  For definite-clause relator systems this is complete
    - which fact states are reachable does not depend on the selection - and
    it keeps working expressions the size of a resolvent.

    A clause whose head cannot meet the subgoal is skipped before it is
    instantiated: ``may_unify`` compares the rigid skeletons of the scheme's
    head and the subgoal.  That loses no successor, since renaming a clause
    only replaces its variables and substitution never changes a rigid
    position; variables and App nodes are wildcards.  ``may_unify`` only
    looks at the candidates of the subgoal's first-argument index
    (``_Tables.candidates``), which drops clauses on functor, arity or a
    differing constant first argument.  Both keep the clauses in order, so
    successors come in the same order as without them.

    An instance resolves the subgoal only when its head cancelled the
    subgoal eagerly, or stayed next to it and unifies with it.  A ground head
    that equals the clause's own last body atom cancels inside the instance
    and resolves nothing; as the first instance, it picks no root.
    """
    expr = node.expr
    if expr and not (isinstance(expr[-1], Atom) and expr[-1].sign == -1):
        return []  # goal state or dead end: no pending subgoal
    out = []
    suffix = str(node.expansions + 1)
    sel = len(expr) - 1
    subgoal = expr[sel] if expr else None
    tables = _tables(lex)
    clauses = (tables.clauses if subgoal is None
               else tables.candidates(subgoal.payload))
    for rule_id, head, names, app_args, size in clauses:
        if subgoal is not None and head is not None \
                and not may_unify(head, subgoal.payload):
            continue
        meta_map = tuple((nm, nm + "_" + suffix)
                         for nm in names if nm not in app_args)
        ident_map = tuple((nm, f"i{suffix}_{k}")
                          for k, nm in enumerate(app_args, 1))
        step = ExpandStep((), len(expr), rule_id, meta_map=meta_map,
                          ident_map=ident_map)
        new = _apply(lex, expr, step)
        if subgoal is None:
            # the first instance picks the root, unless it cancelled inside
            if len(new) == size:
                out.append(((step,), new, 1))
        elif sel >= len(new) or new[sel] is not subgoal:
            # the head was the exact inverse of the subgoal and cancelled it
            # eagerly (normalization keeps the items it leaves as the same
            # objects)
            out.append(((step,), new, 1))
        elif len(new) == len(expr) + size:  # nothing cancelled
            for delta in unify(subgoal.payload, new[sel + 1].payload,
                               EMPTY_BINDING, allow_vacuous):
                cancel = CancelStep((), sel, delta)
                out.append(((step, cancel), _apply(lex, new, cancel), 1))
    return out


def _search(lex: lx.Lexicon, mode: str, start: Expr,
            starts: Sequence[tuple[tuple[Step, ...], Expr]],
            lim: SearchLimits, goal, result_key) -> EngineResult:
    """Breadth-first search from ``start``; every result is proved.

    The search begins at each ``expr`` of ``starts``, pairs ``(steps,
    expr)`` whose ``steps`` the caller applied to ``start`` and ``replay``
    checks again; starts with equal keys are queued once, and no starts
    means ``start`` normalized.  Parsing passes one start per assignment of
    rules to homonymous tokens, so one search covers them all: ``max_results``
    counts readings across every start, and a reading's derivation may begin
    at any start that reaches it.

    In non-commutative parsing, a state reached by a block bundle skips the
    top-level cancels that ``_commuting_cancels`` finds, since the bundle's
    parent makes them already (see ``_block_successors``).  The skip is a bit
    mask over top-level positions, and positions agree between states with
    equal keys.  It holds for one path, but states are cached by key, so a
    state keeps the intersection of the masks of every path that reaches it,
    and only states with a nonzero mask keep one.  A later path whose mask
    lacks a bit narrows the mask of a queued state.  If the state was already
    expanded, the cancels at those bits are made then, from the arriving
    instance (a re-expansion): the parent of that path need not have them,
    so without this the cancels a state makes would depend on which path
    reached it first.  No known input needs a re-expansion for a reading,
    but some run it (``every man that some woman saw ran`` does).

    ``visited`` maps each state key (see ``_canonical_key``) to a small int,
    its id, in order of first sight: a key is hashed once, when it is looked
    up, and the nodes, the skip masks (``queued_skips``, ``expanded_skips``)
    and the ``late`` re-expansions carry the id.

    Two memos live for this search only, and ``replay`` reads neither.
    ``unifiers`` holds the unifiers of each atom pair that cancels and
    bundle predictions look up, by atom identity first and by payload pair
    second (see ``_pair_unifiers``).  ``substitutions`` holds the substitutions
    of the cancels, the ``late`` re-expansions' too, keyed by ``(id(delta),
    id(atom))`` (see ``substitute_expr``).  The deltas come from
    ``unifiers``, so sibling states that cancel under the same delta share
    each result atom, with its class and its state-key fragment.  Identity
    keys never merge distinct atoms, even equal ones: the skip masks
    (``_adjacent_pairs``, ``_commuting_cancels``) need each atom object to
    occur once in a state.

    The search applies its own steps unchecked.  ``_prove`` then checks
    every step of each result, node by node over the tree the results
    share: one ``replay`` per distinct node on their paths.
    """
    commutative = _tables(lex).commutative
    allow_vacuous = lim.allow_vacuous_abstraction
    skipping = mode == "parse" and not commutative

    root = _Node(normalize(start), 0, None, ())
    queue, visited = deque(), {}
    for steps, expr in starts or [((), root.expr)]:
        n = len(visited)
        key = visited.setdefault(_canonical_key(expr, commutative), n)
        if key == n:
            queue.append(_Node(expr, 0, root, steps, key))

    truncated = False
    results: dict[str, tuple] = {}
    unifiers: dict = {}
    substitutions: dict = {}
    # skip masks of the states that skip any cancel, queued and expanded
    queued_skips: dict = {}
    expanded_skips: dict = {}
    late: deque = deque()  # re-expansions: (arriving instance, mask to make)
    while late or queue:
        if late:
            node, need = late.popleft()
            succ = _cancel_successors(lex, node.expr, allow_vacuous, unifiers,
                                      substitutions, skip=~need, nested=False)
            bundles = len(succ)
        else:
            node = queue.popleft()
            payload = goal(node.expr)
            if payload is not None:
                key = result_key(payload)
                if key not in results:
                    results[key] = (payload, node)
                    if len(results) >= lim.max_results:
                        truncated = True
                        break
            skip = queued_skips.pop(node.key, 0) if skipping else 0
            if skip:
                expanded_skips[node.key] = skip
            if mode == "saturate":
                succ = _saturate_successors(lex, node, allow_vacuous)
            else:
                succ = []
                if mode == "gen":
                    succ += _expand_successors(lex, node.expr, allow_vacuous)
                if commutative:
                    succ += _swap_cancel_successors(lex, node.expr, allow_vacuous)
                elif mode != "gen":
                    succ += _cancel_successors(lex, node.expr, allow_vacuous,
                                               unifiers, substitutions, skip)
            bundles = len(succ)  # where the block bundles start
            if mode != "saturate":
                succ += _block_successors(lex, node.expr, mode == "parse",
                                          allow_vacuous, unifiers)
        adjacent = None
        if skipping and len(succ) > bundles:
            adjacent = _adjacent_pairs(node.expr)
        for k, (steps, new, dexp) in enumerate(succ):
            expansions = node.expansions + dexp
            if expansions > lim.max_expansions:
                truncated = True
                continue
            if _expr_size(new) > lim.max_items:
                truncated = True
                continue
            n = len(visited)
            key = visited.setdefault(_canonical_key(new, commutative), n)
            if key == n:
                queue.append(_Node(new, expansions, node, steps, key))
                if adjacent is not None and k >= bundles:
                    mask = _commuting_cancels(adjacent, new, allow_vacuous,
                                              unifiers)
                    if mask:
                        queued_skips[key] = mask
            elif skipping and (key in queued_skips or key in expanded_skips):
                # a later path: the state keeps only what both paths skip
                mask = 0 if k < bundles else _commuting_cancels(
                    adjacent, new, allow_vacuous, unifiers)
                if key in queued_skips:
                    _narrow(queued_skips, key, mask)
                else:
                    need = _narrow(expanded_skips, key, mask)
                    if need:
                        late.append((_Node(new, expansions, node, steps, key),
                                     need))
    proved = {root: root.expr}
    out = []
    for _, (payload, node) in sorted(results.items()):
        _prove(lex, mode, node, proved, allow_vacuous)
        out.append((payload, Derivation(mode, root.expr,
                                        node.derivation_steps(), node.expr)))
    return EngineResult(tuple(out), truncated)


def _prove(lex: lx.Lexicon, mode: str, node: _Node, proved: dict,
           allow_vacuous: bool) -> None:
    """Prove ``node`` and its unproved ancestors.

    ``proved`` maps each proved node to the expression its proof replayed.
    Walking up from ``node`` to the nearest proved ancestor, each node on the
    way is proved by one ``replay`` of its own steps from its parent's proved
    expression, which must end at the expression the search built for it.
    The walk is a loop, since a path can be ``max_expansions`` nodes long.
    """
    path = []
    while node not in proved:
        path.append(node)
        node = node.parent
    expr = proved[node]
    for node in reversed(path):
        expr = proved[node] = replay(
            lex, Derivation(mode, expr, node.steps, node.expr),
            allow_vacuous=allow_vacuous)


def _single_atom_goal(e: Expr) -> Optional[Term]:
    """Goal of parsing and saturation: one positive ground logical atom."""
    if len(e) == 1 and isinstance(e[0], Atom) and not e[0]._phon \
            and e[0].sign == 1 and e[0]._ground:
        return canonical_identifiers(e[0].payload)
    return None


def generate(lex: lx.Lexicon, lf: Term, lim: SearchLimits = SearchLimits()) -> EngineResult:
    """All word strings the grammar derives from a ground logical form.

    Results are pairs ``(words, derivation)`` in lexicographic order; every
    derivation has been replay-verified.
    """
    if not is_ground(lf):
        raise InputError(f"generation input must be ground: {render_term(lf)}")
    problems = _tables(lex).gen_problems
    if problems:
        raise lx.GrammarError(problems)
    start: Expr = (Atom(lf, 1),)

    def goal(expr: Expr):
        pub = is_public(lex, expr, start=lf)
        return pub.words if pub is not None else None

    return _search(lex, "gen", start, (), lim, goal, lambda w: " ".join(w))


def parse(lex: lx.Lexicon, words: Iterable[str],
          lim: SearchLimits = SearchLimits()) -> EngineResult:
    """All ground logical forms the grammar assigns to a string of tokens.

    Results are pairs ``(term, derivation)``; terms carry canonically renamed
    identifiers and come in rendering order.
    One search covers every assignment of rules to homonymous tokens:
    ``max_results`` counts readings across them all, and a reading's
    derivation may start from any assignment that reaches it.
    """
    words = tuple(words)
    vocab = set(lex.phon_vocab)
    for w in words:
        if w not in vocab:
            raise InputError(f"unknown token {w!r}")
    if len(words) > lim.max_expansions:
        raise InputError("more tokens than allowed expansions")
    tables = _tables(lex)
    if tables.parse_problems:
        raise lx.GrammarError(tables.parse_problems)
    prules = tables.parse_index
    for w in words:
        if w not in prules:
            raise InputError(f"no parsing rule for token {w!r}")

    start: Expr = tuple(Atom(w, 1) for w in words)
    starts = []
    for combo in itertools.product(*(prules[w] for w in words)):
        pre: list[Step] = []
        expr = start
        idents = IdentifierSource()
        # expand every token up front, left to right; rules put no tokens
        # back, so the tokens not yet expanded are the last items
        for ordinal, rule in enumerate(combo, 1):
            names, app_args = tables.parse_vars[rule.rule_id]
            meta_map = tuple((nm, f"{nm}{ordinal}")
                             for nm in names if nm not in app_args)
            ident_map = tuple((nm, idents.fresh().name) for nm in app_args)
            step = ExpandStep((), len(expr) - len(words) + ordinal - 1,
                              rule.rule_id, meta_map=meta_map,
                              ident_map=ident_map)
            expr = _apply(lex, expr, step)
            pre.append(step)
        starts.append((tuple(pre), expr))
    return _search(lex, "parse", start, starts, lim, _single_atom_goal,
                   render_term)


def saturate(lex: lx.Lexicon, lim: SearchLimits = SearchLimits()) -> EngineResult:
    """Enumerate single-atom public results of a commutative relator system.

    This is consequence closure for logic-program encodings: products of
    relator instances that reduce to one positive ground atom.
    """
    if not lex.commutative():
        raise InputError("saturation requires a commutative lexicon")
    for r in lex.relators:
        if lx.is_commutator_scheme(r):
            continue
        shape = (r.items and isinstance(r.items[0], lx.LogItem)
                 and r.items[0].sign == 1
                 and all(isinstance(i, lx.LogItem) and i.sign == -1
                         for i in r.items[1:]))
        if not shape:
            raise InputError("saturation expects definite-clause relators: "
                             "one positive atom, then inverted atoms")
    return _search(lex, "saturate", (), (), lim, _single_atom_goal, render_term)


# ---------------------------------------------------------------------------
# Rendering and serialization


def render_expr(expr: Expr) -> str:
    parts: list[str] = []

    def walk(items: Expr) -> None:
        for i in items:
            if isinstance(i, Block):
                parts.append("{")
                walk(i.contents)
                parts.append("}")
            else:
                text = i.payload if i.is_phon() else render_term(i.payload)
                parts.append(text + ("^-1" if i.sign < 0 else ""))

    walk(expr)
    return " ".join(parts) if parts else "1"


def parse_expr(text: str, phon_vocab: Iterable[str]) -> Expr:
    vocab = set(phon_vocab)
    if text.strip() == "1":
        return ()
    stack: list[list[Item]] = [[]]
    for tok in text.split():
        if tok == "{":
            stack.append([])
        elif tok == "}":
            inner = stack.pop()
            if not stack:
                raise ValueError("unbalanced '}'")
            stack[-1].append(Block(tuple(inner)))
        else:
            sign = -1 if tok.endswith("^-1") else 1
            name = tok[:-3] if sign < 0 else tok
            if not name:
                raise ValueError(f"empty atom {tok!r}")
            payload: Union[str, Term] = name if name in vocab else parse_term(name)
            stack[-1].append(Atom(payload, sign))
    if len(stack) != 1:
        raise ValueError("unbalanced '{'")
    return tuple(stack[0])


def _render_level(level: tuple[int, ...]) -> str:
    return ".".join(str(i) for i in level) if level else "-"

def _parse_level(text: str) -> tuple[int, ...]:
    return () if text == "-" else tuple(int(p) for p in text.split("."))


def _render_binding(b: Binding) -> str:
    parts = [f"{k}={render_term(v)}" for k, v in sorted(b.terms.items())]
    parts += [f"{k}={render_abstraction(v)}" for k, v in sorted(b.abstractions.items())]
    return ";".join(parts)


def _pair(part: str, what: str) -> tuple[str, str]:
    """Split ``name=value``; anything else is a ``ValueError`` naming it."""
    name, sep, value = part.partition("=")
    if not sep:
        raise ValueError(f"{what} {part!r} is not name=value")
    return name, value


def _parse_binding(text: str) -> Binding:
    terms: dict[str, Term] = {}
    abstractions = {}
    if text:
        for part in text.split(";"):
            k, v = _pair(part, "binding")
            if v.startswith("\\"):
                abstractions[k] = parse_abstraction(v)
            else:
                terms[k] = parse_term(v)
    return Binding(terms, abstractions)


def _render_pairs(pairs: tuple[tuple[str, str], ...]) -> str:
    return ";".join(f"{a}={b}" for a, b in pairs)


def _parse_pairs(text: str) -> tuple[tuple[str, str], ...]:
    if not text:
        return ()
    return tuple(_pair(p, "renaming") for p in text.split(";"))


def render_step(step: Step) -> str:
    if isinstance(step, ExpandStep):
        out = f"expand level={_render_level(step.level)} index={step.index} " \
              f"rule={step.rule_id}"
        if not step.binding.is_empty():
            out += f" bind={_render_binding(step.binding)}"
        if step.meta_map:
            out += f" rename={_render_pairs(step.meta_map)}"
        if step.ident_map:
            out += f" idents={_render_pairs(step.ident_map)}"
        return out
    if isinstance(step, CancelStep):
        out = f"cancel level={_render_level(step.level)} index={step.index}"
        if step.partner is not None:
            out += f" with={step.partner}"
        if not step.delta.is_empty():
            out += f" bind={_render_binding(step.delta)}"
        return out
    assert isinstance(step, DissolveStep)
    return f"dissolve level={_render_level(step.level)} index={step.index} " \
           f"to={_render_level(step.target_level)}:{step.slot} k={step.k}"


def _parse_target(text: str) -> tuple[tuple[int, ...], int]:
    level, sep, slot = text.rpartition(":")
    if not sep:
        raise ValueError("not level:slot")
    return _parse_level(level), int(slot)


# the fields each step kind may carry
_STEP_FIELDS = {"expand": ("level", "index", "rule", "bind", "rename", "idents"),
                "cancel": ("level", "index", "with", "bind"),
                "dissolve": ("level", "index", "to", "k")}


def parse_step(text: str) -> Step:
    """Read ``render_step``'s text.  A ``ValueError`` names an unknown kind,
    or a malformed, unknown, repeated or missing field."""
    kind, _, rest = text.partition(" ")
    if kind not in _STEP_FIELDS:
        raise ValueError(f"unknown step kind {kind!r}")
    fields: dict[str, str] = {}
    for part in rest.split():
        name, value = _pair(part, f"{kind} step field")
        if name not in _STEP_FIELDS[kind]:
            raise ValueError(f"{kind} step has an unknown field {name!r}")
        if name in fields:
            raise ValueError(f"{kind} step repeats field {name!r}")
        fields[name] = value

    def need(name: str, read=str):
        """Field ``name`` read by ``read``; a ``ValueError`` names it."""
        if name not in fields:
            raise ValueError(f"{kind} step without field {name!r}")
        try:
            return read(fields[name])
        except ValueError:
            raise ValueError(f"{kind} step field {name!r} has a bad value "
                             f"{fields[name]!r}") from None

    if kind == "expand":
        return ExpandStep(need("level", _parse_level), need("index", int),
                          need("rule"), _parse_binding(fields.get("bind", "")),
                          _parse_pairs(fields.get("rename", "")),
                          _parse_pairs(fields.get("idents", "")))
    if kind == "cancel":
        return CancelStep(need("level", _parse_level), need("index", int),
                          _parse_binding(fields.get("bind", "")),
                          need("with", int) if "with" in fields else None)
    return DissolveStep(need("level", _parse_level), need("index", int),
                        *need("to", _parse_target), need("k", int))


def render_derivation(d: Derivation) -> str:
    lines = [f"derivation mode={d.mode}",
             f"start: {render_expr(d.start)}"]
    lines += [f"step: {render_step(s)}" for s in d.steps]
    lines.append(f"end: {render_expr(d.end)}")
    return "\n".join(lines)


def parse_derivation(text: str, phon_vocab: Iterable[str]) -> Derivation:
    """Read ``render_derivation``'s text: the ``derivation mode=``,
    ``start:`` and ``end:`` lines each exactly once, and any ``step:`` lines."""
    heads: dict[str, list[str]] = {"derivation mode=": [], "start:": [], "end:": []}
    steps: list[Step] = []
    for raw in text.strip().splitlines():
        line = raw.strip()
        if line.startswith("derivation"):
            if "mode=" not in line:
                raise ValueError(f"derivation line without a mode: {line!r}")
            heads["derivation mode="].append(line.split("mode=", 1)[1].strip())
        elif line.startswith(("start:", "end:")):
            head, _, value = line.partition(":")
            heads[head + ":"].append(value.strip())
        elif line.startswith("step:"):
            steps.append(parse_step(line[len("step:"):].strip()))
        elif line:
            raise ValueError(f"unexpected trace line {line!r}")
    for head, values in heads.items():
        if len(values) != 1:
            raise ValueError(f"derivation text has {len(values)} {head!r} "
                             f"lines, not one")
    (mode,), (start,), (end,) = heads.values()
    return Derivation(mode, parse_expr(start, phon_vocab), tuple(steps),
                      parse_expr(end, phon_vocab))


def derivation_record(d: Derivation) -> dict:
    """A JSON-ready rendering of a derivation."""
    return {
        "mode": d.mode,
        "start": render_expr(d.start),
        "steps": [render_step(s) for s in d.steps],
        "end": render_expr(d.end),
    }


def derivation_of_record(record: dict, phon_vocab: Iterable[str]) -> Derivation:
    for name in ("mode", "start", "steps", "end"):
        if name not in record:
            raise ValueError(f"derivation record without field {name!r}")
    for name in ("mode", "start", "end"):
        if not isinstance(record[name], str):
            raise ValueError(f"derivation record field {name!r} is not a string")
    steps = record["steps"]
    if not (isinstance(steps, (list, tuple))
            and all(isinstance(s, str) for s in steps)):
        raise ValueError("derivation record field 'steps' is not a list of strings")
    return Derivation(record["mode"],
                      parse_expr(record["start"], phon_vocab),
                      tuple(parse_step(s) for s in steps),
                      parse_expr(record["end"], phon_vocab))
