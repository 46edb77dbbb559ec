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
binding: a generation rule's recorded unifier, or, for a parsing rule or a
relator, the renaming that names its copy apart by the copy's number, the
step's ``instance`` (``_renaming``): ``parse`` numbers each word's copy by
the word's ordinal, saturation each clause copy by its depth, and a rule
without variables is instance 0.  Whether steps commute is the lexicon's to
decide, never a caller's.

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

Both directions reduce the orders they explore (partial-order reduction).
Generation expands one atom per state, the first that has an expansion, and
places blocks only from a state where nothing expands, every slot and
rotation of every block then (a bundle, one ``DissolveStep``), since inert
final placements give distinct strings.  Expansions are local rewrites that
commute with each other and with bundles, so every derivation of a string
can be reordered into one of these (see ``_expand_successors`` for the
argument and the one assumption it makes).  The lexicon decides whether
expansions are local (``_Tables.local_expansions``); a lexicon where they
are not gets every expansion of every atom and every bundle at every state.
Parsing places every block before any cancel when its starts meet
``_ordered_word`` and fit ``max_items``: a state with a block gets every
bundle and no cancel (see ``_search``).  Any other parse gets every bundle
of a state with a block beside its cancels, as the full search does.  No
reading is lost.  Only generation can make intermediate states larger than
in the full search when measured against ``max_items`` (see
``_expand_successors``).

Cancels are not ordered: the orders of independent cancels meet in states
with equal keys, and the search expands each key once.  A blocks-first
parse does not even build them twice: the cancels of a live word's atoms
that leave the same atoms in the same order, having cancelled the same
pairs, make one state whatever their order, and a cancel whose state was
made already is not made again (``_cancel_successors``).  When blocks come
first, each block-free word that a bundle would make is judged before the
bundle is built, once per search, and dropped, never built or keyed, when
no non-crossing matching of its atoms can cancel, read first-order
(``_may_match``, ``_block_successors``).  It and the chart read a word's
matchings from one place (``_matchings``), which solves their equations
over bitsets (the bitset kernel) and pairs atoms by one relation: whether
their first-order readings unify (``_may_cancel``).  A word that the kernel
cannot read, which no search whose starts meet ``_ordered_word`` makes, is
kept unjudged.  In a set of atoms with two negative applications or more,
the scopes of a start with two blocks or more, the relation keeps only the
pairs that some order-free valid matching of the atoms holds, as far as a
search of fixed size can tell (``_supported``); every matching that can
cancel holds only such pairs.  A live word carries the matchings that can
cancel down its cancels, and cancels only pairs that one of them holds
(``_cancel_successors``).

A parse search whose every start is a first-order block-free word (no
block, no token, no application) that meets ``_ordered_word`` is decided by
a chart (``_chart``).  Every cancel of such a word removes its own pair
only, and first-order most general unifiers compose in any order, so a
sequence of cancels succeeds exactly when the equations of its matching,
non-crossing, unify, and every such matching replays with its pairs
cancelled innermost first, left to right.  The readings are the ground
survivors of those matchings: the chart enumerates the matchings over
spans (``_matchings``).  Each pair's equation binds its negative atom's own
variable, once, so the matchings are decided over bitsets of the variables
and identifiers that each binding reaches.  The chart builds each
matching's cancels as a chain of nodes and reads the reading off the
chain's end, the one atom that the cancels leave; it keeps the first chain
per reading.  The end nodes take the starts' place in the breadth-first
loop, which records, cuts and proves them like any other, so every search
ends in the loop.  Every other search explores there from its starts:
generation, saturation, commutative lexicons, and parses whose words hold
a block or an application.

Saturation resolves each subgoal in one step, over the clauses that a
first-argument index proposes for it (``_Tables.candidates``): the
instance's head is unified with the subgoal before anything is built, and
each unifier gives its resolvent, substituted and normalized once.  The
derivation still records the instance's expansion and the cancel of the
head against the subgoal, and ``replay`` checks both (see
``_saturate_successors``).

Expressions, like terms, are immutable, and steps that leave an item alone
keep it as the same object; ``normalize`` returns its argument itself when
nothing cancels and no block is dropped or rebuilt.  An atom computes its
class when it is built (whether it is a surface token, whether it is ground)
and memoizes what depends on it alone, its state-key fragment (see
``_canonical_key``), and a lexicon memoizes its rule tables (see
``_tables``).  An atom does not memoize its first-order reading: the tables
of its set of atoms are built from it once (``_atom_set``).  These memo
fields are outside equality and hashing, and a copy or a pickle is rebuilt
from the other fields, which computes the class again.

Most parse states have no blocks, and those cost the least.  A block-free
state in non-commutative mode gets a flat key, its atoms' fragments and the
ordinals of their variables, instead of one key per item; both shapes put
states in the same classes, and the shapes never meet.  The search hashes
each key once, when it adds the key to the set it has seen, and the
successor generators and ``_apply`` skip the walks over block levels when
the top level holds no block.

Each search builds one context, ``_Search``: the lexicon,
``allow_vacuous``, whether blocks come first, and the memos whose entries
depend on the search, alive for that search only.  Every successor
generator takes the context and the node it expands and returns pairs
``(steps, expr)``, ``gen(s, node) -> list``, and the helpers that judge
atom pairs take the context too.  There are six memos:

* ``unifiers`` holds the unifiers of atom pairs, keyed by the pair's
  identity, ``(id(a), id(b))``, so each pair of atom objects is unified
  once.
* ``substitutions`` holds the substitutions the cancels make, keyed by
  identity, ``(id(unifier), id(atom))``, so the same atom object under the
  same unifier object gives one shared result atom in every state that
  needs it, while distinct atoms, even equal ones, never merge: no atom
  object occurs twice in one state.
* ``instances`` holds one dict per search depth, which keeps each clause's
  instance and expansion steps (``_clause_step``), so every state at one
  depth shares each clause's instance, and its atoms compute their class
  and key fragment once; a fact's instance is built once for every depth.
* ``judged`` holds the block phase's verdicts on its block-free words,
  keyed by the word's atom ids.  It holds no atom: the block phase makes no
  atom, so the starts, which the search holds while it lives, hold every
  atom it keys.
* ``atom_sets`` holds the tables of each set of atoms whose words
  ``_matchings`` reads (``_atom_set``): the atoms' signs, which pairs
  of them may cancel (``_may_cancel``, less the unsupported pairs when the
  set holds two negative applications or more, ``_supported``), and the
  bitset kernel's tables.  It is keyed by the set of the atoms' ids.
* ``made`` holds the states that the cancels of a blocks-first parse's
  live words have made, each named by ``(tables, pos, done)``: the tables
  of its start's atom set, the index there of each atom left, in order,
  and the mask of the pairs of indices cancelled (``_pair_bit``).  It holds
  no atom and no id; the tables are ``atom_sets``'.

Each entry of ``unifiers``, ``substitutions`` and ``atom_sets`` holds the
objects whose ids it uses, so no id is reused while the memo lives.  The
context holds no node, so a search leaves no reference cycle.
A node of a blocks-first parse carries the viable matchings of its
block-free word down its cancels (``_Node.viable``): sets of position
pairs, which hold no atom and no id.

The proof keeps its own memo of instances, one for all the answers of a
search, and shares nothing with the search's memos: ``replay`` and
``apply_step`` read none of those, so the proof checks every step and builds
every distinct instance itself.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Union

from . import lexicon as lx
from .term import (
    HOLE, MAX_TERM_DEPTH, AbsVar, Abstraction, App, Binding, Compound, Const,
    EMPTY_BINDING, Identifier, MetaVar, Term, _bind, binding_is_acyclic,
    canonical_identifiers, identifiers_in, is_ground, parse_abstraction,
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
    rule against the target atom (generation); ``instance`` numbers the
    fresh copy of a parsing rule or relator, and ``_renaming`` turns it into
    the binding the rule is instantiated with, which makes replay
    deterministic.
    """

    level: tuple[int, ...]
    index: int
    rule_id: str
    binding: Binding = EMPTY_BINDING
    instance: int = 0


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


def _renaming(tables: _Tables, step: ExpandStep) -> Binding:
    """The renaming of copy ``n = step.instance`` of a parsing rule or
    relator, from the rule's scheme variables (``_Tables.vars``), as a
    binding.

    A meta-variable ``V`` becomes ``V_n`` and an abstraction variable ``V``
    becomes ``\\#_z.V_n[#_z]``, which ``substitute`` beta-reduces to
    ``V_n[arg]``; the k-th name used as an abstraction argument becomes the
    identifier ``#xn_k`` instead.  The renaming is injective over names and
    numbers, since ``n`` is what follows the last underscore, so the copies
    of distinct numbers share no variable and no such identifier.  A rule
    without variables has the empty renaming at every number.
    """
    metas, absvars, app_args = tables.vars[step.rule_id]
    n = step.instance
    terms: dict[str, Term] = {v: MetaVar(f"{v}_{n}") for v in metas}
    terms.update((v, Identifier(f"x{n}_{k}"))
                 for k, v in enumerate(app_args, 1))
    return Binding(terms, {v: Abstraction(App(AbsVar(f"{v}_{n}"), HOLE))
                           for v in absvars})


def _scheme_variables(items: tuple[lx.SchemeItem, ...]) -> tuple:
    """``(metas, absvars, app_args)``: the meta-variables of a scheme other
    than the names used as abstraction arguments, its abstraction variables,
    both sorted, and those names in order of first occurrence."""
    terms = [it.term for it in items if isinstance(it, lx.LogItem)]
    app_args = tuple(dict.fromkeys(
        s.arg.name for t in terms for s in subterms(t)
        if isinstance(s, App) and isinstance(s.arg, MetaVar)))
    metas = set().union(*(t.metas for t in terms)).difference(app_args)
    absvars = set().union(*(t.absvars for t in terms))
    return tuple(sorted(metas)), tuple(sorted(absvars)), app_args


def _instance(tables: _Tables, rule_id: str, n: int) -> int:
    """The instance number of copy ``n`` of a rule: ``n``, or 0 for a rule
    without variables, whose copies are all one."""
    return n if any(tables.vars[rule_id]) else 0


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


def _binds_identifier(head: Term, name: str) -> bool:
    """Whether every unifier of ``head`` with a ground term binds the
    meta-variable ``name`` to an identifier: the head applies an abstraction
    variable that occurs nowhere else in it to ``name``.  That variable is
    still unbound when ``unify`` meets the application, and ``match_app``
    takes as its argument only an identifier or a meta-variable that it binds
    to one."""
    apps = [s for s in subterms(head) if isinstance(s, App)]
    return any(s.arg == MetaVar(name)
               and sum(a.abstraction == s.abstraction for a in apps) == 1
               for s in apps)


def _local_rule(rule: lx.GenRule) -> bool:
    """Whether a generation rule keeps expansions local (see ``_Tables``):
    every variable of its right side occurs in its head, so each instance is
    ground; the right side holds no negative token; and each negative logical
    item is an identifier, or a meta-variable that the head binds to one
    (``_binds_identifier``)."""
    bound = rule.lhs.metas | rule.lhs.absvars
    for it in rule.rhs:
        if isinstance(it, lx.PhonItem):
            if it.sign < 0:
                return False
        elif isinstance(it, lx.LogItem):
            t = it.term
            if not (t.metas | t.absvars) <= bound:
                return False
            if it.sign < 0 and not isinstance(t, Identifier) and not (
                    isinstance(t, MetaVar) and _binds_identifier(rule.lhs, t.name)):
                return False
    return True


class _Tables:
    """A lexicon's derived rule tables, built once by ``_tables``.

    Each direction's rules come from one ``lexicon.derive`` pass.  In a
    strict grammar, the relators that carry no rule in a direction are that
    direction's problems (``gen_problems``, ``parse_problems``: line and
    reason), which ``generate`` and ``parse`` raise, and the direction gets
    no rules; the other direction still runs.

    ``local_expansions`` says whether generation may expand one atom per
    state and place blocks only where nothing expands (see
    ``_expand_successors``).  It holds when no generation head has the key
    ``*`` (a variable, an application or an identifier), and every rule meets
    ``_local_rule``.  Then every generation state is ground, every negative
    atom in it is an identifier, which no rule expands, and every token in it
    is positive.  So an expandable atom (positive, ground, not a token, with
    a rule) leaves a state only by being expanded: nothing cancels it, eagerly
    or by an explicit cancel."""

    def __init__(self, lex: lx.Lexicon):
        gen_rules, gen_skipped = lx.derive(lex, "gen")
        parse_rules, parse_skipped = lx.derive(lex, "parse")
        self.gen_problems, self.parse_problems = (
            [] if lex.raw_mode
            else [(r.line, reason) for r, reasons in skipped for reason in reasons]
            for skipped in (gen_skipped, parse_skipped))
        gen_rules = () if self.gen_problems else gen_rules
        parse_rules = () if self.parse_problems else parse_rules
        self.by_id: dict[str, object] = {r.rule_id: r for r in gen_rules + parse_rules}
        self.by_id.update((f"r{n}", r) for n, r in enumerate(lex.relators, start=1))
        # the scheme variables of every rule, which name its copies apart
        # (_renaming)
        self.vars = {rule_id: _scheme_variables(
            r.items if rule_id[0] == "r" else r.rhs)
            for rule_id, r in self.by_id.items()}
        self.commutative = lex.commutative()
        # generation rules by the head key of their left-hand side
        self.gen_index: dict[str, list[lx.GenRule]] = {}
        for r in gen_rules:
            self.gen_index.setdefault(_head_key(r.lhs), []).append(r)
        self.local_expansions = "*" not in self.gen_index and all(
            map(_local_rule, gen_rules))
        # parsing rules by their surface token
        self.parse_index: dict[str, list[lx.ParseRule]] = {}
        for r in parse_rules:
            self.parse_index.setdefault(r.word, []).append(r)
        # saturation: (rule id, head term or None) for each clause relator;
        # a relator that does not begin with a logical atom has no head
        self.clauses = []
        for n, r in enumerate(lex.relators, start=1):
            if not lx.is_commutator_scheme(r):
                first = r.items[0] if r.items else None
                head = first.term if isinstance(first, lx.LogItem) else None
                self.clauses.append((f"r{n}", head))
        # facts: clauses of one ground atom, whose instance a search builds
        # once (see _saturate_successors)
        self.facts = {rule_id for rule_id, _ in self.clauses
                      if not any(self.vars[rule_id])
                      and len(self.by_id[rule_id].items) == 1}
        self._head_keys = [None if head is None else _rigid_key(head)
                           for _, head in self.clauses]
        self._candidates: dict = {}

    def candidates(self, subgoal: Term) -> list:
        """The clauses whose head may meet ``subgoal``, in their order: a
        superset of those whose head unifies with it, since renaming and
        substitution never change a rigid key; memoized by the subgoal's
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
           substitutions: Optional[dict] = None,
           instances: Optional[dict] = None) -> Expr:
    """Apply one derivation step without checking it.  The search applies the
    steps it builds itself this way, a cancel with the search's
    ``substitutions`` memo (see ``substitute_expr``).

    ``instances``, when given, memoizes the instances of parsing rules and
    relators by ``(rule_id, instance)``: the number fixes the renaming
    (``_renaming``), so a repeated key gets the same tuple of items.
    Generation rules, whose key would be a binding, always build theirs.
    ``apply_step`` passes on the memo its caller gives, and none by
    default."""
    if isinstance(step, ExpandStep):
        tables = _tables(lex)
        kind = step.rule_id[0]
        rule = tables.by_id[step.rule_id]
        if kind == "r":
            scheme, stop = rule.items, step.index
        else:
            scheme, stop = rule.rhs, step.index + 1
        if instances is None or kind == "g":
            binding = step.binding if kind == "g" else _renaming(tables, step)
            new_items = _instantiate_items(scheme, binding, tables.commutative)
        else:
            key = (step.rule_id, step.instance)
            new_items = instances.get(key)
            if new_items is None:
                new_items = instances[key] = _instantiate_items(
                    scheme, _renaming(tables, step), tables.commutative)
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
               allow_vacuous: bool = False,
               instances: Optional[dict] = None) -> Expr:
    """Check every precondition of a derivation step, then apply it
    (``_apply``).  Whether steps commute is the lexicon's to decide.

    ``instances`` is the caller's memo of rule and relator instances (see
    ``_apply``); the default, None, builds every instance afresh.  The checks
    never read it: they look at the step and the expression only."""
    if isinstance(step, ExpandStep):
        tables = _tables(lex)
        rule = tables.by_id.get(step.rule_id)
        if rule is None:
            raise StepError(f"unknown rule {step.rule_id}")
        if step.instance < 0:
            raise StepError("an instance number is 0 or more")
        if step.rule_id.startswith("g"):
            if step.instance:
                raise StepError("a generation step has no instance number")
        elif not step.binding.is_empty():
            raise StepError("only a generation step records a binding")
        if step.rule_id.startswith("r"):
            if not tables.commutative:
                raise StepError("relator multiplication requires commutative mode")
            if lx.is_commutator_scheme(rule):
                # its conjugator pairs interleave, so it has no instance
                raise StepError("the commutator relator is never multiplied in")
            if step.index != len(level_items(expr, step.level)):
                raise StepError("relator instances are appended at the end")
            return _apply(lex, expr, step, instances=instances)
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
    return _apply(lex, expr, step, instances=instances)


def replay(lex: lx.Lexicon, d: Derivation, *,
           allow_vacuous: bool = False,
           instances: Optional[dict] = None) -> Expr:
    """Re-execute a derivation from scratch, validating every step.

    Returns the final expression, which must equal ``d.end``.  Whether the
    steps commute is the lexicon's to say, never the derivation's.
    ``instances`` is handed to every ``apply_step``: a memo of rule and
    relator instances that the caller keeps across replays (``_prove`` keeps
    one per proof); the default, None, builds every instance afresh.
    """
    if d.mode not in ("gen", "parse", "saturate"):
        raise StepError(f"unknown derivation mode {d.mode!r}")
    expr = normalize(d.start)
    for n, step in enumerate(d.steps):
        try:
            expr = apply_step(lex, expr, step, allow_vacuous=allow_vacuous,
                              instances=instances)
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
        words = _words(expr)
        return None if words is None else PublicResult(start, words)
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
    """A search state.  ``has_blocks`` says whether a top-level item is a
    block, scanned once, when the node is built.  ``viable`` is ``None``
    until ``_cancel_successors`` expands the node and sets it.  For a live
    block-free word that a bundle of a blocks-first parse entered, and the
    states its cancels reach, it is then ``(matchings, pos, done,
    tables)``: the matchings of the word that entered (``_may_match``) that
    hold every pair cancelled since, ``pos``, which of the word's atoms each
    of the node's atoms stands for, and ``done``, the mask of the pairs
    cancelled since (``_pair_bit``).  Each atom of the word is named by its
    index in ``tables``, the ``_AtomSet`` of the word's atoms, so a matching is
    a frozenset of pairs of indices and ``pos`` a tuple of indices."""

    __slots__ = ("expr", "expansions", "parent", "steps", "has_blocks",
                 "viable")

    def __init__(self, expr, expansions, parent, steps):
        self.expr = expr
        self.expansions = expansions
        self.parent = parent
        self.steps = steps
        self.has_blocks = _has_block(expr)
        self.viable = None

    def derivation_steps(self) -> tuple[Step, ...]:
        chain: list[Step] = []
        node = self
        while node.parent is not None:
            chain[:0] = node.steps
            node = node.parent
        return tuple(chain)


@dataclass(slots=True, eq=False)
class _Search:
    """One search's context (see the module docstring and ``_search``).

    ``blocks_first`` says that the search places every block before any
    cancel (see ``_search``).  The memos are ``unifiers``,
    ``substitutions``, ``instances``, ``judged``, ``atom_sets`` and
    ``made``, as the module docstring says.  Nothing else in the context
    shapes the tables of an atom set: whether its partners lose their
    unsupported pairs is the set's own to decide (``_atom_set``), so a
    context built directly judges a word as a search's does.  ``judged``
    maps each block-free word that the block phase has judged, by its
    atoms' ids, to what ``_may_match`` said of it, ``()`` for a dead word (see
    ``_block_successors``); the node of a live word reads the verdict from
    there (``_cancel_successors``).
    ``atom_sets`` maps each set of atoms that ``_matchings`` has read, by
    the set of their ids, to a pair: the first word that held them, and
    their tables (``_atom_set``), or ``None``.  Those tables are the only
    record of the atoms' readings and of which pairs of them may cancel.
    In a blocks-first parse every judged word is an order of one start's
    atoms, so it holds one entry per start.  ``made`` holds the name of
    each state that a cancel of a node with viable matchings has made (see
    ``_cancel_successors``)."""

    lex: lx.Lexicon
    allow_vacuous: bool = False
    blocks_first: bool = False
    unifiers: dict = field(default_factory=dict)
    substitutions: dict = field(default_factory=dict)
    instances: dict = field(default_factory=dict)
    judged: dict = field(default_factory=dict)
    atom_sets: dict = field(default_factory=dict)
    made: set = field(default_factory=set)


def _expand_successors(s: _Search, node: _Node) -> list:
    """Every expansion of a positive ground logical atom by a generation
    rule, or, in a lexicon whose expansions are local
    (``_Tables.local_expansions``), only those of the first atom, in
    ``_levels`` order, that has any.  There ``_search`` places blocks only
    from a state without expansions.

    Neither reduction loses a generated string.  In such a lexicon an
    expandable atom leaves a state only by its own expansion, tokens are
    positive and never cancel, and only identifiers cancel (see ``_Tables``).

    * A goal holds tokens only, so every derivation of a goal expands each
      expandable atom of each state on its way exactly once.
    * Expansions of distinct atoms commute: each atom survives the other's
      normalization, and normalization reaches one normal form in any order.
    * An expansion commutes with a dissolve, whose slot and rotation are
      remapped over the expansion's items, with one exception: the expansion
      brings an identifier next to its inverse, which the dissolve, made
      first, had put its items between (or, rotating a block, had put the
      rest of the block between).  Expanded first, the two cancel and that
      gap is gone.  When each identifier occurs at most once with each sign,
      as in a form that binds each identifier once and uses it once, the two
      must cancel each other in the goal too.  So the items between them
      there cancel among themselves and hold no token, and dissolving their
      blocks where the pair cancelled gives the same string.
    * In a commutative lexicon, whose states hold no blocks, an expansion
      commutes with a cancel of two other atoms, which are ground: the two
      orders give the same items, in orders that the state key forgets, and
      the same tokens in the same order.
    * So every derivation of a goal can be reordered into one that expands
      the first expandable atom of each state while any is left, and only
      then dissolves.

    A form that binds one identifier twice falls outside the third point;
    the differential tests compare such forms with the full search.
    Postponed dissolves keep blocks longer, and expanding first can make an
    intermediate state larger, when measured against ``max_items``, than
    any state of the full search's derivation of the same string.
    """
    tables = _tables(s.lex)
    gen_index, first = tables.gen_index, tables.local_expansions
    expr = node.expr
    out = []
    for level, items in _levels(expr):
        for idx, item in enumerate(items):
            if not isinstance(item, Atom) or item.sign != 1 or item._phon \
                    or not item._ground:
                continue
            for rule in gen_index.get(_head_key(item.payload), []) + gen_index.get("*", []):
                for b in unify(rule.lhs, item.payload, EMPTY_BINDING,
                               s.allow_vacuous):
                    step = ExpandStep(level, idx, rule.rule_id, binding=b)
                    out.append(((step,), _apply(s.lex, expr, step)))
            if first and out:
                return out
    return out


def _cancel_pair(a, b) -> bool:
    """Whether adjacent items may cancel by an explicit step: logical atoms
    of opposite sign, not both ground (ground inverses cancel eagerly)."""
    return (isinstance(a, Atom) and isinstance(b, Atom) and a.sign == -b.sign
            and not (a._phon or b._phon) and not (a._ground and b._ground))


def _pair_unifiers(s: _Search, a: Atom, b: Atom) -> list:
    """``unify(a.payload, b.payload, EMPTY_BINDING, s.allow_vacuous)``, kept
    in the search's memo of pair unifiers by the pair's identity."""
    unifiers = s.unifiers
    ids = (id(a), id(b))
    found = unifiers.get(ids)
    if found is None:
        found = unifiers[ids] = (a, b, unify(a.payload, b.payload,
                                             EMPTY_BINDING, s.allow_vacuous))
    return found[2]


def _may_cancel(s: _Search, a: Atom, b: Atom, u: Term, v: Term) -> bool:
    """Whether two atoms of one set that ``_atom_set`` builds tables for may
    cancel each other, given their first-order readings' terms ``u`` and ``v``
    (``_first_order``), the relation by which ``_matchings`` pairs atoms:
    whether the readings unify now (``_bind``).

    A derivation of a reading from such a word cancels the pairs of one
    matching, and its unifiers compose to a most general unifier of the
    matching's equations, read first-order (see ``_may_match`` and
    ``_chart``).  That unifier unifies each pair's own equation, so a pair
    whose readings do not unify is in no such matching.  A rigid skeleton
    clash, or a variable or application that occurs rigidly inside the
    other side, is a clash or an occurs-check failure of the readings.
    ``unify`` of the payloads cannot stand in for the readings: ``match_app``
    fails on a target that still holds an application, yet binding that
    application's abstraction later can let the pair cancel.

    Without vacuous abstraction, an application to an identifier facing a
    ground atom needs the identifier inside that atom, and the atom must not
    be the identifier itself.  Every abstraction ``match_app`` makes uses
    its hole and is not the identity, so every later image of the
    application has both properties, and a ground atom never changes.
    """
    x, y = a.payload, b.payload
    if not s.allow_vacuous:
        for app, t in ((x, y), (y, x)):
            if t.ground and isinstance(app, App) \
                    and isinstance(app.arg, Identifier):
                return t != app.arg and app.arg in identifiers_in(t)
    return _bind(u, v, {})


def _first_order(a: Atom) -> tuple:
    """``(term, apps, idents)``: the atom's term with each application
    ``P[#x]`` read as the meta-variable ``P[]``, which no input can name;
    ``apps`` mapping each abstraction variable to its one argument, an
    identifier; and the names of the identifiers in that term, which the
    bitset kernel reads (``_bit_tables``).  ``(None, None, None)`` for a
    token, or when an application's argument is no identifier, or one
    variable is applied to two."""
    if a._phon:
        return None, None, None
    t = a.payload
    apps: dict = {}
    for sub in subterms(t) if t.absvars else ():
        if isinstance(sub, App) and (
                not isinstance(sub.arg, Identifier)
                or apps.setdefault(sub.abstraction.name, sub.arg) != sub.arg):
            return None, None, None
    if apps:
        t = substitute(t, Binding({}, {p: Abstraction(MetaVar(p + "[]"))
                                       for p in apps}))
    return t, apps, tuple(x.name for x in identifiers_in(t))


def _may_match(s: _Search, word: Expr) -> Union[list, bool]:
    """The viable matchings of the block-free ``word``, from a search whose
    starts meet ``_ordered_word``: each matching that ``_matchings`` finds,
    as a frozenset of position pairs ``(i, j)``.  ``[]`` says that the word
    is dead.  A word that ``_matchings`` does not read, one that holds a
    token, where an application's argument is no identifier or one variable
    has two arguments, or that is not of the bitset kernel's shape, gets
    ``True``: it is kept unjudged, no pair of its atoms is asked
    ``_may_cancel``, and its cancels are not restricted.  That is sound:
    it drops nothing.

    In such a word a derivation of a reading cancels the pairs of one
    matching, each pair its own, and the survivor is a positive atom at an
    even index.  A first-order cancel's unifier is a most general one.  An
    application's cancel binds its variable once, to the other atom's term
    (``match_app``: the abstraction's body, applied to the one argument
    there), and read first-order this is the most general unifier of that
    equation.  So the derivation's unifiers compose to a most general
    unifier of the matching's equations, which unifies each pair's own
    equation (``_may_cancel`` keeps every pair), and the reading is the
    survivor's image under it, ground.  An application is bound only by its
    own negative atom, which meets ``_ordered_word``'s bare shape;
    ``match_app`` makes no identity abstraction and, unless vacuous
    abstraction is allowed, none that drops the hole, and substitution never
    removes an identifier.  So the matching of every derivation of a reading
    from the word is in the list.  The check is necessary, not sufficient:
    matching an application depends on the order of the cancels, and some
    orders are deadlocks that the check does not see.

    Each equation binds one fresh variable.  Read first-order, every
    negative atom of such a word is a meta-variable that no other negative
    atom holds (a bare meta-variable, or an application read as ``P[]``),
    and no positive atom is a variable (``_ordered_word``).  A pair holds
    one atom of each sign, so its equation binds the negative atom's
    variable to the positive atom's reading, and no other pair binds that
    variable.  The matching's unifier is then a function of the matching
    alone: the equations unify exactly when no variable's binding reaches
    the variable itself (the occurs check), the survivor's image is ground
    exactly when every variable it reaches is bound, and an application's
    image holds its identifier exactly when one of the readings it reaches
    does.  ``_matchings`` decides all three over bitsets (``_bit_tables``,
    ``_cover``).  Only a direct call can pass a word of any other shape
    (``f(a)^-1``, a negative atom that is no variable), and it is kept
    unjudged.

    The search calls this once per word, before the word's bundle is built
    (``_block_successors``), and carries the list down the word's cancels
    (see ``_cancel_successors``); a state keeps the list of the first path
    that reaches it, and is expanded once.  That loses no reading.  Take a
    derivation of a reading from a state, and any path that reached the
    state from its entering word.  The path and the derivation together are
    a derivation of the reading from that word, so their pairs, the path's
    cancels added to the derivation's, make a matching in that word's list,
    and it holds every pair the path cancelled: the list the path carries
    keeps it.  Read
    first-order, the path's unifiers and the derivation's compose to a most
    general unifier of the joint equations, which is why they unify in the
    entering word when they unify in the state."""
    found = _matchings(s, word)
    if found is None:
        return True
    return [frozenset(pairs) for pairs in found]


def _cancel_successors(s: _Search, node: _Node) -> list:
    """Every explicit cancel of an adjacent pair, at every level.  Inside a
    block the pairs include the wrap pair (last item, first item).

    In a blocks-first parse the node first reads its viable matchings and
    keeps them (``_Node.viable``).  A word that a bundle entered takes
    ``_may_match``'s verdict from the memo ``judged`` (see
    ``_block_successors``) and the positions of all its atoms.  A cancel's
    child takes the matchings of its parent that hold the cancelled pair,
    and ``pos`` without the pair's positions (``_carried``): a cancel in
    such a word removes its own pair and nothing else (``_ordered_word``),
    and the parent was expanded first.  A start, and a word that
    ``_may_match`` keeps unjudged, with the states its cancels reach, take
    none.  The positions are named by the atoms' indices in the tables of
    the word's atom set (``_entered``).  A node that has matchings cancels
    only the pairs ``(pos[i], pos[i + 1])`` that some of them holds: any
    other cancel's pair is in no matching of a reading's derivation (see
    ``_may_match``), so its state reaches no reading.

    Such a node also names the state that each of its cancels would make,
    ``(tables, pos, done)`` after the cancel, and skips a cancel whose state
    the search has made already (the memo ``made``) before it asks for the
    pair's unifiers, builds the state or keys it; a state it makes is added.
    The name fixes the state.  The block phase makes no atom, so every live
    word is an order of one start's atoms, and every judged word has the
    kernel's shape (``_matchings``): each negative atom reads as a variable
    of its own, and each abstraction variable is applied to one identifier.
    So each cancel binds that one variable, once, to its partner's current
    term; an application ``P[#x]`` under ``match_app``'s abstraction,
    applied at ``#x``, gives that term back, under every unifier of the
    pair.  The atoms left are then the start's atoms under the solved form
    of the cancelled pairs' equations, in the order they stand, whatever
    the order of the cancels, as in the chart's first-order argument (see
    ``_chart``).  A cancel that fails in one order may succeed in another
    (``match_app`` fails on a term that still holds an application), so
    only a state that was made is named in the memo.  The atoms are named by
    their start's tables and an index, never an index alone: a search holds
    one start per assignment of rules to homonyms, whose atoms share
    indices.  A skipped state's key is in ``visited`` already: the cancels
    of a blocks-first parse trip no limit, so every state they make is
    keyed.  The queue, each node's ``viable``, the readings, their
    derivations and ``truncated`` stay as they were."""
    expr, viable = node.expr, None
    if s.blocks_first:
        step = node.steps[0] if node.steps else None
        if type(step) is CancelStep:
            if node.parent.viable is not None:
                viable = _carried(node.parent.viable, step)
        elif type(step) is DissolveStep:
            matchings = s.judged[tuple(map(id, expr))]
            if matchings is not True:
                viable = _entered(s, expr, matchings)
        node.viable = viable
    if viable is not None:
        matchings, pos, done, t = viable
        used = set().union(*matchings)
    out = []
    levels = _levels(expr) if node.has_blocks else [((), expr)]
    for level, items in levels:
        n = len(items)
        for i in range(_pair_count(level, n)):
            if viable is not None:
                pair = pos[i], pos[i + 1]
                if pair not in used:
                    continue
                made = t, pos[:i] + pos[i + 2:], done | _pair_bit(t, pair)
                if made in s.made:
                    continue
            a, b = items[i], items[(i + 1) % n]
            if not _cancel_pair(a, b):
                continue
            for delta in _pair_unifiers(s, a, b):
                step = CancelStep(level, i, delta)
                out.append(((step,), _apply(s.lex, expr, step,
                                            s.substitutions)))
                if viable is not None:
                    s.made.add(made)
    return out


def _entered(s: _Search, word: Expr, matchings: list) -> tuple:
    """The ``viable`` matchings of a live word that a bundle entered, its
    verdict ``matchings`` (``_may_match``), renamed from the word's
    positions to the indices of its atom set (``_atom_set``), the index of
    each of its atoms, no pair cancelled, and the atom set's tables (see
    ``_cancel_successors``)."""
    t = s.atom_sets[frozenset(map(id, word))][1]
    idx = tuple(t.index[i] for i in map(id, word))
    return ([frozenset((idx[i], idx[j]) for i, j in m) for m in matchings],
            idx, 0, t)


def _carried(viable: tuple, step: CancelStep) -> tuple:
    """The ``viable`` matchings of a cancel's child: those of its parent
    that hold the cancelled pair, the atom indices without the pair's, and
    the cancelled pairs with it (see ``_cancel_successors``)."""
    matchings, pos, done, t = viable
    i = step.index
    pair = pos[i], pos[i + 1]
    return ([m for m in matchings if pair in m], pos[:i] + pos[i + 2:],
            done | _pair_bit(t, pair), t)


def _pair_bit(t: _AtomSet, pair: tuple) -> int:
    """The bit that stands for the pair of ``t``'s atom indices ``pair``,
    in either order, in a mask of cancelled pairs."""
    a, b = pair
    return 1 << (a * len(t.signs) + b if a < b else b * len(t.signs) + a)


def _ordered_word(expr: Expr) -> bool:
    """Whether every top-level cancel of ``expr``, and of every state that
    parsing reaches from it, removes its own pair and nothing else: every
    negative atom, at any level, is a bare meta-variable or an application,
    so never ground and never a token; no positive logical atom is either;
    and no variable occurs in two negative atoms.

    A cancel pairs a negative atom with a positive one, which is neither a
    variable nor an application, so its unifier binds only variables of the
    negative atom: a bare meta-variable binds itself, and an application
    (``match_app``) its abstraction variable, and its argument when that is
    a variable.  No other negative atom holds them, so each keeps its shape,
    substitution keeps each positive atom's, and dissolves move items
    without changing them: every state meets the condition too.  Then no
    negative atom is ever ground, ``normalize``, which cancels only ground
    inverses, removes nothing, and a top-level cancel empties no block.
    """
    metas: set = set()
    absvars: set = set()
    for _, items in _levels(expr):
        for a in items:
            if isinstance(a, Block):
                continue
            t = a.payload
            bare = isinstance(t, (MetaVar, App))
            if a.sign > 0:
                if bare:
                    return False
                continue
            if not bare or not metas.isdisjoint(t.metas) \
                    or not absvars.isdisjoint(t.absvars):
                return False
            metas |= t.metas
            absvars |= t.absvars
    return True


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


def _block_successors(s: _Search, node: _Node) -> list:
    """Every bundle of the state: each block, at each place it can dissolve
    (``_placements``), in each rotation, as one ``DissolveStep`` that
    places, rotates and dissolves it in one go, and its state, a pair
    ``(steps, expr)``.  ``_search`` calls it only on a state that holds a
    block; generation and parsing get the same bundles.

    A block's position only matters at the moment it dissolves, so exploring
    placements as separate states would multiply intermediates without adding
    any reachable arrangement.

    In a blocks-first parse (``_Search.blocks_first``) every bundle that
    makes a block-free word is judged before it is built.  Only a state
    whose one block holds atoms alone makes such words, as every completion
    of the state does: with two blocks, or a block inside a block, a block
    is left.  The block is at the top level, so each completion is
    ``base[:slot] + contents[k:] + contents[:k] + base[slot:]``, where
    ``base`` is the state without the block.  In an ``_ordered_word`` this
    is exactly the word that ``_apply`` returns: a dissolve changes no item,
    and ``normalize`` removes nothing.  Each distinct word is judged once
    per search, by ``_may_match``, and its verdict kept in the memo
    ``judged`` under the word's atom ids, sliced from the state's the same
    way, so a dead word is never built again.  The block phase makes no
    atom, so the starts hold every atom it keys while the search lives, and
    no id is reused.  For the same reason every word it judges is an order
    of one start's atoms, and ``_matchings`` reads them all over tables
    built once per start.  Only live bundles are returned, in
    ``_placements`` order, and the node of each reads its verdict from
    ``judged`` when it is expanded (``_cancel_successors``).  A state with
    more blocks gets every bundle.

    The memo knows atoms by identity, so entering words made of distinct
    but equal atom objects, or of atoms equal up to renaming, are judged
    once each, though their state keys are equal: the cost of a judgement
    each, and no verdict changes.  The parses of ``english.gg`` make no two
    such words, even with a noun repeated.
    """
    expr = node.expr
    if s.blocks_first:
        where = [k for k, i in enumerate(expr) if type(i) is Block]
        if len(where) == 1 and not _has_block(expr[where[0]].contents):
            return _entering_bundles(s, expr, where[0])
    out = []
    for level, idx, block, tlevel, slot in _placements(expr):
        for k in range(len(block.contents)):
            step = DissolveStep(level, idx, tlevel, slot, k)
            out.append(((step,), _apply(s.lex, expr, step)))
    return out


def _entering_bundles(s: _Search, expr: Expr, idx: int) -> list:
    """The live bundles of a blocks-first state whose one block, at
    ``idx``, holds atoms alone, pairs ``(steps, expr)`` (see
    ``_block_successors``)."""
    contents = expr[idx].contents
    base = expr[:idx] + expr[idx + 1:]
    ids = tuple(map(id, base))
    icontents = tuple(map(id, contents))
    rotations = [(k, contents[k:] + contents[:k],
                  icontents[k:] + icontents[:k]) for k in range(len(contents))]
    judged = s.judged
    out = []
    for slot in (idx, *range(idx), *range(idx + 1, len(expr))):
        for k, rot, irot in rotations:
            key = ids[:slot] + irot + ids[slot:]
            matchings = judged.get(key)
            if matchings is None:
                matchings = judged[key] = \
                    _may_match(s, base[:slot] + rot + base[slot:]) or ()
            if matchings:
                out.append(((DissolveStep((), idx, (), slot, k),),
                            base[:slot] + rot + base[slot:]))
    return out


def _swap_cancel_successors(s: _Search, node: _Node) -> list:
    """All-pairs cancellation for commutative mode: each top-level pair of
    logical atoms of opposite sign cancels where it stands, under each
    unifier, by a cancel that names its partner unless the two are
    adjacent.  A ground pair of inverses cancels under the empty unifier.

    The name dates from when such a cancel was a chain of swaps; the
    benchmark's tracer still wraps the generator by that name.
    """
    expr = node.expr
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
            for delta in _pair_unifiers(s, a, b):
                step = CancelStep((), i, delta, None if j == i + 1 else j)
                out.append(((step,), _apply(s.lex, expr, step,
                                            s.substitutions)))
    return out


def _saturate_successors(s: _Search, node: _Node) -> list:
    """Successors under a resolution strategy.

    The rightmost inverted atom is the selected subgoal; multiplying in a
    relator instance is only allowed when its head immediately cancels
    against that subgoal (the first instance, taken on the empty expression,
    picks the root).  For definite-clause relator systems this is complete
    - which fact states are reachable does not depend on the selection - and
    it keeps working expressions the size of a resolvent.

    The clauses tried are the candidates of the subgoal's first-argument
    index (``_Tables.candidates``), which drops clauses on functor, arity or
    a differing constant first argument and keeps the rest in order, so
    successors come in the same order as without it.

    Each subgoal is resolved in one step.  The instance's head is unified
    with the subgoal first, and each unifier ``delta`` gives the resolvent
    ``normalize(substitute_expr(expr[:sel] + instance[1:], delta))``, built
    once; the derivation records the steps that ``replay`` checks, the
    instance's ``ExpandStep`` and then the ``CancelStep`` of the subgoal and
    the head.  A ground head equal to a ground subgoal cancels it eagerly
    when the instance is multiplied in, so its resolvent takes no
    substitution and no cancel step.  A ground head that equals the clause's
    own last body atom cancels inside the instance and resolves nothing; as
    the first instance, it picks no root.

    Each clause copy is numbered by the depth of the state it extends, its
    ``instance``, which names it apart (``X`` becomes ``X_3``, see
    ``_renaming``); a clause without variables is instance 0.  Every state
    at one depth shares one instance of each clause, kept in the context's
    memo of that depth (``_clause_step``).  Keyed by depth, an instance never
    shares an atom object with the state it extends, even for a clause
    without variables: no state holds one atom object twice.  A fact
    (``_Tables.facts``) is the exception: its one atom is its head, which
    resolution drops, so its instance is built once, in the memo of depth
    0, which no state has.
    """
    expr = node.expr
    if expr and not (isinstance(expr[-1], Atom) and expr[-1].sign == -1):
        return []  # goal state or dead end: no pending subgoal
    out = []
    depth = node.expansions + 1
    instances = s.instances
    memo = instances.get(depth)
    if memo is None:
        memo = instances[depth] = {}
    facts = instances.get(0)
    if facts is None:
        facts = instances[0] = {}
    tables = _tables(s.lex)
    n = len(expr)
    sel = n - 1
    goal = expr[sel].payload if expr else None
    for clause in tables.clauses if goal is None else tables.candidates(goal):
        step, instance = _clause_step(
            tables, facts if clause[0] in tables.facts else memo, clause,
            depth, n)
        head = instance[0]
        if goal is not None and head._ground and head.payload == goal:
            deltas = (None,)  # an eager cancel
        elif len(instance) > 1 and _inverse_pair(head, instance[1]):
            continue  # the instance cancels inside
        elif goal is None:
            deltas = (None,)  # the root: the instance itself
        else:
            deltas = unify(goal, head.payload, EMPTY_BINDING,
                           s.allow_vacuous)
        rest = instance if goal is None else expr[:sel] + instance[1:]
        for delta in deltas:
            if delta is None:
                out.append(((step,), normalize(rest)))
            else:
                out.append(((step, CancelStep((), sel, delta)),
                            normalize(substitute_expr(rest, delta))))
    return out


def _clause_step(tables: _Tables, memo: dict, clause, depth: int,
                 index: int) -> tuple[ExpandStep, Expr]:
    """The ``ExpandStep`` that multiplies ``clause``'s copy numbered by
    ``depth`` (``_instance``) in at ``index``, and the copy's instance.

    ``memo`` is the saturation memo of one depth: it holds each clause's
    instance, built once, by its rule id, and each step by rule id and
    index."""
    rule_id = clause[0]
    found = memo.get((rule_id, index))
    if found is None:
        step = ExpandStep((), index, rule_id,
                          instance=_instance(tables, rule_id, depth))
        items = memo.get(rule_id)
        if items is None:
            items = memo[rule_id] = _instantiate_items(
                tables.by_id[rule_id].items, _renaming(tables, step),
                tables.commutative)
        found = memo[(rule_id, index)] = (step, items)
    return found


def _search(lex: lx.Lexicon, mode: str, start: Expr,
            starts: Sequence[tuple[tuple[Step, ...], Expr]],
            lim: SearchLimits) -> EngineResult:
    """Breadth-first search from ``start``; every result is proved.

    The search begins at each ``expr`` of ``starts``, pairs ``(steps,
    expr)`` whose ``steps`` the caller applied to ``start`` and ``replay``
    checks again; starts with equal keys are queued once, and no starts
    means ``start`` normalized.  Parsing passes one start per assignment of
    rules to homonymous tokens, so one search covers them all: ``max_results``
    counts readings across every start, and a reading's derivation may begin
    at any start that reaches it.

    The search builds one context, ``_Search``, and the mode fixes, before
    the first state, everything that differs between the modes: the tuple
    of successor generators, the goal and the key that tells results apart.
    Every generator, the bundles of ``_block_successors`` included, is
    called as ``gen(s, node)`` and returns pairs ``(steps, expr)``, and
    every successor goes through one loop body: the limit checks, the key
    test and the queue.  A successor whose first step is an ``ExpandStep``
    (an expansion, or a clause instance with its cancel) counts one
    expansion against ``max_expansions``.
    Generation expands and places blocks, and its goal is a string of
    positive tokens, one result per string; parsing cancels and places
    blocks, saturation resolves, and the goal of both is one positive ground
    logical atom, one result per rendered term.  In a commutative lexicon
    the cancels are ``_swap_cancel_successors``, and generation makes them
    too.  The generators are looked up when the search starts, never before,
    and ``_block_successors`` when it is called, so a caller that replaces
    one on the module reaches every search.

    The context's memos live for this search only, and ``replay`` reads
    none.  The deltas of the cancels come from the memo of pair unifiers,
    so sibling states that cancel under the same delta share each result
    atom, with its class and its state-key fragment.  Identity keys never
    merge distinct atoms, even equal ones, so each atom object occurs once
    in a state, and each memo entry holds the objects whose ids it uses, so
    no id is reused while the search lives.  The memo of clause instances
    lives here rather than with the lexicon's tables, so it does not
    outlive the query or grow with every depth any query has reached.

    ``visited`` is the set of state keys seen (see ``_canonical_key``): a
    key is hashed once, when it is added, and a successor whose key is
    there already is dropped, so each key is expanded once, from the first
    path that reaches it.

    Block bundles are asked for from every state that holds a block, and
    only from those (``_Node.has_blocks``, which ``_cancel_successors``
    reads too).  Commutative and saturation states never hold one:
    ``_instantiate_items`` drops conjugator pairs in a commutative lexicon.
    A goal has no successor (a string of tokens, or one ground atom, which
    has no pair and no pending subgoal), so the loop records it and asks no
    generator about it.

    A non-commutative parse places every block before any cancel
    (``_Search.blocks_first``) when every start meets ``_ordered_word`` and
    no successor of a start can outgrow ``max_items`` (a start's
    ``_expr_size`` minus one fits it; every step makes a state smaller).  A
    state with a block then gets its bundles, at every slot and rotation,
    from ``_block_successors``, and no cancel.  They pass the loop's limit
    checks and never trip them: a dissolve makes a state one item smaller,
    and counts no expansion.  No reading is lost.  In such a search a
    cancel removes its own pair and nothing else, and a dissolve changes no
    item, so a top-level cancel followed by a dissolve swaps to the
    dissolve, at the slot that matches, on the side that keeps the pair
    adjacent, followed by the cancel.  A cancel inside a block, the wrap
    pair included, and one that empties the block, becomes a cancel one
    level out after the block dissolves in a rotation that keeps the pair
    together.  So every derivation reorders
    into one that dissolves every block first, through states of the same
    keys, and ``truncated`` stays: no state outgrows ``max_items``, parsing
    counts no expansion, and the readings are the same.  Every other
    non-commutative parse gets every bundle of a state with a block beside
    its cancels, the placement of the full search, which needs no argument.

    When blocks come first, each block-free word that a bundle would make is
    judged by its matchings (``_may_match``) before the bundle is built, once
    per search (``_block_successors``): a word none of whose matchings can
    cancel is dead, and its bundle is never built, keyed, queued or added to
    ``visited``.  The check pays because blocks first leave few entering words,
    most of them dead.  No other search drops a word.  A live word's node reads
    its viable matchings from the verdict (``_Node.viable``), and cancels only
    the pairs they hold: each child reads the matchings of its parent that hold
    its pair (``_carried``), and a state keeps what the first path to reach it
    carried (see ``_cancel_successors``).  Each such cancel's state is made
    once: the cancels that leave the same atoms of one start in the same order,
    having cancelled the same pairs, make one state in any order, so a cancel
    whose state was made already is not made again; its key is in ``visited``,
    since no cancel here trips a limit, so the search keeps its states, their
    order and its results.  ``_may_match`` argues that every path's list holds
    the matching of every derivation of a reading from the state.  A dropped
    word never reaches a reading, nor does any state it would reach, and states
    with equal keys reach the same readings.  So no reading or derivation of a
    live state changes, live states keep their queue order, and a state that
    cancels reach with a dead word's key, which ``visited`` does not hold,
    reaches no reading either.  No bundle trips a limit, so ``truncated`` does
    not change either.  The tables of a start's atoms keep only the supported
    pairs when the start holds two negative applications or more
    (``_atom_set``, ``_supported``), which in ``english.gg`` are its two blocks
    or more, so most dead words die at the partner scan of ``_matchings``,
    before the kernel runs; no verdict changes.  A start with one block judges
    too few words to pay for the support search, and a chart start holds no
    application.

    A non-commutative parse whose every start meets ``_chart_word`` and
    ``_ordered_word`` is decided by the chart (``_chart``, which gives the
    argument that it finds exactly the loop's readings), when no successor
    of a start can outgrow ``max_items``, a limit the chart does not model.
    The starts are keyed once each as above, and the chart takes them: it
    returns one node per reading, at the end of a chain of cancel nodes, at
    most ``max_results`` of them, and the queue holds those nodes in place
    of the starts.  The loop then runs as for any search: it records each
    node as a reading, sets ``truncated`` when ``max_results`` is reached,
    and asks no generator about it, a goal.  So every search ends in the
    loop, and every limit that cuts one is applied there.

    The search applies its own steps unchecked.  ``_prove`` then checks
    every step of each result, node by node over the tree the results
    share: one ``replay`` per distinct node on their paths, with a memo of
    instances of the proof's own.
    """
    tables = _tables(lex)
    commutative = tables.commutative
    s = _Search(lex, lim.allow_vacuous_abstraction)
    cancel = _swap_cancel_successors if commutative else _cancel_successors
    if mode == "gen":
        gens = (_expand_successors, cancel) if commutative \
            else (_expand_successors,)
        goal, result_key = _words, " ".join
    else:
        gens = (_saturate_successors,) if mode == "saturate" else (cancel,)
        goal, result_key = _single_atom_goal, render_term
    # generation with local expansions places blocks only where nothing
    # expands (see _expand_successors)
    place_late = mode == "gen" and tables.local_expansions

    root = _Node(normalize(start), 0, None, ())
    queue, visited = deque(), set()
    ordered = chart = first = mode == "parse" and not commutative
    for steps, expr in starts or [((), root.expr)]:
        ordered = ordered and _ordered_word(expr)
        # neither the chart nor placing blocks first knows a size limit: no
        # successor may outgrow max_items
        chart = chart and len(expr) - 2 <= lim.max_items and _chart_word(expr)
        first = first and _expr_size(expr) - 1 <= lim.max_items
        n = len(visited)
        visited.add(_canonical_key(expr, commutative))
        if len(visited) > n:
            queue.append(_Node(expr, 0, root, steps))
    if chart and ordered:
        queue = deque(_chart(s, queue, lim.max_results))
    s.blocks_first = first and ordered

    truncated = False
    results: dict[str, tuple] = {}
    while queue:
        node = queue.popleft()
        payload = goal(node.expr)
        if payload is not None:
            key = result_key(payload)
            if key not in results:
                results[key] = (payload, node)
                if len(results) >= lim.max_results:
                    truncated = True
                    break
            continue  # a goal has no successor
        if node.has_blocks and s.blocks_first:
            succ = _block_successors(s, node)
        else:
            succ = []
            for gen in gens:
                succ += gen(s, node)
            if node.has_blocks and not (place_late and succ):
                succ += _block_successors(s, node)
        for steps, new in succ:
            # an expansion, or a relator instance with its cancel
            expansions = node.expansions + isinstance(steps[0], ExpandStep)
            if expansions > lim.max_expansions:
                truncated = True
                continue
            if _expr_size(new) > lim.max_items:
                truncated = True
                continue
            n = len(visited)
            visited.add(_canonical_key(new, commutative))
            if len(visited) == n:
                continue
            queue.append(_Node(new, expansions, node, steps))
    proved = {root: root.expr}
    proof_instances: dict = {}
    out = []
    for _, (payload, node) in sorted(results.items()):
        _prove(lex, mode, node, proved, s.allow_vacuous, proof_instances)
        out.append((payload, Derivation(mode, root.expr,
                                        node.derivation_steps(), node.expr)))
    return EngineResult(tuple(out), truncated)


def _prove(lex: lx.Lexicon, mode: str, node: _Node, proved: dict,
           allow_vacuous: bool, instances: dict) -> None:
    """Prove ``node`` and its unproved ancestors.

    ``proved`` maps each proved node to the expression its proof replayed.
    Walking up from ``node`` to the nearest proved ancestor, each node on the
    way is proved by one ``replay`` of its own steps from its parent's proved
    expression, which must end at the expression the search built for it.
    The walk is a loop, since a path can be ``max_expansions`` nodes long.

    ``instances`` is the proof's own memo of rule and relator instances,
    kept for every answer of one search and handed to each ``replay``.  It
    shares nothing with the search's memos, so the proof builds each
    distinct instance itself.  The proof compares expressions by equality,
    so its memo needs no depth: it is keyed by rule id and instance number,
    and a clause without variables, instance 0, is one tuple wherever the
    proof meets it.
    """
    path = []
    while node not in proved:
        path.append(node)
        node = node.parent
    expr = proved[node]
    for node in reversed(path):
        expr = proved[node] = replay(
            lex, Derivation(mode, expr, node.steps, node.expr),
            allow_vacuous=allow_vacuous, instances=instances)


# ---------------------------------------------------------------------------
# The chart: first-order block-free parses, decided by matchings


def _chart_word(expr: Expr) -> bool:
    """Whether the chart may take a parse start (see ``_chart``): it holds
    atoms only, and no token and no application."""
    return all(type(a) is Atom and not a._phon and not a.payload.absvars
               for a in expr)


def _chart(s: _Search, starts: Iterable[_Node],
           max_results: int) -> list[_Node]:
    """Decide a parse search whose every start meets ``_chart_word`` and
    ``_ordered_word``: one node per reading, each at the end of a chain of
    cancels from its start, which ``_search`` queues in place of the starts.

    Such a search only cancels.  Every top-level cancel removes its own pair
    and nothing else (``_ordered_word``), and nothing makes a block.  So a
    derivation of a reading cancels contiguous pairs: it matches the atoms
    other than the survivor without crossing, and the survivor has an even
    number of atoms to its left.  A sequence of cancels succeeds exactly
    when the equations of its matching's pairs have a unifier: the terms are
    first-order, and first-order most general unifiers compose in any order,
    so each cancel finds a unifier of its pair under the ones before it, and
    the survivor ends as its term's image under a most general unifier of
    all the equations, one ground term when it is ground.  So every matching
    whose equations unify is the derivation that cancels its pairs innermost
    first, left to right, and the readings are the ground images of the
    survivors over those matchings (``_matchings``).  Such an atom's
    first-order reading is its term, and two atoms are partners exactly
    when their terms unify, so ``_matchings`` reads the word as it stands.

    The chart builds the chain that cancels each matching (``_chain``) and
    reads the matching's reading off the chain's end, the survivor that the
    cancels leave, by the key the loop records it under.  It keeps the first
    chain per reading (a later matching of a reading builds its chain and
    drops it), and stops after ``max_results`` readings, so it builds no
    chain past the last reading it keeps.  The loop, which records each node
    as a reading, sets ``truncated`` at the last of them as it does for any
    search; the readings kept then need not be the ones the loop would have
    found first.
    """
    ends: dict = {}
    chains: dict = {}
    for start in starts:
        for pairs in _matchings(s, start.expr):
            end = _chain(s, start, pairs, chains)
            key = render_term(_single_atom_goal(end.expr))
            if key not in ends:
                ends[key] = end
                if len(ends) >= max_results:
                    return list(ends.values())
    return list(ends.values())


def _matchings(s: _Search, word: Expr) -> Optional[Iterable]:
    """The matchings that may cancel the block-free ``word`` down to one
    atom, over the atoms' first-order readings (``_first_order``), for
    ``_may_match`` and ``_chart``; ``None`` when an atom has no reading, one
    abstraction variable is applied to two identifiers, the atoms are not
    of the bitset kernel's shape (below), or the word holds one atom object
    twice, which no state does.

    Otherwise the matchings, one for each non-crossing matching of the
    atoms other than one positive survivor at an even index, whose pairs
    have opposite signs and are partners (``_may_cancel``), and whose
    equations, over the readings, have a unifier under which the survivor's
    reading is ground and, without vacuous abstraction, each bound
    application's image holds its identifier and is not that identifier
    (``_valid``).  A matching is a list of pairs ``(i, j)`` with ``i < j``
    in the order of ``j``, which is innermost first, left to right.
    They come survivor by survivor, left to right, and for each survivor in
    the order of the enumeration below.

    A span's first atom pairs with an atom at an odd distance, and the atoms
    between them and the rest of the span are matched in turn.  ``full``
    says which spans can be matched at all by partners, so no branch stops
    short of a matching for want of a partner, and a word where no survivor
    has such a matching left and right of it gets ``()`` at once.  The
    partners only cut branches early: each matching's equations are solved
    jointly, and the survivor and the applications are checked on the joint
    unifier.

    Everything but the spans depends on the set of atoms, not on their
    order, and a blocks-first parse judges many orders of one start's atoms
    (see ``_block_successors``).  So those facts are built once per atom
    set (``_atom_set``) and kept in the memo ``atom_sets`` under the set of
    the atoms' ids, numbered by the atom's index in the first word that
    uses the set.  A word maps its atoms to their indices and reads the
    tables through them.  A word of even length has no survivor that the
    scan below keeps: one side of every survivor has odd length.

    The partners of a set of the kernel's shape with two negative
    applications or more lose the pairs that a search shows to be in no
    order-free valid matching of the atoms (``_atom_set``,
    ``_supported``).  That changes no result.  Every matching returned
    here, in any order of the atoms, is such a matching: it pairs each
    negative atom with a distinct positive one, leaves one positive
    survivor, and passes the kernel's checks, which ask nothing of the
    order.  So each of its pairs is kept, and the same matchings come in
    the same order; the dropped pairs only start branches that return
    nothing.

    The kernel's shape: every negative atom reads as a meta-variable that
    no other negative atom holds, and no positive atom reads as one.  Each
    pair's equation then binds the negative atom's own variable, once, to
    the positive atom's reading, a term that is no variable: the unifier is
    a function of the matching alone, and the bitset kernel decides each
    equation by bit operations (``_bit_tables``, ``_bit_survivors``).
    Every word of a search whose starts meet ``_ordered_word`` has this
    shape (see ``_may_match``); a word of any other shape, which only a
    direct call makes, gets ``None``.
    """
    key = frozenset(map(id, word))
    found = s.atom_sets.get(key)
    if found is None:
        found = s.atom_sets[key] = \
            (word, _atom_set(s, word) if len(key) == len(word) else None)
    t = found[1]
    if t is None:
        return None
    n = len(word)
    idx = [t.index[i] for i in map(id, word)]
    at = [0] * n  # at[i]: the position of atom i
    for p, i in enumerate(idx):
        at[i] = p
    # full[a]: the bit mask of the b whose span, atoms a to b - 1, matches
    # without crossing (each b at an even distance from a); pairs[a]: of
    # the partners j of atom a, those whose span a + 1 to j - 1 matches
    # (each j at an odd distance)
    full = [0] * n + [1 << n]
    pairs = [0] * n
    for a in range(n - 1, -1, -1):
        js = 0
        for i in t.partners[idx[a]]:
            js |= 1 << at[i]
        js = pairs[a] = js & full[a + 1]
        mask = 1 << a
        while js:
            bit = js & -js
            js ^= bit
            mask |= full[bit.bit_length()]
        full[a] = mask
    signs = t.signs
    ks = [k for k in range(0, n, 2) if signs[idx[k]] > 0
          and full[0] >> k & 1 and full[k + 1] >> n & 1]
    if not ks:
        return ()
    vbit, image, isid, checks = t.kernel
    return _bit_survivors(ks, pairs, full, [vbit[i] for i in idx],
                          [image[i] for i in idx], [isid[i] for i in idx],
                          checks)


@dataclass(slots=True, eq=False)
class _AtomSet:
    """The facts of a set of atoms that ``_matchings`` reads, whatever
    their order, each atom known by its index (``index``, from its id):
    its sign (``signs``), the indices of its partners (``partners``, by
    ``_may_cancel``, or only the supported ones when the set holds two
    negative applications or more, see ``_atom_set``), and the bitset
    kernel's tables (``_bit_tables``).  Only a set of the kernel's shape
    has one."""

    index: dict
    signs: list
    partners: list
    kernel: tuple


def _atom_set(s: _Search, atoms: Expr) -> Optional[_AtomSet]:
    """The ``_AtomSet`` of the distinct ``atoms``, numbered in their order;
    ``None`` when one has no first-order reading, one abstraction variable
    is applied to two identifiers, or the set is not of the bitset kernel's
    shape (see ``_matchings``), before any pair is asked.  Each atom is read
    once (``_first_order``), the kernel's tables are built from the
    readings (``_bit_tables``), and each pair of opposite signs is asked
    ``_may_cancel`` once, over the two readings' terms, the left one first;
    the relation is symmetric.

    When two negative atoms or more read as an application, the partners
    keep only the pairs that ``_supported`` keeps: every pair of every
    matching that ``_matchings`` can return is one of them (see there), so
    no matching is lost.  Each quantifier and relative pronoun of
    ``english.gg`` brings one such atom and one block, so these are the sets
    of starts with two blocks or more, whose many judged words pay for the
    search; any context decides it the same way, a search's or one built
    directly."""
    readings, apps = [], {}
    for a in atoms:
        reading = _first_order(a)
        if reading[0] is None:
            return None
        for p, x in reading[1].items():
            if apps.setdefault(p, x) != x:
                return None
        readings.append(reading)
    n = len(atoms)
    signs = [a.sign for a in atoms]
    kernel = _bit_tables(readings, signs, {} if s.allow_vacuous else apps)
    if kernel is None:
        return None
    partners: list = [[] for _ in atoms]
    for a in range(n):
        for b in range(a + 1, n):
            if signs[a] != signs[b] and _may_cancel(
                    s, atoms[a], atoms[b], readings[a][0], readings[b][0]):
                partners[a].append(b)
                partners[b].append(a)
    if sum(sign < 0 and bool(r[1]) for sign, r in zip(signs, readings)) > 1:
        partners = _supported(partners, signs, kernel)
    return _AtomSet({id(a): i for i, a in enumerate(atoms)}, signs, partners,
                    kernel)


def _bit_tables(readings: list, signs: list, apps: dict) -> Optional[tuple]:
    """The bitset kernel's tables of a set of atoms, given in the order of
    their indices, whose negative atoms read as distinct meta-variables and
    whose positive atoms read as no variable (see ``_matchings``); ``None``
    for any other set.

    Bit ``i`` stands for the variable of the negative atom ``i``, and
    ``vbit[i]`` holds it, 0 for a positive atom; bit ``n``, ``free``, for
    every variable that no negative atom holds, which no equation binds;
    the bits above it for the identifiers.  ``image[j]`` is the mask of the
    variables and identifiers of positive atom ``j``'s reading, and
    ``isid[j]`` the bit of the identifier that the reading is, or 0.
    ``checks`` holds a pair ``(v, x)`` for each application that a negative
    atom reads as a variable: its bit and its identifier's, 0 when no
    reading holds the identifier.  The result is ``(vbit, image, isid,
    checks)``."""
    n = len(signs)
    free = 1 << n
    var: dict = {}
    vbit = [0] * n
    for i, reading in enumerate(readings):
        if signs[i] < 0:
            term = reading[0]
            if type(term) is not MetaVar or term.name in var:
                return None
            var[term.name] = vbit[i] = 1 << i
    ident: dict = {}
    image, isid = [0] * n, [0] * n
    for j, (term, _, names) in enumerate(readings):
        if signs[j] < 0:
            continue
        if type(term) is MetaVar:
            return None
        mask = 0
        for name in term.metas:
            mask |= var.get(name, free)
        for name in names:
            bit = ident.get(name)
            if bit is None:
                bit = ident[name] = free << (1 + len(ident))
            mask |= bit
        image[j] = mask
        if type(term) is Identifier:
            isid[j] = ident[term.name]
    checks = [(var[p + "[]"], ident.get(x.name, 0)) for p, x in apps.items()
              if p + "[]" in var]
    return vbit, image, isid, checks


def _bit_survivors(ks, pairs, full, vbit, image, isid, checks) -> list:
    """``_matchings``' matchings, for each survivor of ``ks`` in turn, over
    the masks ``pairs`` and ``full`` and the bitset kernel's tables
    (``_bit_tables``), read by position through the word's atom indices."""
    n = len(pairs)
    out: list = []
    for k in ks:
        spans = tuple((a, b) for a, b in ((k + 1, n), (0, k)) if a < b)
        _cover(spans, 0,
               (k, pairs, full, vbit, image, isid, checks, {}, {}, [], out))
    return out


def _reach(mask: int, bound: int, closure: dict) -> int:
    """``mask`` with every variable and identifier that its bound variables
    reach (see ``_cover``)."""
    todo = mask & bound
    while todo:
        low = todo & -todo
        todo ^= low
        new = closure[low] & ~mask
        if new:
            mask |= new
            todo |= new & bound
    return mask


def _cover(spans: tuple, bound: int, w: tuple) -> None:
    """Match the spans of the stack ``spans``, the last one first: pair
    each span's first atom with each partner at an odd distance in turn,
    left to right, then match the atoms between the two, then the rest of
    the span.  Append to ``out`` each matching that passes the checks, its
    pairs sorted by their right atom.  ``w`` holds the survivor ``k``, the
    word's masks, its atoms' tables (``_bit_tables``) by position, and the
    state of the enumeration: ``closure``, ``partner``, ``matched`` and
    ``out``.

    ``bound`` is the mask of the variables that the pairs in ``matched``
    bind.  Each bound variable ``v`` keeps in ``closure[v]`` what its image
    reached when it was bound, and in ``partner[v]`` the positive atom it is
    bound to.  A closure only grows as more variables are bound, so
    ``_reach`` from it, through the bound variables it holds, finds all that
    the image reaches now.  A pair's equation fails the occurs check when
    the positive atom's image reaches the negative atom's variable.  A
    complete matching is kept when it passes ``_valid``."""
    k, pairs, full, vbit, image, isid, checks, closure, partner, matched, \
        out = w
    if not spans:
        if _valid(k, bound, image, isid, checks, closure, partner):
            out.append(sorted(matched, key=itemgetter(1)))
        return
    a, b = spans[-1]
    rest = spans[:-1]
    va = vbit[a]
    js = pairs[a] & ((1 << b) - 1)
    while js:
        bit = js & -js
        js ^= bit
        j = bit.bit_length() - 1
        if not full[j + 1] >> b & 1:
            continue
        if va:
            v, p = va, j
        else:
            v, p = vbit[j], a
        reach = _reach(image[p], bound, closure)
        if reach & v:
            continue
        closure[v] = reach
        partner[v] = p
        matched.append((a, j))
        more = rest
        if j + 1 < b:
            more += ((j + 1, b),)
        if a + 1 < j:
            more += ((a + 1, j),)
        _cover(more, bound | v, w)
        matched.pop()


def _valid(k: int, bound: int, image: list, isid: list, checks: list,
           closure: dict, partner: dict) -> bool:
    """The checks of a complete matching of ``_cover`` and ``_extend``, over
    the kernel's tables (``_bit_tables``) and their ``bound``, ``closure``
    and ``partner``: the survivor ``k`` reaches no ``free`` variable (its
    image is ground), and each application's image is not its identifier
    and reaches it."""
    return not _reach(image[k], bound, closure) >> len(image) & 1 and all(
        isid[partner[v]] != x and _reach(closure[v], bound, closure) & x
        for v, x in checks)


# the nodes that one atom set's support search may spend (``_supported``)
_SUPPORT_BUDGET = 20_000


def _supported(partners: list, signs: list, kernel: tuple) -> list:
    """``partners`` without the pairs that a search shows no order-free
    valid matching of the atoms to hold.  Such a matching pairs each
    negative atom with a distinct positive partner and leaves one positive
    atom, the survivor, and it meets the checks of ``_cover`` over the
    kernel's tables: no binding reaches its own variable, and it passes
    ``_valid``.  It need not be non-crossing, and the survivor may stand
    anywhere.  A set without one positive atom more than negative ones has
    no such matching, and keeps no pair.

    Every matching that ``_matchings`` returns, of any order of the atoms,
    is such a matching, so every pair it holds is kept: no matching is lost
    and their order stays.  A depth-first search (``_extend``) settles each
    pair in turn: it stops at the first matching that holds the pair, and
    every pair of that matching is kept.  The search of the whole set stops
    after ``_SUPPORT_BUDGET`` nodes, and every pair not settled by then is
    kept.  ``_atom_set`` says which sets run it."""
    vbit, image = kernel[0], kernel[1]
    negs = [i for i, sign in enumerate(signs) if sign < 0]
    if 2 * len(negs) + 1 != len(signs):
        return [[] for _ in signs]
    options = {vbit[i]: sum(1 << j for j in partners[i]) for i in negs}
    survivors = sum(1 << j for j, sign in enumerate(signs) if sign > 0)
    closure: dict = {}
    partner: dict = {}
    left = [_SUPPORT_BUDGET]
    w = (kernel, options, survivors, closure, partner, left)
    todo = sum(options)
    kept: set = set()
    for i in negs:
        v = vbit[i]
        for j in partners[i]:
            if (i, j) in kept or not left[0]:
                kept.add((i, j))
            elif not image[j] & v:
                closure[v], partner[v] = image[j], j
                found = _extend(todo ^ v, 1 << j, v, w)
                if found is not None:
                    kept.update((u.bit_length() - 1, p)
                                for u, p in found.items())
                elif not left[0]:
                    kept.add((i, j))
    return [[b for b in bs if ((a, b) if signs[a] < 0 else (b, a)) in kept]
            for a, bs in enumerate(partners)]


def _extend(todo: int, used: int, bound: int, w: tuple) -> Optional[dict]:
    """One node of ``_supported``'s search: bind the variables of ``todo``
    to positive atoms outside ``used``, the lowest variable first, and
    return the first complete matching that passes ``_valid``, ``{variable:
    positive atom}``, or ``None``; ``bound``, ``closure`` and ``partner``
    are ``_cover``'s.  Each call spends one node of ``left``, and no call is
    made once it is spent."""
    (_, image, isid, checks), options, survivors, closure, partner, left = w
    left[0] -= 1
    if not todo:
        k = (survivors & ~used).bit_length() - 1
        if _valid(k, bound, image, isid, checks, closure, partner):
            return dict(partner)
        return None
    v = todo & -todo
    js = options[v] & ~used
    while js and left[0]:
        bit = js & -js
        js ^= bit
        j = bit.bit_length() - 1
        reach = _reach(image[j], bound, closure)
        if not reach & v:
            closure[v], partner[v] = reach, j
            found = _extend(todo ^ v, used | bit, bound | v, w)
            if found is not None:
                return found
    return None


def _chain(s: _Search, start: _Node, pairs: list, chains: dict) -> _Node:
    """The node that cancels the matching ``pairs`` of ``start``'s atoms, in
    their order: a chain of nodes of one ``CancelStep`` each, its delta from
    the memo of pair unifiers (``_pair_unifiers``) and its state from
    ``_apply``.  ``chains`` maps a node and a position to the node that the
    cancel there makes, so the matchings of one start share the nodes of
    their common prefix, and so do their proofs."""
    node = start
    for m, (i, _) in enumerate(pairs):
        # the pairs cancelled before lie inside this one or left of it
        p = i - 2 * sum(done < i for _, done in pairs[:m])
        child = chains.get((node, p))
        if child is None:
            expr = node.expr
            (delta,) = _pair_unifiers(s, expr[p], expr[p + 1])
            step = CancelStep((), p, delta)
            child = chains[node, p] = _Node(
                _apply(s.lex, expr, step, s.substitutions), node.expansions,
                node, (step,))
        node = child
    return node


def _words(e: Expr) -> Optional[tuple[str, ...]]:
    """Goal of generation: positive tokens only, read as the words."""
    if all(isinstance(i, Atom) and i._phon and i.sign == 1 for i in e):
        return tuple(i.payload for i in e)
    return None


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
    return _search(lex, "gen", (Atom(lf, 1),), (), lim)


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
        # expand every token up front, left to right; rules put no tokens
        # back, so the tokens not yet expanded are the last items.  Each
        # word's copy is numbered by the word's ordinal (see _renaming), so
        # no two words share a variable
        for ordinal, rule in enumerate(combo, 1):
            step = ExpandStep((), len(expr) - len(words) + ordinal - 1,
                              rule.rule_id,
                              instance=_instance(tables, rule.rule_id, ordinal))
            expr = _apply(lex, expr, step)
            pre.append(step)
        starts.append((tuple(pre), expr))
    return _search(lex, "parse", start, starts, lim)


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
    return _search(lex, "saturate", (), (), lim)


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
    """Read ``render_expr``'s text.  A ``ValueError`` names unbalanced
    braces, an empty atom, a malformed term, or blocks nested deeper than
    ``MAX_TERM_DEPTH`` levels, which the expression walkers, recursive as
    the term walkers are, could not take."""
    vocab = set(phon_vocab)
    if text.strip() == "1":
        return ()
    stack: list[list[Item]] = [[]]
    for tok in text.split():
        if tok == "{":
            if len(stack) > MAX_TERM_DEPTH:
                raise ValueError(
                    f"blocks nested deeper than {MAX_TERM_DEPTH} levels")
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
    """Read ``_render_binding``'s text.  A ``ValueError`` names a name that
    is no variable's (an uppercase letter, then letters, digits and ``_``)
    or one bound twice."""
    terms: dict[str, Term] = {}
    abstractions = {}
    if text:
        for part in text.split(";"):
            k, v = _pair(part, "binding")
            if not (k[:1].isupper() and k.replace("_", "").isalnum()):
                raise ValueError(f"binding name {k!r} is not a variable")
            if k in terms or k in abstractions:
                raise ValueError(f"binding repeats name {k!r}")
            if v.startswith("\\"):
                abstractions[k] = parse_abstraction(v)
            else:
                terms[k] = parse_term(v)
    return Binding(terms, abstractions)


def render_step(step: Step) -> str:
    if isinstance(step, ExpandStep):
        out = f"expand level={_render_level(step.level)} index={step.index} " \
              f"rule={step.rule_id}"
        if not step.binding.is_empty():
            out += f" bind={_render_binding(step.binding)}"
        if step.instance:
            out += f" instance={step.instance}"
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
_STEP_FIELDS = {"expand": ("level", "index", "rule", "bind", "instance"),
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
                          need("instance", int) if "instance" in fields else 0)
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
