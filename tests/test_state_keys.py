"""State keys and the search they deduplicate.

``reference_canonical_key`` is the straightforward state key: it walks every
term of the expression afresh.  The engine's key memoizes a fragment on each
atom and only renumbers variables per state; the two must put expressions in
the same classes.  The engine keys a block-free expression in
non-commutative mode by a flat key, and any other by one key per item; the
two shapes must never meet.  The pinned key counts catch any change to which
states the search visits.
"""

import copy
import gc
import pickle
import random
from pathlib import Path

import pytest

from ggroup import engine
from ggroup.encodings import (
    commutator_scheme, encode_dcg, encode_logic_program, parse_dcg,
    parse_logic_program,
)
from ggroup.engine import Atom, Block, generate, parse, saturate, substitute_expr
from ggroup.lexicon import Lexicon, parse_grammar
from ggroup.term import (
    AbsVar, App, Binding, Compound, Const, Identifier, MetaVar, parse_term,
    render_term,
)
from test_search_reference import _random_start, _search as _random_search

GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"


def reference_canonical_key(expr, commutative):
    """Hashable state key: variables renumbered by first occurrence, block
    contents at their least rotation, order forgotten when commutative."""
    mapping = {}

    def var_ordinal(key):
        v = mapping.get(key)
        if v is None:
            v = mapping[key] = len(mapping) + 1
        return v

    def term_key(t):
        if isinstance(t, MetaVar):
            return ("M", var_ordinal("M" + t.name))
        if isinstance(t, Compound):
            return ("f", t.functor) + tuple(term_key(a) for a in t.args)
        if isinstance(t, App):
            return ("F", var_ordinal("F" + t.abstraction.name), term_key(t.arg))
        if isinstance(t, Identifier):
            return ("#", t.name)
        return ("c", t.name)

    def item_key(i):
        if isinstance(i, Atom):
            if i.is_phon():
                return ("p", i.payload, i.sign)
            if i.ground():
                return ("g", render_term(i.payload), i.sign)
            return ("a", term_key(i.payload), i.sign)
        parts = [item_key(c) for c in i.contents]
        if len(parts) > 1:
            best = min(range(len(parts)), key=lambda k: parts[k:] + parts[:k])
            parts = parts[best:] + parts[:best]
        return ("b", tuple(parts))

    keys = [item_key(i) for i in expr]
    if commutative:
        keys.sort()
    return tuple(keys)


# ---------------------------------------------------------------------------
# key equivalence on seeded random expressions


def _term(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        kind = rng.choice("cimm")
        if kind == "c":
            return Const(rng.choice("jl"))
        if kind == "i":
            return Identifier(rng.choice(["x", "y"]))
        return MetaVar(rng.choice("XYZ"))  # few names: atoms share variables
    if roll < 0.5:
        return App(AbsVar(rng.choice("PQ")), _term(rng, depth - 1))
    return Compound(rng.choice("fg"),
                    tuple(_term(rng, depth - 1) for _ in range(rng.randint(1, 2))))


def _atom(rng):
    sign = rng.choice((1, -1))
    if rng.random() < 0.2:
        return Atom(rng.choice("ab"), sign)
    return Atom(_term(rng, 2), sign)


def _expr(rng, depth=2):
    items = []
    for _ in range(rng.randint(1, 4)):
        if depth and rng.random() < 0.3:
            items.append(Block(_expr(rng, depth - 1)))
        else:
            items.append(_atom(rng))
    return tuple(items)


def _rename(t, names):
    if isinstance(t, MetaVar):
        return MetaVar(names.get(t.name, t.name))
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_rename(a, names) for a in t.args))
    if isinstance(t, App):
        return App(AbsVar(names.get(t.abstraction.name, t.abstraction.name)),
                   _rename(t.arg, names))
    return t


def _map_atoms(expr, fn):
    return tuple(Block(_map_atoms(i.contents, fn)) if isinstance(i, Block) else fn(i)
                 for i in expr)


def _rotate_blocks(expr, k):
    out = []
    for i in expr:
        if isinstance(i, Block):
            c = _rotate_blocks(i.contents, k)
            r = k % len(c)
            i = Block(c[r:] + c[:r])
        out.append(i)
    return tuple(out)


def _variants(rng, expr):
    """Expressions that may or may not share a class with ``expr``."""
    swap = {"X": "Y", "Y": "X", "P": "Q", "Q": "P"}
    fresh = {"X": "X9", "Z": "X"}
    yield expr
    # the same atoms as new objects, and a consistent variable renaming
    yield _map_atoms(expr, lambda a: Atom(a.payload, a.sign))
    for names in (swap, fresh):
        yield _map_atoms(expr, lambda a: a if a.is_phon()
                         else Atom(_rename(a.payload, names), a.sign))
    for k in (1, 2):
        yield _rotate_blocks(expr, k)
    shuffled = list(expr)
    rng.shuffle(shuffled)
    yield tuple(shuffled)
    # the same atom objects, reused inside a block
    yield (Block(expr),)
    yield expr[::-1]


def _random_exprs():
    rng = random.Random(20)
    out = []
    for _ in range(150):
        out.extend(_variants(rng, _expr(rng)))
    return out


def _ground_atom(rng):
    sign = rng.choice((1, -1))
    roll = rng.random()
    if roll < 0.4:
        return Atom(rng.choice("ab"), sign)
    if roll < 0.7:
        return Atom(Const(rng.choice("jl")), sign)
    return Atom(Compound("f", (Identifier(rng.choice(["x", "y"])),
                               Const("j"))), sign)


def _has_block(expr):
    return any(isinstance(i, Block) for i in expr)


def _block_free_exprs():
    """Expressions without blocks, which the engine keys flat in
    non-commutative mode: words with variables shared across atoms, words
    of ground atoms only, and variants of each that keep them block-free."""
    rng = random.Random(21)
    out = []
    for n in range(150):
        make = _ground_atom if n % 3 == 0 else _atom
        expr = tuple(make(rng) for _ in range(rng.randint(0, 5)))
        out.extend(e for e in _variants(rng, expr) if not _has_block(e))
    return out


@pytest.mark.parametrize("commutative", [False, True])
def test_memoized_keys_classify_like_the_reference(commutative):
    exprs = _random_exprs() + _block_free_exprs()
    ref = [reference_canonical_key(e, commutative) for e in exprs]
    new = [engine._canonical_key(e, commutative) for e in exprs]
    # each key maps to exactly one key of the other kind: same classes
    assert len(set(zip(ref, new))) == len(set(ref)) == len(set(new))
    # and the classes are not trivial: some variants coincide
    assert len(set(ref)) < len(exprs) * 3 // 4
    # no key of a block-free expression is the key of one with blocks
    free = {k for e, k in zip(exprs, new) if not _has_block(e)}
    assert free and not free & {k for e, k in zip(exprs, new) if _has_block(e)}
    # a second pass reads the memoized fragments and agrees with the first
    assert [engine._canonical_key(e, commutative) for e in exprs] == new


def test_a_block_free_expression_gets_a_flat_key():
    # one fragment per atom, then the ordinals of the atoms' variables
    # concatenated; a ground expression's key is its fragments alone
    expr = (Atom(parse_term("f(X,P[Y])")), Atom("a", -1),
            Atom(parse_term("g(Y,X)"), -1))
    fragments, ordinals = engine._canonical_key(expr, False)
    assert len(fragments) == 3 and ordinals == (0, 1, 2, 2, 0)
    ground = (Atom("a"), Atom(parse_term("f(#x,j)"), -1))
    assert engine._canonical_key(ground, False) == \
        tuple(engine._atom_key(a)[0] for a in ground)


def test_memoized_keys_cover_deep_terms():
    deep = parse_term("n(" * 99 + "A" + ")" * 99)
    expr = (Atom(deep, 1), Block((Atom(deep, -1), Atom("a", 1))))
    for commutative in (False, True):
        first = engine._canonical_key(expr, commutative)  # builds the fragments
        assert engine._canonical_key(expr, commutative) == first


def test_substitute_expr_keeps_what_the_binding_does_not_touch():
    rng = random.Random(3)
    untouched = Binding({"W": Const("j")})
    touched = Binding({"X": Const("j")})
    for _ in range(100):
        e = _expr(rng)
        assert substitute_expr(e, untouched) is e
        out = substitute_expr(e, touched)
        for old, new in zip(e, out):
            if old == new:
                assert old is new


# ---------------------------------------------------------------------------
# the search itself: states keyed and states distinct, per query


def _english():
    return parse_grammar((GRAMMAR_DIR / "english.gg").read_text())


def _commutative_english():
    english = _english()
    return Lexicon(english.phon_vocab, english.relators + (commutator_scheme(),))


def _family():
    return encode_logic_program(parse_logic_program((GRAMMAR_DIR / "family.lp").read_text()))


# Counts of the search, parsing with every block placed before any cancel,
# with the block-free words that enter from a state with blocks dropped
# before they are built or keyed when none of their matchings can cancel,
# and with every cancel of a state made (the blind search keyed 424/180
# and 3302/1154 for the two parses, postponed placement alone 338/149 and
# 3230/1138, with the skip of cancels that commute before a bundle 256/140
# and 2382/1124, with the pairwise drop 232/125 and 1539/674, with the
# ordered skip 184/125 and 1393/674 while it asked that a skipped pair hold
# the atom objects of the parent's, 184/125 and 1391/674 after, 168/118 and
# 1005/562 while a live word made every cancel, not only those of its
# viable matchings, and 160/110 and 483/280 while a state skipped the
# first-order cancels that commute back before the cancel that made it:
# deleting that skip keys more duplicates and no new state, and 216/110 and
# 747/280 while the pairwise check dropped a word before it was keyed:
# deleting that check keys each dead word once, and 220/114 and 759/292
# while each dead word was built and keyed before it was judged, and
# 212/106 and 744/277 while a live word's cancels were made again in every
# order that reaches them: the memo of cancels made keys no duplicate
# there), and
# generating with one expansion order and placement only where nothing
# expands (the full search keys 62/33 and 572612/100237 for the two forms);
# a change that prunes or reorders states updates them on purpose.
PINNED = [
    ("parse the man that louise saw ran",
     lambda: parse(_english(), "the man that louise saw ran".split()), 106, 106),
    ("parse john saw every woman in paris",
     lambda: parse(_english(), "john saw every woman in paris".split()), 277, 277),
    # two quantifiers and a phrase: 49356/20709 while a live word made
    # every cancel, 8502/4392 while cancels were skipped, 12828/4392 while
    # the pairwise check dropped words, 13788/4868 while each dead word was
    # built and keyed, 12065/4018 while a live word's cancels were made
    # again in every order that reaches them
    ("parse every man saw some woman in paris",
     lambda: parse(_english(), "every man saw some woman in paris".split()),
     4113, 4018),
    # a start past the size limit: blocks do not come first, and every state
    # with a block gets every bundle beside its cancels and drops no word
    # (6370/3225 while such a parse postponed placement, 18726/5409 while
    # cancels were skipped, 19117/5409 while the pairwise check dropped
    # words); two readings, truncated
    ("parse every man saw some woman, max_items=13",
     lambda: parse(_english(), "every man saw some woman".split(),
                   engine.SearchLimits(max_items=13)), 35656, 9789),
    ("generate ev(m,#x1,r(#x1))",
     lambda: generate(_english(), parse_term("ev(m,#x1,r(#x1))")), 13, 12),
    ("generate ev(tt(m,#x1,sm(w,#x2,s(#x2,#x1))),#x3,r(#x3))",
     lambda: generate(_english(), parse_term(
         "ev(tt(m,#x1,sm(w,#x2,s(#x2,#x1))),#x3,r(#x3))")), 38644, 9811),
    ("saturate family.lp", lambda: saturate(_family()), 30, 30),
    # commutative parses, keyed as when a commutative cancel was a chain of
    # swaps (16 and 2 readings)
    ("parse every man saw some woman, commutative",
     lambda: parse(_commutative_english(), "every man saw some woman".split()),
     4249, 1393),
    ("parse saw john louise, commutative",
     lambda: parse(_commutative_english(), "saw john louise".split()), 9, 7),
]


def _keyed(monkeypatch, run):
    """``run()`` and the state keys its search computed, in order."""
    keys = []
    real = engine._canonical_key

    def counting(expr, commutative):
        keys.append(real(expr, commutative))
        return keys[-1]

    monkeypatch.setattr(engine, "_canonical_key", counting)
    return run(), keys


@pytest.mark.parametrize("query, run, calls, distinct", PINNED,
                         ids=[p[0] for p in PINNED])
def test_search_keys_the_pinned_states(monkeypatch, query, run, calls, distinct):
    _, keys = _keyed(monkeypatch, run)
    assert (len(keys), len(set(keys))) == (calls, distinct)


# Calls and outputs of each successor generator on the pinned queries, by
# kind, counted as the benchmark's tracer counts them: each generator name
# wrapped on the module, one call per call and the length of the list it
# returns.  A generator bound before the search starts escapes the wrapper
# and reads as no calls.  Before the ordered cancels, the two parses read
# cancel outputs 185 and 1320; before commutative searches stopped placing
# blocks, the two commutative parses read block (1393, 0) and (7, 0); before
# block-free states stopped asking for bundles, the block calls were 125,
# 674, 9 and 9804, for the same outputs.  While a skipped ordered cancel's
# pair had to hold the parent's atom objects, the second parse read cancel
# outputs 1174.  While the loop asked goal nodes for successors, the calls
# were one more per goal: expand 12 and 9811, saturate 30, swap 1393 and 7.
# While the two parses postponed placement, they read cancel (125, 137) and
# block (10, 56), and cancel (674, 1172) and block (30, 406), and the
# parse at max_items=13 read cancel (3223, 4105) and block (705, 3977).
# While a live word made every cancel, not only those of its viable
# matchings, the three blocks-first parses read cancel (106, 158), (553,
# 992) and (20261, 48335).  While a state skipped the first-order cancels
# that commute back before the cancel that made it, the four parses read
# cancel outputs 150, 470, 7481 and 11309, for the same calls.  While the
# pairwise check dropped words before they were keyed, the parse at
# max_items=13 read cancel (5407, 11700).  While the block phase built and
# returned every bundle, dead words too, the three blocks-first parses read
# block outputs 13, 24 and 1980, for the same calls.  While a live word's
# cancels were made again in every order that reaches them, the three
# blocks-first parses read cancel outputs 206, 734 and 11807, for the same
# calls.
SUCCESSORS = {"_expand_successors": "expand", "_cancel_successors": "cancel",
              "_block_successors": "block", "_swap_cancel_successors": "swap",
              "_saturate_successors": "saturate"}
SUCCESSOR_PINS = {
    "parse the man that louise saw ran":
        {"cancel": (98, 100), "block": (1, 5)},
    "parse john saw every woman in paris":
        {"cancel": (271, 267), "block": (1, 9)},
    "parse every man saw some woman in paris":
        {"cancel": (3944, 3855), "block": (61, 257)},
    "parse every man saw some woman, max_items=13":
        {"cancel": (9787, 21307), "block": (978, 14392)},
    "generate ev(m,#x1,r(#x1))": {"expand": (11, 3), "block": (1, 9)},
    "generate ev(tt(m,#x1,sm(w,#x2,s(#x2,#x1))),#x3,r(#x3))":
        {"expand": (9810, 7), "block": (1584, 38636)},
    "saturate family.lp": {"saturate": (21, 29)},
    "parse every man saw some woman, commutative":
        {"swap": (1377, 4248)},
    "parse saw john louise, commutative": {"swap": (5, 8)},
}


@pytest.mark.parametrize("query, run", [p[:2] for p in PINNED],
                         ids=[p[0] for p in PINNED])
def test_successors_per_kind_are_pinned(monkeypatch, query, run):
    counts = {}

    def wrap(real, kind):
        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            calls, total = counts.get(kind, (0, 0))
            counts[kind] = (calls + 1, total + len(out))
            return out

        return counting

    for name, kind in SUCCESSORS.items():
        monkeypatch.setattr(engine, name, wrap(getattr(engine, name), kind))
    run()
    assert counts == SUCCESSOR_PINS[query]


def test_bundles_are_asked_for_only_on_states_with_blocks(monkeypatch):
    # a state without a block has no bundle, and cancels never make a block
    real = engine._block_successors
    calls = []

    def guarded(s, node):
        assert any(isinstance(i, Block) for i in node.expr), \
            engine.render_expr(node.expr)
        calls[-1] += 1
        return real(s, node)

    monkeypatch.setattr(engine, "_block_successors", guarded)
    calls.append(0)
    parse(_english(), "the man that louise saw ran".split())
    calls.append(0)
    generate(_english(), parse_term("ev(m,#x1,r(#x1))"))
    calls.append(0)
    rng = random.Random(11)
    for _ in range(100):
        _random_search(_random_start(rng))
    # the first two are SUCCESSOR_PINS' block calls (10 and 1 while the
    # parse postponed placement)
    assert calls[:2] == [1, 1] and calls[2]


@pytest.mark.parametrize("name, run", [
    ("parse", lambda: parse(_english(), "every man saw some woman".split())),
    ("parse by the chart", lambda: parse(
        _english(), "john saw the man in paris in the woman".split())),
    ("parse, every placement",
     lambda: _random_search(_random_start(random.Random(11)))),
    ("parse, commutative", lambda: parse(_commutative_english(),
                                         "saw john louise".split())),
    ("generate", lambda: generate(_english(), parse_term("ev(m,#x1,r(#x1))"))),
    ("generate, commutative", lambda: generate(_commutative_english(),
                                               parse_term("s(j,l)"))),
    ("saturate", lambda: saturate(_family())),
])
def test_no_generator_is_asked_about_a_goal(monkeypatch, name, run):
    # a goal is a string of tokens, or one ground atom: no token expands or
    # cancels, and one atom has no pair and no pending subgoal
    calls = []
    goal = engine._words if name.startswith("generate") \
        else engine._single_atom_goal

    def wrap(real):
        def guarded(s, node):
            assert goal(node.expr) is None, engine.render_expr(node.expr)
            calls.append(node)
            return real(s, node)

        return guarded

    for gen in SUCCESSORS:
        monkeypatch.setattr(engine, gen, wrap(getattr(engine, gen)))
    assert run().results
    assert calls or name == "parse by the chart"


def test_a_self_cancelling_clause_picks_no_root(monkeypatch):
    # the instance p(a) p(a)^-1 q(b)^-1 cancels inside itself; as the root
    # it would key two more states (7 in all) and resolve nothing
    lex = encode_logic_program(parse_logic_program(
        "q(b) .\np(a) :- q(b), p(a) .\nr(c) .\ns(X) :- r(X) ."))
    res, keys = _keyed(monkeypatch, lambda: saturate(lex))
    assert [render_term(t) for t, _ in res.results] == ["q(b)", "r(c)", "s(c)"]
    assert not res.truncated
    assert len(keys) == 5


# ---------------------------------------------------------------------------
# an atom's class, fixed when it is built


def test_atom_class_is_set_when_built_and_rebuilt_by_a_copy():
    atoms = [Atom("john", -1), Atom(parse_term("s(j,l)")),
             Atom(parse_term("s(X,l)"), -1), Atom(parse_term("f(P[#x1])"))]
    for a in atoms:
        phon = isinstance(a.payload, str)
        assert (a.is_phon(), a.ground()) == (phon, phon or a.payload.ground)
        for again in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert again == a and hash(again) == hash(a)
            assert (again.is_phon(), again.ground()) == (a.is_phon(), a.ground())
        assert "_phon" not in repr(a) and "_ground" not in repr(a)


# ---------------------------------------------------------------------------
# no reference cycles: a search leaves nothing for the cyclic collector


@pytest.mark.parametrize("name, run", [
    ("parse", lambda: parse(_english(), "every man saw some woman".split())),
    # the chart decides a first-order parse; the second stops at its limit
    ("parse by the chart", lambda: parse(
        _english(), "john saw the man in paris in the woman".split())),
    ("parse by the chart, cut", lambda: parse(
        _english(), "john saw the man in paris in the woman".split(),
        engine.SearchLimits(max_results=4))),
    ("generate", lambda: generate(_english(), parse_term("ev(m,#x1,r(#x1))"))),
    ("generate often.dcg", lambda: generate(
        _often(), parse_term("sent"), engine.SearchLimits(max_expansions=6))),
    ("saturate", lambda: saturate(_family())),
])
def test_a_search_leaves_no_cyclic_garbage(name, run):
    gc.collect()
    gc.disable()
    try:
        res = run()
        assert res.results
        assert gc.collect() == 0
    finally:
        gc.enable()


def _often():
    return encode_dcg(*parse_dcg((GRAMMAR_DIR / "often.dcg").read_text()))
