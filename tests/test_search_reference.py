"""Differential tests of the two prunings of parse search against searches
without them.

Postponed block placement is checked against the unpruned reference, which
puts every placement of every block back as a search state in parse mode (as
generation still does) and makes every cancel at every state.  The skipped
cancels (those that commute before the preceding block bundle) are also
checked on their own, against the postponed placement without the skip.
Both searches must find the same readings and agree on truncation, and every
derivation of the pruned search must replay.

A bundle, one ``DissolveStep``, is checked against the three steps it stands
for (move the block, rotate it, dissolve it, each a splice and a
``normalize``), and a nested wrap cancel against a rotation and a cancel.

The search applies the steps it builds itself without checking them
(``engine._apply``).  A later section puts ``apply_step``'s checks back on
every such step: none may fail, and the results must not change.  Commutative
parses and generations are pinned to the results and state counts they had
when a commutative cancel was a chain of swaps, and checked the same way.
"""

import copy
import functools
import gc
import hashlib
import itertools
import random
from pathlib import Path

import pytest

from ggroup import engine
from ggroup.encodings import (
    commutator_scheme, encode_logic_program, parse_logic_program,
)
from ggroup.engine import (
    Atom, Block, CancelStep, DissolveStep, SearchLimits, StepError, generate,
    normalize, parse, render_derivation, render_expr, render_step, replay,
    saturate, substitute_expr,
)
from ggroup.lexicon import Lexicon, parse_grammar
from ggroup.term import (
    EMPTY_BINDING, canonical_identifiers, parse_term, render_term, unify,
)

LIM = SearchLimits()
RAW = Lexicon((), (), raw_mode=True)
GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"


def _no_skip(m):
    m.setattr(engine, "_commuting_cancels", lambda *args: 0)


@pytest.fixture
def reference(monkeypatch):
    """Call a function with the exhaustive placement in every mode and no
    cancel skipped."""
    real = engine._block_successors

    def exhaustive(lex, expr, postpone=False, *args):
        return real(lex, expr, False, *args)

    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(engine, "_block_successors", exhaustive)
            _no_skip(m)
            return fn(*args)

    return run


@pytest.fixture
def unskipped(monkeypatch):
    """Call a function with postponed placement but no cancel skipped."""

    def run(fn, *args):
        with monkeypatch.context() as m:
            _no_skip(m)
            return fn(*args)

    return run


def _readings(res):
    return {render_term(p) for p, _ in res.results}


def _agree(pruned, ref, lex):
    assert _readings(pruned) == _readings(ref)
    assert pruned.truncated == ref.truncated
    for _, d in pruned.results:
        replay(lex, d)


def _search(start):
    return engine._search(RAW, "parse", start, (), LIM,
                          engine._single_atom_goal, render_term)


def _check_start(against, start):
    pruned = _search(start)
    ref = against(_search, start)
    _agree(pruned, ref, RAW)
    return pruned


# ---------------------------------------------------------------------------
# the english fragment


QUANTIFIED = [f"{q1} {n1} saw {q2} {n2}" for q1, n1, q2, n2 in itertools.product(
    ("every", "some"), ("man", "woman"), ("every", "some"), ("man", "woman"))]
NAMES = ("john", "louise", "paris")
RELATIVES = [f"{q} man that {a} saw ran" for q in ("every", "the") for a in NAMES]
PPS = [f"{a} saw some woman in {b}" for a in NAMES for b in NAMES]


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_parse_readings_match_the_reference(english, reference, sentence):
    words = sentence.split()
    pruned = parse(english, words, LIM)
    ref = reference(parse, english, words, LIM)
    _agree(pruned, ref, english)
    assert pruned.results


def _form(rng, cat, binders):
    """A random well-typed english.gg form of category ``cat``, with at most
    ``binders[0]`` quantifiers and relative clauses (a one-item budget)."""
    np = ("j", "l", "p")
    if cat == "gap":
        return rng.choice(["r(#x)", f"s(#x,{rng.choice(np)})",
                           f"s({rng.choice(np)},#x)"])
    if cat == "np":
        if rng.random() < 0.2:
            return f"t({_form(rng, 'n', binders)})"
        return rng.choice(np)
    if cat == "n":
        roll = rng.random()
        if roll < 0.15 and binders[0]:
            binders[0] -= 1
            return f"tt({rng.choice('mw')},#x,{_form(rng, 'gap', binders)})"
        if roll < 0.3:
            return f"i({rng.choice('mw')},{rng.choice(np)})"
        return rng.choice("mw")
    roll = rng.random()
    if roll < 0.3 and binders[0]:
        binders[0] -= 1
        q = rng.choice(("ev", "sm"))
        return f"{q}({_form(rng, 'n', binders)},#x,{_form(rng, 'gap', binders)})"
    if roll < 0.45:
        return f"i({_form(rng, 's', binders)},{rng.choice(np)})"
    if roll < 0.7:
        return f"r({_form(rng, 'np', binders)})"
    return f"s({_form(rng, 'np', binders)},{_form(rng, 'np', binders)})"


def _seeded_forms():
    rng = random.Random(9)
    forms = set()
    while len(forms) < 10:
        forms.add(_form(rng, "s", [1]))
    return sorted(forms)


def test_generated_strings_parse_back_like_the_reference(english, reference):
    for text in _seeded_forms():
        lf = parse_term(text)
        want = render_term(canonical_identifiers(lf))
        strings = generate(english, lf, LIM).results
        assert strings, text
        for words, _ in strings:
            pruned = parse(english, words, LIM)
            _agree(pruned, reference(parse, english, words, LIM), english)
            assert want in _readings(pruned), (text, words)


# ---------------------------------------------------------------------------
# random starts: a goal atom wrapped in cancelling pairs, then cut into
# nested blocks that are rotated and moved


GROUND = ("a", "b", "f(a)", "f(b)", "g(a,b)")
OPEN = (("f(X)", "f(a)"), ("f(Y)", "f(b)"), ("g(X,Y)", "g(a,b)"),
        ("g(a,X)", "g(Y,b)"), ("f(X)", "f(Y)"))


def _atom(text, sign=1):
    return Atom(parse_term(text), sign)


def _random_start(rng):
    word = [_atom(rng.choice(("s", "s", "h(X)", "h(Y)")))]
    for _ in range(rng.randint(2, 3)):
        if rng.random() < 0.5:
            t = rng.choice(GROUND)
            left, right = _atom(t), _atom(t, -1)
        else:
            t, u = rng.choice(OPEN)
            left, right = _atom(t), _atom(u, -1)
        if rng.random() < 0.5:
            left, right = Atom(right.payload, 1), Atom(left.payload, -1)
        pos = rng.randint(0, len(word))
        word[pos:pos] = [left, right]
    for _ in range(rng.randint(1, 3)):
        word = _cut(rng, word)
    return tuple(word)


def _cut(rng, items):
    """Wrap a segment of ``items`` (or, recursively, of a block's contents)
    in a block with rotated contents, and move it to a random slot."""
    blocks = [k for k, i in enumerate(items) if isinstance(i, Block)]
    if blocks and rng.random() < 0.3:
        k = rng.choice(blocks)
        inner = _cut(rng, list(items[k].contents))
        return items[:k] + [Block(tuple(inner))] + items[k + 1:]
    i = rng.randrange(len(items))
    j = rng.randint(i + 1, min(len(items), i + 4))
    seg = items[i:j]
    r = rng.randrange(len(seg))
    rest = items[:i] + items[j:]
    pos = rng.randint(0, len(rest)) if rng.random() < 0.7 else i
    return rest[:pos] + [Block(tuple(seg[r:] + seg[:r]))] + rest[pos:]


def _check_random_starts(against, seed):
    rng = random.Random(seed)
    found = 0
    for n in range(500):
        start = _random_start(rng)
        try:
            found += bool(_check_start(against, start).results)
        except AssertionError as e:
            raise AssertionError(f"start {n}: {render_expr(start)}") from e
    assert found > 250  # most starts still reach a reading


def test_random_starts_match_the_reference(reference):
    _check_random_starts(reference, 11)


@pytest.mark.parametrize("text", [
    # no single placement can cancel: the second block must join the first
    "g { a b } { b^-1 a^-1 }",
    # only moving the block away exposes the pair that cancels
    "f(a,X) { g } f(a,X)^-1",
    # only a rotation joins the ground inverses at the block's seam
    "{ b^-1 g b }",
])
def test_named_counterexamples_match_the_reference(reference, text):
    start = engine.parse_expr(text, ())
    assert normalize(start) == start
    assert _readings(_check_start(reference, start)) == {"g"}


# ---------------------------------------------------------------------------
# one step per bundle, against the three steps it stands for: move the block,
# rotate it, dissolve it, each a splice and a normalize


def _find(expr, obj, level=()):
    """The level and index of the item ``obj``, found by identity."""
    for k, i in enumerate(expr):
        if i is obj:
            return level, k
        if isinstance(i, Block):
            found = _find(i.contents, obj, level + (k,))
            if found is not None:
                return found
    return None


def _three_steps(expr, level, index, target_level, slot, k):
    block = engine.level_items(expr, level)[index]
    if (target_level, slot) != (level, index):  # move, slot after removal
        removed = engine._splice(expr, level, index, index + 1, ())
        expr = normalize(engine._splice(removed, target_level, slot, slot,
                                        (block,)))
        level, index = _find(expr, block)
    if k:  # rotate
        c = block.contents
        expr = normalize(engine._splice(expr, level, index, index + 1,
                                        (Block(c[k:] + c[:k]),)))
    block = engine.level_items(expr, level)[index]  # dissolve
    return normalize(engine._splice(expr, level, index, index + 1,
                                    block.contents))


def _bundles(expr):
    """The fields of every bundle, in the search's order: each block in
    place, at the other slots of its level, then at those of each enclosing
    level outwards, and at each of these in every rotation."""
    out = []
    for level, items in engine._levels(expr):
        for index, item in enumerate(items):
            if not isinstance(item, Block):
                continue
            targets = [(level, index)] + [(level, s) for s in range(len(items))
                                          if s != index]
            for depth in range(len(level) - 1, -1, -1):
                outer = level[:depth]
                targets += [(outer, s) for s in
                            range(len(engine.level_items(expr, outer)) + 1)]
            out += [(level, index, t, s, k) for t, s in targets
                    for k in range(len(item.contents))]
    return out


def _atom_ids(expr):
    return [id(i) for _, items in engine._levels(expr) for i in items
            if isinstance(i, Atom)]


def test_one_dissolve_step_is_the_three_steps_it_stands_for():
    rng = random.Random(11)
    bundles = 0
    for n in range(500):
        start = normalize(_random_start(rng))
        try:
            fields = _bundles(start)
            succ = engine._block_successors(RAW, start)
            assert [steps for steps, _, _ in succ] == \
                [(DissolveStep(*f),) for f in fields]
            for f, (_, new, _) in zip(fields, succ):
                want = _three_steps(start, *f)
                assert new == want
                # atoms are kept, never rebuilt; when a cancel of the pair
                # that flanked the block competes with one of its contents,
                # the one step can keep the other of two equal atoms
                assert set(_atom_ids(new)) <= set(_atom_ids(start))
                assert engine.apply_step(RAW, start, DissolveStep(*f)) == want
        except AssertionError as e:
            raise AssertionError(f"start {n}: {render_expr(start)}") from e
        bundles += len(fields)
    assert bundles > 5000


def test_a_nested_wrap_cancel_is_a_rotation_then_a_cancel():
    rng = random.Random(11)
    wraps = 0
    for n in range(500):
        start = normalize(_random_start(rng))
        for level, items in engine._levels(start):
            m = len(items)
            if not level or m < 2 or not engine._cancel_pair(items[-1], items[0]):
                continue
            outer, index = level[:-1], level[-1]
            c = items
            rotated = normalize(engine._splice(start, outer, index, index + 1,
                                               (Block(c[1:] + c[:1]),)))
            for delta in unify(items[-1].payload, items[0].payload,
                               EMPTY_BINDING, False):
                want = normalize(substitute_expr(
                    engine._splice(rotated, level, m - 2, m, ()), delta))
                got = engine.apply_step(RAW, start, CancelStep(level, m - 1, delta))
                assert got == want, f"start {n}: {render_expr(start)}"
                wraps += 1
    assert wraps > 20


# ---------------------------------------------------------------------------
# skipped cancels: the same search with every top-level cancel made


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_skipped_cancels_keep_the_readings(english, unskipped, sentence):
    words = sentence.split()
    pruned = parse(english, words, LIM)
    _agree(pruned, unskipped(parse, english, words, LIM), english)
    assert pruned.results


def test_skipped_cancels_keep_the_readings_of_random_starts(unskipped):
    _check_random_starts(unskipped, 29)


@pytest.mark.parametrize("text, reading", [
    ("{ { f(Y) { s } f(b) } f(Y)^-1 } f(X)^-1 f(Y) f(b)^-1", "s"),
    ("h(X) f(Y) f(X)^-1 f(b) { { f(Y)^-1 } } { f(Y)^-1 } f(X)", "h(b)"),
])
def test_re_expanded_states_keep_the_readings(monkeypatch, unskipped, text,
                                              reading):
    # a later path reaches an expanded state that skipped a cancel the path
    # needs, so the search makes that cancel from the arriving instance
    real = engine._cancel_successors
    late = []

    def counting(*args, **kwargs):
        late.append(kwargs.get("nested") is False)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_cancel_successors", counting)
    start = engine.parse_expr(text, ())
    assert _readings(_check_start(unskipped, start)) == {reading}
    assert any(late)


# ---------------------------------------------------------------------------
# the search's own steps, each checked as replay checks it


@pytest.fixture
def checked(monkeypatch):
    """Call a function with ``apply_step``'s checks run on every step the
    search applies unchecked; ``run.applied`` collects the steps checked.  A
    step that fails its checks fails the test."""
    real = engine._apply

    def checking(lex, expr, step, substitutions=None):
        # apply_step passes no memo: the comparison with the unchecked
        # search is also one of the memo against none
        run.applied.append(step)
        with monkeypatch.context() as m:
            m.setattr(engine, "_apply", real)
            try:
                return engine.apply_step(lex, expr, step)
            except StepError as e:
                raise AssertionError(
                    f"{render_step(step)} on {render_expr(expr)}: {e}") from e

    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(engine, "_apply", checking)
            return fn(*args)

    run.applied = []
    yield run
    assert run.applied


def _same_results(got, want):
    """Equal results, truncation and rendered derivations."""
    assert got.truncated == want.truncated
    assert [(p, render_derivation(d)) for p, d in got.results] == \
        [(p, render_derivation(d)) for p, d in want.results]


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_parse_applies_only_legal_steps(english, checked, sentence):
    words = sentence.split()
    _same_results(checked(parse, english, words, LIM), parse(english, words, LIM))


def test_generation_applies_only_legal_steps(english, checked):
    for text in _seeded_forms():
        lf = parse_term(text)
        _same_results(checked(generate, english, lf, LIM),
                      generate(english, lf, LIM))


def test_saturation_applies_only_legal_steps(checked):
    lex = encode_logic_program(parse_logic_program(
        (GRAMMAR_DIR / "family.lp").read_text()))
    _same_results(checked(saturate, lex, LIM), saturate(lex, LIM))


def test_random_starts_apply_only_legal_steps(checked):
    rng = random.Random(11)
    for n in range(500):
        start = _random_start(rng)
        try:
            _same_results(checked(_search, start), _search(start))
        except AssertionError as e:
            raise AssertionError(f"start {n}: {render_expr(start)}") from e


# ---------------------------------------------------------------------------
# commutative mode: results and states pinned, every step checked

# sha256 prefixes of each query's results (readings, or generated
# representatives) and truncation, and the number of states it keys, taken
# when a commutative cancel was still a chain of swaps and a cancel.  The
# parses are eleven fixed sentences, the first 6 of QUANTIFIED, 4 of
# RELATIVES and 4 of PPS, then a ``random.Random(5)`` shuffle of each,
# deduplicated; the generations are ``_seeded_forms()`` and four more.
COMMUTATIVE_PINS = {
    "parse saw john louise": ("a6652c7c6eaf16d9", 9),
    "parse john saw louise": ("a6652c7c6eaf16d9", 9),
    "parse louise john saw": ("a6652c7c6eaf16d9", 9),
    "parse ran john": ("74b68cbd473c80b7", 2),
    "parse man every ran": ("5147cc04c95889a1", 22),
    "parse john saw every woman": ("430fbf410382bca0", 187),
    "parse every man saw some woman": ("23b1709121ebd967", 4249),
    "parse john saw louise in paris": ("0b35458240a34f92", 545),
    "parse in paris john saw louise": ("0b35458240a34f92", 545),
    "parse the man that louise saw ran": ("bded27e351f344e8", 19193),
    "parse saw the ran man louise that": ("75c9a9e239b350ab", 19193),
    "parse every man saw every man": ("492584af3b2c6283", 2849),
    "parse every man saw every woman": ("72482771b8d3baf0", 4249),
    "parse every man saw some man": ("9fa5356dc3621481", 2849),
    "parse every woman saw every man": ("72482771b8d3baf0", 4249),
    "parse every woman saw every woman": ("e20e549d6de528cd", 2849),
    "parse every man that john saw ran": ("6d6a038c6acd87de", 51820),
    "parse every man that louise saw ran": ("4ee854f5862fd0a2", 51820),
    "parse every man that paris saw ran": ("cc8ac491fd09beaf", 51820),
    "parse the man that john saw ran": ("00bc4202e1c20998", 19193),
    "parse john saw some woman in john": ("a45acb13aad01b7c", 11599),
    "parse john saw some woman in louise": ("8fac81d277694017", 18819),
    "parse john saw some woman in paris": ("065284f99ca6912b", 18819),
    "parse louise saw some woman in john": ("bd548d4c6170a5bf", 18819),
    "parse john louise saw": ("a6652c7c6eaf16d9", 9),
    "parse every ran man": ("5147cc04c95889a1", 22),
    "parse every woman john saw": ("430fbf410382bca0", 187),
    "parse saw every woman man some": ("23b1709121ebd967", 4249),
    "parse in louise john saw paris": ("0b35458240a34f92", 545),
    "parse louise paris in john saw": ("0b35458240a34f92", 545),
    "parse saw louise that ran the man": ("92b82ffb18e909a1", 19193),
    "parse louise ran man saw that the": ("3dda8953506eecbc", 19193),
    "parse saw every every man man": ("492584af3b2c6283", 2849),
    "parse every every woman man saw": ("72482771b8d3baf0", 4249),
    "parse every saw some man man": ("9fa5356dc3621481", 2849),
    "parse some woman man saw every": ("23b1709121ebd967", 4249),
    "parse every man every saw woman": ("72482771b8d3baf0", 4249),
    "parse every woman woman every saw": ("e20e549d6de528cd", 2849),
    "parse ran john man saw that every": ("acae6320b7ad7cf3", 51820),
    "parse every saw louise man that ran": ("bbb7c4c2228d0e31", 51820),
    "parse that paris saw every man ran": ("9acedd3b027028ce", 51820),
    "parse saw man the john that ran": ("410281b9a55960e9", 19193),
    "parse john in saw john woman some": ("7295ac06647387ff", 11599),
    "parse woman some john in saw louise": ("3f9c87cd5805eac8", 18819),
    "parse john saw paris in some woman": ("2a1db29395c17c82", 18819),
    "parse john in saw some louise woman": ("2114fd4594d2d910", 18819),
    "generate ev(m,#x,r(#x))": ("fd8c76b97098e086", 6),
    "generate ev(w,#x,s(#x,p))": ("700a495a01800c34", 9),
    "generate i(ev(m,#x,r(#x)),j)": ("eb72dc39acaf1111", 17),
    "generate r(j)": ("b884ee5b63ddefc4", 3),
    "generate r(p)": ("4088285772a462e4", 3),
    "generate r(t(tt(w,#x,s(#x,p))))": ("cdc7b48a325bed1b", 11),
    "generate s(j,j)": ("38356bdfcc391852", 5),
    "generate s(t(w),t(i(m,j)))": ("f53cfb163dd153d3", 32),
    "generate sm(m,#x,s(j,#x))": ("970e5c7e339ddedd", 17),
    "generate sm(w,#x,s(#x,j))": ("8e31620ac5726349", 9),
    "generate s(j,l)": ("ca16e6aaa2b55e59", 6),
    "generate ev(m,#x,sm(w,#y,s(#x,#y)))": ("d6155134c72219c7", 45),
    "generate i(s(j,l),p)": ("d03e0349132bb288", 17),
    "generate r(t(tt(m,#x,s(l,#x))))": ("9af0776ef02fe3b1", 19),
}


@functools.lru_cache(maxsize=None)
def _commutative_lexicon():
    english = parse_grammar((GRAMMAR_DIR / "english.gg").read_text())
    return Lexicon(english.phon_vocab, english.relators + (commutator_scheme(),))


def _commute(query):
    kind, _, text = query.partition(" ")
    if kind == "parse":
        return parse(_commutative_lexicon(), text.split(), LIM)
    return generate(_commutative_lexicon(), parse_term(text), LIM)


@functools.lru_cache(maxsize=None)
def _keyed_commute(query):
    """``_commute(query)`` and the number of state keys its search built."""
    real, count = engine._canonical_key, [0]

    def counting(expr, commutative):
        count[0] += 1
        return real(expr, commutative)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_canonical_key", counting)
        return _commute(query), count[0]


def _results_digest(res):
    text = "\n".join(" ".join(p) if isinstance(p, tuple) else render_term(p)
                     for p, _ in res.results)
    text += f"\ntruncated={res.truncated}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("query", list(COMMUTATIVE_PINS))
def test_commutative_results_and_states_are_pinned(query):
    res, keys = _keyed_commute(query)
    assert (_results_digest(res), keys) == COMMUTATIVE_PINS[query]


@pytest.mark.parametrize("query", [q for q in COMMUTATIVE_PINS
                                   if q.startswith("parse ")])
def test_commutative_parse_applies_only_legal_steps(checked, query):
    _same_results(checked(_commute, query), _keyed_commute(query)[0])


@pytest.mark.parametrize("query", [q for q in COMMUTATIVE_PINS
                                   if q.startswith("generate ")])
def test_commutative_generation_applies_only_legal_steps(checked, query):
    _same_results(checked(_commute, query), _keyed_commute(query)[0])


# ---------------------------------------------------------------------------
# answers proved over their shared search tree

# sha256 prefixes of each query's readings and rendered derivations, taken
# when each answer was still replayed on its own from the empty expression
DERIVATION_DIGESTS = {
    "every man saw every man": "a86640fc14616f40",
    "every man saw every woman": "3973642383ebf7a4",
    "every man saw some man": "15f795a0debb5416",
    "every man saw some woman": "64fbe73784f05ad5",
    "every woman saw every man": "88bf9fcc04c7ad13",
    "every woman saw every woman": "ec14d77a2642ba62",
    "every woman saw some man": "c0c105e4560612de",
    "every woman saw some woman": "ee921905899ee14e",
    "some man saw every man": "50c7d511e6148ad8",
    "some man saw every woman": "61a0eb9822a13801",
    "some man saw some man": "321d872deddd6298",
    "some man saw some woman": "ad60e333a7cdb846",
    "some woman saw every man": "8e960cd9693b7615",
    "some woman saw every woman": "b29719ab4f193f12",
    "some woman saw some man": "eeb441dff9145644",
    "some woman saw some woman": "02ac8d270bfb5dd7",
    "every man that john saw ran": "c2c2c401daf836be",
    "every man that louise saw ran": "b386c18e07e8da85",
    "every man that paris saw ran": "3bb5abc2660f67a3",
    "the man that john saw ran": "a5bfe4a21bec50f4",
    "the man that louise saw ran": "380a5059ce431558",
    "the man that paris saw ran": "fccffebd223fae65",
    "john saw some woman in john": "2617a4f96820ffa6",
    "john saw some woman in louise": "4f8dc94725336471",
    "john saw some woman in paris": "96a2b211afa13b13",
    "louise saw some woman in john": "e05938d4f0a88eae",
    "louise saw some woman in louise": "37c36a0cf0c84226",
    "louise saw some woman in paris": "ccb8ec1fcbd3a21b",
    "paris saw some woman in john": "0aaacb1b040b714d",
    "paris saw some woman in louise": "91aa52f31f93243d",
    "paris saw some woman in paris": "2f9c8eec65f1855a",
    "family.lp": "2ad3de8779205c4c",
}


def _digest(res):
    text = "\n\n".join(render_term(p) + "\n" + render_derivation(d)
                        for p, d in res.results)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("query", list(DERIVATION_DIGESTS))
def test_derivations_are_unchanged_and_replay_on_their_own(english, query):
    if query == "family.lp":
        lex = encode_logic_program(parse_logic_program(
            (GRAMMAR_DIR / query).read_text()))
        res = saturate(lex, LIM)
    else:
        lex = english
        res = parse(english, query.split(), LIM)
    assert _digest(res) == DERIVATION_DIGESTS[query]
    for _, d in res.results:
        assert engine.replay(lex, d) == d.end


# ---------------------------------------------------------------------------
# the pair-unifier memo (by atom identity, then by payload pair) changes
# nothing that the search does


def _keyed_parse(english, monkeypatch, sentence):
    """Parse ``sentence``; return the result and the state keys in order."""
    keys = []
    real = engine._canonical_key

    def keying(expr, commutative):
        keys.append(real(expr, commutative))
        return keys[-1]

    with monkeypatch.context() as m:
        m.setattr(engine, "_canonical_key", keying)
        res = parse(english, sentence.split(), LIM)
    return res, keys


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_pair_unifiers_memo_changes_no_state(english, monkeypatch, sentence):
    memo, memo_keys = _keyed_parse(english, monkeypatch, sentence)

    def fresh(a, b, allow_vacuous, unifiers):
        return unify(a.payload, b.payload, EMPTY_BINDING, allow_vacuous)

    monkeypatch.setattr(engine, "_pair_unifiers", fresh)
    res, keys = _keyed_parse(english, monkeypatch, sentence)
    assert keys == memo_keys
    assert _digest(res) == _digest(memo) == DERIVATION_DIGESTS[sentence]


# ---------------------------------------------------------------------------
# substitutions shared within one search: a cancel substitutes each atom
# object under each unifier object once, and its siblings share the result


def _distinct_atoms(monkeypatch):
    """Fail the search if any state it keys holds one atom object twice; the
    skip masks read adjacency by identity and need each atom once."""
    real = engine._canonical_key

    def checking(expr, commutative):
        ids = _atom_ids(expr)
        assert len(ids) == len(set(ids)), render_expr(expr)
        checking.states += 1
        return real(expr, commutative)

    checking.states = 0
    monkeypatch.setattr(engine, "_canonical_key", checking)
    return checking


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_no_parse_state_holds_an_atom_twice(english, monkeypatch, sentence):
    checking = _distinct_atoms(monkeypatch)
    res = parse(english, sentence.split(), LIM)
    assert res.results and checking.states
    # a copy rebuilds every atom, without the search's shared ones
    for _, d in res.results:
        copied = copy.deepcopy(d)
        assert copied == d
        assert replay(english, copied) == d.end


def test_no_random_start_state_holds_an_atom_twice(monkeypatch):
    checking = _distinct_atoms(monkeypatch)
    rng = random.Random(11)
    for n in range(500):
        start = _random_start(rng)
        try:
            _search(start)
        except AssertionError as e:
            raise AssertionError(f"start {n}: {render_expr(start)}") from e
    assert checking.states


def test_the_substitution_memo_lives_for_one_search(english, monkeypatch):
    real_cancels, real_substitute = engine._cancel_successors, engine.substitute
    memos, calls = [], [0]

    def cancels(lex, expr, allow_vacuous, unifiers, substitutions, *args,
                **kwargs):
        if not any(m is substitutions for m in memos):
            memos.append(substitutions)
        return real_cancels(lex, expr, allow_vacuous, unifiers, substitutions,
                            *args, **kwargs)

    def substitute(t, b):
        calls[0] += 1
        return real_substitute(t, b)

    monkeypatch.setattr(engine, "_cancel_successors", cancels)
    monkeypatch.setattr(engine, "substitute", substitute)
    counts = []
    for _ in range(2):
        before = calls[0]
        parse(english, "every man saw some woman".split(), LIM)
        counts.append(calls[0] - before)
    assert counts[0] == counts[1] > 0
    # one filled memo per search, and nothing else holds it afterwards
    assert len(memos) == 2 and all(memos)
    assert all(gc.get_referrers(m) == [memos] for m in memos)
