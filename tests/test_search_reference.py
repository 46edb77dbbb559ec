"""Differential tests of the prunings of parse search against searches
without them.

Placing every block first is checked against the unpruned reference, which
makes every bundle and every cancel at every state, as every parse that does
not place blocks first does, keeps every block-free word and leaves no
search to the chart (``tests/test_chart.py`` checks the chart against the
search on its own).  An ordered parse places every block before any cancel.
Both searches must find the same readings and agree on truncation, and every
derivation of the pruned search must replay, on the sentences, their
shuffled words, the strings of every shape fill and random starts, and under
a result limit.  Random ordered starts, which place blocks first, are checked
against the reference too, alone and as pairs of starts whose paths meet,
and the search must expand each state key once.  The dropped block-free
words, none of whose matchings can cancel, are checked against the same
search keeping them: the same readings, rendered derivations and truncation.
The check must also keep every block-free word of the unpruned search that
reaches a reading on its own.  The block phase judges each entering word
before it builds the bundle: a state's bundles must be those of the plain
search whose words the check keeps, in order.  A live word is decided as it
enters: one depth-first search of its cancels builds only the first path to
each reading its start has not claimed.  The cancels of each reading of the
search that keeps every word must form one of the matchings of the word they
start from, and each state of a decision must lie on paths to goals whose
cancels are a matching of their word with the goal's reading as its image.
With the claims defeated, and with the memo of states made defeated too, the
search must find the same readings, derivations and truncation, and, but on
pairs of starts of two sizes, expand the same state keys in the same order;
each search must start with memos of its own.  Every order of a live word's
cancels that reaches a goal must end at its matching's image, and an image
that no order reaches is never claimed.  The pairing relation only prunes:
taking every pair of atoms as partners leaves each word's matchings, and the
chart's readings and derivations, as they are.  The bitset kernel that
decides the matchings' equations must find, on every word that the searches
judge, the matchings that the term-level equations of ``matching_oracle``
find, in the same order, and every atom set that a search builds must be of
its shape.

A bundle, one ``DissolveStep``, is checked against the three steps it stands
for (move the block, rotate it, dissolve it, each a splice and a
``normalize``), and a nested wrap cancel against a rotation and a cancel.

The search applies the steps it builds itself without checking them
(``engine._apply``).  A later section puts ``apply_step``'s checks back on
every such step: none may fail, and the results must not change.  Commutative
parses and generations are pinned to the results and state counts they had
when a commutative cancel was a chain of swaps, and checked the same way.

Generation expands one atom per state and places blocks only where nothing
expands, when the lexicon allows it.  The last sections check it against the
full search, which a lexicon that does not allow it runs: the same strings,
the same truncation, and derivations that replay.  A round-trip oracle then
checks that a string is generated from a form exactly when the form is one
of the string's readings.
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
    commutator_scheme, encode_dcg, encode_logic_program, parse_dcg,
    parse_logic_program,
)
from ggroup.engine import (
    Atom, Block, CancelStep, DissolveStep, SearchLimits, StepError, generate,
    normalize, parse, render_derivation, render_expr, render_step, replay,
    saturate, substitute_expr,
)
from ggroup.lexicon import Lexicon, parse_grammar
from ggroup.term import (
    EMPTY_BINDING, _bind, _resolve, canonical_identifiers, parse_term,
    render_term, unify,
)

import matching_oracle as oracle

LIM = SearchLimits()
RAW = Lexicon((), (), raw_mode=True)
GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"


def _no_drop(m):
    """Keep every block-free word.  ``True`` from ``_may_match`` is also
    what turns off the decisions: no word is decided, and every block-free
    word makes every cancel."""
    m.setattr(engine, "_may_match", lambda *args: True)


def _no_chart(m):
    m.setattr(engine, "_chart_word", lambda expr: False)


@pytest.fixture
def reference(monkeypatch):
    """Call a function with every bundle and every cancel at every state,
    blocks or not, no block-free word dropped and no search decided by the
    chart: no start counts as ordered."""

    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(engine, "_ordered_word", lambda expr: False)
            _no_drop(m)
            _no_chart(m)
            return fn(*args)

    return run


@pytest.fixture
def undropped(monkeypatch):
    """Call a function with every pruning but the dropped block-free
    words."""

    def run(fn, *args):
        with monkeypatch.context() as m:
            _no_drop(m)
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
    return engine._search(RAW, "parse", start, (), LIM)


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


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_parse_truncation_under_a_result_limit_matches_the_reference(
        english, reference, sentence):
    # the queue order differs, so the readings found first may too: they
    # must be readings of the sentence
    words, lim = sentence.split(), SearchLimits(max_results=2)
    pruned = parse(english, words, lim)
    ref = reference(parse, english, words, lim)
    assert pruned.truncated == ref.truncated
    assert len(pruned.results) == len(ref.results)
    assert _readings(pruned) <= _readings(parse(english, words, LIM))
    for _, d in pruned.results:
        replay(english, d)


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_shuffled_sentences_match_the_reference(english, reference,
                                               sentence):
    # most shuffles read nothing, so the search drops almost every word
    words = sentence.split()
    random.Random(sentence).shuffle(words)
    _agree(parse(english, words, LIM), reference(parse, english, words, LIM),
           english)


def test_every_shape_fill_parses_like_the_reference(english, reference,
                                                    shape_fills):
    for text in shape_fills:
        for words, _ in generate(english, parse_term(text), LIM).results:
            try:
                pruned = parse(english, words, LIM)
                _agree(pruned, reference(parse, english, words, LIM), english)
            except AssertionError as e:
                raise AssertionError(f"{text}: {' '.join(words)}") from e
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


def _check_random_starts(against, seed, make=_random_start):
    rng = random.Random(seed)
    found = 0
    for n in range(500):
        start = make(rng)
        try:
            found += bool(_check_start(against, start).results)
        except AssertionError as e:
            raise AssertionError(f"start {n}: {render_expr(start)}") from e
    assert found > 250  # most starts still reach a reading


def test_random_starts_match_the_reference(reference):
    _check_random_starts(reference, 11)


def test_random_starts_of_a_second_seed_match_the_reference(reference):
    _check_random_starts(reference, 29)


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
            succ = engine._block_successors(engine._Search(RAW),
                                            engine._Node(start, 0, None, ()))
            assert [steps for steps, _ in succ] == \
                [(DissolveStep(*f),) for f in fields]
            for f, (_, new) in zip(fields, succ):
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
# dropped block-free words: the same search with every word kept


@pytest.fixture
def drops(monkeypatch):
    """Collect the block-free words the search drops."""
    real = engine._may_match
    dropped = []

    def collecting(s, word):
        matchings = real(s, word)
        if not matchings:
            dropped.append(word)
        return matchings

    monkeypatch.setattr(engine, "_may_match", collecting)
    return dropped


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_dropped_words_keep_the_results(english, undropped, drops, sentence):
    words = sentence.split()
    pruned = parse(english, words, LIM)
    _same_results(pruned, undropped(parse, english, words, LIM))
    assert pruned.results
    assert drops


def test_dropped_words_keep_the_results_of_random_starts(undropped, drops):
    # scoped starts place blocks first, as a random start does not, so
    # their words are judged
    for seed in (37, 29):
        rng = random.Random(seed)
        for n in range(150):
            start = _scoped_start(rng)
            try:
                _same_results(_search(start), undropped(_search, start))
            except AssertionError as e:
                raise AssertionError(
                    f"seed {seed}, start {n}: {render_expr(start)}") from e
    # 23,996 dropped; 20,819 while words were judged once per key
    assert len(drops) > 10000


def _live_bundles(s, expr):
    """The bundles of a blocks-first state, built as a plain search builds
    them (``engine._apply`` at each placement and rotation), that
    ``engine._may_match`` keeps, and the verdict on each of their
    block-free words."""
    out, verdicts = [], []
    for level, idx, block, tlevel, slot in engine._placements(expr):
        for k in range(len(block.contents)):
            step = DissolveStep(level, idx, tlevel, slot, k)
            word = engine._apply(s.lex, expr, step)
            if not engine._has_block(word):
                matchings = engine._may_match(s, word)
                if not matchings:
                    continue
                verdicts.append(matchings)
            out.append(((step,), word))
    return out, verdicts


def test_entering_words_are_judged_before_they_are_built(english,
                                                         monkeypatch):
    # each state with one block of atoms alone, the only states that make
    # block-free words, gets the live bundles of the plain search, in
    # order, with the same atom objects, and keeps the verdict on each
    # word, which the word's node reads, under the word's atom ids
    real, states = engine._block_successors, []

    def checked(s, node):
        out = real(s, node)
        expr = node.expr
        blocks = [i for i in expr if isinstance(i, Block)]
        assert s.blocks_first
        if len(blocks) == 1 and not engine._has_block(blocks[0].contents):
            want, verdicts = _live_bundles(s, expr)
            assert out == want, render_expr(expr)
            assert [[id(a) for a in new] for _, new in out] == \
                [[id(a) for a in new] for _, new in want]
            assert [s.judged[tuple(map(id, new))] for _, new in out] == \
                verdicts
            states.append(len(want))
        return out

    monkeypatch.setattr(engine, "_block_successors", checked)
    for sentence in QUANTIFIED + RELATIVES + PPS:
        assert parse(english, sentence.split(), LIM).results
    rng = random.Random(5)
    for _ in range(60):
        _search(_scoped_start(rng))
    # 4,026 such states, 1,696 of them without a live bundle; 11,949
    # live bundles
    assert len(states) > 3000 and states.count(0) > 1000
    assert sum(states) > 10000


# ---------------------------------------------------------------------------
# ordered starts: the search against the reference, and each state key
# expanded once


def _ordered_start(rng):
    """A random start that meets ``engine._ordered_word``: a goal atom and
    pairs of a positive term and a negative bare variable, each variable
    bound to a term over the later ones, and now and then an application
    to an identifier, then cut into nested blocks like ``_random_start``."""
    names = [f"V{k}" for k in range(rng.randint(2, 4))]
    word = [_atom(rng.choice(("s", "h(V0)", "h(V1)")))]
    for k, name in enumerate(names):
        later = rng.choice(names[k + 1:] or ["a"])
        term = rng.choice(("a", "f(b)", "f({})", "g({},a)", "g(a,{})"))
        pair = [_atom(term.format(later)), _atom(name, -1)]
        if rng.random() < 0.2:
            pair = [_atom("g(#x1,b)"), _atom(f"P{k}[#x1]", -1)]
        if rng.random() < 0.5:
            pair.reverse()
        pos = rng.randint(0, len(word))
        word[pos:pos] = pair
    for _ in range(rng.randint(0, 2)):
        word = _cut(rng, word)
    start = tuple(word)
    assert engine._ordered_word(start)
    return start


def test_ordered_starts_match_the_reference(reference):
    _check_random_starts(reference, 41, _ordered_start)


TWO_STARTS = [
    "{ g(#x0,b) } { V1^-1 g(b,a) P0[#x0]^-1 } V0^-1 { h(V0) } a",
    "P0[#x0]^-1 { { f(#x0) } h(V0) } #x0 { V1^-1 #x0 V0^-1 }",
    # P1 has two arguments, so the words carry no matchings
    "s g(P1[#x2],a) g(#x0,b) { { P1[#x1]^-1 } { P0[#x0]^-1 } g(#x1,b) } "
    "V0^-1 #x0 V1^-1",
]


def _two_starts(text, wide_first=False):
    """A search of two ordered starts of different sizes, as homonyms give:
    the wider one prepends ``c Z^-1`` to ``text``, whose cancel reaches the
    narrower one a step later, so paths of two lengths meet in one state.
    The narrower start comes first, or the wider one with ``wide_first``."""
    wide = engine.parse_expr("c Z^-1 " + text, ())
    (delta,) = unify(parse_term("Z"), parse_term("c"), EMPTY_BINDING, False)
    step = CancelStep((), 0, delta)
    narrow = engine.apply_step(RAW, wide, step)
    assert engine._ordered_word(wide) and engine._ordered_word(narrow)
    starts = [((step,), narrow), ((), wide)]
    if wide_first:
        starts.reverse()
    return functools.partial(engine._search, RAW, "parse", wide, starts, LIM)


def _expanded_once(monkeypatch, run, keys_judged_once=False):
    """``run()``, checking that one node per state key asks for successors
    and that no entering word, by its atom objects, is judged by its
    matchings twice; with ``keys_judged_once``, that no entering word's key
    is.  The block phase judges a word before it is keyed, so on starts
    that hold equal atoms as distinct objects, equal-key words made of
    distinct atoms are judged once each."""
    expanded, checked = {}, []

    def expanding(real):
        def gen(s, node):
            key = engine._canonical_key(node.expr, False)
            assert expanded.setdefault(key, node) is node, \
                render_expr(node.expr)
            return real(s, node)

        return gen

    def may_match(real):
        def check(s, word):
            checked.append((tuple(map(id, word)),
                            engine._canonical_key(word, False)))
            return real(s, word)

        return check

    with monkeypatch.context() as m:
        for name in ("_cancel_successors", "_block_successors"):
            m.setattr(engine, name, expanding(getattr(engine, name)))
        m.setattr(engine, "_may_match", may_match(engine._may_match))
        pruned = run()
    words = [ids for ids, _ in checked]
    assert expanded and len(words) == len(set(words))
    if keys_judged_once:
        keys = [key for _, key in checked]
        assert len(keys) == len(set(keys))
    return pruned


@pytest.mark.parametrize("query", TWO_STARTS + QUANTIFIED + RELATIVES + PPS)
def test_each_state_is_expanded_once(english, reference, monkeypatch, query):
    # the three wide and narrow pairs of starts expanded a state twice
    # while a state skipped the cancels that commute back before the cancel
    # that made it.  Two of them hold distinct atoms that are equal, or
    # equal up to renaming (the two #x0; V1^-1 and the wide start's Z^-1,
    # each the one occurrence of its variable), so equal-key words of
    # distinct atoms are judged once each; the sentences judge no key twice
    if query in TWO_STARTS:
        lex, run = RAW, _two_starts(query)
    else:
        lex, run = english, functools.partial(parse, english, query.split(),
                                              LIM)
    once = _expanded_once(monkeypatch, run, keys_judged_once=lex is english)
    _agree(once, reference(run), lex)


def test_random_pairs_of_starts_match_the_reference(reference, monkeypatch):
    # the pairs of ``TWO_STARTS`` over random ordered starts: a state that
    # paths of two lengths reach is expanded once, for the first to arrive.
    # The chart would decide the block-free starts, so the search does
    _no_chart(monkeypatch)
    rng = random.Random(7)
    found = 0
    for n in range(200):
        text = render_expr(_ordered_start(rng))
        run = _two_starts(text)
        try:
            pruned = _expanded_once(monkeypatch, run)
            _agree(pruned, reference(run), RAW)
        except AssertionError as e:
            raise AssertionError(f"start {n}: {text}") from e
        found += bool(pruned.results)
    assert found > 100


def test_an_application_cancel_makes_the_first_order_cancels_left_of_it():
    # matching P[#x1] against s(#x1,B) before B=#x1 binds P to
    # \#_z.s(#_z,B), after it to \#_z.s(#_z,#_z): the two orders reach two
    # readings, so the state the application's cancel made must still cancel
    # #x1 against B^-1
    start = engine.parse_expr("h(P[#x2]) #x1 B^-1 s(#x1,B) P[#x1]^-1", ())
    assert engine._ordered_word(start)
    assert _readings(_search(start)) == {"h(s(#x1,#x1))", "h(s(#x1,#x2))"}


# t3's instance holds a ground negative atom, f(a)^-1, so the parse start
# fails ``engine._ordered_word``.  Cancelling s(Y1) against s(Y1)^-1 joins
# f(a) and f(a)^-1, which cancel eagerly: made first, that cancel removes
# f(a)^-1, which the only reading cancels against f(W4) once g(X3) has
# cancelled g(b)^-1.  So a cancel here removes more than its own pair, and
# the two cancels do not commute.
EAGER = """
phon t1 t2 t3 t4 .
relator f(a) t1^-1 .
relator s(Y) s(Y)^-1 t2^-1 .
relator f(a)^-1 g(b)^-1 g(X) t3^-1 .
relator f(W) t4^-1 .
"""


def test_a_lexicon_with_eager_cancels_gets_no_chart(monkeypatch):
    # the chart would take this first-order block-free start, but only a
    # search where ``_ordered_word`` holds, which rules out eager cancels,
    # reaches it.  With eager cancels its chains would not hold: cancelling
    # s(Y1) removes f(a) and f(a)^-1 too, so this stand-in returns no node
    charted = []

    def stand_in(s, starts, max_results):
        charted.append([node.expr for node in starts])
        return []

    monkeypatch.setattr(engine, "_chart", stand_in)
    lex, words = parse_grammar(EAGER), "t1 t2 t3 t4".split()
    assert _readings(parse(lex, words, LIM)) == {"f(a)"}
    assert not charted
    monkeypatch.setattr(engine, "_ordered_word", lambda expr: True)
    assert _readings(parse(lex, words, LIM)) == set()
    ((start,),) = charted
    assert engine._chart_word(start)


@pytest.mark.parametrize("text", [
    "s(Y) f(a)^-1",  # a ground negative atom
    "s(Y) f(X)^-1",  # a negative atom that is no bare variable
    "f(X) X^-1 Y^-1 X^-1",  # a variable in two negative atoms
    "s(a) P[Y]^-1 Q[Y]^-1",  # the same, as applications' arguments
    "X Y^-1",  # a positive bare variable
    "P[#x1] f(#x1)^-1",  # a positive application
    "s(Y) tok^-1",  # a negative token
])
def test_words_that_are_not_ordered(text):
    assert not engine._ordered_word(engine.parse_expr(text, ("tok",)))


@pytest.mark.parametrize("text", [
    "s(A,B) A^-1 j B^-1 l",
    "{ ev(N1,#x1,P1[#x1]) P1[#x1]^-1 } #x1 N1^-1 m",
    "tok s(X) X^-1",  # a positive token
])
def test_ordered_words(text):
    assert engine._ordered_word(engine.parse_expr(text, ("tok",)))


# ---------------------------------------------------------------------------
# blocks first: an ordered parse dissolves every block before any cancel,
# and drops each block-free word none of whose matchings can cancel

# enough results for every reading: some sentences have 100 under vacuous
# abstraction, and a search cut short may keep a different subset
VACUOUS = SearchLimits(allow_vacuous_abstraction=True, max_results=1000)


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_parse_readings_under_vacuous_abstraction_match_the_reference(
        english, reference, sentence):
    words = sentence.split()
    pruned = parse(english, words, VACUOUS)
    ref = reference(parse, english, words, VACUOUS)
    assert _readings(pruned) == _readings(ref)
    assert not pruned.truncated and not ref.truncated
    for _, d in pruned.results:
        replay(english, d, allow_vacuous=True)
    if sentence == "every man saw some woman":
        assert len(pruned.results) == 100


def _keyed_words(run, *args):
    """The block-free words that ``run(*args)`` keys, one per key."""
    real, words = engine._canonical_key, {}

    def keying(expr, commutative):
        key = real(expr, commutative)
        if not engine._has_block(expr):
            words.setdefault(key, expr)
        return key

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_canonical_key", keying)
        run(*args)
    return words


def _reads(s, word, memo):
    """Whether a search of the block-free ``word`` alone, making every cancel
    at every state, reaches a reading; ``memo`` holds each state key's
    answer."""
    key = engine._canonical_key(word, False)
    if key not in memo:
        node = engine._Node(word, 0, None, ())
        memo[key] = engine._single_atom_goal(word) is not None or any(
            _reads(s, new, memo) for _, new in engine._cancel_successors(s, node))
    return memo[key]


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_the_dead_word_check_keeps_every_word_that_reads(english, reference,
                                                       sentence):
    words = _keyed_words(reference, parse, english, sentence.split(), LIM)
    s = engine._Search(english, blocks_first=True)
    plain, memo, dropped = engine._Search(english), {}, 0
    for word in words.values():
        assert engine._ordered_word(word)
        kept = engine._may_match(s, word)
        assert kept or not _reads(plain, word, memo), render_expr(word)
        dropped += not kept
    assert dropped
    if sentence == "every man saw some woman":
        # every dead word: 337 of the 10,253 words reach a reading
        assert (len(words), dropped) == (10253, 9916)


def _entering_word(lex, start, steps):
    """The block-free word that the last dissolve of ``steps`` from
    ``start`` makes, the pairs of its positions that the cancels after it
    cancel, and the positions left."""
    last = max(k for k, step in enumerate(steps) if type(step) is DissolveStep)
    word = start
    for step in steps[:last + 1]:
        word = engine.apply_step(lex, word, step)
    pos, pairs = list(range(len(word))), []
    for step in steps[last + 1:]:
        assert type(step) is CancelStep and not step.level
        pairs.append((pos[step.index], pos[step.index + 1]))
        del pos[step.index:step.index + 2]
    return word, pairs, tuple(pos)


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_carried_matchings_hold_every_reading(english, undropped, sentence):
    # the search that carries no matchings finds the readings: the cancels
    # of each, after its last dissolve, are one of the entering word's
    # matchings, so a search that carries them makes every one
    res = undropped(parse, english, sentence.split(), LIM)
    s = engine._Search(english, blocks_first=True)
    for _, d in res.results:
        word, pairs, _ = _entering_word(english, d.start, d.steps)
        assert frozenset(pairs) in engine._may_match(s, word), \
            render_derivation(d)
    assert res.results


def _plan_leaves(plan, steps=()):
    """Each goal that ``plan`` (``engine._Node.plan``) ends at, with the
    steps of its path from the plan's node."""
    for child_steps, expr, below in plan:
        if below:
            yield from _plan_leaves(below, steps + child_steps)
        else:
            yield steps + child_steps, expr


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_each_decided_state_is_on_a_path_to_a_reading(english, monkeypatch,
                                                      sentence):
    # each block-free state the search expands with a plan lies on paths
    # to goals only, and each goal's cancels since its word entered are a
    # matching of that word whose image is the goal's reading, one of the
    # search's
    real, planned = engine._cancel_successors, []

    def recording(s, node):
        out = real(s, node)
        if node.plan is not None:
            root = node
            while root.parent is not None:
                root = root.parent
            planned.append((root.expr, node.derivation_steps(), node.plan))
        return out

    monkeypatch.setattr(engine, "_cancel_successors", recording)
    res = parse(english, sentence.split(), LIM)
    s = engine._Search(english, blocks_first=True)
    leaves = 0
    for start, steps, plan in planned:
        for path, end in _plan_leaves(plan):
            word, pairs, pos = _entering_word(english, start, steps + path)
            assert len(pos) == 1 and engine._single_atom_goal(end) is not None
            assert frozenset(pairs) in engine._may_match(s, word)
            t = s.atom_sets[frozenset(map(id, word))][1]
            names = [t.index[id(a)] for a in word]
            reading = engine._image(
                t, frozenset((names[i], names[j]) for i, j in pairs))
            assert reading == render_term(engine._single_atom_goal(end))
            assert reading in _readings(res), render_expr(word)
            leaves += 1
    assert leaves >= len(res.results)


@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_carried_matchings_keep_truncation_under_a_result_limit(
        english, undropped, sentence):
    # the queue order changes, so the readings found first may too
    words, lim = sentence.split(), SearchLimits(max_results=2)
    assert parse(english, words, lim).truncated == \
        undropped(parse, english, words, lim).truncated


def _scoped_start(rng):
    """A random start that meets ``engine._ordered_word`` and holds
    applications, as a quantifier's instance does: a goal atom; for each
    meta-variable ``V{k}``, ``V{k}^-1`` and a term over a later one or an
    application ``P{j}[#x{j}]``; for each abstraction variable ``P{j}``,
    ``P{j}[#x{j}]^-1`` and a term that holds ``#x{j}``.  Now and then a term
    applies ``Q``, which no negative atom holds, so no cancel binds it; or
    an application's argument is a meta-variable, or a term applies
    ``P{j}`` to another identifier, and ``engine._may_match`` keeps the
    word and leaves its cancels unrestricted.  Then cut into nested blocks,
    each rotated, like ``_random_start``."""
    metas = [f"V{k}" for k in range(rng.randint(1, 2))]
    apps = [f"P{j}" for j in range(rng.randint(1, 2))]
    word = [_atom(rng.choice(("s", "h(V0)", "h(P0[#x0])")))]
    pairs = []
    for k, name in enumerate(metas):
        inner = rng.choice(metas[k + 1:] + apps + ["b", "Q[#x0]"])
        if inner in apps:
            j = apps.index(inner)
            inner += f"[#x{j if rng.random() < 0.9 else j + 1}]"
        term = rng.choice(("a", "#x0", "f({})", "g({},a)")).format(inner)
        pairs.append([_atom(term), _atom(name, -1)])
    for j, name in enumerate(apps):
        arg = f"#x{j}" if rng.random() < 0.9 else f"W{j}"
        term = rng.choice(("g(#x{0},b)", "f(#x{0})", "g(a,#x{0})")).format(j)
        pairs.append([_atom(term), _atom(f"{name}[{arg}]", -1)])
    for pair in pairs:
        if rng.random() < 0.5:
            pair.reverse()
        pos = rng.randint(0, len(word))
        word[pos:pos] = pair
    for _ in range(rng.randint(1, 3)):
        word = _cut(rng, word)
    start = tuple(word)
    assert engine._ordered_word(start)
    return start


def test_scoped_starts_match_the_reference(reference, monkeypatch):
    real_first, real_match = engine._first_order, engine._may_match
    count = {"fallback": 0, "dead": 0}

    def first_order(a):
        found = real_first(a)
        count["fallback"] += found[0] is None
        return found

    def may_match(s, word):
        ok = real_match(s, word)
        count["dead"] += not ok
        return ok

    monkeypatch.setattr(engine, "_first_order", first_order)
    monkeypatch.setattr(engine, "_may_match", may_match)
    rng = random.Random(43)
    found = 0
    for n in range(150):
        start = _scoped_start(rng)
        try:
            found += bool(_check_start(reference, start).results)
        except AssertionError as e:
            raise AssertionError(f"start {n}: {render_expr(start)}") from e
    assert found > 100
    assert count["fallback"] and count["dead"] > 100


def test_partners_only_prune(english, monkeypatch):
    # each matching's equations are bound jointly and its bound applications
    # checked on the joint unifier, so the pairs that _may_cancel rejects only
    # cut branches early: taking every pair as partners changes no word's
    # matchings and no reading or derivation of the chart
    words = {}
    for sentence in QUANTIFIED:
        words.update(_keyed_words(parse, english, sentence.split(), LIM))
    samples = [(english, w) for w in random.Random(7).sample(
        list(words.values()), min(500, len(words)))]
    real = engine._may_match

    def entering(s, word):
        samples.append((RAW, word))
        return real(s, word)

    rng = random.Random(43)
    with monkeypatch.context() as m:
        m.setattr(engine, "_may_match", entering)
        for _ in range(50):
            _search(_scoped_start(rng))
    from test_chart import FIRST_ORDER_PPS
    charted = {sentence: parse(english, sentence.split(), LIM)
               for sentence in FIRST_ORDER_PPS}
    lexicons = english, RAW
    live = {lex: engine._Search(lex, blocks_first=True) for lex in lexicons}
    want = [real(live[lex], word) for lex, word in samples]
    monkeypatch.setattr(engine, "_may_cancel", lambda s, a, b, u, v: True)
    every = {lex: engine._Search(lex, blocks_first=True) for lex in lexicons}
    for (lex, word), matchings in zip(samples, want):
        assert real(every[lex], word) == matchings, render_expr(word)
    for sentence, res in charted.items():
        _same_results(parse(english, sentence.split(), LIM), res)
    assert sum(m is True for m in want) and sum(m == [] for m in want) > 100
    assert sum(bool(m) and m is not True for m in want) > 100


# ---------------------------------------------------------------------------
# the decision of a live word (``engine._decide``): one depth-first search
# of its cancels, which stops at the first goal of each reading that its
# start has not claimed (the memo ``engine._Search.claimed``), makes each
# state of a start once (the memo ``made``), and keeps only the children
# on the paths it found


class _NeverHit(set):
    """A memo that keeps every entry and finds none."""

    def __contains__(self, key):
        return False


def _decided_run(run, defeated=()):
    """``run()`` with the memos of the context named in ``defeated``
    replaced by ones that never hit: the result, the key of each state
    asked for successors, in order, and the number of cancel successors
    returned."""
    real_context = engine._Search
    real_cancels, real_blocks = engine._cancel_successors, \
        engine._block_successors
    expanded, returned = [], [0]

    def context(*args, **kwargs):
        s = real_context(*args, **kwargs)
        for name in defeated:
            setattr(s, name, _NeverHit())
        return s

    def blocks(s, node):
        expanded.append(engine._canonical_key(node.expr, False))
        return real_blocks(s, node)

    def cancels(s, node):
        expanded.append(engine._canonical_key(node.expr, False))
        out = real_cancels(s, node)
        returned[0] += len(out)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_Search", context)
        m.setattr(engine, "_cancel_successors", cancels)
        m.setattr(engine, "_block_successors", blocks)
        res = run()
    return res, expanded, returned[0]


def _check_claims(run, in_order=True):
    """The search against the same search with the claims defeated, so
    that each word searches every reading of its matchings, and against
    the one with the memo of states made defeated too, so that each word
    searches every order of its cancels: the same readings, rendered
    derivations and truncation, and, ``in_order``, each state that the
    search expands is expanded by the other two, in the same order.
    Returns how many cancel successors the claims saved."""
    got, expanded, returned = _decided_run(run)
    for defeated in (("claimed",), ("claimed", "made")):
        want, expanded_all, returned_all = _decided_run(run, defeated)
        _same_results(got, want)
        rest = iter(expanded_all)
        assert not in_order or all(key in rest for key in expanded)
        if defeated == ("claimed",):
            saved = returned_all - returned
    assert saved >= 0
    return saved


DECIDED_LIMITS = [LIM, SearchLimits(max_results=1), SearchLimits(max_results=2)]
DECIDED_IDS = ["all", "max_results=1", "max_results=2"]


@pytest.mark.parametrize("lim", DECIDED_LIMITS, ids=DECIDED_IDS)
@pytest.mark.parametrize("sentence", QUANTIFIED + RELATIVES + PPS)
def test_the_claims_change_no_search(english, sentence, lim):
    # blocks first: every live word of a start is an order of its atoms,
    # at one depth, and reaches its readings at one depth
    assert _check_claims(functools.partial(parse, english, sentence.split(),
                                           lim))


@pytest.mark.parametrize("lim", DECIDED_LIMITS, ids=DECIDED_IDS)
def test_the_claims_keep_homonyms_apart(lim):
    # one start per assignment of relators to the homonyms: atoms of two
    # starts at the same index are different atoms, and each start claims
    # its own readings
    from test_homonyms import HOMONYM, SENTENCES
    saved = sum(_check_claims(functools.partial(parse, HOMONYM,
                                                sentence.split(), lim))
                for sentence, _ in SENTENCES)
    assert saved > 50


@pytest.mark.parametrize("make, seed, count", [
    (_scoped_start, 43, 100), (_scoped_start, 5, 100),
    (_ordered_start, 41, 200)], ids=["scoped-43", "scoped-5", "ordered-41"])
def test_the_claims_change_no_random_start(make, seed, count):
    rng = random.Random(seed)
    saved = 0
    for n in range(count):
        start = make(rng)
        run = functools.partial(_search, start)
        try:
            saved += _check_claims(run)
        except AssertionError as e:
            raise AssertionError(f"start {n}: {render_expr(start)}") from e
    assert saved > 1000


def _goals_in_every_order(s, word):
    """Each goal that the cancels of the block-free ``word`` reach, in any
    order, in a context like ``s`` that makes every cancel: pairs
    ``(pairs, reading)``, the set of the word's position pairs that the
    goal's path cancelled and its rendered reading.  A state is named by
    the positions left and the pairs cancelled, and a state that another
    order names again must be the same expression."""
    plain = engine._Search(s.lex, s.allow_vacuous)
    states = {(tuple(range(len(word))), frozenset()): word}
    todo, goals = list(states), []
    while todo:
        pos, done = todo.pop()
        node = engine._Node(states[pos, done], 0, None, ())
        for (step,), new in engine._cancel_successors(plain, node):
            i = step.index
            name = pos[:i] + pos[i + 2:], done | {(pos[i], pos[i + 1])}
            if name in states:
                assert states[name] == new, render_expr(word)
                continue
            states[name] = new
            payload = engine._single_atom_goal(new)
            if payload is not None:
                goals.append((name[1], render_term(payload)))
            elif len(new) > 1:
                todo.append(name)
    return goals


def _images(s, word):
    """The image (``engine._image``) of each matching of the live ``word``
    that ``s`` judged, by the matching, a frozenset of position pairs."""
    t = s.atom_sets[frozenset(map(id, word))][1]
    names = [t.index[id(a)] for a in word]
    return {m: engine._image(t, frozenset((names[i], names[j])
                                          for i, j in m))
            for m in s.judged[tuple(map(id, word))]}


@pytest.mark.parametrize("wide_first", [False, True],
                         ids=["narrow-first", "wide-first"])
def test_the_claims_keep_starts_of_two_sizes_apart(monkeypatch, wide_first):
    # the pairs of ``TWO_STARTS`` over random ordered starts: the words of
    # both starts lie at one depth, and the narrower start's goals one
    # cancel higher, so a reading that the wider start claims first is
    # still found first from the narrower one.  The two starts' paths meet
    # in states of equal keys, so which node expands such a key depends on
    # the paths each search keeps: only the results must be equal.  The
    # chart would decide the block-free starts, so the search does
    _no_chart(monkeypatch)
    rng = random.Random(7)
    saved = 0
    for n in range(100):
        text = render_expr(_ordered_start(rng))
        try:
            saved += _check_claims(_two_starts(text, wide_first),
                                   in_order=False)
        except AssertionError as e:
            raise AssertionError(f"start {n}: {text}") from e
    assert saved > 100


# one sentence of each shape of the corpora: the sentences of one shape
# differ in their nouns and names only, and under vacuous abstraction each
# takes a second or more
SHAPES = [QUANTIFIED[0], RELATIVES[0], RELATIVES[3], PPS[0]]


@pytest.mark.parametrize("lim, sentences", [
    (LIM, QUANTIFIED + RELATIVES + PPS), (VACUOUS, SHAPES)],
    ids=["default", "vacuous"])
def test_every_matching_that_reaches_a_goal_ends_at_its_image(
        english, lim, sentences):
    # the premise of the claims: every order of a live word's cancels that
    # reaches a goal cancels the pairs of one of its matchings, and ends at
    # that matching's image
    reached = 0
    for sentence in sentences:
        for s, word in _judged_words(parse, english, sentence.split(), lim):
            if s.judged[tuple(map(id, word))] in ((), True):
                continue
            images = _images(s, word)
            for pairs, reading in _goals_in_every_order(s, word):
                assert images[pairs] == reading, render_expr(word)
                reached += 1
    assert reached > 1000


def test_an_image_that_no_order_reaches_is_never_claimed(english, reference):
    # under vacuous abstraction the bitset kernel checks no application, so
    # it keeps matchings that pair ``P[#x]^-1`` with ``#x`` itself, the
    # identity abstraction, which ``match_app`` always rejects: no order of
    # their cancels succeeds, and their images are no readings.  The search
    # wants them and never claims them
    words, found = "every man saw every man".split(), []
    judged = _judged_words(lambda: found.append(parse(english, words,
                                                      VACUOUS)))
    (s,) = {s for s, _ in judged}
    images = set()
    for _, word in judged:
        if s.judged[tuple(map(id, word))]:
            images.update(_images(s, word).values())
    (res,) = found
    readings = _readings(res)
    assert (len(images), len(readings)) == (99, 71)
    assert readings < images and not res.truncated
    assert {reading for _, reading in s.claimed} == readings
    assert readings == _readings(reference(parse, english, words, VACUOUS))


def test_each_search_has_memos_of_its_own(english, monkeypatch):
    # the memos name states and readings by the tables of the search's own
    # atom sets: one that outlived its search would keep every search's
    # tables alive
    real, first = engine._cancel_successors, {}

    def cancels(s, node):
        first.setdefault(id(s), (s, len(s.made), len(s.claimed)))
        return real(s, node)

    monkeypatch.setattr(engine, "_cancel_successors", cancels)
    for _ in range(2):
        parse(english, "every man saw some woman".split(), LIM)
    (one, *empty_one), (two, *empty_two) = first.values()
    assert empty_one == empty_two == [0, 0]
    for name in ("made", "claimed"):
        mine, theirs = getattr(one, name), getattr(two, name)
        assert mine and theirs and mine is not theirs


# ---------------------------------------------------------------------------
# the bitset kernel against the term-level equations: every word a search
# judges is read both ways


LEFT_OUT = ["every man saw some woman in paris",
            "every man that some woman saw ran"]


def _judged_words(run, *args):
    """The block-free words that ``run(*args)`` judges, with each one's
    context, in the order it judges them."""
    real, words = engine._may_match, []

    def collecting(s, word):
        words.append((s, word))
        return real(s, word)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_may_match", collecting)
        run(*args)
    return words


def _fresh(s):
    """A context like ``s`` whose memos are empty."""
    return engine._Search(s.lex, s.allow_vacuous, s.blocks_first)


def _both_ways(words):
    """``engine._matchings`` of each word by the bitset kernel, and by the
    term-level equations of ``matching_oracle``; the kernel must take every
    word that has a first-order reading.  Each way reads the words of one
    search in a fresh context of its own, which builds their atoms' tables
    anew: the search's context holds the tables it built."""
    real, refused = engine._bit_tables, []

    def tables(*args):
        found = real(*args)
        refused.append(found is None)
        return found

    def read(matchings):
        fresh = {s: _fresh(s) for s in dict.fromkeys(s for s, _ in words)}
        return [_listed(matchings(fresh[s], w)) for s, w in words]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_bit_tables", tables)
        kernel = read(engine._matchings)
    assert refused and not any(refused)
    return kernel, read(oracle.matchings)


def _listed(found):
    return None if found is None else list(found)


def _parse_scope_sentences(workloads, seeds):
    return list(dict.fromkeys(q.text for seed in seeds
                              for q in workloads.parse_scope_cycle(seed)))


def _judged_by(source, english, workloads):
    """The words that one source's searches judge, with their contexts."""
    if source != "random starts":
        sentences = {"english": QUANTIFIED + RELATIVES + PPS,
                     "parse-scope": _parse_scope_sentences(workloads,
                                                           range(1, 21)),
                     "left-out": LEFT_OUT}[source]
        return [w for sentence in sentences
                for w in _judged_words(parse, english, sentence.split(), LIM)]
    words = []
    for seed in (43, 5):
        rng = random.Random(seed)
        for _ in range(100):
            words += _judged_words(_search, _scoped_start(rng))
    rng = random.Random(41)
    for _ in range(200):
        words += _judged_words(_search, _ordered_start(rng))
    return words


@pytest.mark.parametrize("source", ["english", "parse-scope", "left-out",
                                    "random starts"])
def test_the_bitset_kernel_reads_every_judged_word_as_the_terms_do(
        english, bench_workloads, source):
    # equal lists: the same matchings, as sets and in number, in the same
    # order, each with the same survivor
    words = _judged_by(source, english, bench_workloads)
    kernel, terms = _both_ways(words)
    for (s, word), got, want in zip(words, kernel, terms):
        assert got == want, render_expr(word)
    assert sum(bool(m) for m in kernel if m is not None) > 100
    assert sum(m == [] for m in kernel) > 100


def _atom_set_results(run, *args):
    """Each atom set whose tables ``run(*args)`` asks ``engine._atom_set``
    for, with its context and the result: ``(s, atoms, tables)``."""
    real, results = engine._atom_set, []

    def atom_set(s, atoms):
        results.append((s, atoms, real(s, atoms)))
        return results[-1][2]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_atom_set", atom_set)
        run(*args)
    return results


def test_every_atom_set_a_search_builds_is_of_the_kernels_shape(
        english, bench_workloads, shape_fills):
    # the premise of one matching solver: a set of first-order readings
    # that the kernel cannot read is kept unjudged, and no search builds
    # one.  The sentences' sets all have tables; a seeded scoped start
    # may apply a variable to a variable or to two identifiers, whose set
    # has no first-order reading and no tables.  Vacuous abstraction
    # leaves out the two sentences that take a minute under it
    strings = set().union(*(_strings(generate(english, parse_term(text), LIM))
                            for text in shape_fills))
    sentences = list(dict.fromkeys(
        QUANTIFIED + RELATIVES + PPS
        + _parse_scope_sentences(bench_workloads, range(1, 11))
        + sorted(strings)))
    parsed = []
    for sentence in sentences + LEFT_OUT:
        parsed += _atom_set_results(parse, english, sentence.split(), LIM)
    for sentence in sentences:
        parsed += _atom_set_results(parse, english, sentence.split(),
                                    VACUOUS)
    for _, atoms, tables in parsed:
        assert tables is not None, render_expr(atoms)
    assert len(parsed) > 1000
    started = []
    for seed in (43, 5):
        rng = random.Random(seed)
        for _ in range(100):
            started += _atom_set_results(_search, _scoped_start(rng))
    rng = random.Random(41)
    for _ in range(200):
        started += _atom_set_results(_search, _ordered_start(rng))
    for s, atoms, tables in started:
        assert (tables is None) == (oracle.readings(s, atoms) is None), \
            render_expr(atoms)
    assert sum(tables is not None for _, _, tables in started) > 300
    assert sum(tables is None for _, _, tables in started) > 20


# ---------------------------------------------------------------------------
# the tables of an atom set (``engine._atom_set``): built once per start,
# and read through the atoms' indices in every order of the atoms


def _atom_sets_built(run, *args):
    """The atom sets whose tables ``run(*args)`` builds, in order, and the
    atom sets of its starts, each as a set of atom ids; and the number of
    words it judges."""
    real_set, real_match = engine._atom_set, engine._may_match
    real_search = engine._search
    built, starts, judged = [], [], [0]

    def atom_set(s, atoms):
        built.append(frozenset(map(id, atoms)))
        return real_set(s, atoms)

    def may_match(s, word):
        judged[0] += 1
        return real_match(s, word)

    def search(lex, mode, start, begin, lim):
        starts.extend(frozenset(_atom_ids(expr)) for _, expr in begin)
        return real_search(lex, mode, start, begin, lim)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_atom_set", atom_set)
        m.setattr(engine, "_may_match", may_match)
        m.setattr(engine, "_search", search)
        run(*args)
    return built, starts, judged[0]


def test_a_start_builds_its_tables_once(english):
    built, starts, judged = _atom_sets_built(
        parse, english, "every man saw some woman".split(), LIM)
    assert judged == 520
    assert built == starts and len(starts) == 1


@pytest.mark.parametrize("source", ["english", "scoped starts"])
def test_one_atom_set_serves_every_order_of_its_atoms(english, source):
    # each entering word judged in one context, whose tables were built
    # from the first word of its atom set, gets the list that a fresh
    # context gives it, in the same order
    if source == "english":
        words = [w for sentence in QUANTIFIED + RELATIVES + PPS
                 for w in _judged_words(parse, english, sentence.split(),
                                        LIM)]
    else:
        rng = random.Random(43)
        words = [w for _ in range(100)
                 for w in _judged_words(_search, _scoped_start(rng))]
    one = {}
    got, want = [], []
    for s, word in words:
        shared = one.setdefault(s.lex, _fresh(s))
        got.append(engine._may_match(shared, word))
        want.append(engine._may_match(_fresh(s), word))
    for (_, word), g, w in zip(words, got, want):
        assert g == w, render_expr(word)
    assert 10 * sum(len(s.atom_sets) for s in one.values()) < len(words)
    assert sum(bool(m) and m is not True for m in got) > 100
    assert sum(m == [] for m in got) > 100


def test_an_ordered_parse_makes_no_cancel_from_a_state_with_a_block(
        english, monkeypatch):
    real = engine._cancel_successors
    seen = []

    def guarded(s, node):
        assert s.blocks_first and not node.has_blocks, render_expr(node.expr)
        seen.append(node)
        return real(s, node)

    monkeypatch.setattr(engine, "_cancel_successors", guarded)
    assert parse(english, "every man that louise saw ran".split(), LIM).results
    rng = random.Random(43)
    for _ in range(50):
        _search(_scoped_start(rng))
    assert seen


def _placements(monkeypatch):
    """Record whether each state with a block that the search expands gets
    its bundles alone, blocks first (True), or every bundle beside its
    cancels (False)."""
    real = engine._block_successors
    firsts = []

    def blocks(s, node):
        firsts.append(s.blocks_first)
        return real(s, node)

    monkeypatch.setattr(engine, "_block_successors", blocks)
    return firsts


def test_a_start_that_is_not_ordered_gets_every_placement(monkeypatch):
    # _random_start's negative atoms are compound terms, never bare
    # variables: a cancel may bind an atom ground next to its inverse, which
    # then cancels eagerly.  Such a start is ordered only when normalizing
    # it leaves no negative atom
    firsts = _placements(monkeypatch)
    rng = random.Random(11)
    for _ in range(50):
        start = normalize(_random_start(rng))
        if not engine._ordered_word(start):
            _search(start)
    assert len(firsts) > 50 and not any(firsts)


def test_a_start_past_the_size_limit_gets_every_placement(
        english, monkeypatch, reference):
    # the start has 15 items, a block counting one: its bundles have 14
    words = "every man saw some woman".split()
    firsts = _placements(monkeypatch)
    for max_items, first, truncated in ((13, False, True), (14, True, False)):
        lim = SearchLimits(max_items=max_items)
        pruned = parse(english, words, lim)
        assert firsts and set(firsts) == {first}
        assert pruned.truncated == truncated
        _agree(pruned, reference(parse, english, words, lim), english)
        assert _readings(pruned) == {"ev(m,#x1,sm(w,#x2,s(#x1,#x2)))",
                                     "sm(w,#x1,ev(m,#x2,s(#x2,#x1)))"}
        firsts.clear()


# ---------------------------------------------------------------------------
# supported pairs (``engine._supported``): the tables of an atom set of the
# bitset kernel's shape with two negative applications or more, the atoms of
# a start with two blocks or more, keep only the partner pairs that some
# order-free valid matching of the atoms holds, as far as a search of
# ``engine._SUPPORT_BUDGET`` nodes tells


def _start_of(lex, sentence):
    """The one start of the parse of ``sentence``, left unsearched."""
    starts = []

    def search(lex, mode, start, begin, lim):
        starts.extend(expr for _, expr in begin)
        return engine.EngineResult((), False)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_search", search)
        parse(lex, sentence.split(), LIM)
    (start,) = starts
    return start


def _start_atoms(start):
    return tuple(i for _, items in engine._levels(start) for i in items
                 if isinstance(i, Atom))


def _relation(atoms, partners):
    """A partner relation over ``atoms`` as pairs of indices, the negative
    atom first."""
    return {(a, b) for a, bs in enumerate(partners) for b in bs
            if atoms[a].sign < 0}


def _may_cancel_relation(s, atoms):
    """The pairs of ``atoms`` that ``engine._may_cancel`` keeps, as
    ``_relation`` gives them."""
    reads = [engine._first_order(a)[0] for a in atoms]
    return {(a, b) for a, x in enumerate(atoms) for b, y in enumerate(atoms)
            if x.sign < 0 < y.sign
            and engine._may_cancel(s, x, y, reads[a], reads[b])}


def _rendered(atoms, pairs):
    return {(render_expr((atoms[a],)), render_expr((atoms[b],)))
            for a, b in pairs}


def _built_sets(m):
    """Record, through the monkeypatch ``m``, each atom set whose tables
    ``engine._atom_set`` builds: the returned list gets ``(context, atoms,
    tables, searched)``, ``searched`` saying whether the tables ran
    ``engine._supported``."""
    real_set, real_supported = engine._atom_set, engine._supported
    built, searched = [], [False]

    def atom_set(s, atoms):
        searched[0] = False
        tables = real_set(s, atoms)
        built.append((s, atoms, tables, searched[0]))
        return tables

    def supported(*args):
        searched[0] = True
        return real_supported(*args)

    m.setattr(engine, "_atom_set", atom_set)
    m.setattr(engine, "_supported", supported)
    return built


def _parse_relation(lex, sentence):
    """The context of the parse of ``sentence``, the atoms of the one atom
    set whose tables it builds, in their order there, their partner
    relation, and whether the tables ran the support search."""
    with pytest.MonkeyPatch.context() as m:
        built = _built_sets(m)
        parse(lex, sentence.split(), LIM)
    [(s, atoms, tables, searched)] = built
    return s, atoms, _relation(atoms, tables.partners), searched


def _counting_nodes(m):
    """Count the nodes of the support search: the calls of
    ``engine._extend``, which calls itself through the module."""
    real, nodes = engine._extend, [0]

    def extend(*args):
        nodes[0] += 1
        return real(*args)

    m.setattr(engine, "_extend", extend)
    return nodes


# the pairs that no order-free valid matching of a start holds
UNSUPPORTED = {
    # a quantifier's restrictor N takes the noun, never the identifier, the
    # verb or the other quantifier; the verb's arguments take neither
    # quantifier
    "every man saw some woman": {
        ("N_1^-1", "#x1_1"), ("N_1^-1", "s(A_3,B_3)"),
        ("N_1^-1", "sm(N_4,#x4_1,P_4[#x4_1])"),
        ("A_3^-1", "ev(N_1,#x1_1,P_1[#x1_1])"),
        ("A_3^-1", "sm(N_4,#x4_1,P_4[#x4_1])"),
        ("B_3^-1", "ev(N_1,#x1_1,P_1[#x1_1])"),
        ("B_3^-1", "sm(N_4,#x4_1,P_4[#x4_1])"),
        ("N_4^-1", "ev(N_1,#x1_1,P_1[#x1_1])"), ("N_4^-1", "s(A_3,B_3)"),
        ("N_4^-1", "#x4_1")},
    "every man that john saw ran": {("N_1^-1", "#x1_1"),
                                    ("N_3^-1", "#x3_1")},
}


@pytest.mark.parametrize("sentence, supported, pairs", [
    ("every man saw some woman", True, 28),
    ("every man that john saw ran", True, 41),
    # one block: no support search
    ("john saw every man in paris", False, 32),
])
def test_a_start_keeps_its_supported_pairs(english, sentence, supported,
                                           pairs):
    s, atoms, kept, searched = _parse_relation(english, sentence)
    assert searched is supported
    every = _may_cancel_relation(s, atoms)
    assert len(every) == pairs and kept <= every
    assert _rendered(atoms, every - kept) == UNSUPPORTED.get(sentence, set())


def test_a_context_built_directly_drops_the_same_pairs(english):
    # the atom set decides the support search, not the context: a context
    # built directly drops the two-block start's 10 pairs, as its parse
    # does, and keeps every pair of a one-block start
    sentence = "every man saw some woman"
    atoms = _start_atoms(_start_of(english, sentence))
    s = engine._Search(english, blocks_first=True)
    assert engine._may_match(s, atoms) == []
    [(_, tables)] = s.atom_sets.values()
    every = _may_cancel_relation(s, atoms)
    kept = _relation(atoms, tables.partners)
    assert kept <= every
    assert _rendered(atoms, every - kept) == UNSUPPORTED[sentence]
    atoms = _start_atoms(_start_of(english, "john saw every man in paris"))
    tables = engine._atom_set(s, atoms)
    assert _relation(atoms, tables.partners) == _may_cancel_relation(s, atoms)


def test_supported_pairs_change_no_verdict(english):
    # every word that the searches judge gets, in a fresh context whose
    # support search keeps every pair, the same matchings in the same order
    real, judged = engine._may_match, []

    def may_match(s, word):
        judged.append((s, word, real(s, word)))
        return judged[-1][2]

    with pytest.MonkeyPatch.context() as m:
        built = _built_sets(m)
        m.setattr(engine, "_may_match", may_match)
        for sentence in QUANTIFIED + RELATIVES + PPS:
            parse(english, sentence.split(), LIM)
        for seed in (37, 29):
            rng = random.Random(seed)
            for _ in range(150):
                _search(_scoped_start(rng))
    searched = {frozenset(map(id, atoms)) for _, atoms, _, ran in built
                if ran}
    fresh = {s: _fresh(s) for s in dict.fromkeys(s for s, _, _ in judged)}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_supported", lambda partners, signs, kernel:
                  partners)
        for s, word, got in judged:
            assert real(fresh[s], word) == got, render_expr(word)
        gated = [got for _, word, got in judged
                 if frozenset(map(id, word)) in searched]
        assert sum(m == [] for m in gated) > 1000
        assert sum(bool(m) and m is not True for m in gated) > 100
        # the atom sets whose tables drop a pair
        assert sum(tables.partners != engine._atom_set(fresh[s], word).partners
                   for s in fresh
                   for word, tables in s.atom_sets.values()
                   if frozenset(map(id, word)) in searched) > 100


@pytest.mark.parametrize("budget", [0, 10, 100, 1000])
def test_a_spent_budget_keeps_the_pairs_it_did_not_settle(
        english, monkeypatch, budget):
    # the two-quantifier start settles its 28 pairs in 579 nodes, the
    # relative one its 41 in 1,979; with fewer, each pair not settled is
    # kept, and readings and derivations stay
    want = {sentence: parse(english, sentence.split(), LIM)
            for sentence in UNSUPPORTED}
    monkeypatch.setattr(engine, "_SUPPORT_BUDGET", budget)
    nodes = _counting_nodes(monkeypatch)
    for sentence, unsupported in UNSUPPORTED.items():
        nodes[0] = 0
        s, atoms, kept, searched = _parse_relation(english, sentence)
        assert searched and nodes[0] <= budget
        every = _may_cancel_relation(s, atoms)
        assert kept <= every
        assert _rendered(atoms, every - kept) <= unsupported
        if budget == 0:
            assert kept == every
        _same_results(parse(english, sentence.split(), LIM), want[sentence])


def test_the_three_binder_start_spends_at_most_the_budget(english,
                                                          monkeypatch):
    # settling every pair of this start takes 100,286,889 nodes, and shows
    # four unsupported, each restrictor N_k against its own #xk_1; within
    # the budget the search settles none of them, and keeps them
    atoms = _start_atoms(_start_of(
        english, "every man saw some woman that every man saw"))
    nodes = _counting_nodes(monkeypatch)
    s = engine._Search(english, blocks_first=True)
    tables = engine._atom_set(s, atoms)
    assert 0 < nodes[0] <= engine._SUPPORT_BUDGET
    every = _may_cancel_relation(s, atoms)
    assert len(every) == 116
    assert _relation(atoms, tables.partners) == every


def test_the_support_search_runs_on_the_sets_of_two_block_starts(
        english, bench_workloads):
    # the atom set decides: its tables run the search exactly when its start
    # holds two blocks or more, over the corpora and the benchmark's
    # parse-scope cycles
    sentences = QUANTIFIED + RELATIVES + PPS + [
        q.text for seed in range(1, 11)
        for q in bench_workloads.parse_scope_cycle(seed)]
    real_search, starts = engine._search, []

    def search(lex, mode, start, begin, lim):
        starts.extend(expr for _, expr in begin)
        return real_search(lex, mode, start, begin, lim)

    with pytest.MonkeyPatch.context() as m:
        built = _built_sets(m)
        m.setattr(engine, "_search", search)
        for sentence in sentences:
            parse(english, sentence.split(), LIM)
    # the starts, held in ``starts``, hold every atom whose id is keyed here
    blocks = {frozenset(map(id, _start_atoms(expr))):
              sum(1 for _ in engine._levels(expr)) - 1 for expr in starts}
    sets = {frozenset(map(id, atoms)) for _, atoms, _, _ in built}
    searched = {frozenset(map(id, atoms)) for _, atoms, _, ran in built
                if ran}
    assert sets <= blocks.keys()
    assert searched == {key for key in sets if blocks[key] >= 2}
    assert len(searched) > 50 and len(sets - searched) > 20


def _random_kernel_set(rng):
    """A small atom set of the bitset kernel's shape, in a random order: one
    to three negative atoms, each a variable of its own, bare or an
    application to an identifier, and one positive atom more, each no
    variable, over those variables, two identifiers, a constant and a free
    variable; now and then one positive atom more still, which leaves no
    valid matching."""
    negatives = [f"P{i}[{rng.choice(('#a', '#b'))}]" if rng.random() < 0.5
                 else f"V{i}" for i in range(rng.randint(1, 3))]
    leaves = negatives + ["#a", "#b", "c", "Z"]

    def term(depth):
        r = rng.random()
        if depth and r < 0.3:
            return f"f({term(depth - 1)},{term(depth - 1)})"
        if depth and r < 0.5:
            return f"g({term(depth - 1)})"
        return rng.choice(leaves)

    positives = []
    for _ in range(len(negatives) + 1 + (rng.random() < 0.1)):
        top = rng.random()
        positives.append(f"f({term(1)},{term(1)})" if top < 0.4
                         else f"g({term(2)})" if top < 0.7
                         else rng.choice(("#a", "#b", "c")))
    atoms = [Atom(parse_term(t), -1) for t in negatives]
    atoms += [Atom(parse_term(t)) for t in positives]
    rng.shuffle(atoms)
    return tuple(atoms)


def _assign(m, negatives, positives, read, bound, pairs, found):
    """Bind the negative atoms from the ``m``-th on, each to a distinct
    positive atom of ``positives`` by the pair's term-level equation, and
    add to ``found`` the pairs of each complete assignment whose one
    positive atom left is ground under the binding and whose applications
    are bound well (``matching_oracle._bound_well``); ``read`` holds the
    atoms' ``(terms, checks)`` (``matching_oracle.readings``)."""
    terms, checks = read
    if m == len(negatives):
        (k,) = positives
        if _resolve(terms[k], bound, {}).ground and all(
                oracle._bound_well(var, x, bound) for var, x in checks):
            found.update(pairs)
        return
    i = negatives[m]
    for j in positives:
        size = len(bound)
        if _bind(terms[i], terms[j], bound):
            pairs.append((i, j))
            _assign(m + 1, negatives, positives - {j}, read, bound, pairs,
                    found)
            pairs.pop()
        while len(bound) > size:  # _bind only adds variables
            bound.popitem()


def _support_oracle(s, atoms):
    """The pairs, negative atom first, of every order-free valid matching
    of an atom set in the context ``s``: each negative atom paired with a
    distinct positive atom, partner or not, one positive atom left, and the
    pairs' equations solved over the first-order readings' terms, never
    over the bit tables."""
    negatives = [i for i, a in enumerate(atoms) if a.sign < 0]
    positives = frozenset(j for j, a in enumerate(atoms) if a.sign > 0)
    found: set = set()
    if len(positives) == len(negatives) + 1:
        _assign(0, negatives, positives, oracle.readings(s, atoms), {}, [],
                found)
    return found


def _all_pair_tables(s, atoms):
    """The tables of ``atoms`` with the support search keeping every pair."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_supported", lambda partners, signs, kernel:
                  partners)
        tables = engine._atom_set(s, atoms)
    assert tables is not None
    return tables


def _kept_pairs(tables):
    """The pairs that ``engine._supported`` keeps of ``tables``, negative
    atom first."""
    kept = engine._supported(tables.partners, tables.signs, tables.kernel)
    return {(a, b) for a, bs in enumerate(kept) for b in bs
            if tables.signs[a] < 0}


@pytest.fixture(scope="module")
def support_cases(english):
    """Atom sets of the kernel's shape, seeded small ones and the two pinned
    starts, each with its oracle's pairs as pairs of atom ids."""
    rng = random.Random(39)
    sets = [_random_kernel_set(rng) for _ in range(300)]
    sets += [_start_atoms(_start_of(english, sentence))
             for sentence in UNSUPPORTED]
    cases = []
    for atoms in sets:
        pairs = _support_oracle(engine._Search(english), atoms)
        cases.append((atoms, {(id(atoms[a]), id(atoms[b]))
                              for a, b in pairs}))
    return cases


def _ids(atoms, pairs):
    return {(id(atoms[a]), id(atoms[b])) for a, b in pairs}


def test_supported_pairs_are_the_oracles(english, monkeypatch,
                                         support_cases):
    # with the budget unspent the search keeps exactly the pairs of the
    # order-free valid matchings, a subset of the partners
    nodes = _counting_nodes(monkeypatch)
    dropped = 0
    for atoms, want in support_cases:
        tables = _all_pair_tables(engine._Search(english), atoms)
        every = _ids(atoms, _relation(atoms, tables.partners))
        nodes[0] = 0
        kept = _ids(atoms, _kept_pairs(tables))
        assert nodes[0] < engine._SUPPORT_BUDGET
        assert kept == want and want <= every, render_expr(atoms)
        dropped += kept != every
    assert sum(bool(want) for _, want in support_cases) > 100
    assert dropped > 100


@pytest.mark.parametrize("budget", [0, 10, 100])
def test_a_spent_budget_keeps_the_oracles_pairs(english, monkeypatch,
                                                support_cases, budget):
    monkeypatch.setattr(engine, "_SUPPORT_BUDGET", budget)
    for atoms, want in support_cases:
        tables = _all_pair_tables(engine._Search(english), atoms)
        every = _ids(atoms, _relation(atoms, tables.partners))
        assert want <= _ids(atoms, _kept_pairs(tables)) <= every, \
            render_expr(atoms)


def test_the_supported_pairs_do_not_depend_on_the_atoms_order(
        english, support_cases):
    rng = random.Random(39)
    for atoms, _ in support_cases:
        shuffled = tuple(rng.sample(atoms, len(atoms)))
        got = [_ids(order, _kept_pairs(
            _all_pair_tables(engine._Search(english), order)))
            for order in (atoms, shuffled)]
        assert got[0] == got[1], render_expr(atoms)


# ---------------------------------------------------------------------------
# the search's own steps, each checked as replay checks it


@pytest.fixture
def checked(monkeypatch):
    """Call a function with ``apply_step``'s checks run on every step the
    search applies unchecked; ``run.applied`` collects the steps checked.  A
    step that fails its checks fails the test."""
    real = engine._apply

    def checking(lex, expr, step, *memos, **kw_memos):
        # apply_step is called with no memo: the comparison with the
        # unchecked search is also one of the memos against none
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
# generations' key counts were taken again when generation came to expand
# one atom per state, with every digest unchanged; the full search keys 6,
# 9, 17, 3, 3, 11, 5, 32, 17, 9, 6, 45, 17 and 19 states for them.  The
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
    "generate ev(m,#x,r(#x))": ("fd8c76b97098e086", 4),
    "generate ev(w,#x,s(#x,p))": ("700a495a01800c34", 5),
    "generate i(ev(m,#x,r(#x)),j)": ("eb72dc39acaf1111", 6),
    "generate r(j)": ("b884ee5b63ddefc4", 3),
    "generate r(p)": ("4088285772a462e4", 3),
    "generate r(t(tt(w,#x,s(#x,p))))": ("cdc7b48a325bed1b", 7),
    "generate s(j,j)": ("38356bdfcc391852", 4),
    "generate s(t(w),t(i(m,j)))": ("f53cfb163dd153d3", 8),
    "generate sm(m,#x,s(j,#x))": ("970e5c7e339ddedd", 8),
    "generate sm(w,#x,s(#x,j))": ("8e31620ac5726349", 5),
    "generate s(j,l)": ("ca16e6aaa2b55e59", 4),
    "generate ev(m,#x,sm(w,#y,s(#x,#y)))": ("d6155134c72219c7", 10),
    "generate i(s(j,l),p)": ("d03e0349132bb288", 6),
    "generate r(t(tt(m,#x,s(l,#x))))": ("9af0776ef02fe3b1", 10),
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

# sha256 prefixes of each query's readings and rendered derivations: the
# derivations found when each answer was still replayed on its own from the
# empty expression, whose text changed where each rule copy came to be
# named by its number (instance=), and again, for every parse, where parses
# came to dissolve every block before any cancel (CHANGES.md lists the
# digests before that)
DERIVATION_DIGESTS = {
    "every man saw every man": "1bc44c438a41980c",
    "every man saw every woman": "e1729d4f2fd20855",
    "every man saw some man": "68e3e8c6bd95c453",
    "every man saw some woman": "f0d9b6cb1166b53f",
    "every woman saw every man": "80a997fa0ea41949",
    "every woman saw every woman": "f50ba6f943b6e7de",
    "every woman saw some man": "927cd4fd70abe096",
    "every woman saw some woman": "f0333d0a7fc6aa6d",
    "some man saw every man": "35f0fd207d7b72cc",
    "some man saw every woman": "c9b65a54ee06a6b2",
    "some man saw some man": "6f4b234257843ca2",
    "some man saw some woman": "9ba91ba1bcd8c38d",
    "some woman saw every man": "d9d328dad5105d2b",
    "some woman saw every woman": "f1217d7e0d9cb986",
    "some woman saw some man": "0edd593e2a64d414",
    "some woman saw some woman": "82e10a9e1295c6ca",
    "every man that john saw ran": "27ae2d5d40508bbe",
    "every man that louise saw ran": "8914473a1bfcbea4",
    "every man that paris saw ran": "e148b70abaa7a560",
    "the man that john saw ran": "c051c8581a11b5a8",
    "the man that louise saw ran": "12ce994466347315",
    "the man that paris saw ran": "2529a91defd562b5",
    "john saw some woman in john": "0d7d2451f647acba",
    "john saw some woman in louise": "ca2ca9bd59e05c0d",
    "john saw some woman in paris": "c8d8c91260f24f53",
    "louise saw some woman in john": "7c93d1fc0fa7febc",
    "louise saw some woman in louise": "21a62f66679234fa",
    "louise saw some woman in paris": "41c536e585d79698",
    "paris saw some woman in john": "355bd5bf77caff98",
    "paris saw some woman in louise": "707ee89d0a338d86",
    "paris saw some woman in paris": "51154ec8e9f7f68e",
    "family.lp": "3d33ab38972da75f",
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


# blocks-first parses that the corpora above lack, a quantifier beside two
# phrases or two quantifiers beside one: (reading count, ``_digest``),
# computed before the block phase judged its words over tables built once
# per start
BLOCKS_FIRST_DIGESTS = {
    "every man in paris saw the woman in john": (18, "c990f3b287a3efa5"),
    "john saw every man in paris in louise": (19, "208f8ca4ef795660"),
    "every man saw some woman in paris": (13, "38a5f5eb84a99890"),
}


@pytest.mark.parametrize("sentence", list(BLOCKS_FIRST_DIGESTS))
def test_blocks_first_derivations_are_unchanged(english, sentence):
    res = parse(english, sentence.split(), LIM)
    assert not res.truncated
    assert (len(res.results), _digest(res)) == BLOCKS_FIRST_DIGESTS[sentence]
    for _, d in res.results:
        assert engine.replay(english, d) == d.end


# ---------------------------------------------------------------------------
# the pair-unifier memo (by atom identity) changes nothing that the search
# does


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

    def fresh(s, a, b):
        return unify(a.payload, b.payload, EMPTY_BINDING, s.allow_vacuous)

    monkeypatch.setattr(engine, "_pair_unifiers", fresh)
    res, keys = _keyed_parse(english, monkeypatch, sentence)
    assert keys == memo_keys
    assert _digest(res) == _digest(memo) == DERIVATION_DIGESTS[sentence]


# ---------------------------------------------------------------------------
# substitutions shared within one search: a cancel substitutes each atom
# object under each unifier object once, and its siblings share the result


def _distinct_atoms(monkeypatch):
    """Fail the search if any state it keys holds one atom object twice: the
    search's memos share result atoms between states by identity, and hold
    the objects whose ids they use, so they never merge two distinct atoms,
    even equal ones."""
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

    def cancels(s, node):
        if not any(m is s.substitutions for m in memos):
            memos.append(s.substitutions)
        return real_cancels(s, node)

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


# ---------------------------------------------------------------------------
# generation: one expansion order, blocks placed only where nothing expands,
# against the full search of a lexicon whose expansions are not local

# the form that keys the most states in the full search (572,612)
TWO_BINDERS = "ev(tt(m,#x1,sm(w,#x2,s(#x2,#x1))),#x3,r(#x3))"
# forms that bind one identifier twice, which the argument in
# ``_expand_successors`` leaves out
REBOUND = ["ev(tt(m,#x,r(#x)),#x,r(#x))", "ev(m,#x,ev(w,#x,s(#x,#x)))",
           "s(t(tt(m,#x,r(#x))),t(tt(w,#x,r(#x))))"]


@pytest.fixture
def full_generation(monkeypatch):
    """Call ``generate`` with the full search: every expansion of every atom
    and every bundle at every state, as in a lexicon whose expansions are
    not local."""

    def run(lex, lf, lim=LIM):
        with monkeypatch.context() as m:
            m.setattr(engine._tables(lex), "local_expansions", False)
            return generate(lex, lf, lim)

    return run


def _strings(res):
    return {" ".join(words) for words, _ in res.results}


def _generates_like_the_full_search(full_generation, lex, text, lim=LIM):
    lf = parse_term(text)
    reduced = generate(lex, lf, lim)
    full = full_generation(lex, lf, lim)
    assert (_strings(reduced), reduced.truncated) == \
        (_strings(full), full.truncated), text
    for _, d in reduced.results:
        replay(lex, d)
    return reduced, full


@functools.lru_cache(maxsize=None)
def _often():
    return encode_dcg(*parse_dcg((GRAMMAR_DIR / "often.dcg").read_text()))


def test_the_shipped_grammars_have_local_expansions(english):
    for lex in (english, _commutative_lexicon(), _often()):
        assert engine._tables(lex).local_expansions


@pytest.mark.parametrize("text", _seeded_forms() + [TWO_BINDERS] + REBOUND)
def test_generation_matches_the_full_search(english, full_generation, text):
    reduced, _ = _generates_like_the_full_search(full_generation, english,
                                                 text)
    assert reduced.results


def test_every_shape_fill_generates_like_the_full_search(
        english, full_generation, shape_fills):
    for text in shape_fills:
        _generates_like_the_full_search(full_generation, english, text)


@pytest.mark.parametrize("query", [q for q in COMMUTATIVE_PINS
                                   if q.startswith("generate ")])
def test_commutative_generation_matches_the_full_search(full_generation,
                                                       query):
    # the representatives too: the full search's results have the digest
    # pinned for the reduced one
    text = query.partition(" ")[2]
    _, full = _generates_like_the_full_search(
        full_generation, _commutative_lexicon(), text)
    assert _results_digest(full) == COMMUTATIVE_PINS[query][0]


@pytest.mark.parametrize("limit", range(6, 13))
def test_looping_generation_matches_the_full_search(full_generation, limit):
    reduced, _ = _generates_like_the_full_search(
        full_generation, _often(), "sent", SearchLimits(max_expansions=limit))
    assert reduced.truncated and reduced.results


# y(A) brings in A^-1, which is no identifier: the reduction would expand x
# first, into a, and x^-1 could then never cancel
NOT_LOCAL = """
phon a tok .
relator A^-1 s(A) y(A)^-1 .
relator A y(A) tok^-1 .
relator x a^-1 .
"""


def test_a_lexicon_whose_expansions_are_not_local_runs_the_full_search(
        monkeypatch):
    lex = parse_grammar(NOT_LOCAL, raw_mode=True)
    tables = engine._tables(lex)
    assert not tables.local_expansions
    res = generate(lex, parse_term("s(x)"), LIM)
    assert _strings(res) == {"tok"}
    monkeypatch.setattr(tables, "local_expansions", True)
    assert _strings(generate(lex, parse_term("s(x)"), LIM)) == set()


@pytest.mark.parametrize("text", [
    # a negative token on a right side
    "phon a .\nrelator f a .\n",
    # a negative logical item that is no identifier
    "phon a .\nrelator A g(A) a^-1 .\n",
    # a head with the key *, an application
    "phon a .\nrelator P[X] a^-1 .\n",
    # an abstraction variable the head does not bind
    "phon a .\nrelator f(X) Q[X]^-1 a^-1 .\n",
    # X^-1 on a right side, but P applied twice in the head: P[Y] fixes P,
    # and P[X] may then bind X to a constant
    "phon a .\nrelator X f(P[Y],P[X]) a^-1 .\n",
])
def test_expansions_that_may_not_be_local(text):
    assert not engine._tables(parse_grammar(text, raw_mode=True)).local_expansions


# ---------------------------------------------------------------------------
# round-trip oracle: a string is generated from a form exactly when the form
# is a reading of the string


def test_generation_and_parsing_agree_on_every_shape_fill(english,
                                                          shape_fills):
    forms = shape_fills + ["ev(m,#x1,sm(w,#x2,s(#x1,#x2)))",
                           "sm(w,#x2,ev(m,#x1,s(#x1,#x2)))",
                           "r(t(tt(m,#x1,sm(w,#x2,s(#x2,#x1)))))"]
    generated = {}
    for text in forms:
        res = generate(english, parse_term(text), LIM)
        assert res.results and not res.truncated, text
        generated[text] = _strings(res)
    readings = {}
    for string in set().union(*generated.values()):
        res = parse(english, string.split(), LIM)
        assert not res.truncated, string
        readings[string] = _readings(res)
    for text in forms:
        canonical = render_term(canonical_identifiers(parse_term(text)))
        for string, found in readings.items():
            assert (string in generated[text]) == (canonical in found), \
                (text, string)
