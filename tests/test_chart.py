"""The chart against the breadth-first search it stands in for.

A parse search whose every start is a first-order block-free word (no block,
no token, no application) that meets ``engine._ordered_word`` is decided by
the chart: it enumerates the non-crossing matchings of the start's atoms and
builds one chain of cancels per reading.  Turning the chart off, by making
its gate ``engine._chart_word`` refuse every start, runs the breadth-first
search on the same input.  Both must find the same readings and agree on
truncation, and every derivation the chart builds must replay on its own.
"""

import functools
import random

import pytest

from ggroup import engine
from ggroup.engine import SearchLimits, generate, parse, render_expr, replay
from ggroup.lexicon import gen_rules, parse_grammar
from ggroup.term import (
    Binding, canonical_identifiers, parse_term, render_term, substitute,
)

from test_homonyms import ENGLISH, HOMONYM
from test_search_reference import NAMES, PPS, RAW, _digest, _ordered_start

LIM = SearchLimits()


def _readings(res):
    return {render_term(p) for p, _ in res.results}


def _breadth_first(monkeypatch, search, *args):
    with monkeypatch.context() as m:
        m.setattr(engine, "_chart_word", lambda expr: False)
        return search(*args)


def _charted(monkeypatch, search, *args):
    """The search's result, and whether the chart decided it."""
    real, calls = engine._chart, []

    def counting(*chart_args):
        calls.append(chart_args)
        return real(*chart_args)

    with monkeypatch.context() as m:
        m.setattr(engine, "_chart", counting)
        return search(*args), bool(calls)


def _replays(lex, res):
    for term, d in res.results:
        assert replay(lex, d) == d.end
        assert len(d.end) == 1
        assert render_term(canonical_identifiers(d.end[0].payload)) == \
            render_term(term)


def _agree(monkeypatch, lex, words, lim=LIM):
    """Compare the two searches on one sentence; whether the chart ran."""
    got, charted = _charted(monkeypatch, parse, lex, words, lim)
    want = _breadth_first(monkeypatch, parse, lex, words, lim)
    assert _readings(got) == _readings(want), " ".join(words)
    assert got.truncated == want.truncated, " ".join(words)
    _replays(lex, got)
    return charted


FIRST_ORDER_PPS = [f"{a} saw the woman in {b}" for a in NAMES for b in NAMES] \
    + [f"the man in {a} saw {b}" for a in NAMES for b in NAMES]


@pytest.mark.parametrize("sentence", PPS + FIRST_ORDER_PPS)
def test_prepositional_phrases_read_like_the_search(english, monkeypatch,
                                                   sentence):
    # a quantifier's instance holds an application, which keeps the chart
    # off; the other sentences are first-order
    charted = _agree(monkeypatch, english, sentence.split())
    assert charted == ("some" not in sentence)


def test_every_first_order_shape_fill_reads_like_the_search(
        english, monkeypatch, shape_fills):
    forms = [text for text in shape_fills if "#" not in text]
    assert len(forms) > 400
    for text in forms:
        strings = generate(english, parse_term(text), LIM).results
        assert strings, text
        for words, _ in strings:
            assert _agree(monkeypatch, english, words), text


@pytest.mark.parametrize("sentence", [
    "john saw louise in paris",
    "louise saw the man in paris",
    "john saw louise in paris in paris",
    "the man in paris saw the woman in louise",
])
def test_homonyms_read_like_the_search(monkeypatch, sentence):
    # every assignment of rules to the homonym is a start of its own; the
    # last sentence has 76 readings, more than the default limit
    assert _agree(monkeypatch, HOMONYM, sentence.split(),
                  SearchLimits(max_results=100))


def _random_lexicon(rng):
    """A first-order lexicon of five words.  Each relator is a head term
    with bare negative variables on both sides of it, each variable once,
    then its word inverted; a head may repeat a variable or nest a term, and
    a word may have a second relator (a homonym)."""
    words = [f"w{k}" for k in range(5)]
    lines = ["phon " + " ".join(words) + " ."]
    for k, word in enumerate(words):
        for n in range(2 if rng.random() < 0.2 else 1):
            arity = 0 if k == 0 else rng.randint(0, 2)
            names = [f"V{i}" for i in range(arity)]
            args = list(names)
            if args and rng.random() < 0.2:
                args.append(rng.choice(names))
            if args and rng.random() < 0.2:
                args[0] = f"g({args[0]})"
            head = f"h{k}{n}({','.join(args)})" if args else f"c{k}{n}"
            rng.shuffle(names)
            cut = rng.randint(0, len(names))
            items = [f"{v}^-1" for v in names[:cut]] + [head] \
                + [f"{v}^-1" for v in names[cut:]] + [f"{word}^-1"]
            lines.append("relator " + " ".join(items) + " .")
    return parse_grammar("\n".join(lines) + "\n")


def _random_form(rng, heads, size):
    """A ground form over the lexicon's heads with at most ``size[0]``
    heads; leaves once the budget runs out."""
    size[0] -= 1
    inner = [h for h in heads if h.metas] if size[0] > 0 else []
    head = rng.choice(inner or [h for h in heads if not h.metas])
    fill = {v: _random_form(rng, heads, size) for v in sorted(head.metas)}
    return substitute(head, Binding(fill, {}))


# homonyms multiply the readings of a random lexicon's sentences
WIDE = SearchLimits(max_results=1000)


def test_random_first_order_lexicons_read_like_the_search(monkeypatch):
    rng = random.Random(23)
    charted = sentences = 0
    for n in range(30):
        lex = _random_lexicon(rng)
        heads = [r.lhs for r in gen_rules(lex)]
        for _ in range(4):
            form = _random_form(rng, heads, [rng.randint(1, 5)])
            for words, _ in generate(lex, form, LIM).results[:3]:
                sentences += 1
                try:
                    charted += _agree(monkeypatch, lex, words, WIDE)
                except AssertionError as e:
                    raise AssertionError(f"lexicon {n}: {' '.join(words)}") \
                        from e
    assert sentences > 100
    assert charted == sentences


def test_random_first_order_words_read_like_the_search(monkeypatch):
    # the random ordered starts (``_ordered_start``) that hold no block and
    # no application
    rng = random.Random(43)
    charted = found = 0
    for _ in range(2000):
        start = _ordered_start(rng)
        if not engine._chart_word(start):
            continue
        search = functools.partial(engine._search, RAW, "parse", start, ())
        got, ran = _charted(monkeypatch, search, LIM)
        want = _breadth_first(monkeypatch, search, LIM)
        assert ran
        assert (_readings(got), got.truncated) == \
            (_readings(want), want.truncated), render_expr(start)
        _replays(RAW, got)
        charted += 1
        found += bool(got.results)
    assert charted > 250
    assert found > charted // 2


# the english fragment with a second relator for ``in`` whose arguments come
# in the other order: a symmetric phrase reads the same from either
# relator, so readings repeat across the starts (20 matchings, 9 and 10
# readings); ``HOMONYM``'s readings differ by relator and never repeat
MIRRORED = parse_grammar(ENGLISH + "relator A^-1 i(E,A) E^-1 in^-1 .\n")


@pytest.mark.parametrize("lex, sentence, count, limits", [
    (None, "john saw the man in paris in the woman", 9, range(1, 11)),
    (HOMONYM, "the man in paris saw the woman in louise", 76,
     (1, 2, 75, 76, 77)),
    (MIRRORED, "john in john saw john in john", 9, range(1, 11)),
    (MIRRORED, "john saw john in john in john", 10, range(1, 12)),
], ids=["english", "homonym", "mirrored", "mirrored-right"])
def test_a_result_limit_truncates_like_the_search(english, monkeypatch, lex,
                                                 sentence, count, limits):
    lex = lex or english
    words = sentence.split()
    every = _readings(parse(lex, words, SearchLimits(max_results=1000)))
    assert len(every) == count
    for limit in limits:
        # below the count the readings kept may differ, their number may
        # not; at it both searches stop at the last reading, and above it
        # nothing is cut
        lim = SearchLimits(max_results=limit)
        got, charted = _charted(monkeypatch, parse, lex, words, lim)
        want = _breadth_first(monkeypatch, parse, lex, words, lim)
        assert charted, limit
        assert len(got.results) == len(want.results) == min(limit, count), \
            limit
        assert got.truncated == want.truncated == (limit <= count), limit
        assert _readings(got) <= every
        if limit >= count:
            assert _readings(got) == _readings(want) == every
        _replays(lex, got)


# sixteen words whose 917 matchings are each a reading of their own
LONG = "the man in paris in louise saw the woman in john in the man in paris"


@pytest.mark.parametrize("limit", [1, 2, 32, 1000])
def test_the_chart_stops_at_the_result_limit(english, monkeypatch, limit):
    # the chart builds the chain of each matching it keeps, and no more
    real, chains = engine._chain, []

    def counting(*args):
        chains.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "_chain", counting)
    res = parse(english, LONG.split(), SearchLimits(max_results=limit))
    assert len(chains) == len(res.results) == min(limit, 917)
    assert res.truncated == (limit <= 917)


# sha256 prefixes of each chart parse's readings and rendered derivations
# (``_digest``), under its result limit
CHART_DIGESTS = {
    ("john saw the man in paris in the woman", 1): "c83158c7e5ccce15",
    ("john saw the man in paris in the woman", 2): "e4e195ca00f9368f",
    ("john saw the man in paris in the woman", 32): "c2fc03365b01d652",
    ("john saw john in the man in louise", 32): "91cd1ff62d54240a",
    (LONG, 32): "60fd0a60552bdf55",
    ("john saw the woman in paris", 32): "a4936fa7f31f299b",
    ("louise saw the woman in john", 32): "0c8bba996db38807",
    ("the man in paris saw louise", 32): "0de2d45647e4523f",
}


@pytest.mark.parametrize("sentence, limit", list(CHART_DIGESTS))
def test_chart_derivations_are_unchanged(english, monkeypatch, sentence,
                                         limit):
    res, charted = _charted(monkeypatch, parse, english, sentence.split(),
                            SearchLimits(max_results=limit))
    assert charted
    assert _digest(res) == CHART_DIGESTS[sentence, limit]
    _replays(english, res)


def test_a_start_past_the_size_limit_runs_the_search(english, monkeypatch):
    # the start has 17 atoms; its successors have 15, which the loop cuts
    # under max_items=14, a limit the chart does not model
    words = "john saw the man in paris in the woman".split()
    cut, charted = _charted(monkeypatch, parse, english, words,
                            SearchLimits(max_items=14))
    assert not charted and cut.truncated and not cut.results
    assert _agree(monkeypatch, english, words, SearchLimits(max_items=15))


# f(X,Y)'s Y is held by no negative atom, so no cancel binds it: the
# matching that survives f(k(c),Y) is no reading, and the chart must not
# count it against max_results, or it stops before g(k(c))
POSITIVE_ONLY = """phon a b .
relator k(c) a^-1 .
relator X^-1 f(X,Y) b^-1 .
relator X^-1 g(X) b^-1 .
"""


def test_a_survivor_that_is_not_ground_is_no_reading(monkeypatch):
    # the bitset kernel reads the word, with Y as a free variable
    lex = parse_grammar(POSITIVE_ONLY)
    for lim, truncated in ((SearchLimits(max_results=1), True), (LIM, False)):
        got, charted = _charted(monkeypatch, parse, lex, ["a", "b"], lim)
        assert charted
        assert (_readings(got), got.truncated) == ({"g(k(c))"}, truncated)
        _replays(lex, got)
    assert _agree(monkeypatch, lex, ["a", "b"])
