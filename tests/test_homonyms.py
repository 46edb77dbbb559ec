"""Homonymous tokens: one parse search over every assignment of rules.

H is the english fragment with a second relator for ``in``.  Its readings
are checked against an independent oracle: the same fragment with that
relator on a new token ``in2``, parsed once for every choice of ``in`` or
``in2`` at each position, with the readings taken together.
"""

import itertools

import pytest

from ggroup import engine
from ggroup.engine import SearchLimits, parse, replay
from ggroup.lexicon import parse_grammar
from ggroup.term import render_term

from conftest import GRAMMAR_DIR
from test_search_reference import _atom_sets_built

LIM = SearchLimits()
ENGLISH = (GRAMMAR_DIR / "english.gg").read_text()
HOMONYM = parse_grammar(ENGLISH + "relator E^-1 o(E,A) A^-1 in^-1 .\n")
ORACLE = parse_grammar(ENGLISH + "phon in2 .\nrelator E^-1 o(E,A) A^-1 in2^-1 .\n")


def _readings(res):
    return {render_term(p) for p, _ in res.results}


def test_max_results_counts_readings_across_assignments():
    res = parse(HOMONYM, "john saw louise in paris".split(),
                SearchLimits(max_results=3))
    assert len(res.results) == 3
    assert res.truncated


SENTENCES = [
    ("john saw louise in paris", 4),
    ("john saw every woman in paris", 10),
    ("louise saw the man in paris", 6),
    ("some woman saw john in paris", 8),
    ("john saw louise in paris in paris", 20),
    ("the man that louise saw ran", 7),
]


@pytest.mark.parametrize("sentence, count", SENTENCES)
def test_homonym_readings_match_the_oracle(sentence, count):
    words = sentence.split()
    res = parse(HOMONYM, words, LIM)
    assert not res.truncated
    want = set()
    spots = [k for k, w in enumerate(words) if w == "in"]
    for choice in itertools.product(("in", "in2"), repeat=len(spots)):
        variant = list(words)
        for k, w in zip(spots, choice):
            variant[k] = w
        oracle = parse(ORACLE, variant, LIM)
        assert not oracle.truncated
        want |= _readings(oracle)
    assert _readings(res) == want
    assert len(want) == count
    for _, d in res.results:
        replay(HOMONYM, d)


def test_each_start_builds_its_tables_once():
    # one start per assignment of relators to the two in's; each start's
    # atom set has its tables built once, however many of its words the
    # block phase judges
    built, starts, judged = _atom_sets_built(
        parse, HOMONYM, "john saw every woman in paris in paris".split(), LIM)
    assert len(starts) == 4 and len(set(starts)) == 4
    assert sorted(built, key=starts.index) == starts
    assert judged > 10 * len(starts)


def _keys(monkeypatch, lex, words):
    keys = []
    real = engine._canonical_key

    def counting(expr, commutative):
        keys.append(real(expr, commutative))
        return keys[-1]

    with monkeypatch.context() as m:
        m.setattr(engine, "_canonical_key", counting)
        res = parse(lex, words, LIM)
    return res, len(keys)


def test_assignments_with_one_start_are_searched_once(monkeypatch):
    # a second relator for john expands it to the same start, so the two
    # assignments share every state: only the second start's key is extra.
    # The chart decides this first-order parse, so the starts are the only
    # states keyed (the breadth-first search keys 37 and 38; 22 and 23 while
    # it skipped the first-order cancels that commute back before the
    # cancel that made a state)
    english = parse_grammar(ENGLISH)
    twice = parse_grammar(ENGLISH + "relator j john^-1 .\n")
    words = "john saw louise in paris".split()
    once, once_keys = _keys(monkeypatch, english, words)
    both, both_keys = _keys(monkeypatch, twice, words)
    assert _readings(both) == _readings(once)
    assert (once_keys, both_keys) == (1, 2)
