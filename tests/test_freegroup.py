"""Words of the free group and the group laws, plus the worked lexical-entry
product.

A word is a ground expression without blocks; ``normalize`` reduces it.  The
randomized suites draw raw atom sequences from a small two-sorted alphabet
and check the group laws on their reductions; a thousand cases per law with
a fixed seed.
"""

import random

from ggroup.engine import (
    Atom, Block, conjugate, inverse, normalize, parse_expr, product, render_expr,
)
from ggroup.term import parse_term
from test_lexicon import cyclic_rotations

VOCAB = ["john", "saw", "louise"]


def w(text):
    return normalize(parse_expr(text, VOCAB))


# ---------------------------------------------------------------------------
# construction and reduction


def test_reduce_word_cancels_through():
    a, b = Atom("john"), Atom("saw")
    raw = (a, b, Atom("saw", -1), Atom("john", -1), a)
    assert normalize(raw) == (a,)


def test_a_normal_word_comes_back_as_itself():
    word = w("john saw^-1 s(j,l) louise")
    assert normalize(word) is word
    rng = random.Random(1000)
    for _ in range(200):
        whole = normalize(_random_raw(rng, ALPHABET))
        assert normalize(whole) is whole


# blocks are not words, but normalize reaches into them: an empty one is
# dropped, and a normal one is kept as the same object


def test_an_empty_block_is_dropped():
    assert normalize((Block(()),)) == ()
    assert w("john { } john^-1") == ()
    john, saw = Atom("john"), Atom("saw")
    assert normalize((john, Block((Block(()),)), saw)) == (john, saw)


def test_a_normal_block_comes_back_as_itself():
    block = Block(w("john saw"))
    expr = (Atom("louise"), block)
    assert normalize(expr) is expr
    out = normalize((Atom("louise"), Atom("john"), Atom("john", -1), block))
    assert out == expr and out[1] is block


def test_parse_and_render():
    assert render_expr(w("john saw^-1 s(j,l)")) == "john saw^-1 s(j,l)"
    assert w("john john^-1") == ()
    assert render_expr(()) == "1"
    assert w("1") == ()


def test_product_and_inverse():
    ab = w("john saw")
    assert product(ab, inverse(ab)) == ()
    assert inverse(w("john saw^-1")) == w("saw john^-1")


def test_conjugate_of_neutral():
    assert conjugate((), w("john saw")) == ()


def test_cyclic_rotations():
    rots = {render_expr(r) for r in cyclic_rotations(w("john saw louise"))}
    assert rots == {"john saw louise", "saw louise john", "louise john saw"}
    assert cyclic_rotations(()) == {()}


# ---------------------------------------------------------------------------
# the worked product: three lexical entries, conjugated and multiplied,
# collapse to a logical form paired with the inverted word string


def test_lexical_entry_product_reduces_to_public_pair():
    r1 = w("j^-1 s(j,l) l^-1 saw^-1")
    r2 = w("l louise^-1")
    r3 = w("j john^-1")
    q1 = conjugate(r1, w("j"))
    q2 = conjugate(r2, w("j saw"))
    q3 = r3
    assert render_expr(product(q1, q2, q3)) == "s(j,l) louise^-1 saw^-1 john^-1"


# ---------------------------------------------------------------------------
# randomized law suites


def _random_raw(rng, alphabet, max_len=12):
    n = rng.randrange(max_len + 1)
    return tuple(Atom(rng.choice(alphabet), rng.choice((1, -1)))
                 for _ in range(n))


ALPHABET = ["a", "b", "c", parse_term("s(j,l)")]


def test_reduction_is_confluent_under_splitting():
    # reducing the pieces of any split first never changes the outcome
    rng = random.Random(1001)
    for _ in range(1000):
        raw = _random_raw(rng, ALPHABET)
        cut = rng.randrange(len(raw) + 1)
        whole = normalize(raw)
        assert normalize(whole) == whole  # the reduction leaves no pair
        split = product(normalize(raw[:cut]), normalize(raw[cut:]))
        assert split == whole


def test_product_is_associative():
    rng = random.Random(1002)
    for _ in range(1000):
        x, y, z = (normalize(_random_raw(rng, ALPHABET)) for _ in range(3))
        assert product(product(x, y), z) == product(x, product(y, z))


def test_neutral_is_identity():
    rng = random.Random(1003)
    for _ in range(1000):
        x = normalize(_random_raw(rng, ALPHABET))
        assert product(x, ()) == x
        assert product((), x) == x


def test_inverse_cancels():
    rng = random.Random(1004)
    for _ in range(1000):
        x = normalize(_random_raw(rng, ALPHABET))
        assert product(x, inverse(x)) == ()
        assert product(inverse(x), x) == ()


def test_conjugacy_preserves_neutrality_exactly():
    # by . x . by^-1 is neutral precisely when x is
    rng = random.Random(1005)
    for _ in range(1000):
        x = normalize(_random_raw(rng, ALPHABET))
        by = normalize(_random_raw(rng, ALPHABET, max_len=6))
        c = conjugate(x, by)
        assert (c == ()) == (x == ())
