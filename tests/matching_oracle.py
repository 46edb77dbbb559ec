"""The term-level equations of a block-free word's matchings: the oracle that
the bitset kernel (``engine._matchings``, ``engine._cover``) is compared
against.

It reads each atom's first-order reading (``engine._first_order``) and
pairs atoms by ``engine._may_cancel``, as the engine does, but it solves
each matching's equations over the readings' terms, one triangular binding
extended per pair (``term._bind``), and checks the survivor and the
applications on that binding.  It shares none of the kernel's tables, it
takes every partner pair (no support search), and it reads words of any
shape, also those that the kernel does not read and the engine keeps
unjudged.
"""

from operator import itemgetter

from ggroup import engine
from ggroup.term import Identifier, MetaVar, _bind, _resolve, identifiers_in


def readings(s, word):
    """``(terms, checks)`` of the atoms of ``word`` in the context ``s``:
    each atom's first-order reading's term, and the pairs ``(var, x)`` of
    each application read as ``var`` with its identifier ``x``, none under
    vacuous abstraction; ``None`` when an atom has no reading or one
    abstraction variable is applied to two identifiers."""
    terms, apps = [], {}
    for a in word:
        term, found, _ = engine._first_order(a)
        if term is None:
            return None
        for p, x in found.items():
            if apps.setdefault(p, x) != x:
                return None
        terms.append(term)
    if s.allow_vacuous:
        apps = {}
    return terms, [(MetaVar(p + "[]"), x) for p, x in apps.items()]


def matchings(s, word):
    """The matchings of the block-free ``word`` in the context ``s`` that
    ``engine._matchings`` defines, in its order, as a list of lists of
    pairs; ``None`` when ``readings`` gives none.  The partners are every
    pair of opposite signs that ``engine._may_cancel`` keeps."""
    read = readings(s, word)
    if read is None:
        return None
    terms, checks = read
    n = len(word)
    signs = [a.sign for a in word]
    partners = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if signs[a] != signs[b] and engine._may_cancel(
                    s, word[a], word[b], terms[a], terms[b]):
                partners[a] |= 1 << b
                partners[b] |= 1 << a
    # full[a]: the mask of the b whose span, atoms a to b - 1, matches
    # without crossing; pairs[a]: the partners j of a whose span a + 1 to
    # j - 1 matches
    full = [0] * n + [1 << n]
    pairs = [0] * n
    for a in range(n - 1, -1, -1):
        pairs[a] = partners[a] & full[a + 1]
        full[a] = 1 << a
        for j in range(a + 1, n, 2):
            if pairs[a] >> j & 1:
                full[a] |= full[j + 1]
    ks = [k for k in range(0, n, 2) if signs[k] > 0
          and full[0] >> k & 1 and full[k + 1] >> n & 1]
    return list(_survivors(ks, terms, pairs, full, checks))


def _bound_well(var: MetaVar, x: Identifier, bound: dict) -> bool:
    """Whether the application read as ``var`` is unbound, or bound to a
    term that holds its argument ``x`` and is not ``x``."""
    image = _resolve(var, bound, {})
    return image == var or (image != x and x in identifiers_in(image))


def _survivors(ks, terms, pairs, full, checks):
    """Enumerate ``matchings``' matchings over the terms, in the word's
    order, for each survivor of ``ks`` in turn, over the masks ``pairs``
    and ``full``; ``checks`` holds the pairs ``(var, x)`` that
    ``_bound_well`` reads."""
    n = len(terms)
    bound: dict = {}
    matched: list = []
    for k in ks:
        for _ in _fill(((k + 1, n), (0, k)), terms, pairs, full, bound,
                       matched):
            term = _resolve(terms[k], bound, {})
            if term.ground and all(_bound_well(var, x, bound)
                                   for var, x in checks):
                yield sorted(matched, key=itemgetter(1))


def _fill(spans, terms, pairs, full, bound: dict, matched: list):
    """Match the spans of the stack ``spans``, the last one first, for
    ``_survivors``: yield once for each matching, with its pairs appended to
    ``matched`` and its equations bound in ``bound``, and take both back
    before the next.  A module-level generator, unlike a closure that calls
    itself, leaves no reference cycle."""
    if not spans:
        yield
        return
    a, b = spans[-1]
    if a == b:
        yield from _fill(spans[:-1], terms, pairs, full, bound, matched)
        return
    partners = pairs[a]
    for j in range(a + 1, b, 2):
        if not (partners >> j & 1 and full[j + 1] >> b & 1):
            continue
        size = len(bound)
        if _bind(terms[a], terms[j], bound):
            matched.append((a, j))
            yield from _fill(spans[:-1] + ((j + 1, b), (a + 1, j)), terms,
                             pairs, full, bound, matched)
            matched.pop()
        while len(bound) > size:  # _bind only adds variables
            bound.popitem()
