"""Rule instantiation: a fresh renaming is a binding.

``reference_rename`` is the term walker that renamed parsing rules and
relator instances before they went through ``engine._renaming``.  Renaming
with the walker and then instantiating with the empty binding must build the
same items as instantiating with the renaming binding, for every rule of the
shipped grammars and for random renamings: swapped names, a name in both
maps (``ident_map`` wins), and names neither map touches.
"""

import random
from pathlib import Path

import pytest

from ggroup import engine
from ggroup import lexicon as lx
from ggroup.encodings import (
    encode_dcg, encode_logic_program, parse_dcg, parse_logic_program,
)
from ggroup.engine import ExpandStep, _instantiate_items, _renaming
from ggroup.term import (
    AbsVar, App, Compound, Const, EMPTY_BINDING, Identifier, MetaVar, subterms,
)

GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"


def reference_rename_term(t, meta_map, ident_map):
    if t.ground:
        return t
    if isinstance(t, MetaVar):
        if t.name in ident_map:
            return Identifier(ident_map[t.name])
        return MetaVar(meta_map.get(t.name, t.name))
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(reference_rename_term(a, meta_map, ident_map)
                                         for a in t.args))
    if isinstance(t, App):
        return App(AbsVar(meta_map.get(t.abstraction.name, t.abstraction.name)),
                   reference_rename_term(t.arg, meta_map, ident_map))
    return t


def reference_rename(items, meta_map, ident_map):
    return tuple(lx.LogItem(reference_rename_term(it.term, meta_map, ident_map), it.sign)
                 if isinstance(it, lx.LogItem) else it for it in items)


def assert_same_instance(items, meta_map, ident_map):
    step = ExpandStep((), 0, "p1", meta_map=tuple(meta_map), ident_map=tuple(ident_map))
    renamed = reference_rename(items, dict(meta_map), dict(ident_map))
    for commutative in (False, True):
        assert _instantiate_items(items, _renaming(step), commutative) == \
            _instantiate_items(renamed, EMPTY_BINDING, commutative)


# ---------------------------------------------------------------------------
# every rule of the shipped grammars


def _lexicons():
    english = lx.parse_grammar((GRAMMAR_DIR / "english.gg").read_text())
    often = encode_dcg(*parse_dcg((GRAMMAR_DIR / "often.dcg").read_text()))
    family = encode_logic_program(
        parse_logic_program((GRAMMAR_DIR / "family.lp").read_text()))
    return {"english": english, "often": often, "family": family}


def _schemes():
    """(id, items) of every non-commutator entry of each rule table."""
    out = []
    for name, lex in _lexicons().items():
        for rule_id, rule in engine._tables(lex).by_id.items():
            if isinstance(rule, lx.RelatorScheme):
                if not lx.is_commutator_scheme(rule):
                    out.append((f"{name}-{rule_id}", rule.items))
            else:
                out.append((f"{name}-{rule_id}", rule.rhs))
    return out


SCHEMES = _schemes()


def test_the_grammars_cover_every_kind_of_rule():
    kinds = {sid.split("-")[1][0] for sid, _ in SCHEMES}
    assert kinds == {"g", "p", "r"}
    assert any(isinstance(t, App) for _, items in SCHEMES for it in items
               if isinstance(it, lx.LogItem) for t in subterms(it.term))


@pytest.mark.parametrize("items", [s[1] for s in SCHEMES], ids=[s[0] for s in SCHEMES])
def test_renaming_instantiates_each_rule_like_the_walker(items):
    # the fresh names parsing and saturation choose
    names, app_args = engine._scheme_variables(items)
    assert_same_instance(items, [(nm, f"{nm}3") for nm in names if nm not in app_args],
                         [(nm, f"x{k}") for k, nm in enumerate(app_args, 1)])
    assert_same_instance(items, [(nm, f"{nm}_7") for nm in names if nm not in app_args],
                         [(nm, f"i7_{k}") for k, nm in enumerate(app_args, 1)])


# ---------------------------------------------------------------------------
# random renamings

NAMES = ("X", "Y", "Z", "P", "Q")


def _term(rng, depth=0):
    r = rng.random()
    if depth >= 3 or r < 0.3:
        return rng.choice([MetaVar(rng.choice(NAMES)), Const("c"), Identifier("a")])
    if r < 0.55:
        return App(AbsVar(rng.choice(NAMES)), _term(rng, depth + 1))
    return Compound(rng.choice("fg"), tuple(_term(rng, depth + 1)
                                            for _ in range(rng.randint(1, 3))))


def _items(rng, depth=0):
    items = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if r < 0.15:
            items.append(lx.PhonItem("w", rng.choice((1, -1))))
        elif r < 0.3 and depth < 2:
            mark = f"a{depth}{len(items)}"
            items += [lx.ExprMeta(mark, 1), *_items(rng, depth + 1), lx.ExprMeta(mark, -1)]
        else:
            items.append(lx.LogItem(_term(rng), rng.choice((1, -1))))
    return tuple(items)


def _maps(rng):
    """A renaming over NAMES: targets are drawn from NAMES too, so swaps and
    chains occur, and a name may be in both maps or in neither."""
    meta_map = [(nm, rng.choice(NAMES + ("W",))) for nm in NAMES if rng.random() < 0.6]
    ident_map = [(nm, f"x{k}") for k, nm in enumerate(NAMES) if rng.random() < 0.3]
    return meta_map, ident_map


def test_random_renamings_instantiate_like_the_walker():
    rng = random.Random(5)
    for _ in range(600):
        assert_same_instance(_items(rng), *_maps(rng))


def _scheme(text):
    return lx.parse_grammar(f"phon w .\nrelator {text} .", raw_mode=True).relators[0].items


@pytest.mark.parametrize("meta_map, ident_map", [
    ([("X", "Y"), ("Y", "X"), ("P", "Q"), ("Q", "P")], []),  # swapped names
    ([("X", "X1"), ("P", "P1")], [("X", "x1")]),  # X in both maps
    ([("Y", "Y1")], [("Z", "x1")]),  # X, P and Q unmapped
    ([], []),
], ids=["swap", "both-maps", "unmapped", "empty"])
def test_named_renamings_instantiate_like_the_walker(meta_map, ident_map):
    items = _scheme("@a f(X,P[X],Q[g(Y)]) P[Z]^-1 @a^-1 Y X^-1 w^-1")
    assert_same_instance(items, meta_map, ident_map)


def test_identifier_map_wins_and_abstractions_are_renamed():
    (item,) = _scheme("f(X,P[X])")
    step = ExpandStep((), 0, "p1", meta_map=(("X", "X1"), ("P", "P1")),
                      ident_map=(("X", "x1"),))
    (atom,) = _instantiate_items((item,), _renaming(step), False)
    assert atom.payload == Compound("f", (Identifier("x1"),
                                          App(AbsVar("P1"), Identifier("x1"))))
