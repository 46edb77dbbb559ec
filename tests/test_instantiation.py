"""Rule instantiation: copy number ``n`` of a rule is a renaming binding.

``reference_rename`` is a term walker that names copy ``n`` of a scheme
apart the documented way: a meta- or abstraction variable ``V`` becomes
``V_n``, and the k-th name used as an abstraction argument the identifier
``#xn_k``.  Renaming with the walker and then instantiating with the empty
binding must build the same items as instantiating under
``engine._renaming``, for every rule of the shipped grammars and for random
rules at random instance numbers, and copies of distinct numbers must share
no variable.
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
    AbsVar, App, Compound, Const, EMPTY_BINDING, Identifier, MetaVar,
    parse_term, render_term, subterms,
)

GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"


def _app_args(items):
    """The names used as abstraction arguments, in preorder."""
    names = []
    for it in items:
        if isinstance(it, lx.LogItem):
            for s in subterms(it.term):
                if isinstance(s, App) and isinstance(s.arg, MetaVar) \
                        and s.arg.name not in names:
                    names.append(s.arg.name)
    return names


def reference_rename_term(t, n, idents):
    if isinstance(t, MetaVar):
        if t.name in idents:
            return idents[t.name]
        return MetaVar(f"{t.name}_{n}")
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(reference_rename_term(a, n, idents)
                                         for a in t.args))
    if isinstance(t, App):
        return App(AbsVar(f"{t.abstraction.name}_{n}"),
                   reference_rename_term(t.arg, n, idents))
    return t


def reference_rename(items, n):
    idents = {nm: Identifier(f"x{n}_{k}")
              for k, nm in enumerate(_app_args(items), 1)}
    return tuple(lx.LogItem(reference_rename_term(it.term, n, idents), it.sign)
                 if isinstance(it, lx.LogItem) else it for it in items)


def _scheme_of(rule):
    return rule.items if isinstance(rule, lx.RelatorScheme) else rule.rhs


def assert_same_instance(lex, rule_id, n):
    tables = engine._tables(lex)
    items = _scheme_of(tables.by_id[rule_id])
    binding = _renaming(tables, ExpandStep((), 0, rule_id, instance=n))
    renamed = reference_rename(items, n)
    for commutative in (False, True):
        assert _instantiate_items(items, binding, commutative) == \
            _instantiate_items(renamed, EMPTY_BINDING, commutative)


def _names(terms):
    """The variable names and identifiers of ``terms``, tagged by kind."""
    out = set()
    for t in terms:
        for s in subterms(t):
            if isinstance(s, MetaVar):
                out.add(("meta", s.name))
            elif isinstance(s, App):
                out.add(("abs", s.abstraction.name))
            elif isinstance(s, Identifier):
                out.add(("ident", s.name))
    return out


# ---------------------------------------------------------------------------
# every rule of the shipped grammars


def _lexicons():
    english = lx.parse_grammar((GRAMMAR_DIR / "english.gg").read_text())
    often = encode_dcg(*parse_dcg((GRAMMAR_DIR / "often.dcg").read_text()))
    family = encode_logic_program(
        parse_logic_program((GRAMMAR_DIR / "family.lp").read_text()))
    return {"english": english, "often": often, "family": family}


LEXICONS = _lexicons()
RULES = [(name, rule_id) for name, lex in LEXICONS.items()
         for rule_id, rule in engine._tables(lex).by_id.items()
         if not (isinstance(rule, lx.RelatorScheme)
                 and lx.is_commutator_scheme(rule))]


def test_the_grammars_cover_every_kind_of_rule():
    kinds = {rule_id[0] for _, rule_id in RULES}
    assert kinds == {"g", "p", "r"}
    schemes = [_scheme_of(engine._tables(LEXICONS[name]).by_id[rule_id])
               for name, rule_id in RULES]
    assert any(_app_args(items) for items in schemes)


@pytest.mark.parametrize("name, rule_id", RULES,
                         ids=[f"{name}-{rule_id}" for name, rule_id in RULES])
def test_renaming_instantiates_each_rule_like_the_walker(name, rule_id):
    for n in (0, 1, 7, 12):
        assert_same_instance(LEXICONS[name], rule_id, n)


def test_copies_of_distinct_numbers_share_no_name():
    """Over all rules of a grammar, two copies share a variable or a
    renamed identifier only when they have one number, and each name reads
    back as the term it renders."""
    renamed = 0
    for name, lex in LEXICONS.items():
        tables = engine._tables(lex)
        copies = {}
        for rule_id in [r for lex_name, r in RULES if lex_name == name]:
            items = _scheme_of(tables.by_id[rule_id])
            old = _names(it.term for it in items if isinstance(it, lx.LogItem))
            for n in (1, 2, 11, 12):
                step = ExpandStep((), 0, rule_id, instance=n)
                # commutative: conjugator pairs vanish, so no blocks
                terms = [a.payload for a in _instantiate_items(
                    items, _renaming(tables, step), True) if not a.is_phon()]
                for t in terms:
                    assert parse_term(render_term(t)) == t
                for name in _names(terms) - old:
                    copies.setdefault(name, set()).add(n)
        assert all(len(numbers) == 1 for numbers in copies.values())
        renamed += len(copies)
    assert renamed


# ---------------------------------------------------------------------------
# random rules at random instance numbers; the names include digit-suffixed
# ones, which a renaming by suffix must keep apart

NAMES = ("X", "Y", "X_1", "P", "Q", "P_12", "Z1")


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


def test_random_renamings_instantiate_like_the_walker():
    rng = random.Random(5)
    for _ in range(600):
        lex = lx.Lexicon(("w",), (lx.RelatorScheme(_items(rng)),),
                         raw_mode=True)
        assert_same_instance(lex, "r1", rng.randint(0, 30))


def _scheme(text):
    return lx.parse_grammar(f"phon w .\nrelator {text} .", raw_mode=True)


@pytest.mark.parametrize("text", [
    "@a f(X,P[X],Q[g(Y)]) P[Z]^-1 @a^-1 Y X^-1 w^-1",
    "f(X_1,X,P_12[Y]) X_1^-1 w^-1",  # names that end in digits
    "f(a,g(b)) w^-1",  # no variables
], ids=["mixed", "digit-suffixed", "ground"])
def test_named_rules_instantiate_like_the_walker(text):
    for n in (0, 1, 12):
        assert_same_instance(_scheme(text), "r1", n)


def test_abstraction_arguments_become_identifiers_and_abstractions_are_renamed():
    lex = _scheme("f(X,P[X],Y)")
    tables = engine._tables(lex)
    (atom,) = _instantiate_items(lex.relators[0].items, _renaming(
        tables, ExpandStep((), 0, "r1", instance=4)), False)
    assert atom.payload == parse_term("f(#x4_1,P_4[#x4_1],Y_4)")
