"""The three benchmark workloads: seeded inputs, the timed query, the checks.

Each workload turns a seed into one *cycle*, a fixed list of queries that a
run repeats until its time is up.  Inputs depend on the seed alone.  The
engine sees only the generated inputs; the expected answers are computed
here, without the search, and checked after the timed region.

``parse-scope``
    Sentences with two quantified noun phrases, plus one quantifier with a
    relative clause or a prepositional phrase.  Nearly all the time is the
    blind breadth-first search over orders of cancel, move, rotate and
    dissolve steps, so pruning and cheaper state keys show here.
``roundtrip-mixed``
    Every short well-typed form shape with at most one binder (names,
    ``the``, PPs, relatives, one quantifier), with seeded words, each
    generated and every generated string parsed back, plus generation from
    the looping adverb grammar under a small expansion limit, which always
    truncates.  Each query costs 1-100
    ms, so fixed per-query costs (rule tables rebuilt on every search and
    every replay) dominate.
``logic-closure``
    Definite-clause programs (chains and random DAGs with recursion, sibling
    and mutual-likes joins) with 50-100 derived facts, saturated in
    commutative mode.  Every result is replayed, so replay and the
    saturation successors show here, and non-commutative pruning should not.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

# ---------------------------------------------------------------------------
# shared pieces


@dataclass
class Query:
    kind: str
    text: str                # the input as a user would type it
    expected: object = None  # workload-specific expected answer
    limits: Optional[dict] = None


@dataclass
class Outcome:
    """What one query returned: every engine call's result, in call order."""

    calls: list = field(default_factory=list)  # (mode, input, EngineResult)

    @property
    def truncated(self) -> bool:
        return any(res.truncated for _, _, res in self.calls)


def _limits(g, query: Query):
    return g.engine.SearchLimits(**(query.limits or {}))


def check_derivation(g, lex, d, mode: str, start, end) -> list[str]:
    """Replay ``d`` from scratch and pin both of its ends to the query."""
    errors = []
    if d.mode != mode:
        errors.append(f"derivation mode {d.mode!r}, expected {mode!r}")
    if g.engine.normalize(d.start) != g.engine.normalize(start):
        errors.append("derivation does not start at the query")
    if d.end != end:
        errors.append("derivation does not end at the answer")
    try:
        g.engine.replay(lex, d)
    except g.engine.StepError as e:
        errors.append(f"replay failed: {e}")
    return errors


def _tokens(g, words):
    return tuple(g.engine.Atom(w, 1) for w in words)


def _parse_answers(g, lex, words, res) -> tuple[set, list[str]]:
    """Rendered readings of a parse, and the errors of their derivations."""
    render = g.term.render_term
    errors = []
    readings = set()
    for term, d in res.results:
        readings.add(render(term))
        if len(d.end) != 1 or \
                render(g.term.canonical_identifiers(d.end[0].payload)) != render(term):
            errors.append(f"derivation end does not carry {render(term)}")
            continue
        errors += check_derivation(g, lex, d, "parse", _tokens(g, words), d.end)
    return readings, errors


def _generate_answers(g, lex, lf, res) -> tuple[set, list[str]]:
    errors = []
    strings = set()
    for words, d in res.results:
        strings.add(" ".join(words))
        errors += check_derivation(g, lex, d, "gen", (g.engine.Atom(lf, 1),),
                                   _tokens(g, words))
    return strings, errors


# ---------------------------------------------------------------------------
# parse-scope

QUANTIFIERS = {"every": "ev", "some": "sm"}
NOUNS = {"man": "m", "woman": "w"}
NAMES = {"john": "j", "louise": "l", "paris": "p"}

# Readings of the relative-clause and PP shapes, with the drawn words filled
# in.  Frozen from the seed commit, like the acceptance goldens: they include
# the intended reading and the grammar's other bracketings.
RELATIVE_READINGS = (
    "{q}({n},#x1,r(tt(#x1,#x2,s({a},#x2))))",
    "{q}({n},#x1,tt(#x1,#x2,r(s({a},#x2))))",
    "{q}({n},#x1,tt(#x1,#x2,s({a},r(#x2))))",
    "{q}(tt({n},#x1,s({a},#x1)),#x2,r(#x2))",
    "r({q}({n},#x1,tt(#x1,#x2,s({a},#x2))))",
)
PP_READINGS = (
    "{q}(i({n},{b}),#x1,s({a},#x1))",
    "{q}({n},#x1,i(s({a},#x1),{b}))",
    "{q}({n},#x1,s({a},i(#x1,{b})))",
    "i({q}({n},#x1,s({a},#x1)),{b})",
    "s({a},{q}({n},#x1,i(#x1,{b})))",
)

# Left out: "every man saw some woman in paris" (42 s, 314 MB) and "every man
# that some woman saw ran" (past 700k states).  No search limit bounds a
# parse, so they join once a state budget exists (see README.md).


def two_quantifier_readings(q1, n1, q2, n2) -> set[str]:
    """The two scopings of ``Q1 N1 saw Q2 N2`` (acceptance criterion 4)."""
    return {f"{q1}({n1},#x1,{q2}({n2},#x2,s(#x1,#x2)))",
            f"{q2}({n2},#x1,{q1}({n1},#x2,s(#x2,#x1)))"}


def parse_scope_cycle(seed: int) -> list[Query]:
    """Three distinct two-quantifier sentences, one relative, one PP."""
    rng = random.Random(f"parse-scope/{seed}")
    qs, ns = sorted(QUANTIFIERS), sorted(NOUNS)
    combos = [(a, b, c, d) for a in qs for b in ns for c in qs for d in ns]
    out = []
    for w1, w2, w3, w4 in rng.sample(combos, 3):
        out.append(Query("two-quantifier", f"{w1} {w2} saw {w3} {w4}",
                         two_quantifier_readings(QUANTIFIERS[w1], NOUNS[w2],
                                                 QUANTIFIERS[w3], NOUNS[w4])))
    q, n, a = rng.choice(qs), rng.choice(ns), rng.choice(["john", "louise"])
    fill = dict(q=QUANTIFIERS[q], n=NOUNS[n], a=NAMES[a])
    out.append(Query("relative", f"{q} {n} that {a} saw ran",
                     {r.format(**fill) for r in RELATIVE_READINGS}))
    a, q, n, b = (rng.choice(["john", "louise"]), rng.choice(qs),
                  rng.choice(ns), rng.choice(sorted(NAMES)))
    fill = dict(q=QUANTIFIERS[q], n=NOUNS[n], a=NAMES[a], b=NAMES[b])
    out.append(Query("pp", f"{a} saw {q} {n} in {b}",
                     {r.format(**fill) for r in PP_READINGS}))
    rng.shuffle(out)
    return out


class ParseScope:
    name = "parse-scope"

    def cycle(self, seed: int) -> list[Query]:
        return parse_scope_cycle(seed)

    def load(self, g, root: Path, cycle, span):
        with span("lexicon.parse_grammar"):
            english = g.lexicon.parse_grammar((root / "grammars/english.gg").read_text())
        return SimpleNamespace(english=english)

    def run(self, g, ctx, query: Query) -> Outcome:
        words = query.text.split()
        return Outcome([("parse", words, g.engine.parse(ctx.english, words,
                                                        _limits(g, query)))])

    def check(self, g, ctx, query: Query, outcome: Outcome) -> list[str]:
        (_, words, res), = outcome.calls
        readings, errors = _parse_answers(g, ctx.english, words, res)
        if readings != query.expected:
            errors.append(f"readings {sorted(readings)} != {sorted(query.expected)}")
        return errors


# ---------------------------------------------------------------------------
# roundtrip-mixed

# Categories of the english.gg functors: result category and argument
# categories.  "gap" is a sentence with the bound identifier in an NP slot.
SIGNATURES = {
    "j": [("np", ())], "l": [("np", ())], "p": [("np", ())],
    "m": [("n", ())], "w": [("n", ())],
    "r": [("s", ("np",))],
    "s": [("s", ("np", "np"))],
    "i": [("s", ("s", "np")), ("n", ("n", "np"))],
    "t": [("np", ("n",))],
    "ev": [("s", ("n", "id", "gap"))],
    "sm": [("s", ("n", "id", "gap"))],
    "tt": [("n", ("n", "id", "gap"))],
}

ADVERB_LIMITS = (6, 7, 8, 9)  # max_expansions for the looping grammar
ADVERBS_PER_LIMIT = 8
SHAPE_COPIES = 8     # each form shape, with fresh words, per cycle
MAX_SYMBOLS = 8      # larger forms cost 0.1-0.5 s a query
TOP = 2              # sentence nesting depth; "the" adds none


def check_signatures(arity_table: dict[str, int]) -> None:
    """The category table must cover the grammar's functors at their arities."""
    if set(arity_table) != set(SIGNATURES):
        raise ValueError(f"functors {sorted(arity_table)} != {sorted(SIGNATURES)}")
    for f, sigs in SIGNATURES.items():
        for _, args in sigs:
            if len(args) != arity_table[f]:
                raise ValueError(f"{f}/{len(args)} does not match arity {arity_table[f]}")


# Placeholders for the words a seed fills in.
LEAVES = {"np": ("NP", ("j", "l", "p")), "n": ("N", ("m", "w")),
          "q": ("Q", ("ev", "sm"))}


def _shapes(cat: str, depth: int) -> list[tuple[str, int]]:
    """(shape, binders used) for every form of category ``cat``.

    A quantifier only takes the whole sentence, a relative clause may sit in
    any noun, and the bound identifier fills one NP slot of a small sentence.
    """
    if cat == "gap":
        return [("r(#x)", 0), ("s(#x,NP)", 0), ("s(NP,#x)", 0)]
    out = []
    for f, sigs in SIGNATURES.items():
        for res, args in sigs:
            if res != cat:
                continue
            if not args:
                if (LEAVES[cat][0], 0) not in out:
                    out.append((LEAVES[cat][0], 0))
                continue
            if depth <= 0 and set(args) != {"np"}:
                continue
            if "id" in args:
                if cat == "n" or depth == TOP:
                    head = "Q" if cat == "s" else f
                    out += [(f"{head}({n},#x,{gap})", 1)
                            for n, _ in _shapes("n", 0) for gap, _ in _shapes("gap", 0)
                            if (f"{head}({n},#x,{gap})", 1) not in out]
                continue
            # a determiner adds no depth, so relatives can sit under "the"
            inner = depth if f == "t" else max(depth - 1, 0)
            parts: list[tuple[str, int]] = [("", 0)]
            for a in args:
                parts = [(f"{p},{x}" if p else x, bp + bx)
                         for p, bp in parts for x, bx in _shapes(a, inner)
                         if bp + bx <= 1]
            out += [(f"{f}({p})", b) for p, b in parts if (f"{f}({p})", b) not in out]
    return out


def form_shapes() -> list[str]:
    """Every sentence shape with at most one binder and MAX_SYMBOLS symbols."""
    return [shape for shape, _ in _shapes("s", TOP)
            if len(re.findall(r"[#\w]+", shape)) <= MAX_SYMBOLS]


def fill(shape: str, rng: random.Random) -> str:
    """Replace each placeholder by a word drawn from ``rng``."""
    for placeholder, words in LEAVES.values():
        shape = re.sub(rf"\b{placeholder}\b", lambda _: rng.choice(words), shape)
    return shape


def roundtrip_cycle(seed: int) -> list[Query]:
    """Each form shape SHAPE_COPIES times with drawn words, plus the adverb
    queries.  The shapes fix each query's cost; the seed draws the words."""
    rng = random.Random(f"roundtrip-mixed/{seed}")
    out = [Query("english", fill(shape, rng))
           for shape in form_shapes() for _ in range(SHAPE_COPIES)]
    for n in ADVERB_LIMITS:
        # sent -> np vp, np -> john, vp -> ran, plus one per "often"
        expected = {" ".join(["john"] + ["often"] * k + ["ran"])
                    for k in range(n - 3 + 1)}
        out += [Query("adverb", "sent", expected, {"max_expansions": n})
                for _ in range(ADVERBS_PER_LIMIT)]
    rng.shuffle(out)
    return out


class RoundtripMixed:
    name = "roundtrip-mixed"

    def cycle(self, seed: int) -> list[Query]:
        return roundtrip_cycle(seed)

    def load(self, g, root: Path, cycle, span):
        with span("lexicon.parse_grammar"):
            english = g.lexicon.parse_grammar((root / "grammars/english.gg").read_text())
        check_signatures(g.lexicon.arity_table(english))
        with span("encodings.encode"):
            vocab, rules = g.encodings.parse_dcg((root / "grammars/often.dcg").read_text())
            adverbs = g.encodings.encode_dcg(vocab, rules)
        return SimpleNamespace(english=english, adverbs=adverbs)

    def run(self, g, ctx, query: Query) -> Outcome:
        lf = g.term.parse_term(query.text)
        lim = _limits(g, query)
        if query.kind == "adverb":
            return Outcome([("gen", lf, g.engine.generate(ctx.adverbs, lf, lim))])
        out = Outcome([("gen", lf, g.engine.generate(ctx.english, lf, lim))])
        for words, _ in out.calls[0][2].results:
            out.calls.append(("parse", words, g.engine.parse(ctx.english, words, lim)))
        return out

    def check(self, g, ctx, query: Query, outcome: Outcome) -> list[str]:
        (_, lf, gen), *parses = outcome.calls
        lex = ctx.adverbs if query.kind == "adverb" else ctx.english
        strings, errors = _generate_answers(g, lex, lf, gen)
        if query.kind == "adverb":
            if not gen.truncated:
                errors.append("the looping grammar was not cut off")
            if strings != query.expected:
                errors.append(f"strings {sorted(strings)} != {sorted(query.expected)}")
            return errors
        if gen.truncated:
            errors.append("generation truncated")
        if not strings:
            errors.append("no string generated")
        source = g.term.render_term(g.term.canonical_identifiers(lf))
        for _, words, res in parses:
            readings, errs = _parse_answers(g, lex, words, res)
            errors += errs
            if res.truncated:
                errors.append(f"parse of {' '.join(words)!r} truncated")
            if source not in readings:
                errors.append(f"{' '.join(words)!r} does not parse back to {source}")
        return errors


# ---------------------------------------------------------------------------
# logic-closure

LOGIC_LIMITS = {"max_expansions": 256, "max_items": 256, "max_results": 1000}
CLOSURE_RANGE = (50, 100)       # facts in a program's closure, given ones included
CLOSURE_TARGETS = (54, 65, 77, 90)  # per shape, twice each per cycle
TOLERANCE = 3


def _reach(nodes: int, edges: list[tuple[int, int]]) -> int:
    """Pairs (a, b) with a path a -> b of length at least one."""
    succ = {k: [b for a, b in edges if a == k] for k in range(nodes)}
    total = 0
    for start in range(nodes):
        seen, todo = set(), list(succ[start])
        while todo:
            k = todo.pop()
            if k not in seen:
                seen.add(k)
                todo += succ[k]
        total += len(seen)
    return total


# Each shape draws one program: (clause lines, size of its closure).

def _chain(rng):
    k = rng.randint(9, 12)  # k edges, k (k + 1) / 2 paths
    facts = [f"edge(n{i},n{i + 1}) ." for i in range(k)]
    return facts + ["path(X,Y) :- edge(X,Y) .",
                    "path(X,Z) :- edge(X,Y), path(Y,Z) ."], k + k * (k + 1) // 2


def _dag(rng):
    # each node hangs under one of the three before it, plus a few shortcuts
    nodes = rng.randint(8, 16)
    edges = {(rng.randint(max(0, j - 3), j - 1), j) for j in range(1, nodes)}
    for _ in range(rng.randint(0, 4)):
        edges.add(tuple(sorted(rng.sample(range(nodes), 2))))
    edges = sorted(edges)
    facts = [f"parent(v{a},v{b}) ." for a, b in edges]
    return facts + ["ancestor(X,Y) :- parent(X,Y) .",
                    "ancestor(X,Z) :- parent(X,Y), ancestor(Y,Z) ."], \
        len(edges) + _reach(nodes, edges)


def _siblings(rng):
    families = [rng.randint(2, 5) for _ in range(rng.randint(3, 6))]
    facts, child = [], 0
    for p, c in enumerate(families):
        for _ in range(c):
            facts.append(f"parent(p{p},c{child}) .")
            child += 1
    return facts + ["sibling(X,Y) :- parent(Z,X), parent(Z,Y) ."], \
        sum(families) + sum(c * c for c in families)


def _likes(rng):
    people = rng.randint(8, 12)
    pairs = sorted({tuple(rng.sample(range(people), 2))
                    for _ in range(rng.randint(35, 75))})
    mutual = sum(1 for a, b in pairs if (b, a) in set(pairs))
    facts = [f"likes(u{a},u{b}) ." for a, b in pairs]
    return facts + ["friend(X,Y) :- likes(X,Y), likes(Y,X) ."], len(pairs) + mutual


PROGRAM_SHAPES = {"chain": _chain, "dag": _dag, "siblings": _siblings,
                  "likes": _likes}


def program(shape: str, rng: random.Random, target: int) -> str:
    """A program of ``shape`` whose closure has ``target`` facts, give or take
    TOLERANCE: the closure size sets most of a saturation's cost."""
    while True:
        lines, size = PROGRAM_SHAPES[shape](rng)
        if abs(size - target) <= TOLERANCE:
            return "\n".join(lines) + "\n"


def logic_cycle(seed: int) -> list[Query]:
    rng = random.Random(f"logic-closure/{seed}")
    out = [Query(shape, program(shape, rng, target), limits=LOGIC_LIMITS)
           for shape in sorted(PROGRAM_SHAPES)
           for target in CLOSURE_TARGETS for _ in range(2)]
    rng.shuffle(out)
    return out


class LogicClosure:
    name = "logic-closure"

    def cycle(self, seed: int) -> list[Query]:
        return logic_cycle(seed)

    def load(self, g, root: Path, cycle, span):
        programs = {}
        with span("encodings.encode"):
            for q in cycle:
                clauses = g.encodings.parse_logic_program(q.text)
                programs[q.text] = (clauses, g.encodings.encode_logic_program(clauses))
        return SimpleNamespace(programs=programs)

    def run(self, g, ctx, query: Query) -> Outcome:
        _, lex = ctx.programs[query.text]
        return Outcome([("saturate", None, g.engine.saturate(lex, _limits(g, query)))])

    def check(self, g, ctx, query: Query, outcome: Outcome) -> list[str]:
        clauses, lex = ctx.programs[query.text]
        (_, _, res), = outcome.calls
        oracle, fixpoint = g.encodings.forward_chain(clauses)
        errors = [] if fixpoint else ["forward chaining did not reach a fixpoint"]
        if not CLOSURE_RANGE[0] <= len(oracle) <= CLOSURE_RANGE[1]:
            errors.append(f"closure has {len(oracle)} facts")
        if res.truncated:
            errors.append("saturation truncated")
        got = {t for t, _ in res.results}
        if got != set(oracle):
            errors.append(f"{len(got)} facts, forward chaining gives {len(oracle)}")
        for fact, d in res.results:
            errors += check_derivation(g, lex, d, "saturate", (),
                                       (g.engine.Atom(fact, 1),))
        return errors


WORKLOADS = {w.name: w for w in (ParseScope(), RoundtripMixed(), LogicClosure())}
