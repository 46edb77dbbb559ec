import importlib.util
import itertools
import re
import sys
from pathlib import Path

import pytest

from ggroup.lexicon import parse_grammar

GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"


@pytest.fixture(scope="session")
def english():
    return parse_grammar((GRAMMAR_DIR / "english.gg").read_text())


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's workload definitions, ``bench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", GRAMMAR_DIR.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture(scope="session")
def shape_fills(bench_workloads):
    """Every fill of the roundtrip benchmark's form shapes: each well-typed
    english.gg sentence shape of at most 8 symbols with at most one binder
    (``form_shapes`` in ``bench/workloads.py``), with every choice of
    words for its placeholders."""
    words = dict(bench_workloads.LEAVES.values())
    slot = re.compile(r"\b(" + "|".join(words) + r")\b")
    forms = []
    for shape in bench_workloads.form_shapes():
        for choice in itertools.product(*(words[p] for p in slot.findall(shape))):
            fill = iter(choice)
            forms.append(slot.sub(lambda _: next(fill), shape))
    return forms


@pytest.fixture(scope="session")
def scoping_parse(english):
    """The doubly quantified sentence, parsed once for the whole run."""
    from ggroup.engine import SearchLimits, parse

    return parse(english, "every man saw some woman".split(), SearchLimits())


@pytest.fixture(scope="session")
def relative_parse(english):
    """The relative-clause sentence, parsed once for the whole run."""
    from ggroup.engine import SearchLimits, parse

    return parse(english, "the man that louise saw ran".split(), SearchLimits())


# Small clause programs with finite closures, shared by the encoding tests
# and the acceptance gate.  Each is at most six clauses and twenty facts.
LOGIC_PROGRAMS = [
    ("ancestry", """
parent(alice,bea) .
parent(bea,carl) .
parent(carl,dana) .
ancestor(X,Y) :- parent(X,Y) .
ancestor(X,Z) :- parent(X,Y), ancestor(Y,Z) .
"""),
    ("graph-paths", """
edge(a,b) .
edge(b,c) .
edge(c,d) .
path(X,Y) :- edge(X,Y) .
path(X,Z) :- edge(X,Y), path(Y,Z) .
"""),
    ("mutual-friends", """
likes(a,b) .
likes(b,a) .
likes(b,c) .
friend(X,Y) :- likes(X,Y), likes(Y,X) .
"""),
    ("unary-chain", """
p(a) .
q(X) :- p(X) .
r(X) :- q(X) .
final(X) :- r(X) .
"""),
    ("shared-parent", """
parent(p0,a) .
parent(p0,b) .
sibling(X,Y) :- parent(Z,X), parent(Z,Y) .
"""),
]


# One line per acceptance criterion in the terminal summary, so a full run
# shows the verdicts without digging through the test list.
ACCEPTANCE = [
    ("test_c01_relator_product_reduces_to_public_pair",
     "criterion 1 (conjugated relator product)"),
    ("test_c02_derived_rules_match_expected_tables",
     "criterion 2 (generation/parsing rule tables)"),
    ("test_c03_generation_golden_set",
     "criterion 3 (generation golden set)"),
    ("test_c04_parsing_golden_set",
     "criterion 4 (parsing golden set)"),
    ("test_c05_every_derivation_replays",
     "criterion 5 (derivation audit)"),
    ("test_c06_free_group_property_suite",
     "criterion 6 (free-group property suite)"),
    ("test_c07_occurs_check_blocks_cyclic_forms",
     "criterion 7 (occurs-check regression)"),
    ("test_c08_parse_generate_round_trips",
     "criterion 8 (round trips)"),
    ("test_c09_termination_analysis_and_witness",
     "criterion 9 (termination analysis witness)"),
    ("test_c10_commutative_engine_matches_forward_chaining",
     "criterion 10 (logic-program equivalence)"),
]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status, verdict in (("passed", "PASS"), ("failed", "FAIL"),
                            ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            for name, label in ACCEPTANCE:
                if rep.nodeid.endswith(f"test_acceptance.py::{name}"):
                    outcomes[name] = (label, verdict)
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, label in ACCEPTANCE:
        got = outcomes.get(name)
        if got is not None:
            terminalreporter.write_line(f"{got[1]}  {got[0]}")
        else:
            terminalreporter.write_line(f"MISSING  {label}")
