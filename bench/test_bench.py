"""Self-tests of the benchmark: generators, checkers, tracing arithmetic.

Run from the repository root with ``python3 -m pytest bench``.
"""

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Query  # noqa: E402


@pytest.fixture(scope="module")
def loaded():
    """Each workload's program, loaded once from this checkout."""
    out = {}
    for name, w in WORKLOADS.items():
        g, ctx, _, _ = run.setup(w, w.cycle(0), 1, ROOT)
        out[name] = (w, g, ctx)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_repeats_for_a_seed(name):
    w = WORKLOADS[name]
    assert w.cycle(7) == w.cycle(7)
    assert w.cycle(7) != w.cycle(8)


def test_roundtrip_forms_fit_the_grammar(loaded):
    from workloads import check_signatures
    w, g, ctx = loaded["roundtrip-mixed"]
    check_signatures(g.lexicon.arity_table(ctx.english))
    for q in w.cycle(3):
        if q.kind != "adverb":
            g.term.parse_term(q.text)  # raises on a malformed form


def _run(loaded, name, query):
    w, g, ctx = loaded[name]
    return w, g, ctx, w.run(g, ctx, query)


def _pp_query():
    return next(q for q in WORKLOADS["parse-scope"].cycle(0) if q.kind == "pp")


def test_checker_accepts_a_correct_parse(loaded):
    w, g, ctx, outcome = _run(loaded, "parse-scope", _pp_query())
    assert w.check(g, ctx, _pp_query(), outcome) == []


def test_checker_rejects_a_missing_reading(loaded):
    q = _pp_query()
    w, g, ctx, outcome = _run(loaded, "parse-scope", q)
    mode, words, res = outcome.calls[0]
    short = dataclasses.replace(res, results=res.results[1:])
    outcome.calls[0] = (mode, words, short)
    assert any("readings" in e for e in w.check(g, ctx, q, outcome))


def test_checker_rejects_a_wrong_closure(loaded):
    w, g, ctx = loaded["logic-closure"]
    q = w.cycle(0)[0]
    outcome = w.run(g, ctx, q)
    assert w.check(g, ctx, q, outcome) == []
    mode, inp, res = outcome.calls[0]
    outcome.calls[0] = (mode, inp, dataclasses.replace(res, results=res.results[:-1]))
    assert any("forward chaining" in e for e in w.check(g, ctx, q, outcome))


def test_checker_rejects_a_tampered_step(loaded):
    q = Query("plain", "s(j,l)")
    w, g, ctx, outcome = _run(loaded, "roundtrip-mixed", q)
    assert w.check(g, ctx, q, outcome) == []
    mode, lf, res = outcome.calls[0]
    (words, d), = res.results
    k = next(k for k, s in enumerate(d.steps) if isinstance(s, g.engine.ExpandStep))
    steps = list(d.steps)
    steps[k] = dataclasses.replace(steps[k], rule_id="g2")  # louise, not john
    bad = dataclasses.replace(d, steps=tuple(steps))
    outcome.calls[0] = (mode, lf, dataclasses.replace(res, results=((words, bad),)))
    assert any("replay failed" in e for e in w.check(g, ctx, q, outcome))


def test_self_time_on_a_synthetic_span_tree():
    ids = {name: k for k, name in enumerate(tracing.LAYERS)}
    # search [0, 10] holds apply_step [1, 5] and state_key [6, 8];
    # apply_step holds normalize [2, 3].
    rows = [("engine.search", -1, 0.0, 10.0, 0),
            ("engine.apply_step", 0, 1.0, 5.0, 0),
            ("engine.normalize", 1, 2.0, 3.0, 0),
            ("engine.state_key", 0, 6.0, 8.0, 0),
            ("term.unify", -1, 20.0, 20.5, 3)]
    cols = list(zip(*[(ids[n], p, s, e, o) for n, p, s, e, o in rows]))
    t = tracing.layer_totals(*cols)
    assert t["engine.search"]["s"] == pytest.approx(4.0)
    assert t["engine.apply_step"]["s"] == pytest.approx(3.0)
    assert t["engine.normalize"]["s"] == pytest.approx(1.0)
    assert t["engine.state_key"]["s"] == pytest.approx(2.0)
    assert t["term.unify"]["out"] == 3
    m = tracing.layer_metrics(*cols, key_calls=5, key_distinct=2)
    assert m["term.unify.yield_ratio"] == pytest.approx(3.0)
    assert m["engine.state_key.dup_hits"] == 3
    assert m["engine.search.self_s"] == pytest.approx(4.0)


DEDUP_SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import run, tracing
w = run.WORKLOADS["parse-scope"]
g, ctx, _, _ = run.setup(w, [], 1)
t = tracing.Tracer()
t.install(g.engine, g.lexicon)
t.begin_query()
g.engine.parse(ctx.english, "the man that louise saw ran".split())
t.end_query()
t.uninstall()
print(t.key_calls, t.key_distinct)
"""


@pytest.mark.parametrize("hashseed", ["0", "1", "12345"])
def test_dedup_counts_do_not_depend_on_hashing(hashseed):
    script = DEDUP_SCRIPT.format(bench=str(BENCH), src=str(ROOT / "src"))
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["424", "180"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "parse-scope",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
