"""Layer tracing for the benchmark, installed from outside the program.

``Tracer.install`` replaces module-level names that the engine looks up at
call time (``engine.unify``, ``engine._canonical_key``, ``lexicon.gen_rules``
and so on) with timing wrappers; ``uninstall`` puts the originals back.  No
program file is edited.

Every wrapped call becomes a span: layer name, query id, parent span, start,
end and an output count.  Spans stay in memory in flat arrays and are written
out once, when the run ends.  A span's self time is its duration minus the
durations of its recorded children.

Two rules keep the layer figures meaningful:

* ``engine.normalize`` recurses through its own module-level name, so only
  the outermost call of a nest is a span.
* Everything that ``engine.replay`` does is charged to the replay span, except
  rule derivation (``lexicon.derive``), which is counted wherever it happens
  because rebuilding the rule tables on every replay is itself a cost a later
  change may remove.  So ``engine.apply_step``, ``term.unify`` and friends
  count the search side only.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager

# Span names, in report order.  The index of a name is its id in the arrays.
SEARCH = "engine.search"
QUERY = "bench.query"
SUCCESSOR_KINDS = ("expand", "cancel", "block", "swap", "saturate")
LAYERS = (
    QUERY, SEARCH,
    "lexicon.parse_grammar", "encodings.encode", "lexicon.derive",
    "term.unify", "term.substitute",
    "engine.apply_step", "engine.normalize", "engine.state_key",
    *(f"engine.successors.{k}" for k in SUCCESSOR_KINDS),
    "engine.replay",
)
_ID = {name: k for k, name in enumerate(LAYERS)}

# (module attribute, layer name) for every wrapper installed on the engine.
ENGINE_HOOKS = (
    ("generate", SEARCH),
    ("parse", SEARCH),
    ("saturate", SEARCH),
    ("unify", "term.unify"),
    ("substitute", "term.substitute"),
    ("apply_step", "engine.apply_step"),
    ("normalize", "engine.normalize"),
    ("_canonical_key", "engine.state_key"),
    ("_expand_successors", "engine.successors.expand"),
    ("_cancel_successors", "engine.successors.cancel"),
    ("_block_successors", "engine.successors.block"),
    ("_swap_cancel_successors", "engine.successors.swap"),
    ("_saturate_successors", "engine.successors.saturate"),
    ("replay", "engine.replay"),
)
LEXICON_HOOKS = (
    ("gen_rules", "lexicon.derive"),
    ("parse_rules", "lexicon.derive"),
)
# Layers whose wrapped function returns a list whose length is the output.
_COUNTS_OUTPUT = {_ID["term.unify"]} | {
    _ID[f"engine.successors.{k}"] for k in SUCCESSOR_KINDS}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.name = array("B")
        self.query = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.out = array("l")
        self.qid = 0
        self._stack: list[int] = []
        self._in_normalize = False
        self._in_replay = False
        self._saved: list[tuple[object, str, object]] = []
        # state keys returned during the current query, and the totals
        self._keys: set = set()
        self.key_calls = 0
        self.key_distinct = 0

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark itself."""
        sid = self._open(_ID[layer])
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, layer_id: int) -> int:
        sid = len(self.name)
        self.name.append(layer_id)
        self.query.append(self.qid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.out.append(0)
        self._stack.append(sid)
        self.start[sid] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def begin_query(self) -> None:
        self.qid += 1
        self._keys = set()

    def end_query(self) -> None:
        self.key_distinct += len(self._keys)
        self._keys = set()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer: str):
        layer_id = _ID[layer]
        counts_output = layer_id in _COUNTS_OUTPUT
        in_replay_too = layer == "lexicon.derive"  # see the module docstring
        tracer = self

        def traced(*args, **kwargs):
            if tracer._in_replay and not in_replay_too:
                return fn(*args, **kwargs)
            sid = tracer._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if counts_output:
                tracer.out[sid] = len(result)
            return result

        return traced

    def _wrap_normalize(self, fn):
        layer_id = _ID["engine.normalize"]
        tracer = self

        def traced(expr):
            if tracer._in_normalize or tracer._in_replay:
                return fn(expr)
            tracer._in_normalize = True
            sid = tracer._open(layer_id)
            try:
                return fn(expr)
            finally:
                tracer._close(sid)
                tracer._in_normalize = False

        return traced

    def _wrap_state_key(self, fn):
        layer_id = _ID["engine.state_key"]
        tracer = self

        def traced(expr, commutative):
            sid = tracer._open(layer_id)
            try:
                key = fn(expr, commutative)
            finally:
                tracer._close(sid)
            tracer.key_calls += 1
            tracer._keys.add(key)
            return key

        return traced

    def _wrap_replay(self, fn):
        layer_id = _ID["engine.replay"]
        tracer = self

        def traced(*args, **kwargs):
            if tracer._in_replay:
                return fn(*args, **kwargs)
            sid = tracer._open(layer_id)
            tracer._in_replay = True
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_replay = False
                tracer._close(sid)

        return traced

    def install(self, engine, lexicon) -> None:
        for attr, layer in ENGINE_HOOKS:
            fn = getattr(engine, attr)
            if layer == "engine.normalize":
                wrapped = self._wrap_normalize(fn)
            elif layer == "engine.state_key":
                wrapped = self._wrap_state_key(fn)
            elif layer == "engine.replay":
                wrapped = self._wrap_replay(fn)
            else:
                wrapped = self._wrap(fn, layer)
            self._saved.append((engine, attr, fn))
            setattr(engine, attr, wrapped)
        for attr, layer in LEXICON_HOOKS:
            fn = getattr(lexicon, attr)
            self._saved.append((lexicon, attr, fn))
            setattr(lexicon, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.name, self.parent, self.start, self.end,
                             self.out, self.key_calls, self.key_distinct)

    def write(self, path) -> None:
        """Gzipped TSV, one line per span: id, layer, query, parent, start,
        end, out."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tlayer\tquery\tparent\tstart\tend\tout\n")
            for k, row in enumerate(zip(self.name, self.query, self.parent,
                                        self.start, self.end, self.out)):
                layer, q, p, s, e, o = row
                f.write(f"{k}\t{LAYERS[layer]}\t{q}\t{p}\t{s!r}\t{e!r}\t{o}\n")


def layer_totals(names, parents, starts, ends, outs) -> dict[str, dict]:
    """Per layer: calls, self seconds and outputs.

    The arguments are columns of one span table: layer id (an index into
    ``LAYERS``), parent row (-1 for a root), start, end and output count.
    Self time is a span's duration minus the durations of its direct
    children; on one thread, children are disjoint and lie inside their
    parent.
    """
    child_time = [0.0] * len(names)
    for parent, start, end in zip(parents, starts, ends):
        if parent >= 0:
            child_time[parent] += end - start
    totals = {name: {"calls": 0, "s": 0.0, "out": 0} for name in LAYERS}
    for layer, start, end, out, inner in zip(names, starts, ends, outs, child_time):
        t = totals[LAYERS[layer]]
        t["calls"] += 1
        t["s"] += end - start - inner
        t["out"] += out
    return totals


def layer_metrics(names, parents, starts, ends, outs, key_calls: int,
                  key_distinct: int) -> dict[str, float]:
    """Flat ``<module>.<function>.<stat>`` figures for one traced run."""
    t = layer_totals(names, parents, starts, ends, outs)
    m: dict[str, float] = {}
    for name in ("lexicon.parse_grammar", "encodings.encode"):
        m[f"{name}.s"] = t[name]["s"]
    for name in ("lexicon.derive", "term.unify", "term.substitute",
                 "engine.apply_step", "engine.normalize", "engine.replay"):
        m[f"{name}.calls"] = t[name]["calls"]
        m[f"{name}.s"] = t[name]["s"]
    unify_calls = t["term.unify"]["calls"]
    m["term.unify.yield_ratio"] = (t["term.unify"]["out"] / unify_calls
                                   if unify_calls else 0.0)
    m["engine.state_key.calls"] = key_calls
    m["engine.state_key.s"] = t["engine.state_key"]["s"]
    m["engine.state_key.distinct"] = key_distinct
    m["engine.state_key.dup_hits"] = key_calls - key_distinct
    generated = 0
    for kind in SUCCESSOR_KINDS:
        name = f"engine.successors.{kind}"
        m[f"{name}.calls"] = t[name]["calls"]
        m[f"{name}.s"] = t[name]["s"]
        m[f"{name}.out"] = t[name]["out"]
        generated += t[name]["out"]
    m["engine.successors.s"] = sum(t[f"engine.successors.{k}"]["s"]
                                   for k in SUCCESSOR_KINDS)
    m["engine.search.useful_ratio"] = key_distinct / generated if generated else 0.0
    m["engine.search.self_s"] = t[SEARCH]["s"]
    return m
