"""Benchmark runner: one workload, one seed, one process, one client.

Run from the root of a checkout of the repository::

    python3 bench/run.py --workload parse-scope --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` and called in-process as a closed loop
with one client: each query starts when the previous one has returned.  A run
runs its seeded cycle of queries once untimed, so that the program's caches
fill, then repeats it and stops at the end of the cycle in which the time
spent in queries, at the reference speed, reaches ``--seconds``.  So every
run measures whole cycles.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
Each output is checked right after its query, outside the timed call, and
the timings are scaled to a reference machine speed (see ``speed.py``).
``--trace 1`` runs, after the warm-up, one cycle untraced and then the same
cycle traced, checks the traced outputs once the tracing is removed, and
reports the per-layer metrics and the tracing overhead; its spans are
written to ``.bench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a longer
report: error and truncation rates, the latency tail and, in a traced run,
every per-layer figure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedSampler, factors  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SETUP_REPEATS = 25
SEGMENT_S = 1.0  # query time covered by one speed factor
TAIL_SAMPLES = 10  # samples a tail percentile must have beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Per-layer metrics in the last line of a traced run (BENCHMARK.json); the
# report line before it has the rest.
PER_LAYER = {
    "lexicon.derive.calls": "count", "lexicon.derive.s": "s",
    "term.unify.calls": "count", "term.unify.s": "s",
    "term.unify.yield_ratio": "1/call",
    "term.substitute.calls": "count", "term.substitute.s": "s",
    "engine.state_key.calls": "count", "engine.state_key.s": "s",
    "engine.state_key.distinct": "count", "engine.state_key.dup_hits": "count",
    **{f"engine.successors.{k}.{stat}": "count"
       for k in ("expand", "cancel", "block", "saturate")
       for stat in ("calls", "out")},
    "engine.successors.s": "s",
    "engine.search.useful_ratio": "ratio",
    "engine.apply_step.calls": "count", "engine.apply_step.s": "s",
    "engine.normalize.calls": "count", "engine.normalize.s": "s",
    "engine.replay.calls": "count", "engine.replay.s": "s",
    "engine.search.self_s": "s",
    "bench.tracing.overhead": "ratio",
}


def import_program():
    """Import the program afresh, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "ggroup" or m.startswith("ggroup.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"ggroup.{m}")
                              for m in ("term", "lexicon", "encodings", "engine")})


def setup(workload, cycle, repeats: int, root: Path = ROOT, tracer=None, sampler=None):
    """Import and load ``repeats`` times.

    Returns the last load, the set-up times and the speed factors over them.
    """
    span = tracer.span if tracer is not None else (lambda _: nullcontext())
    mark = sampler.mark if sampler is not None else (lambda: None)
    times = []
    first = mark()
    for _ in range(repeats):
        # marks inside the clock readings: a tick between them is never taken
        # out of a time it did not fall in
        t0 = time.perf_counter()
        m = mark()
        g = import_program()
        ctx = workload.load(g, root, cycle, span)
        tick_wall = _ticks(m, mark())[0]
        times.append(time.perf_counter() - t0 - tick_wall)
    return g, ctx, times, factors_between(first, mark())


def _ticks(start, end) -> tuple[float, float]:
    """Wall and CPU seconds spent in sampler ticks between two marks."""
    if start is None:
        return 0.0, 0.0
    return end[3] - start[3], end[4] - start[4]


def factors_between(start, end) -> tuple[float, float]:
    return (1.0, 1.0) if start is None else factors(start, end)


def run_cycles(workload, g, ctx, cycle, seconds: float, on_outcome, tracer=None,
               sampler=None):
    """Closed loop over whole cycles until ``seconds`` of query time, at the
    reference speed, are spent.

    Only the query calls are timed, less the sampler ticks that fell inside
    them.  ``on_outcome(query, outcome, error)`` runs between them, outside
    the timed region.  ``seconds <= 0`` runs one cycle.  Returns the number
    of cycles and the segments: runs of consecutive queries of at least
    SEGMENT_S query time, each with its latencies, CPU seconds and the
    sampler marks at its ends.
    """
    mark = sampler.mark if sampler is not None else (lambda: None)
    segments = [SimpleNamespace(latencies=[], cpu=0.0, start=mark(), end=None)]
    cycles = 0
    while True:
        for q in cycle:
            seg = segments[-1]
            if tracer is not None:
                tracer.begin_query()
            c, s = time.process_time(), time.perf_counter()
            m = mark()
            try:
                with tracer.span("bench.query") if tracer else nullcontext():
                    outcome, error = workload.run(g, ctx, q), None
            except Exception:  # a failed query is counted, and the run goes on
                outcome, error = None, traceback.format_exc(limit=3)
            tick_wall, tick_cpu = _ticks(m, mark())
            wall, cpu = time.perf_counter() - s, time.process_time() - c
            seg.latencies.append(wall - tick_wall)
            seg.cpu += cpu - tick_cpu
            if tracer is not None:
                tracer.end_query()
            on_outcome(q, outcome, error)
            if sum(seg.latencies) >= SEGMENT_S:
                seg.end = mark()
                segments.append(SimpleNamespace(latencies=[], cpu=0.0,
                                                start=seg.end, end=None))
        cycles += 1
        # time at the reference speed decides, so the number of cycles does
        # not depend on how busy the machine is
        segments[-1].end = mark()
        if sum(scaled(segments)[0]) >= seconds:
            last = segments[-1]
            if len(segments) > 1 and last.start is not None and last.start[0] == last.end[0]:
                segments.pop()  # a tail that no tick fell in joins the one before
                segments[-1].latencies += last.latencies
                segments[-1].cpu += last.cpu
                segments[-1].end = last.end
            return cycles, segments


def scaled(segments) -> tuple[list[float], float]:
    """Latencies and CPU seconds at the reference speed, segment by segment."""
    latencies, cpu = [], 0.0
    for seg in segments:
        wall_f, cpu_f = factors_between(seg.start, seg.end)
        latencies += [t * wall_f for t in seg.latencies]
        cpu += seg.cpu * cpu_f
    return latencies, cpu


class Checker:
    """Checks each outcome and counts the failed and the truncated queries."""

    def __init__(self, workload, g, ctx):
        self.workload, self.g, self.ctx = workload, g, ctx
        self.attempted = self.failed = self.truncated = 0
        self.messages: list[str] = []
        # outcomes already checked, per query: a repeat of one of them has
        # the same verdict, so only outcomes that differ are replayed
        self._verdicts: dict[int, list] = {}

    def __call__(self, q, outcome, error) -> None:
        self.attempted += 1
        if error:
            errors = [error]
        else:
            seen = self._verdicts.setdefault(id(q), [])
            errors = next((e for o, e in seen if o == outcome), None)
            if errors is None:
                errors = self.workload.check(self.g, self.ctx, q, outcome)
                seen.append((outcome, errors))
            self.truncated += outcome.truncated
        if errors:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{q.kind} {q.text.strip()!r}: {errors[0]}")


def latency_tail(latencies) -> dict | None:
    """The highest listed percentile with at least TAIL_SAMPLES beyond it."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        beyond = int(n * (100.0 - p) / 100.0)
        if beyond >= TAIL_SAMPLES:
            ranked = sorted(latencies)
            return {"percentile": p, "value_ms": ranked[n - beyond - 1] * 1e3,
                    "samples_beyond": beyond, "samples": n}
    return None


def measure(args, workload, cycle) -> tuple[dict, dict, Checker]:
    with SpeedSampler() as sampler:
        g, ctx, setup_times, setup_f = setup(workload, cycle, SETUP_REPEATS,
                                             sampler=sampler)
        checker = Checker(workload, g, ctx)
        run_cycles(workload, g, ctx, cycle, 0, checker)  # warm-up, not timed
        cycles, segments = run_cycles(workload, g, ctx, cycle, args.seconds, checker,
                                      sampler=sampler)
    latencies, cpu = scaled(segments)
    n = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times) * setup_f[0], "s"),
        "throughput_qps": (n / sum(latencies), "1/s"),
        "cpu_per_query_ms": (cpu / n * 1e3, "ms"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = [t for seg in segments for t in seg.latencies]
    report = {"cycle_queries": len(cycle), "cycles": cycles,
              "error_rate": checker.failed / checker.attempted,
              "truncated_rate": checker.truncated / checker.attempted,
              "latency_tail_ms": latency_tail(latencies),
              "speed_factors": {
                  "setup_wall": setup_f[0],
                  "wall": [factors_between(s.start, s.end)[0] for s in segments]},
              "raw": {"setup_runs_s": setup_times, "query_s": sum(raw),
                      "cpu_s": sum(seg.cpu for seg in segments),
                      "latency_p50_ms": statistics.median(raw) * 1e3}}
    return metrics, report, checker


def measure_traced(args, workload, cycle) -> tuple[dict, dict, Checker]:
    """No speed sampling here: its ticks would land inside the spans."""
    tracer = Tracer()
    g, ctx, _, _ = setup(workload, cycle, 1, tracer=tracer)
    checker = Checker(workload, g, ctx)
    run_cycles(workload, g, ctx, cycle, 0, checker)  # warm-up, not timed
    plain, _ = scaled(run_cycles(workload, g, ctx, cycle, 0, checker)[1])
    outcomes = []
    tracer.install(g.engine, g.lexicon)
    try:
        traced, _ = scaled(run_cycles(workload, g, ctx, cycle, 0,
                                      lambda *o: outcomes.append(o), tracer)[1])
    finally:
        tracer.uninstall()
    for o in outcomes:
        checker(*o)
    untraced_qps = len(plain) / sum(plain)
    traced_qps = len(traced) / sum(traced)
    layers = tracer.metrics()
    layers["bench.tracing.overhead"] = 1.0 - traced_qps / untraced_qps
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    # one file per workload, so repeated runs do not pile up spans on disk
    spans_path = out_dir / f"spans-{workload.name}.tsv.gz"
    tracer.write(spans_path)
    metrics = {k: (layers[k], unit) for k, unit in PER_LAYER.items()}
    report = {"cycle_queries": len(cycle),
              "error_rate": checker.failed / checker.attempted,
              "truncated_rate": checker.truncated / checker.attempted,
              "untraced_throughput_qps": untraced_qps,
              "traced_throughput_qps": traced_qps,
              "spans": len(tracer.name), "spans_file": str(spans_path.relative_to(ROOT)),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "layers": layers}
    return metrics, report, checker


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in ("src/ggroup/engine.py", "grammars/english.gg", "grammars/often.dcg"):
        if not (ROOT / needed).is_file():
            print(f"bench: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    cycle = workload.cycle(args.seed)
    measure_fn = measure_traced if args.trace else measure
    metrics, report, checker = measure_fn(args, workload, cycle)
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              **report, "errors": checker.messages}
    print(json.dumps(report))
    print(json.dumps({
        "correct": checker.failed == 0, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
