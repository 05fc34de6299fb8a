"""Benchmark runner for schemelab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: schemelab is imported from ``src/`` next to
this directory and nothing is installed. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every op ran and every oracle check passed
(``failed`` / ``attempted`` is the failure fraction).

A workload is a fixed list of ops for the seed, one pass. Passes repeat
until the timed op time, in reference seconds (below), reaches
``--seconds``, so that a run does the same number of passes however fast
the host is at the time; at least two run, so
every op repeats and CLI stdout bytes are compared between repeats. Whole
passes keep the op mix of every run the same. ``gc.collect()`` runs
between timed ops, never inside one, and the warm-up op(s) run untimed.

Untraced runs (``--trace 0``) report the end-to-end metrics. Times are
in reference seconds (``hostspeed.py``): each wall time is scaled by a
fixed kernel timed just before and just after it, so that the host's own
swings in speed cancel.

* ``setup_s``: the time from process start to the first timed op, once:
  importing schemelab, building the workload's inputs (and, in the library
  sessions, the schemes and spectral data) and the untimed warm-up op(s).
  It is scaled piece by piece, between checkpoints after each costly step,
  and leaves out the probes and the warm-up ops' checks.
* ``ops_per_s``: completed ops per second of timed op time.
* ``op_p50_s``: the median, over the ops of a pass, of each op's median
  latency over the run.
* ``op_tail_s``: the latency at the highest percentile with ten timings
  beyond it (printed with the number of timings).
* ``candidates_per_s``: codes or partitions classified (equitable or not)
  per second of the ops that classify them: ``SearchResult.tested`` for
  searches, one per partition op.
* ``peak_rss_mb``: peak resident set of this process.

Traced runs (``--trace 1``) set up once with tracing on, then run every op
of the pass untraced and traced in turn, four times each with the order
alternating, and report the per-layer metrics of the traced set-up and op
runs (see ``tracing.py``; their times are wall seconds) plus the tracing
overhead: the sum over ops of the least traced latency minus the least
untraced one, in reference seconds. The overhead is small next to the
host's noise and can come out below zero. A traced run does the same work
for a given seed whatever ``--seconds`` is, so its counts repeat exactly.
Spans are written to ``.perfbench_out/``.
"""
from __future__ import annotations

import time

import hostspeed

_CLOCK = hostspeed.ScaledClock()   # set-up time, from process start
_T0 = _CLOCK.start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
TAIL_BEYOND = 10
TRACED_REPEATS = 4


def load_schemelab():
    """Import schemelab from ``src/`` of this checkout, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sl = importlib.import_module("schemelab")
    importlib.import_module("schemelab.cli")
    if not Path(sl.__file__).resolve().is_relative_to(src):
        raise ImportError(f"schemelab was found at {sl.__file__}, outside {src}")
    return sl


class Tally:
    """Attempted and failed ops, with the first few problems for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op, out, error) -> bool:
        self.attempted += 1
        try:
            problems = [f"raised {error!r}"] if error is not None else op.check(out)
        except Exception as exc:  # a check that crashes is a failed op
            problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.label}: {'; '.join(problems)}")
        return not problems


def call(op):
    """Run one op; returns (output, exception)."""
    try:
        return op.run(), None
    except Exception as exc:  # the op failed; the loop goes on
        return None, exc


def run_op(op):
    """Run one op between two host-speed probes.

    Returns (wall latency, latency in reference seconds, output, exception).
    """
    before = hostspeed.probe()
    start = time.perf_counter()
    out, error = call(op)
    latency = time.perf_counter() - start
    return latency, hostspeed.scale(latency, before, hostspeed.probe()), out, error


def checked_op(op, tally):
    """gc, then one checked op; returns (wall latency, scaled latency,
    candidates classified or None, whether every check passed)."""
    gc.collect()
    latency, scaled, out, error = run_op(op)
    passed = tally.record(op, out, error)
    candidates = op.candidates(out) if passed and op.candidates else None
    return latency, scaled, candidates, passed


def set_up(workload, sl, seed, work_dir, tally, checkpoint=lambda: None):
    """Build the session and run its warm-up ops, calling ``checkpoint``
    between the steps; the warm-up ops are checked after the last one."""
    session = workload.setup(sl, seed, work_dir, workload.config, checkpoint)
    results = []
    for op in session.warmup:
        results.append(call(op))
        checkpoint()
    for op, (out, error) in zip(session.warmup, results):
        tally.record(op, out, error)
    return session


def timed_run(workload, sl, seed, seconds, work_dir, tally):
    session = set_up(workload, sl, seed, work_dir, tally, _CLOCK.checkpoint)
    samples = []   # (op index, scaled latency, candidates or None)
    timed, wall, passes = 0.0, 0.0, 0
    while passes < MIN_PASSES or timed < seconds:
        for i, op in enumerate(session.ops):
            latency, scaled, candidates, passed = checked_op(op, tally)
            timed += scaled
            wall += latency
            if passed:
                samples.append((i, scaled, candidates))
        passes += 1
    latencies = sorted(lat for _, lat, _ in samples)
    per_op = {}
    for i, lat, _ in samples:
        per_op.setdefault(i, []).append(lat)
    tail_rank = max(1, len(latencies) - TAIL_BEYOND)   # 1-based
    classifying = [(lat, c) for _, lat, c in samples if c is not None]
    metrics = {
        "setup_s": (_CLOCK.scaled, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "op_p50_s": (statistics.median(statistics.median(v) for v in per_op.values()), "s"),
        "op_tail_s": (latencies[tail_rank - 1], "s"),
        "candidates_per_s": (sum(c for _, c in classifying)
                             / sum(lat for lat, _ in classifying), "cand/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{passes} passes of {len(session.ops)} ops in {timed:.3f} reference s "
          f"({wall:.3f} s wall); set-up {_CLOCK.wall:.3f} s wall")
    print(f"op_tail_s is p{100 * tail_rank / len(latencies):.1f} of {len(latencies)} "
          f"timings, {len(latencies) - tail_rank} beyond it")
    return metrics


def traced_run(workload, sl, seed, work_dir, tally, spans_path):
    import tracing

    tracer = tracing.Tracer()
    tracer.install(sl)
    try:
        tracer.op = "setup"
        with tracer.span("bench.setup"):
            session = set_up(workload, sl, seed, work_dir, tally)
        tracer.op = None
    finally:
        tracer.uninstall()
    latencies = {False: [[] for _ in session.ops],   # scaled latencies per op,
                 True: [[] for _ in session.ops]}    # untraced and traced
    for repeat in range(TRACED_REPEATS):
        for i, op in enumerate(session.ops):
            # which goes first alternates, so that neither gains from the other
            for traced in (False, True) if repeat % 2 == 0 else (True, False):
                if traced:
                    tracer.install(sl)
                    tracer.op = i
                try:
                    with tracer.span("bench.op") if traced else contextlib.nullcontext():
                        _, scaled, _, passed = checked_op(op, tally)
                finally:
                    if traced:
                        tracer.op = None
                        tracer.uninstall()
                if passed:
                    latencies[traced][i].append(scaled)
    tracer.write(spans_path, _T0)
    base = sum(min(x) for x in latencies[False])
    overhead = sum(min(t) - min(u) for t, u in zip(latencies[True], latencies[False]))
    print(f"least untraced op latencies sum to {base:.3f} reference s, traced "
          f"{base + overhead:.3f}; {len(tracer.spans)} spans written to {spans_path}")
    values = tracer.metrics()
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / base
    return {name: (value, tracing.unit(name)) for name, value in values.items()}


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        sl = load_schemelab()
        _CLOCK.checkpoint()
    except ImportError as exc:
        print(f"error: cannot import schemelab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    tally = Tally()
    try:
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = traced_run(workload, sl, args.seed, work_dir, tally, spans_path)
        else:
            metrics = timed_run(workload, sl, args.seed, args.seconds, work_dir, tally)
    except Exception:  # e.g. no op passed, so a metric is undefined
        traceback.print_exc()
        metrics = None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in tally.problems:
        print(f"FAILED {line}")
    if metrics is None:
        return 1
    print(f"workload {args.workload} seed {args.seed}: {tally.attempted} ops checked, "
          f"{tally.failed} failed (fail_frac {tally.failed / tally.attempted:.4f})")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
