"""Closed-loop benchmark of the maip package: one client, one process, one thread.

    python3 perfbench/run.py --workload cli_large --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and reached only through ``maip.cli.main`` (in-process)
and ``maip.checks.SUITES``.  The timed loop replays the workload's deck
whole, for about ``--seconds`` and at least MIN_SAMPLES ops, so every
run measures the same traffic mix.  Every output is checked; the last
stdout line is the JSON result.

With ``--trace 0`` the result holds the end-to-end metrics, every time
in them scaled to a reference host speed that ``hostspeed.py`` samples
throughout the run, because the shared host's own speed swings by up to
2x.  With ``--trace 1`` half the time runs untraced and half traced, and
the result holds the per-layer metrics of ``spans.py``; the spans are
written to ``.perfbench_out/`` and the ROADMAP "Baseline" stages are
printed at the workload's sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

from gen import random_tangle, to_diagram
from hostspeed import REFERENCE_S, Sampler
from spans import UNITS as LAYER_UNITS
from spans import Tracer, baseline_rows
from workloads import BASELINE_SIZES, WORKLOADS, formula_reference, poly_digests, sha

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_SAMPLES = 100      # p90 is reported, so at least ten samples lie beyond it
SETUP_REPEATS = 5      # setup_s is the median of this many set-ups

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mib": "MiB"}


@dataclass
class Loop:
    """What one stretch of the closed loop measured."""

    latencies: list = field(default_factory=list)
    deck_walls: list = field(default_factory=list)
    failed: int = 0
    compose_ops: int = 0
    pending: Counter = field(default_factory=Counter)   # (key, form, digest) -> ops

    @property
    def wall(self) -> float:
        return sum(self.deck_walls)


def wall(began: float, ended: float) -> float:
    return ended - began


def import_package(clock=wall):
    """Import maip from this checkout's src; returns (modules, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "maip", "__init__.py")):
        raise SystemExit(f"error: no maip package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import maip
    from maip import checks, cli
    seconds = clock(start, time.perf_counter())
    if os.path.dirname(os.path.dirname(os.path.abspath(maip.__file__))) != SRC:
        raise SystemExit(f"error: maip was imported from {maip.__file__}, not from {SRC}")
    return cli, checks, seconds


def run_op(op, cli, checks):
    """One op: a suite trial returns its report, a command (exit code, stdout)."""
    if op.kind == "suite":
        return checks.SUITES[op.suite](1, op.seed)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def observe(op, result):
    """Check what can be checked at once; returns (ok, pending comparison or None)."""
    if op.kind == "suite":
        return result.ok and result.trials == 1, None
    code, stdout = result
    if code != 0:
        return False, None
    if op.kind in ("prop2", "corollary"):
        tokens = stdout.split()
        counted = op.kind == "corollary" or f"crossings_checked={op.crossings}" in tokens
        return tokens[-1:] == ["PASS"] and counted, None
    if op.kind in ("compute", "resolve"):
        poly = stdout.rstrip("\n")
    elif op.form == "json":
        payload = json.loads(stdout)
        if op.kind == "compose" and payload["predict"] != "ok":
            return False, None
        poly = json.dumps(payload["maip"])
    else:
        lines = stdout.splitlines()
        if op.kind == "compose" and "# predict: ok" not in lines:
            return False, None
        found = [line[len("# maip: "):] for line in lines if line.startswith("# maip: ")]
        if len(found) != 1:
            return False, None
        poly = found[0]
    return True, (op.key, op.form, sha(poly))


def measure(batch, seconds: float, cli, checks, tracer=None, min_samples: int = MIN_SAMPLES,
            clock=wall) -> Loop:
    """Replay whole decks for about ``seconds``, until enough ops are done.

    A deck is not started if less than half of one is left, so a run
    lasts ``seconds`` give or take half a deck.  ``clock(began, ended)``
    turns an op's start and end into its latency.
    """
    loop = Loop()
    while True:
        deck_start = time.perf_counter()
        for op in batch.ops:
            if tracer is not None:
                tracer.op = len(loop.latencies)
            began = time.perf_counter()
            try:
                if tracer is not None and op.kind != "suite":
                    result, _ = tracer.run("cli", run_op, op, cli, checks)
                else:
                    result = run_op(op, cli, checks)
            except Exception:
                # An op that raises is a failed op; the loop goes on.
                if not loop.failed:
                    traceback.print_exc()
                result = None
            loop.latencies.append(clock(began, time.perf_counter()))
            loop.compose_ops += op.kind == "compose"
            try:
                ok, pending = (False, None) if result is None else observe(op, result)
            except (ValueError, KeyError, TypeError):    # malformed output
                ok, pending = False, None
            if not ok:
                loop.failed += 1
            elif pending is not None:
                loop.pending[pending] += 1
        loop.deck_walls.append(time.perf_counter() - deck_start)
        left = seconds - loop.wall
        if left < statistics.median(loop.deck_walls) / 2 and len(loop.latencies) >= min_samples:
            return loop


def verify(batch, loop: Loop) -> int:
    """Compare deferred outputs with their references; returns the failed ops."""
    failed = 0
    for (key, form, digest), ops in sorted(loop.pending.items()):
        if key not in batch.expected:
            try:
                batch.expected[key] = poly_digests(formula_reference(batch.subjects[key]()))
            except Exception:
                traceback.print_exc()
                batch.expected[key] = {}
        if batch.expected[key].get(form) != digest:
            print(f"mismatch: {key} ({form} output) differs from its reference", file=sys.stderr)
            failed += ops
    return failed


def set_up(name: str, seed: int, scale: float, workdir: str, cli, checks, clock=wall):
    """Build the inputs, write the files, load references and warm up."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    start = time.perf_counter()
    batch = WORKLOADS[name](seed, workdir, scale)
    for op in batch.warmup:
        run_op(op, cli, checks)
    return batch, clock(start, time.perf_counter())


def end_to_end(loop: Loop, setup_s: float) -> dict:
    """ops_per_s is the ops over the sum of their latencies."""
    lat_ms = sorted(x * 1e3 for x in loop.latencies)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat_ms) / sum(loop.latencies),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(name, seed, seconds, scale, batch, cli, checks):
    """Untraced then traced halves; returns (per-layer metrics, units, loops)."""
    plain = measure(batch, seconds / 2, cli, checks, min_samples=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(batch, seconds / 2, cli, checks, tracer, min_samples=1)
    finally:
        tracer.uninstall()
    overhead = statistics.median(traced.deck_walls) / statistics.median(plain.deck_walls)
    metrics = tracer.metrics(len(traced.latencies), traced.compose_ops, overhead)

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{name}-{seed}.tsv")
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")

    rng = random.Random(seed)
    sizes = sorted({max(1, round(n * scale)) for n in BASELINE_SIZES[name]})
    tangles = [(n, to_diagram(random_tangle(rng, 2, 2, n))) for n in sizes]
    print("ROADMAP baseline stages at this workload's sizes (2 closed + 2 long components):")
    for row in baseline_rows(tangles):
        print(row)
    return metrics, LAYER_UNITS, (plain, traced)


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        tamper=None) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    ``tamper``, if given, is called with the batch after set-up; the
    self-check uses it to plant a wrong reference.
    """
    # Untraced runs time everything at the reference host speed.
    sampler = None if trace else Sampler()
    clock = wall if trace else sampler.scaled
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    try:
        if sampler is not None:
            sampler.start()
        cli, checks, import_s = import_package(clock)
        setups = []
        for _ in range(SETUP_REPEATS):
            batch, seconds_taken = set_up(name, seed, scale, workdir, cli, checks, clock)
            setups.append(seconds_taken)
        setup_s = import_s + statistics.median(setups)
        if tamper is not None:
            tamper(batch)
        if trace:
            metrics, units, loops = traced_run(name, seed, seconds, scale, batch, cli, checks)
        else:
            loops = (measure(batch, seconds, cli, checks, clock=clock),)
            metrics, units = end_to_end(loops[0], setup_s), UNITS
        failed = sum(loop.failed + verify(batch, loop) for loop in loops)
    finally:
        if sampler is not None:
            sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    attempted = sum(len(loop.latencies) for loop in loops)
    samples = len(loops[-1].latencies)
    print(f"workload={name} seed={seed} trace={int(trace)} decks={'+'.join(str(len(l.deck_walls)) for l in loops)}"
          f" ops={attempted} wall_s={sum(l.wall for l in loops):.3f}")
    for key, value in metrics.items():
        extra = ""
        if key == "op_p50_ms":
            extra = f"  (samples={samples})"
        elif key == "op_p90_ms":
            extra = f"  (samples={samples}, {samples - int(0.9 * samples)} beyond)"
        print(f"{key} {value:.6g} {units[key]}{extra}")
    print(f"error_rate {failed / attempted:.6g} ratio  ({failed} failed / {attempted} attempted)")
    if sampler is not None:
        probes = sampler.times
        print(f"host: {len(probes)} probes, mean {statistics.fmean(probes) * 1e3:.4f} ms,"
              f" reference {REFERENCE_S * 1e3:g} ms; unscaled ops_per_s"
              f" {attempted / sum(l.wall for l in loops):.6g} 1/s (deck wall time)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
