"""Spans around the calls into each layer of ``maip``, from outside it.

``Tracer.install`` swaps each traced function, in every ``maip`` module
that holds it (and in ``checks.SUITES``), for a wrapper that records a
span (name, start, end, parent span, op id) and a few counts; the
package's own files are untouched.  Spans stay in memory until
``write`` saves them at the end of the run.

Every ``*_ms`` metric with unit ``ms/op`` is a self time: the span's
duration minus the time its child spans cover, summed over the traced
ops and divided by their number, so these metrics add up to the mean
traced op latency.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name); methods are handled in ``install``.
FUNCTION_SPANS = (
    ("maip.diagram", "parse", "diagram.parse"),
    ("maip.diagram", "from_json", "diagram.from_json"),
    ("maip.diagram", "validate", "diagram.validate"),
    ("maip.diagram", "serialize", "diagram.serialize"),
    ("maip.diagram", "to_json", "diagram.to_json"),
    ("maip.invariant", "propagate_labels", "invariant.propagate_labels"),
    ("maip.invariant", "weight_table", "invariant.weight_table"),
    ("maip.invariant", "structured_maip", "invariant.structured_maip"),
    ("maip.invariant", "contribution_poly", "algebra.assemble"),
    ("maip.invariant", "vassiliev_eval", "invariant.resolve"),
    ("maip.algebra", "render", "algebra.render"),
    ("maip.algebra", "poly_to_json", "algebra.to_json"),
    ("maip.tangle_ops", "compose", "tangle_ops.compose"),
    ("maip.tangle_ops", "predict_composed", "tangle_ops.predict"),
    ("maip.tangle_ops", "tensor", "tangle_ops.tensor"),
    ("maip.homology", "check_prop2", "homology.check_prop2"),
    ("maip.homology", "maip_via_homology", "homology.maip_via_homology"),
    ("maip.homology", "homological_weight", "homology.weight"),
    ("maip.checks", "check_moves", "checks.moves"),
    ("maip.checks", "check_prop2_suite", "checks.prop2"),
    ("maip.checks", "check_corollary_suite", "checks.corollary"),
    ("maip.checks", "check_compose_suite", "checks.compose"),
    ("maip.checks", "check_vassiliev_suite", "checks.vassiliev"),
)

MOVE_KINDS = {"R1+": "r1_ins", "R1-": "r1_del", "R2+": "r2_ins", "R2-": "r2_del", "R3": "r3"}
SUITE_NAMES = ("moves", "prop2", "corollary", "compose", "vassiliev")

# Self-time metrics (ms/op) and the span each one reads.
SELF_MS = {
    "cli.self_ms": "cli",
    "checks.self_ms": "checks.*",
    "diagram.parse_ms": "diagram.parse",
    "diagram.from_json_ms": "diagram.from_json",
    "diagram.validate_ms": "diagram.validate",
    "diagram.serialize_ms": "diagram.serialize",
    "diagram.to_json_ms": "diagram.to_json",
    "diagram.passage_positions_ms": "diagram.passage_positions",
    "invariant.propagate_labels_ms": "invariant.propagate_labels",
    "invariant.weight_table_ms": "invariant.weight_table",
    "invariant.structured_maip_ms": "invariant.structured_maip",
    "invariant.resolve_ms": "invariant.resolve",
    "algebra.assemble_ms": "algebra.assemble",
    "algebra.render_ms": "algebra.render",
    "algebra.to_json_ms": "algebra.to_json",
    "tangle_ops.compose_ms": "tangle_ops.compose",
    "tangle_ops.glue_plan_ms": "tangle_ops.glue_plan",
    "tangle_ops.predict_ms": "tangle_ops.predict",
    "tangle_ops.tensor_ms": "tangle_ops.tensor",
    "homology.check_prop2_ms": "homology.check_prop2",
    "homology.maip_via_homology_ms": "homology.maip_via_homology",
    "homology.weight_ms": "homology.weight",
    "moves.walk_ms": "moves.walk",
    "moves.find_sites_ms": "moves.find_sites",
}

# Every per-layer metric a traced run prints, with its unit.
UNITS = dict.fromkeys(SELF_MS, "ms/op")
UNITS.update({
    "diagram.passage_positions_calls": "count/op",
    "invariant.maip.scaling": "slope",
    "invariant.resolutions": "count/op",
    "algebra.terms_in": "count/op",
    "algebra.terms_out": "count/op",
    "algebra.terms_kept_ratio": "ratio",
    "tangle_ops.predict_coverage": "ratio",
    "homology.weight_us_per_crossing": "us",
    "homology.crossings_checked": "count/op",
    "homology.scaling": "slope",
    "moves.us_per_move": "us",
    **{f"moves.applied.{kind}": "count/op" for kind in MOVE_KINDS.values()},
    "moves.r3_share": "ratio",
    **{f"checks.{name}.trial_ms": "ms" for name in SUITE_NAMES},
    "trace.overhead_ratio": "ratio",
})


class Tracer:
    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index, op id)
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)   # name -> [(crossings, seconds)]
        self._patched: list = []

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns (result, seconds)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), time.perf_counter() - start
        finally:
            self.stack.pop()
            self.spans[idx] = (name, start, time.perf_counter(), parent, self.op)

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            result, seconds = self.run(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result, seconds)
            return result
        traced.__wrapped__ = fn
        return traced

    def _replace(self, target, attr: str, value) -> None:
        """Set ``target.attr`` (or ``target[attr]`` for a dict), keeping the original."""
        if isinstance(target, dict):
            self._patched.append((target, attr, target[attr]))
            target[attr] = value
        else:
            self._patched.append((target, attr, vars(target)[attr]))
            setattr(target, attr, value)

    def _swap_everywhere(self, fn, wrapper) -> None:
        from maip import checks

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "maip" or mod_name.startswith("maip."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, wrapper)
        for suite, value in list(checks.SUITES.items()):
            if value is fn:
                self._replace(checks.SUITES, suite, wrapper)

    def install(self) -> None:
        from maip import moves
        from maip.diagram import TangleDiagram
        from maip.tangle_ops import GluePlan

        hooks = {
            "algebra.assemble": self._after_assemble,
            "invariant.resolve": self._after_resolve,
            "homology.check_prop2": self._after_oracle,
            "homology.maip_via_homology": self._after_oracle,
            "homology.weight": lambda args, result, s: self.counts.update(["crossings_checked"]),
            "tangle_ops.predict": lambda args, result, s: self.counts.update(["predictions"]),
        }
        for module, attr, name in FUNCTION_SPANS:
            fn = getattr(importlib.import_module(module), attr)
            self._swap_everywhere(fn, self._wrap(name, fn, hooks.get(name)))
        self._swap_everywhere(moves.random_walk, self._walk_wrapper(moves))

        positions = TangleDiagram.passage_positions
        self._replace(TangleDiagram, "passage_positions",
                      self._wrap("diagram.passage_positions", positions,
                                 lambda args, result, s: self.counts.update(["positions"])))
        from_tangles = GluePlan.__dict__["from_tangles"].__func__
        self._replace(GluePlan, "from_tangles",
                      staticmethod(self._wrap("tangle_ops.glue_plan", from_tangles)))

    def uninstall(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    def _after_assemble(self, args, result, seconds) -> None:
        n = len(args[0])
        self.counts["terms_in"] += 2 * n
        self.counts["terms_out"] += len(result.terms)
        self.samples["assemble"].append((n, seconds))

    def _after_resolve(self, args, result, seconds) -> None:
        k = len(args[0].singular_ids())
        self.counts["resolutions"] += 2 ** k if k else 0

    def _after_oracle(self, args, result, seconds) -> None:
        self.samples["homology"].append((len(args[0].classical_ids()), seconds))

    def _walk_wrapper(self, moves):
        walk = moves.random_walk

        def find_sites(d):
            moves.find_r1_delete_sites(d)
            moves.find_r2_delete_sites(d)
            moves.find_r3_sites(d)

        def traced(d, n_moves, seed, log=None):
            self.run("moves.find_sites", find_sites, d)
            entries = log if log is not None else []
            before = len(entries)
            out, _ = self.run("moves.walk", walk, d, n_moves, seed, entries)
            self.counts.update(MOVE_KINDS[e.split(" ", 1)[0]] for e in entries[before:])
            return out
        traced.__wrapped__ = walk
        return traced

    # -- results -------------------------------------------------------------

    def metrics(self, n_ops: int, compose_ops: int, overhead_ratio: float) -> dict:
        inclusive: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent, _op), child in zip(self.spans, covered):
            key = "checks.*" if name.startswith("checks.") else name
            inclusive[name] += end - start
            own[key] += end - start - child
            calls[name] += 1

        c = self.counts
        applied = sum(c[kind] for kind in MOVE_KINDS.values())
        out = {metric: own[span] * 1e3 / n_ops for metric, span in SELF_MS.items()}
        out.update({
            "diagram.passage_positions_calls": c["positions"] / n_ops,
            "invariant.maip.scaling": loglog_slope(self.samples["assemble"]),
            "invariant.resolutions": c["resolutions"] / n_ops,
            "algebra.terms_in": c["terms_in"] / n_ops,
            "algebra.terms_out": c["terms_out"] / n_ops,
            "algebra.terms_kept_ratio": _ratio(c["terms_out"], c["terms_in"]),
            "tangle_ops.predict_coverage": _ratio(c["predictions"], compose_ops),
            "homology.weight_us_per_crossing":
                _ratio(inclusive["homology.weight"] * 1e6, calls["homology.weight"]),
            "homology.crossings_checked": c["crossings_checked"] / n_ops,
            "homology.scaling": loglog_slope(self.samples["homology"]),
            "moves.us_per_move": _ratio(inclusive["moves.walk"] * 1e6, applied),
            "moves.r3_share": _ratio(c["r3"], applied),
            "trace.overhead_ratio": overhead_ratio,
        })
        for kind in MOVE_KINDS.values():
            out[f"moves.applied.{kind}"] = c[kind] / n_ops
        for name in SUITE_NAMES:
            span = f"checks.{name}"
            out[f"{span}.trial_ms"] = _ratio(inclusive[span] * 1e3, calls[span])
        return {name: out[name] for name in UNITS}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart_us\tend_us\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start * 1e6:.1f}\t{end * 1e6:.1f}\t{parent}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def loglog_slope(samples) -> float:
    """Least-squares slope of log(seconds) against log(crossings).

    Each octave of sizes gives one point (its medians), so many small
    calls do not outweigh a few large ones; 0 with fewer than two octaves.
    """
    octaves = defaultdict(list)
    for n, seconds in samples:
        if n >= 1 and seconds > 0:
            octaves[int(math.log2(n))].append((math.log(n), math.log(seconds)))
    points = [(statistics.median(x for x, _ in pts), statistics.median(y for _, y in pts))
              for pts in octaves.values()]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def baseline_rows(tangles) -> list[str]:
    """The ROADMAP "Baseline" stages, timed on each (crossings, diagram) given."""
    from maip.diagram import parse, serialize
    from maip.homology import check_prop2, maip_via_homology
    from maip.invariant import maip, propagate_labels

    stages = (
        ("parse(serialize(d))", lambda d: parse(serialize(d))),
        ("propagate_labels", propagate_labels),
        ("maip", maip),
        ("maip_via_homology", maip_via_homology),
        ("check_prop2", check_prop2),
    )
    sizes = [n for n, _ in tangles]
    rows = ["| stage | " + " | ".join(f"n={n}" for n in sizes) + " |",
            "|---|" + "---|" * len(sizes)]
    for label, stage in stages:
        cells = []
        for _n, d in tangles:
            start = time.perf_counter()
            stage(d)
            cells.append(f"{time.perf_counter() - start:.4f} s")
        rows.append(f"| `{label}` | " + " | ".join(cells) + " |")
    return rows
