"""Seeded property suites behind ``maip check`` and the acceptance tests.

Every suite derives one generator state per trial from (seed, trial
index), so a reported failure is reproducible from the printed numbers
alone.  Reports carry the offending diagram dumps and move logs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .algebra import LaurentPoly, reindex, render
from .diagram import (OVER, UNDER, Component, CrossingRecord, Passage,
                      TangleDiagram, random_diagram, serialize, validate)
from .homology import check_prop2, maip_via_homology
from .invariant import maip, resolve_singular, structured_maip, vassiliev_eval
from .moves import random_walk
from .tangle_ops import GluePlan, compose, predict_composed, tensor

_TRIAL_STRIDE = 1_000_003
_MAX_MOVES = 50  # longest walk of one moves trial
_MAX_IFACE = 4   # most glued slots of one composable pair


def _trial_seed(seed: int, trial: int) -> int:
    return seed * _TRIAL_STRIDE + trial


@dataclass
class CheckReport:
    name: str
    trials: int
    seed: int
    failures: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL ({len(self.failures)} failures)"
        extra = "".join(f" {k}={v}" for k, v in sorted(self.stats.items()))
        return f"what={self.name} trials={self.trials} seed={self.seed}:{extra} {verdict}"

    def failure_lines(self) -> list[str]:
        """Each failure as a '-- trial' line and one indented line per field."""
        lines = []
        for failure in self.failures:
            lines.append(f"-- trial {failure['trial']} (seed {failure['seed']})")
            lines.extend(f"   {key}: {value}" for key, value in failure.items()
                         if key not in ("trial", "seed"))
        return lines

    def to_json(self) -> dict:
        return {
            "what": self.name,
            "trials": self.trials,
            "seed": self.seed,
            "ok": self.ok,
            "stats": self.stats,
            "failures": self.failures,
        }


def _trial(seed: int, trial: int, diagram: TangleDiagram | None = None,
           max_crossings: int = 12, n_singular: int = 0):
    """Seed, generator and diagram of one trial; the diagram is drawn unless given."""
    tseed = _trial_seed(seed, trial)
    rng = random.Random(tseed)
    if diagram is None:
        total = rng.randint(1, 4)
        n_closed = rng.randint(0, total)
        diagram = random_diagram(tseed, n_closed, total - n_closed,
                                 rng.randint(0, max_crossings), n_singular)
    return tseed, rng, diagram


def check_moves(trials: int, seed: int, diagram: TangleDiagram | None = None) -> CheckReport:
    """Random walks of classical moves must preserve the polynomial exactly."""
    report = CheckReport("moves", trials, seed)
    total_moves = 0
    for trial in range(trials):
        tseed, rng, d = _trial(seed, trial, diagram)
        before = maip(d)
        log: list[str] = []
        walked = random_walk(d, rng.randint(1, _MAX_MOVES), tseed + 1, log)
        total_moves += len(log)
        problems = validate(walked)
        after = maip(walked)
        if problems or after != before:
            report.failures.append({
                "trial": trial,
                "seed": tseed,
                "diagram": serialize(d),
                "moves": log,
                "violations": problems,
                "before": render(before),
                "after": render(after),
            })
    report.stats["moves_applied"] = total_moves
    return report


def check_prop2_suite(trials: int, seed: int,
                      diagram: TangleDiagram | None = None) -> CheckReport:
    """Every crossing weight must match its homological counterpart."""
    report = CheckReport("prop2", trials if diagram is None else 1, seed)
    checked = 0
    for trial in range(report.trials):
        tseed, _rng, d = _trial(seed, trial, diagram)
        res = check_prop2(d)
        checked += len(res.entries)
        if not res.ok:
            report.failures.append({
                "trial": trial,
                "seed": tseed,
                "diagram": serialize(d),
                "crossings": [
                    {"id": e.crossing, "weight": str(e.weight),
                     "homological": str(e.homological), "expected": str(e.expected)}
                    for e in res.failures()
                ],
            })
    report.stats["crossings_checked"] = checked
    return report


def check_corollary_suite(trials: int, seed: int,
                          diagram: TangleDiagram | None = None) -> CheckReport:
    """The homological reassembly must reproduce the polynomial exactly."""
    report = CheckReport("corollary", trials if diagram is None else 1, seed)
    for trial in range(report.trials):
        tseed, _rng, d = _trial(seed, trial, diagram)
        direct = maip(d)
        homological = maip_via_homology(d)
        if direct != homological:
            report.failures.append({
                "trial": trial,
                "seed": tseed,
                "diagram": serialize(d),
                "direct": render(direct),
                "homological": render(homological),
            })
    return report


# ---------------------------------------------------------------------------
# composable pairs


def _random_side(rng: random.Random, iface_roles: list[str], iface_prefix: str,
                 outer_prefix: str, max_crossings: int) -> TangleDiagram:
    """A random valid tangle whose interface slots carry the given roles."""
    iface_starts = [k for k, r in enumerate(iface_roles, start=1) if r == "start"]
    iface_ends = [k for k, r in enumerate(iface_roles, start=1) if r == "end"]
    rng.shuffle(iface_starts)
    rng.shuffle(iface_ends)
    comps: list[list[str | None]] = []
    while iface_starts and iface_ends and rng.random() < 0.45:
        comps.append([f"{iface_prefix}{iface_starts.pop()}", f"{iface_prefix}{iface_ends.pop()}"])
    for s in iface_starts:
        comps.append([f"{iface_prefix}{s}", None])
    for e in iface_ends:
        comps.append([None, f"{iface_prefix}{e}"])
    for _ in range(rng.randint(0, 1)):
        comps.append([None, None])
    n_closed = rng.randint(0, 1)

    outer_requests = [(idx, which) for idx, pair in enumerate(comps)
                      for which in (0, 1) if pair[which] is None]
    rng.shuffle(outer_requests)
    for slot_num, (idx, which) in enumerate(outer_requests, start=1):
        comps[idx][which] = f"{outer_prefix}{slot_num}"
    rng.shuffle(comps)

    total = len(comps) + n_closed
    crossings: dict[int, CrossingRecord] = {}
    buckets: list[list[Passage]] = [[] for _ in range(total)]
    for cid in range(1, rng.randint(0, max_crossings) + 1):
        crossings[cid] = CrossingRecord.classical(rng.choice((1, -1)))
        for role in (OVER, UNDER):
            buckets[rng.randrange(total)].append(Passage(cid, role))
    for bucket in buckets:
        rng.shuffle(bucket)

    components = [Component("long", tuple(buckets[i]), s, e)
                  for i, (s, e) in enumerate(comps)]
    components += [Component("closed", tuple(buckets[len(comps) + j]))
                   for j in range(n_closed)]
    n_outer = len(outer_requests)
    if iface_prefix == "B":
        m, n = n_outer, len(iface_roles)
    else:
        m, n = len(iface_roles), n_outer
    return TangleDiagram(m, n, tuple(components), crossings)


def random_composable_pair(seed: int, max_crossings: int = 8):
    """A deterministic composable (upper, lower, plan) triple.

    Pairs whose gluing closes a cycle are redrawn, since polynomial
    prediction is only defined for chain gluings.
    """
    for attempt in itertools.count():
        rng = random.Random(seed * 7919 + attempt)
        n_iface = rng.randint(1, _MAX_IFACE)
        flows = [rng.choice(("down", "up")) for _ in range(n_iface)]
        upper = _random_side(rng, ["end" if f == "down" else "start" for f in flows],
                             "B", "T", max_crossings)
        lower = _random_side(rng, ["start" if f == "down" else "end" for f in flows],
                             "T", "B", max_crossings)
        plan = GluePlan.from_tangles(upper, lower)
        if not plan.has_cycles:
            return upper, lower, plan


def check_compose_suite(trials: int, seed: int) -> CheckReport:
    """Tensor additivity and record-level composition prediction, exactly."""
    report = CheckReport("compose", trials, seed)
    longest_chain = 0
    multi_chain_trials = 0
    for trial in range(trials):
        tseed = _trial_seed(seed, trial)
        upper, lower, plan = random_composable_pair(tseed)
        chain_max = max(plan.chain_lengths(), default=0)
        longest_chain = max(longest_chain, chain_max)
        if chain_max >= 2:
            multi_chain_trials += 1
        problems = []

        composite = compose(upper, lower)
        problems.extend(validate(composite))
        direct = maip(composite)
        predicted = predict_composed(structured_maip(upper), structured_maip(lower), plan)
        if predicted != direct:
            problems.append(f"prediction {render(predicted)} != direct {render(direct)}")

        both = tensor(upper, lower)
        offset_v = len(upper.components)
        shift = {i: i + offset_v for i in range(1, len(lower.components) + 1)}
        expected = maip(upper) + reindex(maip(lower), shift)
        if maip(both) != expected:
            problems.append("tensor additivity failed")

        if problems:
            report.failures.append({
                "trial": trial,
                "seed": tseed,
                "upper": serialize(upper),
                "lower": serialize(lower),
                "problems": problems,
            })
    report.stats["longest_chain"] = longest_chain
    report.stats["multi_chain_trials"] = multi_chain_trials
    return report


def check_vassiliev_suite(trials: int, seed: int) -> CheckReport:
    """The closed-form order-one value must equal the signed resolution sum.

    Trials cycle through k = 1, 2, 3 singular crossings, and the sum of
    coefficient * maip over all 2^k resolutions is the oracle.
    """
    report = CheckReport("vassiliev", trials, seed)
    nonzero = 0
    for trial in range(trials):
        n_singular = 1 + _trial_seed(seed, trial) % 3
        tseed, _rng, d = _trial(seed, trial, max_crossings=8, n_singular=n_singular)
        value = vassiliev_eval(d)
        enumerated = LaurentPoly.zero()
        for term in resolve_singular(d):
            enumerated = enumerated + term.coefficient * maip(term.diagram)
        nonzero += not value.is_zero()
        if value != enumerated:
            report.failures.append({
                "trial": trial,
                "seed": tseed,
                "diagram": serialize(d),
                "value": render(value),
                "enumerated": render(enumerated),
            })
    report.stats["nonzero_values"] = nonzero
    return report


SUITES = {
    "moves": check_moves,
    "prop2": check_prop2_suite,
    "corollary": check_corollary_suite,
    "compose": check_compose_suite,
    "vassiliev": check_vassiliev_suite,
}
# Suites that draw every input themselves and take no diagram.
RANDOM_ONLY = ("compose", "vassiliev")
# Suites that check a given diagram once, so a trial count means nothing there.
ONCE_ON_A_DIAGRAM = ("prop2", "corollary")
