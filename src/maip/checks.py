"""Seeded property suites behind ``maip check`` and the acceptance tests.

Every suite derives one generator state per trial from (seed, trial
index), so a reported failure is reproducible from the printed numbers
alone.  Reports carry the offending diagram dumps and move logs.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .algebra import LaurentPoly, reindex, render
from .diagram import (Component, Passage, TangleDiagram, random_diagram,
                      serialize, validate)
from .homology import check_prop2, maip_via_homology
from .invariant import maip, resolve_singular, structured_maip, vassiliev_eval
from .moves import MOVE_KINDS, random_walk
from .tangle_ops import GluePlan, cut, predict_composed, tensor

_TRIAL_STRIDE = 1_000_003
_MAX_MOVES = 50  # longest walk of one moves trial


def _trial_seed(seed: int, trial: int) -> int:
    return seed * _TRIAL_STRIDE + trial


@dataclass
class CheckReport:
    name: str
    trials: int
    seed: int
    failures: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)  # JSON only; the summary line omits it

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
            **self.coverage,
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


def _failure(trial: int, tseed: int, d: TangleDiagram, **fields) -> dict:
    """One failure record: trial, seed and diagram, then the suite's own fields."""
    return {"trial": trial, "seed": tseed, "diagram": serialize(d), **fields}


def check_moves(trials: int, seed: int, diagram: TangleDiagram | None = None) -> CheckReport:
    """Random walks of classical moves must preserve the polynomial exactly."""
    report = CheckReport("moves", trials, seed)
    kinds: Counter = Counter()
    given = None if diagram is None else maip(diagram)    # every trial walks this one diagram
    for trial in range(trials):
        tseed, rng, d = _trial(seed, trial, diagram)
        before = maip(d) if given is None else given
        log: list[str] = []
        walked = random_walk(d, rng.randint(1, _MAX_MOVES), tseed + 1, log)
        kinds.update(entry.split(" ", 1)[0] for entry in log)
        problems = validate(walked)
        after = None if problems else maip(walked)    # maip reads a valid diagram only
        if problems or after != before:
            report.failures.append(_failure(
                trial, tseed, d, moves=log, violations=problems, before=render(before),
                after=None if after is None else render(after)))
    report.stats["moves_applied"] = sum(kinds.values())
    report.coverage["moves_by_kind"] = {kind: kinds[kind] for kind in MOVE_KINDS}
    return report


def check_prop2_suite(trials: int, seed: int,
                      diagram: TangleDiagram | None = None) -> CheckReport:
    """Every crossing weight must match its homological counterpart."""
    report = CheckReport("prop2", trials if diagram is None else 1, seed)
    checked = 0
    for trial in range(report.trials):
        tseed, _rng, d = _trial(seed, trial, diagram)
        res = check_prop2(d)
        checked += len(res.predicted)
        if not res.ok:
            report.failures.append(_failure(trial, tseed, d, crossings=res.failures()))
    report.stats["crossings_checked"] = checked
    return report


def check_corollary_suite(trials: int, seed: int,
                          diagram: TangleDiagram | None = None) -> CheckReport:
    """The homological weights and deltas must reproduce the polynomial exactly.

    Both routes sum their records with the one assembly, so this compares
    what each feeds it.
    """
    report = CheckReport("corollary", trials if diagram is None else 1, seed)
    for trial in range(report.trials):
        tseed, _rng, d = _trial(seed, trial, diagram)
        direct = maip(d)
        homological = maip_via_homology(d)
        if direct != homological:
            report.failures.append(_failure(trial, tseed, d, direct=render(direct),
                                            homological=render(homological)))
    return report


# ---------------------------------------------------------------------------
# composable pairs


def random_composable_pair(seed: int, trial: int):
    """One trial's diagram and a cut of it, (d, upper, lower), cycles kept.

    Each crossing of the trial's usual diagram goes up with probability 1/2.
    """
    _tseed, rng, d = _trial(seed, trial)
    upper, lower = cut(d, {cid for cid in d.crossings if rng.random() < 0.5})
    return d, upper, lower


def _uncut_order(d: TangleDiagram, upper: TangleDiagram,
                 composite: TangleDiagram) -> dict[int, int] | None:
    """Map d's component indices to the composite's; None if it is not d again.

    Only empty closed components can repeat, and no polynomial reads their indices.
    """
    shift = max(upper.crossings, default=0)    # tensor's shift of the lower ids
    back = {cid: cid - shift if cid > shift else cid for cid in composite.crossings}
    comps = [Component(c.kind, tuple(Passage(back[ev.crossing], ev.role) for ev in c.events),
                       c.start, c.end) for c in composite.components]
    if ((composite.m, composite.n) != (d.m, d.n) or Counter(comps) != Counter(d.components)
            or {back[cid]: rec for cid, rec in composite.crossings.items()} != d.crossings):
        return None
    index = {comp: i for i, comp in enumerate(comps, start=1)}
    return {j: index[comp] for j, comp in enumerate(d.components, start=1)}


def check_compose_suite(trials: int, seed: int) -> CheckReport:
    """compose must undo cut, and predict the polynomial of both, exactly.

    Tensor additivity is checked on the same pieces.
    """
    report = CheckReport("compose", trials, seed)
    longest_chain = 0
    multi_chain_trials = 0
    cyclic_trials = 0
    for trial in range(trials):
        d, upper, lower = random_composable_pair(seed, trial)
        plan = GluePlan.from_tangles(upper, lower)
        chain_max = max((len(e.members) for e in plan.entries if e.kind == "chain"), default=0)
        longest_chain = max(longest_chain, chain_max)
        multi_chain_trials += chain_max >= 2
        cyclic_trials += any(e.kind == "cycle" for e in plan.entries)
        problems = []

        composite = plan.glue(upper, lower)
        order = _uncut_order(d, upper, composite)
        upper_records, lower_records = structured_maip(upper), structured_maip(lower)
        predicted = predict_composed(upper_records, lower_records, plan)
        if order is None:
            problems.append("compose(*cut(d)) is not d")
        elif predicted != reindex(maip(d), order):
            problems.append(f"prediction {render(predicted)} != uncut {render(maip(d))}")
        direct = maip(composite)
        if predicted != direct:
            problems.append(f"prediction {render(predicted)} != direct {render(direct)}")

        both = tensor(upper, lower)
        offset_v = len(upper.components)
        shift = {i: i + offset_v for i in range(1, len(lower.components) + 1)}
        expected = upper_records.polynomial() + reindex(lower_records.polynomial(), shift)
        if maip(both) != expected:
            problems.append("tensor additivity failed")

        if problems:
            report.failures.append(_failure(trial, _trial_seed(seed, trial), d,
                                            upper=serialize(upper), lower=serialize(lower),
                                            problems=problems))
    report.stats["longest_chain"] = longest_chain
    report.stats["multi_chain_trials"] = multi_chain_trials
    report.stats["cyclic_trials"] = cyclic_trials
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
        nonzero += bool(value)
        if value != enumerated:
            report.failures.append(_failure(trial, tseed, d, value=render(value),
                                            enumerated=render(enumerated)))
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
