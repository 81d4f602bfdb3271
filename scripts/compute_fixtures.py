#!/usr/bin/env python3
"""Print the polynomial of every bundled fixture, plus derived checks.

Usage: python3 scripts/compute_fixtures.py

Exits 1 when a derived check prints False.
"""

import sys
from pathlib import Path

from maip.algebra import collapse_variables, reindex, render, substitute_symbols
from maip.diagram import parse
from maip.invariant import maip, propagate_labels, vassiliev_eval
from maip.tangle_ops import compose

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    diagrams = {p.stem: parse(p.read_text()) for p in sorted(FIXTURES.glob("*.tangle"))}
    for name, d in diagrams.items():
        lab = propagate_labels(d)
        deltas = " ".join(f"d{i}={v:+d}" for i, v in sorted(lab.delta.items()))
        if d.singular_ids():
            poly = vassiliev_eval(d)
            kind = "resolved"
        else:
            poly = maip(d)
            kind = "maip"
        print(f"{name:10s} ({d.m},{d.n})  {deltas}")
        print(f"{'':10s} {kind}: {render(poly)}")
        if not d.singular_ids() and poly.symbols():
            numeric = substitute_symbols(poly, {s: 0 for s in poly.symbols()})
            print(f"{'':10s} at c=0, collapsed: {render(collapse_variables(numeric))}")
        print()

    composite = compose(diagrams["ex3"], diagrams["ex2"])
    swap = {1: 2, 2: 1}
    checks = [composite == diagrams["ex4"],
              maip(diagrams["ex1"]) == reindex(maip(composite), swap)]
    print("compose(ex3, ex2) equals the ex4 fixture:", checks[0])
    print("ex1 equals the composite closed up (components renumbered):", checks[1])
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
