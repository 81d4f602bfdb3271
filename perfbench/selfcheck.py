"""Self-check of the benchmark at a tiny scale.

    python3 perfbench/selfcheck.py

Every workload is run briefly, untraced and traced, on inputs shrunk to
a few crossings.  Each run must print every metric named in
BENCHMARK.json with its unit and must fail no op.  Then a run with one
planted wrong reference must count the ops that read it as failed, and
the formula route must reproduce every oracle digest in refs.json.
Exits 1 on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys

import run
from make_refs import STORED_SEEDS
from workloads import cli_large, formula_reference, poly_digests

SCALE = 0.02
SEED = 3


def require(condition: bool, message: str) -> None:
    if not condition:
        print(f"selfcheck FAILED: {message}")
        sys.exit(1)


def quiet_run(name: str, trace: bool, tamper=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(name, SEED, 0.5, trace, scale=SCALE, tamper=tamper)
    return result, out.getvalue()


def plant_wrong_reference(batch) -> None:
    key = next(op.key for op in batch.ops if op.kind == "compute")
    batch.expected[key] = {"text": "0" * 64, "json": "0" * 64}


def check_stored_references() -> None:
    """The formula route reproduces every stored oracle digest."""
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"selfcheck-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for seed in STORED_SEEDS:
            batch = cli_large(seed, workdir)
            keys = [key for key in batch.subjects if not key.startswith("warmup/")]
            for key in keys:
                require(key in batch.expected, f"seed {seed}: no stored reference for {key}")
                require(poly_digests(formula_reference(batch.subjects[key]())) == batch.expected[key],
                        f"seed {seed}: formula and oracle disagree on {key}")
            print(f"ok  seed {seed}: formula route matches {len(keys)} stored oracle digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, printed = quiet_run(workload, trace)
            label = f"{workload} trace={int(trace)}"
            require(set(result["metrics"]) == {m["name"] for m in spec[section]},
                    f"{label}: metrics differ from BENCHMARK.json {section}")
            for metric in spec[section]:
                name, unit = metric["name"], metric["unit"]
                require(result["metrics"][name]["unit"] == unit, f"{label}: {name} unit")
                require(re.search(rf"^{re.escape(name)} \S+ {re.escape(unit)}\b", printed, re.M),
                        f"{label}: {name} not printed with unit {unit}")
            require(re.search(r"^error_rate 0 ratio", printed, re.M), f"{label}: error_rate not 0")
            require(result["correct"] and result["failed"] == 0, f"{label}: failed ops")
            print(f"ok  {label}: {len(spec[section])} metrics, {result['attempted']} ops, 0 failed")

    result, _ = quiet_run("cli_large", False, tamper=plant_wrong_reference)
    require(result["failed"] > 0 and not result["correct"],
            "a planted wrong reference was not counted as a failed op")
    print(f"ok  planted wrong reference: {result['failed']} of {result['attempted']} ops failed")
    check_stored_references()


if __name__ == "__main__":
    main()
