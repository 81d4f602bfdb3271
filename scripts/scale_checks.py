#!/usr/bin/env python3
"""Run every scale check that CI runs, each as a child process.

Usage: python3 scripts/scale_checks.py

Writes the seeded inputs once into a temporary directory and runs each
row of CHECKS there under ``timeout``.  Prints one line per check and
exits 1 if any check fails.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
# Children import maip from this checkout and the check functions below.
ENV = {**os.environ, "PYTHONPATH": f"{SCRIPTS.parent / 'src'}{os.pathsep}{SCRIPTS}"}
# run_property_suite.py ends each suite's line with the time it took.
TIMES = re.compile(rb"  \(\d+\.\ds\)$", re.M)
# Outputs of at most this many bytes are also compared with a text pin.
TEXT_PIN_MAX = 1 << 16

# Each row: the command (maip, a script of this directory or a function of
# this module), its timeout in s, the pin of its stdout and stderr together
# (their text without the last newline, or their sha256), and the exit code
# (0 if not given) and max RSS bound in MiB (none if not given).  Times are
# whole processes on one 2-vCPU host; each RSS bound is the measured max RSS
# plus 30%.
CHECKS = [
    ("compute_fixtures.py", 60, "ac7084c49e2bba2c7b38a0c61284528b11249cff1df6905070a3bb65fd559473"),
    # The moves line pins the walk to the README's; the prop2 line pins the
    # crossing count, which a weight table that dropped or repeated
    # crossings would change while still printing PASS.
    ("run_property_suite.py 7", 60,
     "what=moves trials=1000 seed=7: moves_applied=24854 PASS\n"
     "what=prop2 trials=500 seed=7: crossings_checked=3196 PASS\n"
     "what=corollary trials=500 seed=7: PASS\n"
     "what=compose trials=200 seed=7: cyclic_trials=117 longest_chain=15 multi_chain_trials=129 PASS\n"
     "what=vassiliev trials=200 seed=7: nonzero_values=42 PASS"),
    # Resolved in closed form, never by enumerating 2^24 resolutions.
    ("maip resolve k24.tangle", 10, "0"),
    # Reading and evaluating are linear: about 0.3 s at 12800 crossings,
    # where a quadratic assembly took 10 s at 6400.  The golden corpus stops
    # at 400 crossings, so the bytes of the three renderings are pinned here.
    ("maip compute n12800.tangle", 10, "bbc85a2602c9a6886f92a84f3992fc65fb5ab4381b74bbc21c8df06880a8a55f"),
    ("maip compute n12800.tangle --json", 10,
     "61968882c8ac06de68ecbe4c792d3d03b13be19d4763baf3dbe4bf7bbbdf5909"),
    ("maip compute n12800.tangle --numeric all=0 --collapse", 10,
     "77edfe737ecbe3c96388549db095b4765bd66c497d20de425c4c81d20ba03e35"),
    # The first-moment sum rule, read off the JSON terms; tier-1 checks it
    # only up to 39 crossings.
    ("sum_rule n12800.tangle", 10, "sum rule holds: delta={1: 34, 2: -45, 3: -15, 4: 26}"),
    # A bad token, bad JSON token or sign clash at the end of that file: the
    # bulk reader rejects the last line and the word-by-word reader names
    # the token, still in linear time (0.15-0.3 s).
    ("maip compute bad.tangle", 10, "error: bad.tangle: line 5, col 46433: bad token 'Q'", 2),
    ("maip compute bad.json", 10, "error: bad.json: bad token 'O2922- '", 2),
    ("maip compute clash.tangle", 10,
     "error: clash.tangle: line 5, col 46426: sign mismatch at crossing 2922", 2),
    ("maip compute clash.json", 10, "error: clash.json: sign mismatch at crossing 2922", 2),
    # One singular crossing reads its two places off the same label walk.
    ("maip resolve k1.tangle", 10, "a182fd61e4c5289c99858fff77efca6d39a12755afd00547670b4b49e756923b"),
    # The oracle is quadratic on purpose: 0.10-0.15 s at 1600 crossings and
    # 0.29-0.35 s at 12800.  Its index is two bitsets of N bits and one entry
    # per crossing; prop2 at 12800 reaches 28.4-28.5 MiB, and a table of
    # N^2/8 bytes in the index (112.5 MiB in all) fails the bound.
    # tests/test_homology.py bounds the oracle's Python lines.
    ("maip check n1600.tangle --what prop2", 10, "what=prop2 trials=1 seed=1: crossings_checked=1600 PASS"),
    ("maip check n1600.tangle --what corollary", 10, "what=corollary trials=1 seed=1: PASS"),
    ("maip check n12800.tangle --what prop2", 10,
     "what=prop2 trials=1 seed=1: crossings_checked=12800 PASS", 0, 37),
    ("maip check n12800.tangle --what corollary", 10, "what=corollary trials=1 seed=1: PASS"),
    # Every command on 100000 crossings, where the oracle's quadratic time
    # shows but every command's memory stays linear (a table of N^2/8 bytes
    # would need about 4.7 GiB).  prop2: 4.6-5.4 s at 123.5 MiB.
    ("maip check n100000.tangle --what prop2", 60,
     "what=prop2 trials=1 seed=1: crossings_checked=100000 PASS", 0, 161),
    # corollary: 4.3-4.6 s at 91.2-91.3 MiB.
    ("maip check n100000.tangle --what corollary", 60, "what=corollary trials=1 seed=1: PASS", 0, 122),
    # A 3-trial walk: 2.9-3.7 s at 111.2 MiB.
    ("maip check n100000.tangle --what moves --trials 3", 60,
     "what=moves trials=3 seed=1: moves_applied=84 PASS", 0, 161),
    # compute: 0.6-0.7 s at 89.8-91.1 MiB.
    ("maip compute n100000.tangle", 60,
     "92d6668502280e831ff9e4f665fdc80c2f9510d93b3e06013d01d4ae47f45a09", 0, 122),
    # Its JSON form, 7861 terms in 569646 bytes: 0.6-0.9 s at 90.6 MiB.
    ("maip compute n100000.tangle --json", 60,
     "e712be3a00c1fdd6ff044ce38b98bb5151ed505919ac05bca41fd2d2cc7d3404", 0, 117),
    # resolve of the same draw with one singular crossing: 0.5-0.7 s at 76.5 MiB.
    ("maip resolve k1_100000.tangle", 60,
     "d1f03482cf85a5c6e9e1de3ac3acc7b70f692da7e4338070da55c1749a0b2cb7", 0, 105),
    # tensor of the file with itself: 1.7-2.6 s at 193.4-193.6 MiB.
    ("maip tensor n100000.tangle n100000.tangle", 60,
     "63d5d53ae5b2045b6a2a0284a869f07baf22a48d7e52e20596d2b2fd0a47f9b3", 0, 252),
    # compose of a pair cut from one draw: 3.3-4.4 s at 149.1-149.2 MiB; the
    # output ends with "# predict: ok".
    ("maip compose up100000.tangle low100000.tangle", 60,
     "dc38bce701c813b9c90cc4946e4ea2da1ce8bb0536ef303e67fceb52aace660d", 0, 198),
    # A walk step retests only the pairs its edit can reach: 0.21-0.22 s at
    # 3200 crossings and 0.46-0.63 s at 12800, most of it in the polynomial
    # and validation around each walk.  tests/test_moves.py bounds the pairs.
    ("maip check n3200.tangle --what moves --trials 5 --seed 1", 60,
     "what=moves trials=5 seed=1: moves_applied=156 PASS"),
    ("maip check n12800.tangle --what moves --trials 5 --seed 1", 10,
     "what=moves trials=5 seed=1: moves_applied=156 PASS"),
    # 150 steps end with 13 R1- and 11 R2- sites, so the listing after the
    # walk places many sites in one pass (0.16-0.21 s).
    ("walk_sites n12800.tangle", 10,
     "{'R1-': 13, 'R2-': 11, 'R3': 0} 23a055f273c03ae9b7271ccc6fe781d2f7d342c670481f512f05b4cf45287ef4"),
    # The same at 100000 crossings, where the walk's state and the scan's
    # fresh one each link 200000 passages in bulk (1.1-1.3 s at 109.2-109.3 MiB).
    # The drawn file itself has no site, so a 0-step walk would pin none.
    ("walk_sites n100000.tangle", 10,
     "{'R1-': 6, 'R2-': 10, 'R3': 0} 391a2d5d0ba97502699b62aead41234eb2410c21b4863a017a373cae893f7631",
     0, 142),
    # 2000 steps there: a draw scans the passage lists only up to the drawn
    # site, so the step is still linear.  4.4-5.7 s at 102.6-109.2 MiB, so a
    # 20 s timeout and a 142 MiB bound; the walk took 9.7-10.5 s when each
    # draw placed every site of its kind.
    ("walk_sites n100000.tangle 2000", 20,
     "{'R1-': 35, 'R2-': 11, 'R3': 0} b305893bea745f8d3371ce79b2ce8c2ef38be43623d98c88e230688bafecf54c",
     0, 142),
    # 1690 of the 3000 cuts glue back through a cycle (about 3 s).
    ("maip check --what compose --random --trials 3000 --seed 1", 60,
     "what=compose trials=3000 seed=1: cyclic_trials=1690 longest_chain=18 multi_chain_trials=1881 PASS"),
    # Half of a 1600-crossing diagram's crossings go up: the 786 + 786
    # pieces glue back into 2 cycles and a chain, and the prediction's
    # verdict ends the output (about 0.25 s).  Written with -o, the file
    # holds the output's diagram lines, and its polynomial is the printed one.
    ("maip compose up.tangle low.tangle", 10,
     "32c0f3e6ff3d3adb71d8df70087ebe6de799a183aef950ca6701a7d59d9d33c2"),
    ("maip compose up.tangle low.tangle -o comp.tangle", 10,
     "32c0f3e6ff3d3adb71d8df70087ebe6de799a183aef950ca6701a7d59d9d33c2"),
    # The JSON payload: the diagram, the polynomial's text spliced in, the verdict.
    ("maip compose up.tangle low.tangle --json", 10,
     "4751d1dd592d4519484108faaf8d7314e8af94928ae8b3bdbd8dda4b43442665"),
    ("show comp.tangle", 10, "87976413e4efef8d66ef7c2a86d6cbf19b3b5598f397d933e832d4c2f97f94a5"),
    ("maip compute comp.tangle", 10, "9d87c64a636594e8bb3b59a832e2f0764c03cd6f7db9fd85b2711c6ee5b782a5"),
    # Rows compose one by one without validating the growing diagram: 3200
    # rows on 4 strands (4800 crossings) take about 1.2 s.
    ("word_crossings 3200", 10, "4800"),
]


def write_inputs():
    """Write the seeded inputs that CHECKS reads into the working directory."""
    import json
    import random

    from maip.diagram import parse, random_diagram, serialize, to_json
    from maip.tangle_ops import cut

    # random_diagram(seed, closed, long, crossings[, singular]) of each file.
    draws = {"k24": (5, 1, 2, 30, 24), "k1": (1, 2, 2, 12800, 1), "k1_100000": (1, 2, 2, 100000, 1)}
    draws.update({f"n{n}": (1, 2, 2, n) for n in (1600, 3200, 12800, 100000)})
    for name, draw in draws.items():
        Path(f"{name}.tangle").write_text(serialize(random_diagram(*draw)))
    for n, suffix in (1600, ""), (100000, "100000"):
        d = random_diagram(1, 2, 1, n)
        pieces = cut(d, set(random.Random(1).sample(sorted(d.crossings), n // 2)))
        for name, piece in zip(("up", "low"), pieces):
            Path(f"{name}{suffix}.tangle").write_text(serialize(piece))
    # A bad token and a flipped sign at the end of the 12800-crossing file.
    text = Path("n12800.tangle").read_text()
    *head, last = text.splitlines()
    tok = last.split()[-1]
    flip = tok[:-1] + {"+": "-", "-": "+"}[tok[-1]]
    data = to_json(parse(text))
    events = data["components"][-1]["events"]
    for name, line, event in ("bad", last + " Q", tok + " "), ("clash", last[:-len(tok)] + flip, flip):
        Path(f"{name}.tangle").write_text("\n".join(head + [line]) + "\n")
        events[-1] = event
        Path(f"{name}.json").write_text(json.dumps(data))


def sum_rule(path):
    """Check that each c_m has coefficient -delta_m and twice the constant is -sum delta_i^2."""
    from maip.algebra import poly_to_json
    from maip.diagram import parse
    from maip.invariant import maip, propagate_labels

    d = parse(Path(path).read_text())
    delta = propagate_labels(d).delta
    symbols, constant = {}, 0
    for term in poly_to_json(maip(d)):
        constant += term["coeff"] * term["exp"]["const"]
        for name, a in term["exp"]["syms"].items():
            symbols[int(name[1:])] = symbols.get(int(name[1:]), 0) + a * term["coeff"]
    got = {m: a for m, a in symbols.items() if a}
    if got != {m: -dl for m, dl in delta.items() if dl}:
        sys.exit(f"symbol coefficients {got} are not -delta for delta={delta}")
    if 2 * constant != -sum(dl * dl for dl in delta.values()):
        sys.exit(f"twice the constant {2 * constant} is not -sum delta^2 for delta={delta}")
    print(f"sum rule holds: delta={delta}")


def walk_sites(path, steps=150):
    """Print the site counts after a walk of ``steps`` steps at seed 1, and the sha256 of its log and sites."""
    from maip.diagram import parse
    from maip.moves import find_sites, random_walk

    log = []
    sites = find_sites(random_walk(parse(Path(path).read_text()), int(steps), 1, log))
    lines = log + [site.describe() for found in sites.values() for site in found]
    print({kind: len(found) for kind, found in sites.items()},
          hashlib.sha256("\n".join(lines).encode()).hexdigest())


def word_crossings(n_rows):
    """Print the crossing count of a generator word of alternating rows on 4 strands."""
    from maip.words import Crossing, Identity, from_generator_word

    rows = tuple((Crossing("positive"), Crossing("negative")) if r % 2
                 else (Identity(), Crossing("positive"), Identity()) for r in range(int(n_rows)))
    print(len(from_generator_word(rows).crossings))


def show(path):
    """Print a file as it is."""
    sys.stdout.write(Path(path).read_text())


def argv(command):
    head, *args = command.split()
    if head == "maip":
        return [sys.executable, "-m", "maip", *args]
    if head.endswith(".py"):
        return [sys.executable, str(SCRIPTS / head), *args]
    return [sys.executable, "-c", f"import sys, scale_checks; scale_checks.{head}(*sys.argv[1:])", *args]


def run(work, command, seconds, pin, code=0, bound=None):
    """Run one check in ``work``, print its line, and return whether it passed."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen(["timeout", str(seconds), *argv(command)], cwd=work, env=ENV,
                                 stdout=out, stderr=subprocess.STDOUT)
        # wait4 gives this child's own max RSS, where RUSAGE_CHILDREN would
        # give the largest child's so far.  A child's max RSS starts at its
        # parent's peak, so this process builds no diagram and never holds a
        # long output whole: it hashes the output in blocks.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.perf_counter() - start
        size = out.seek(0, os.SEEK_END)
        out.seek(0)
        digest = hashlib.sha256()
        for block in iter(lambda: out.read(1 << 16), b""):
            digest.update(block)
        out.seek(max(0, size - TEXT_PIN_MAX))
        tail = out.read()     # the whole output when it is short
    rss = usage.ru_maxrss / 1024    # KiB on Linux
    faults = []
    if child.returncode != code:
        faults.append(f"timed out after {seconds} s" if child.returncode == 124
                      else f"exit {child.returncode}, expected {code}")
    if digest.hexdigest() != pin and (size > TEXT_PIN_MAX or TIMES.sub(b"", tail) != f"{pin}\n".encode()):
        faults.append("output differs from its pin")
    if bound is not None and rss > bound:
        faults.append(f"max RSS above the {bound} MiB bound")
    print(f"{'FAIL' if faults else 'ok'} {command} ({elapsed:.2f} s, max RSS {rss:.1f} MiB)",
          *faults, sep="; ", flush=True)
    if faults:
        print(tail[-2000:].decode(errors="replace"), end="")
    return not faults


def main():
    with tempfile.TemporaryDirectory() as work:
        subprocess.run(argv("write_inputs"), cwd=work, env=ENV, check=True)
        failed = sum(not run(work, *check) for check in CHECKS)
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} scale checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
