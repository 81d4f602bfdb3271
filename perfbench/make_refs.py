"""Regenerate refs.json: oracle digests for the cli_large inputs.

    python3 perfbench/make_refs.py

Runs ``maip_via_homology`` (quadratic; about a minute per seed) on every
compute, tensor and compose input of the default seed and the held-out
seed, and stores digests of its rendered and JSON forms next to a digest
of the input, so a run whose inputs differ ignores the stored entry.
"""

from __future__ import annotations

import json
import os
import shutil

import run
from workloads import REFS_PATH, cli_large, poly_digests

STORED_SEEDS = (0, 1)   # the default seed and one held-out seed


def main() -> None:
    run.import_package()
    from maip.homology import maip_via_homology

    workdir = os.path.join(run.ROOT, ".perfbench_work", f"refs-{os.getpid()}")
    os.makedirs(workdir)
    refs = {}
    try:
        for seed in STORED_SEEDS:
            batch = cli_large(seed, workdir)
            refs[str(seed)] = {
                key: {"input": batch.inputs[key], **poly_digests(maip_via_homology(subject()))}
                for key, subject in sorted(batch.subjects.items())
                if not key.startswith("warmup/")}
            print(f"seed {seed}: {len(refs[str(seed)])} references")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
