"""Golden digests of the rendered and JSON output on seeded corpora.

The digests pin the exact text and JSON the package prints, so a change
to how polynomials are assembled must leave every byte of output alone.
They were taken from the quadratic, one-crossing-at-a-time assembly.

The compose corpus cuts seeded random diagrams (``random_composable_pair``)
and keeps every gluing, cyclic ones included.  Its prediction digests
were checked pair by pair against ``maip(compose(...))``, and the
composite digest was taken with the compose that predates ``cut``.  The
composite digest pins how the gluings are grouped and numbered: the plan
kinds and the serialized composite, so a cycle's basepoint and the order
of the composite's components are both read.

The walk digest pins the seeded random walk: its move logs, the walked
diagrams and the order of the deletion and R3 sites found on them, which
``rng.choice`` reads.  It was taken from the three separate site scans.
"""

import hashlib
import json

from maip import moves
from maip.algebra import poly_to_json, render
from maip.checks import random_composable_pair
from maip.diagram import random_diagram, serialize
from maip.invariant import maip, structured_maip
from maip.moves import (WalkState, find_r1_delete_sites, find_r2_delete_sites,
                        find_r3_sites, random_walk)
from maip.tangle_ops import GluePlan, compose, predict_composed

from conftest import reference_sites


def digests(polys):
    polys = list(polys)
    text = "\n".join(render(p) for p in polys)
    data = json.dumps([poly_to_json(p) for p in polys])
    return (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(data.encode()).hexdigest())


def maip_corpus():
    for seed in range(80):
        n_closed, n_long = seed % 3, 1 + seed % 4
        yield maip(random_diagram(seed, n_closed, n_long, (seed * 7) % 61))
    for seed, n in enumerate((120, 250, 400)):
        yield maip(random_diagram(1000 + seed, 1, 2, n))


def compose_corpus():
    for trial in range(60):
        _d, upper, lower = random_composable_pair(0, trial)
        plan = GluePlan.from_tangles(upper, lower)
        yield predict_composed(structured_maip(upper), structured_maip(lower), plan)


def composite_digest():
    h = hashlib.sha256()
    for trial in range(400):
        _d, upper, lower = random_composable_pair(0, trial)
        kinds = " ".join(e.kind for e in GluePlan.from_tangles(upper, lower).entries)
        h.update(kinds.encode() + b"\0" + serialize(compose(upper, lower)).encode() + b"\0")
    return h.hexdigest()


def walk_digest():
    h = hashlib.sha256()
    for seed in range(400):
        d = random_diagram(seed, seed % 3, 1 + seed % 3, seed % 14, n_singular=seed % 2)
        log = []
        walked = random_walk(d, 1 + seed % 40, seed + 1, log)
        h.update("\n".join(log).encode() + b"\0" + serialize(walked).encode() + b"\0")
        for find in (find_r1_delete_sites, find_r2_delete_sites, find_r3_sites):
            h.update(" | ".join(s.describe() for s in find(walked)).encode() + b"\0")
    return h.hexdigest()


MAIP_DIGESTS = (
    "4c9c045c2d71c2aa470b8722a8a77415174f29c8aff465256aa3049b61cfb498",
    "78ac1abf5a00b46926a5bc84086410f3ad60109474a285fc872ad4df0b22a237",
)
COMPOSE_DIGESTS = (
    "e3aeb7b12e6011a84c9d6b7c41e575de34ceed5a587a2708fbc7254bfae94a8a",
    "e5a4a0d92bfcaaab4fc5550b7f781ed780833db062e6870121245151ca8a2fa2",
)
COMPOSITE_DIGEST = "92ee4f4a1e9aca68e76afaa3c1afc10ff749b63fa5d97796ac05863c899e70af"
WALK_DIGEST = "2f3dddf58a70e2fe5e35ef8a755de0115b8f8d235204028278e5fb98d8f7d9f7"


def test_maip_output_is_unchanged():
    assert digests(maip_corpus()) == MAIP_DIGESTS


def test_predicted_composite_output_is_unchanged():
    assert digests(compose_corpus()) == COMPOSE_DIGESTS


def test_composite_grouping_and_numbering_are_unchanged():
    assert composite_digest() == COMPOSITE_DIGEST


def test_walk_logs_diagrams_and_site_order_are_unchanged():
    assert walk_digest() == WALK_DIGEST


def test_walks_draw_their_sites_without_placing_a_whole_kind(monkeypatch):
    # A walk step draws a site by its rank and places only that site's
    # passages.  find_sites lists through _placed, so the scans after each
    # walk come from the slow reference here.
    def refused(self, kind):
        raise AssertionError(f"placed every {kind} site")

    monkeypatch.setattr(WalkState, "_placed", refused)
    monkeypatch.setattr(moves, "find_sites", reference_sites)
    assert walk_digest() == WALK_DIGEST
