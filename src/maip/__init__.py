"""Polynomial invariants of oriented virtual tangles on Gauss codes."""

from .algebra import (AffineInt, LaurentPoly, collapse_variables, poly_to_json,
                      reindex, render, substitute_symbols)
from .diagram import (Component, CrossingRecord, Passage, TangleDiagram,
                      from_json, parse, random_diagram, serialize, to_json,
                      validate)
from .homology import (check_prop2, homological_weight, maip_via_homology,
                       pairing, passage_index, smoothing)
from .invariant import (Labeling, MaipContributions, maip, propagate_labels,
                        resolve_singular, structured_maip, vassiliev_eval,
                        weight_table)
from .moves import (MoveSite, apply_site, find_r1_delete_sites,
                    find_r2_delete_sites, find_r3_sites, find_sites, random_walk)
from .tangle_ops import GluePlan, compose, predict_composed, tensor
from .words import Cap, Crossing, Cup, GeneratorWord, Identity, from_generator_word

__all__ = [name for name in dir() if not name.startswith("_")]
