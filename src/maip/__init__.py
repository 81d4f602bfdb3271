"""Polynomial invariants of oriented virtual tangles on Gauss codes."""
