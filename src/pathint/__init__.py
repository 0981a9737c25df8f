"""Desk-scale path-sum simulation engine.

Dense-matrix realizations of three quantum-simulation algorithm families:
product-formula path sums driven by simulated sparse oracles, a truncated
jump expansion for slowly driven Hamiltonians, and an action-phase lattice
propagator whose free step collapses through quadratic Gauss sums.  All
oracles are classical callables with query counters, so the query-model
costs can be measured rather than estimated.
"""

__version__ = "0.1.0"
