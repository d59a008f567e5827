"""Numerical laboratory for functions of tuples of noncommuting Hermitian
matrices: finite multiple operator integrals, trace-norm perturbation
identities, Littlewood-Paley/Besov estimates, and the triangular-projection
growth experiment showing that no trace-norm Lipschitz bound holds for
triples."""

__version__ = "0.1.0"
