"""The literal atom sum of a spectral measure: dense projections,
``(value, projection)`` pairs and the operator they sum to, built from its
basis, for the tests that check the eigenbasis fast paths against it, and
the full-basis product of ``apply_scalar`` from before it dropped zero columns."""

import numpy as np


def projection(e, j: int) -> np.ndarray:
    """Dense orthogonal projection of atom ``j`` of ``e``; a ``None`` basis
    is the identity."""
    lo, hi = e.starts[j], e.starts[j + 1]
    if e.basis is None:
        out = np.zeros((e.dim, e.dim))
        np.fill_diagonal(out[lo:hi, lo:hi], 1.0)
        return out
    cols = e.basis[:, lo:hi]
    return cols @ cols.conj().T


def atoms(e) -> list:
    """Materialized ``(value, projection)`` pairs of ``e``."""
    return [(float(e.values[j]), projection(e, j)) for j in range(e.atom_count)]


def operator(e) -> np.ndarray:
    """The dense operator ``sum value_j P_j`` that ``e`` defines."""
    return sum(value * p for value, p in atoms(e))


def full_apply_scalar(e, g) -> np.ndarray:
    """``sum g(value_j) P_j`` of a real ``g`` on a dense basis as one product
    over every basis column, ``(V * g) @ V^H``, symmetrised."""
    gvals = np.broadcast_to(g(e.values), e.values.shape)[..., e.columns]
    out = (e.basis * gvals[..., None, :]) @ np.swapaxes(e.basis, -1, -2).conj()
    return (out + np.swapaxes(out, -1, -2).conj()) / 2
