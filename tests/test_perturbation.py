import numpy as np
import pytest
from numpy.polynomial import Polynomial

from xplab.counterexample import TWO_PI, eta, eta_deriv, eta_field
from xplab.hermitian import HermitianMatrix, schatten_norm
from xplab.opint import doi, func_calc_triple, product_field
from xplab.perturbation import (
    divided_difference,
    perturbation_identity_residual,
    psi_difference,
    separated_difference,
)
from xplab.spectral import apply_scalar, from_hermitian

from conftest import random_hermitian

SQUARE = Polynomial([0.0, 0.0, 1.0])
SQUARE_PRIME = SQUARE.deriv()


class TestDividedDifference:
    def test_off_diagonal_value(self):
        dd = divided_difference(SQUARE, SQUARE_PRIME)
        assert complex(dd(1.0, 3.0)) == pytest.approx(4.0)

    def test_diagonal_uses_derivative(self):
        dd = divided_difference(SQUARE, SQUARE_PRIME)
        assert complex(dd(2.0, 2.0)) == pytest.approx(4.0)

    def test_eta_lattice_slope(self):
        dd = divided_difference(eta_field(0.0), eta_deriv)
        assert complex(dd(0.0, TWO_PI)) == pytest.approx(-1.0 / TWO_PI, abs=1e-14)

    def test_vectorized_mixed_cells(self):
        dd = divided_difference(SQUARE, SQUARE_PRIME)
        x = np.array([1.0, 2.0])
        out = np.asarray(dd(x[:, None], x[None, :]))
        assert np.allclose(out, [[2.0, 3.0], [3.0, 4.0]])

    def test_real_in_real_out(self):
        x = np.linspace(-3.0, 3.0, 7)
        real = divided_difference(np.cos, np.sin)(x[:, None], x[None, :])
        cplx = divided_difference(lambda t: np.cos(t) + 0j, lambda t: np.sin(t) + 0j)(
            x[:, None], x[None, :])
        assert real.dtype == np.float64
        assert cplx.dtype == np.complex128
        assert np.array_equal(cplx, real)

    def test_one_evaluation_per_axis_point(self, rng):
        # doi evaluates the field on an n x m sparse mesh of atom values
        sizes = []

        def counted(t):
            sizes.append(np.size(t))
            return np.cos(t)

        ea = from_hermitian(random_hermitian(rng, 5))
        eb = from_hermitian(HermitianMatrix(np.diag([0.5, 0.5, 1.5, 1.5, 2.5])))
        assert (ea.atom_count, eb.atom_count) == (5, 3)
        doi(divided_difference(counted, np.sin), ea, rng.standard_normal((5, 5)), eb)
        assert sum(sizes) == 5 + 3


class TestPerturbationIdentity:
    def test_identity_function_exact(self, rng):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        ident = Polynomial([0.0, 1.0])
        res = perturbation_identity_residual(ident, Polynomial([1.0]), a, b)
        assert res < 1e-12

    def test_equal_operators_exact(self, rng):
        a = random_hermitian(rng, 5)
        assert perturbation_identity_residual(eta_field(0.0), eta_deriv, a, a) < 1e-12

    def test_random_pair_eta(self, rng):
        a = random_hermitian(rng, 6, 2.0)
        b = random_hermitian(rng, 6, 2.0)
        res = perturbation_identity_residual(eta_field(0.0), eta_deriv, a, b)
        assert res < 1e-9

    def test_many_fields_and_dims(self, rng):
        fields = [
            (Polynomial([1.0, -2.0, 0.5, 0.0, 0.25, 1.0]),
             Polynomial([-2.0, 1.0, 0.0, 1.0, 5.0])),
            (eta_field(0.0), eta_deriv),
            (eta_field(TWO_PI), lambda x: eta_deriv(x - TWO_PI)),
        ]
        for _ in range(25):
            n = int(rng.integers(2, 17))
            a = random_hermitian(rng, n, 2.0)
            b = random_hermitian(rng, n, 2.0)
            bound = 1e-9 * (1.0 + schatten_norm(a.mat, np.inf) + schatten_norm(b.mat, np.inf))
            for f, df in fields:
                assert perturbation_identity_residual(f, df, a, b) < bound


def _diagonal_gap(f, a, b, g1, g2) -> float:
    """Trace norm between the double integrals of ``Df`` with diagonal
    values ``g1`` and ``g2``."""
    ea, eb = from_hermitian(a), from_hermitian(b)
    d1 = doi(divided_difference(f, g1), ea, a.mat - b.mat, eb)
    d2 = doi(divided_difference(f, g2), ea, a.mat - b.mat, eb)
    return schatten_norm(d1 - d2, 1)


class TestDiagonalIrrelevance:
    def test_disjoint_spectra_exactly_zero(self):
        a = HermitianMatrix.diag([0.0, 1.0])
        b = HermitianMatrix.diag([2.0, 5.0])
        f = Polynomial([0.0, 0.0, 1.0])
        diff = _diagonal_gap(f, a, b, lambda x: 0.0, lambda x: 1e6)
        assert diff == 0.0

    def test_equal_diagonal_matrices_differ_only_formally(self):
        # A = B: the integrals themselves see the diagonal choice, but the
        # perturbation identity is untouched since A - B = 0
        a = HermitianMatrix.diag([1.0, 2.0])
        f = SQUARE
        diff = _diagonal_gap(f, a, a, SQUARE_PRIME, lambda x: SQUARE_PRIME(x) + 1.0)
        assert diff == 0.0  # the transformer acts on A - B = 0

    def test_shared_eigenvalue_identity_unchanged(self):
        # hand-built 3x3 pair sharing the eigenvalue 1: the matched diagonal
        # cell of A - B vanishes identically
        a = HermitianMatrix.diag([1.0, 2.0, 4.0])
        b = HermitianMatrix.diag([1.0, 3.0, 5.0])
        ea, eb = from_hermitian(a), from_hermitian(b)
        pa = ea.projection(0)
        pb = eb.projection(0)
        assert np.abs(pa @ (a.mat - b.mat) @ pb).max() < 1e-14
        f = eta_field(0.0)
        diff = _diagonal_gap(f, a, b, lambda x: 0.0, lambda x: 10.0)
        assert diff < 1e-12
        res = perturbation_identity_residual(f, eta_deriv, a, b)
        assert res < 1e-11


class TestPsiDifference:
    def test_rank_one_construction(self):
        n = 6
        p = np.full((n, n), 1.0 / n, dtype=complex)
        b1 = HermitianMatrix(TWO_PI * p)
        b2 = HermitianMatrix.zeros(n)
        psi = eta_field(TWO_PI)
        q = psi_difference(psi, b1, b2)
        assert np.abs(q - p).max() < 1e-12

    def test_equal_operators_zero(self, rng):
        b = random_hermitian(rng, 4)
        psi = eta_field(TWO_PI)
        q = psi_difference(psi, b, b)
        assert np.abs(q).max() < 1e-12

    def test_matches_functional_calculus(self, rng):
        psi = eta_field(TWO_PI)
        for _ in range(10):
            b1 = random_hermitian(rng, 5, 2.0)
            b2 = random_hermitian(rng, 5, 2.0)
            q = psi_difference(psi, b1, b2)
            ref = apply_scalar(from_hermitian(b1), psi) - apply_scalar(from_hermitian(b2), psi)
            assert schatten_norm(q - ref, 1) < 1e-9


class TestSeparatedDifference:
    def test_zero_when_psi_values_agree(self, rng):
        a, c = random_hermitian(rng, 4), random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        phi = lambda x, z: x + z
        out = separated_difference(phi, eta_field(TWO_PI), a, b, b, c)
        assert np.abs(out).max() < 1e-12

    def test_constant_phi_returns_q(self, rng):
        a, c = random_hermitian(rng, 5), random_hermitian(rng, 5)
        b1, b2 = random_hermitian(rng, 5), random_hermitian(rng, 5)
        psi = eta_field(TWO_PI)
        out = separated_difference(lambda x, z: 1.0, psi, a, b1, b2, c)
        q = apply_scalar(from_hermitian(b1), psi) - apply_scalar(from_hermitian(b2), psi)
        assert np.abs(out - q).max() < 1e-12

    def test_matches_triple_calculus(self, rng):
        psi = eta_field(TWO_PI)
        phi = lambda x, z: np.cos(x) + np.sin(z)
        f3 = product_field(phi, psi)
        for _ in range(10):
            a, c = random_hermitian(rng, 4, 2.0), random_hermitian(rng, 4, 2.0)
            b1, b2 = random_hermitian(rng, 4, 2.0), random_hermitian(rng, 4, 2.0)
            lhs = separated_difference(phi, psi, a, b1, b2, c)
            rhs = func_calc_triple(f3, a, b1, c) - func_calc_triple(f3, a, b2, c)
            assert schatten_norm(lhs - rhs, 1) < 1e-9

    def test_antisymmetric_in_b_pair(self, rng):
        psi = eta_field(TWO_PI)
        phi = lambda x, z: x * z
        a, c = random_hermitian(rng, 4), random_hermitian(rng, 4)
        b1, b2 = random_hermitian(rng, 4), random_hermitian(rng, 4)
        fwd = separated_difference(phi, psi, a, b1, b2, c)
        rev = separated_difference(phi, psi, a, b2, b1, c)
        assert np.abs(fwd + rev).max() < 1e-10

    def test_linear_in_phi(self, rng):
        psi = eta_field(TWO_PI)
        p1 = lambda x, z: x
        p2 = lambda x, z: np.sin(z)
        a, c = random_hermitian(rng, 4), random_hermitian(rng, 4)
        b1, b2 = random_hermitian(rng, 4), random_hermitian(rng, 4)
        combo = separated_difference(
            lambda x, z: p1(x, z) + 2.0 * p2(x, z), psi, a, b1, b2, c)
        split = (separated_difference(p1, psi, a, b1, b2, c)
                 + 2.0 * separated_difference(p2, psi, a, b1, b2, c))
        assert np.abs(combo - split).max() < 1e-10
