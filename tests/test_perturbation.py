import numpy as np
import pytest
from numpy.polynomial import Polynomial

from xplab.counterexample import TWO_PI, eta_field
from xplab.hermitian import HermitianMatrix, schatten_norm
from xplab.opint import doi, func_calc_triple, grid_eval
from xplab.perturbation import (
    divided_difference,
    perturbation_identity_residual,
    psi_difference,
    separated_difference,
)
from xplab.spectral import apply_scalar, from_hermitian

from conftest import random_hermitian
from spectral_reference import projection

SQUARE = Polynomial([0.0, 0.0, 1.0])


class TestDividedDifference:
    def test_off_diagonal_value(self):
        dd = divided_difference(SQUARE)
        assert complex(dd(1.0, 3.0)) == pytest.approx(4.0)

    def test_eta_lattice_slope(self):
        dd = divided_difference(eta_field(0.0))
        assert complex(dd(0.0, TWO_PI)) == pytest.approx(-1.0 / TWO_PI, abs=1e-14)

    def test_vectorized_mixed_cells(self):
        dd = divided_difference(SQUARE)
        x = np.array([1.0, 2.0])
        out = np.asarray(dd(x[:, None], x[None, :]))
        assert np.array_equal(out, [[0.0, 3.0], [3.0, 0.0]])

    def test_real_in_real_out(self):
        x = np.linspace(-3.0, 3.0, 7)
        real = divided_difference(np.cos)(x[:, None], x[None, :])
        cplx = divided_difference(lambda t: np.cos(t) + 0j)(x[:, None], x[None, :])
        assert real.dtype == np.float64
        assert cplx.dtype == np.complex128
        assert np.array_equal(cplx, real)

    def test_one_evaluation_per_axis_point(self, rng):
        # grid_eval evaluates the field on an n x m sparse mesh of atom values
        sizes = []

        def counted(t):
            sizes.append(np.size(t))
            return np.cos(t)

        ea = from_hermitian(random_hermitian(rng, 5))
        eb = from_hermitian(HermitianMatrix(np.diag([0.5, 0.5, 1.5, 1.5, 2.5])))
        assert (ea.atom_count, eb.atom_count) == (5, 3)
        fgrid = grid_eval(divided_difference(counted), ea.values, eb.values)
        doi(fgrid, ea, rng.standard_normal((5, 5)), eb)
        assert sum(sizes) == 5 + 3


class TestPerturbationIdentity:
    def test_identity_function_exact(self, rng):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        res = perturbation_identity_residual(Polynomial([0.0, 1.0]), a, b)
        assert res < 1e-12

    def test_equal_operators_exact(self, rng):
        a = random_hermitian(rng, 5)
        assert perturbation_identity_residual(eta_field(0.0), a, a) < 1e-12

    def test_random_pair_eta(self, rng):
        a = random_hermitian(rng, 6, 2.0)
        b = random_hermitian(rng, 6, 2.0)
        res = perturbation_identity_residual(eta_field(0.0), a, b)
        assert res < 1e-9

    def test_many_fields_and_dims(self, rng):
        fields = [
            Polynomial([1.0, -2.0, 0.5, 0.0, 0.25, 1.0]),
            eta_field(0.0),
            eta_field(TWO_PI),
        ]
        for _ in range(25):
            n = int(rng.integers(2, 17))
            a = random_hermitian(rng, n, 2.0)
            b = random_hermitian(rng, n, 2.0)
            bound = 1e-9 * (1.0 + schatten_norm(a.mat, np.inf) + schatten_norm(b.mat, np.inf))
            for f in fields:
                assert perturbation_identity_residual(f, a, b) < bound


class TestDiagonalIrrelevance:
    @pytest.mark.parametrize("phi, dtype", [
        (np.cos, np.float64),
        (lambda t: np.exp(1j * t), np.complex128),
    ])
    def test_diagonal_value_is_zero(self, phi, dtype):
        dd = divided_difference(phi)
        x = np.array([-1.0, 0.0, 2.5])
        grid = dd(x[:, None], x[None, :])
        one = dd(2.5, 2.5)
        assert grid.dtype == one.dtype == dtype
        assert np.array_equal(grid.diagonal(), np.zeros(3)) and one == 0.0
        assert not np.signbit(grid.diagonal().real).any()

    @pytest.mark.parametrize("a, b", [
        ([1.0, 2.0], [1.0, 2.0]),
        ([0.0, 1.0, 3.0], [0.0, 2.0, 3.0]),
        ([0.0, 1.0, 3.0], [3.0, 1.0, 5.0]),
        ([-1.0, -1.0, 2.0, 4.0], [-1.0, 2.0, 2.0, 6.0]),
    ], ids=["equal", "shared-in-place", "shared-across", "shared-clusters"])
    def test_identity_where_eigenvalues_coincide(self, a, b):
        # the divided difference reaches its zero diagonal on the shared atoms
        a, b = HermitianMatrix.diag(a), HermitianMatrix.diag(b)
        assert np.intersect1d(from_hermitian(a).values, from_hermitian(b).values).size
        for f in (SQUARE, eta_field(0.0), eta_field(TWO_PI)):
            assert perturbation_identity_residual(f, a, b) < 1e-12

    def test_shared_eigenvalue_identity_unchanged(self):
        # hand-built 3x3 pair sharing the eigenvalue 1: the matched diagonal
        # cell of A - B vanishes identically
        a = HermitianMatrix.diag([1.0, 2.0, 4.0])
        b = HermitianMatrix.diag([1.0, 3.0, 5.0])
        ea, eb = from_hermitian(a), from_hermitian(b)
        pa = projection(ea, 0)
        pb = projection(eb, 0)
        assert np.abs(pa @ (a.mat - b.mat) @ pb).max() < 1e-14
        res = perturbation_identity_residual(eta_field(0.0), a, b)
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
        f3 = lambda x, y, z: phi(x, z) * psi(y)
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
