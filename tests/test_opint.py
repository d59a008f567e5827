import numpy as np
import pytest

from xplab.hermitian import HermitianMatrix, schatten_norm
from xplab.opint import (
    doi,
    func_calc_pair,
    func_calc_triple,
    grid_eval,
    s2_contraction_check,
    toi,
)
from xplab.spectral import SpectralMeasure, apply_scalar, from_hermitian

from conftest import random_complex, random_hermitian
from spectral_reference import atoms


def naive_doi(phi, e1, t, e2):
    """Literal atom sum, independent of the eigenbasis fast path."""
    out = np.zeros_like(np.asarray(t, dtype=complex))
    for v1, p1 in atoms(e1):
        for v2, p2 in atoms(e2):
            out += complex(phi(v1, v2)) * (p1 @ t @ p2)
    return out


def naive_toi(phi, e1, t1, e2, t2, e3):
    out = np.zeros_like(np.asarray(t1, dtype=complex))
    for v1, p1 in atoms(e1):
        for v2, p2 in atoms(e2):
            for v3, p3 in atoms(e3):
                out += complex(phi(v1, v2, v3)) * (p1 @ t1 @ p2 @ t2 @ p3)
    return out


class TestDoi:
    def test_constant_symbol_is_identity_transform(self, rng):
        e1 = from_hermitian(random_hermitian(rng, 5))
        e2 = from_hermitian(random_hermitian(rng, 5))
        t = random_complex(rng, 5)
        fgrid = grid_eval(lambda x, y: 1.0, e1.values, e2.values)
        assert np.abs(doi(fgrid, e1, t, e2) - t).max() < 1e-12

    def test_first_variable_symbol_multiplies_left(self, rng):
        h1 = random_hermitian(rng, 5)
        e1 = from_hermitian(h1)
        e2 = from_hermitian(random_hermitian(rng, 5))
        t = random_complex(rng, 5)
        got = doi(grid_eval(lambda x, y: x, e1.values, e2.values), e1, t, e2)
        assert np.abs(got - h1.mat @ t).max() < 1e-10

    @pytest.mark.parametrize("permuted", [False, True], ids=["sorted", "permuted"])
    def test_coordinate_measures_give_hadamard(self, rng, permuted):
        # A = diag(d) for a permutation d of 0..n-1 has atom d[i] on e_i, so the
        # integral is Phi(a_i, a_j) T_ij; sorted, its basis is None and the identity
        # holds by construction, permuted it goes through the permutation basis
        for n in range(1, 7):
            d = rng.permutation(n) if permuted else np.arange(n)
            e = from_hermitian(HermitianMatrix.diag(d))
            assert (e.basis is None) == (d == np.arange(n)).all()
            t = random_complex(rng, n)
            symbol = random_complex(rng, n)
            assert np.abs(doi(symbol, e, t, e) - symbol[np.ix_(d, d)] * t).max() < 1e-12

    def test_matches_naive_sum(self, rng):
        e1 = from_hermitian(random_hermitian(rng, 4))
        e2 = from_hermitian(random_hermitian(rng, 4))
        t = random_complex(rng, 4)
        phi = lambda x, y: np.cos(x) + 1j * np.sin(y)
        got = doi(grid_eval(phi, e1.values, e2.values), e1, t, e2)
        assert np.abs(got - naive_doi(phi, e1, t, e2)).max() < 1e-12

    def test_dimension_mismatch(self, rng):
        e1 = from_hermitian(random_hermitian(rng, 3))
        e2 = from_hermitian(random_hermitian(rng, 4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            doi(grid_eval(lambda x, y: 1.0, e1.values, e2.values), e1, np.eye(3), e2)

    def test_linear_in_symbol_and_argument(self, rng):
        e1 = from_hermitian(random_hermitian(rng, 4))
        e2 = from_hermitian(random_hermitian(rng, 4))
        t1, t2 = random_complex(rng, 4), random_complex(rng, 4)
        f = grid_eval(lambda x, y: x * y, e1.values, e2.values)
        g = grid_eval(lambda x, y: np.exp(1j * (x - y)), e1.values, e2.values)
        combo = doi(f + 2.0 * g, e1, t1, e2)
        split = doi(f, e1, t1, e2) + 2.0 * doi(g, e1, t1, e2)
        assert np.abs(combo - split).max() < 1e-10
        both = doi(f, e1, t1 + 3.0 * t2, e2)
        parts = doi(f, e1, t1, e2) + 3.0 * doi(f, e1, t2, e2)
        assert np.abs(both - parts).max() < 1e-10


class TestToi:
    def test_constant_symbol_multiplies(self, rng):
        e = [from_hermitian(random_hermitian(rng, 4)) for _ in range(3)]
        t1, t2 = random_complex(rng, 4), random_complex(rng, 4)
        fgrid = grid_eval(lambda x, y, z: 1.0, e[0].values, e[1].values, e[2].values)
        got = toi(fgrid, e[0], t1, e[1], t2, e[2])
        assert np.abs(got - t1 @ t2).max() < 1e-12

    def test_middle_symbol_inserts_operator(self, rng):
        b = random_hermitian(rng, 4)
        e1 = from_hermitian(random_hermitian(rng, 4))
        eb = from_hermitian(b)
        e3 = from_hermitian(random_hermitian(rng, 4))
        t1, t2 = random_complex(rng, 4), random_complex(rng, 4)
        got = toi(grid_eval(lambda x, y, z: y, e1.values, eb.values, e3.values), e1, t1, eb, t2, e3)
        assert np.abs(got - t1 @ b.mat @ t2).max() < 1e-10

    def test_matches_naive_triple_sum(self, rng):
        e = [from_hermitian(random_hermitian(rng, 2)) for _ in range(3)]
        t1, t2 = random_complex(rng, 2), random_complex(rng, 2)
        phi = lambda x, y, z: np.exp(1j * x) * y + z**2
        got = toi(grid_eval(phi, e[0].values, e[1].values, e[2].values), e[0], t1, e[1], t2, e[2])
        want = naive_toi(phi, e[0], t1, e[1], t2, e[2])
        assert np.abs(got - want).max() < 1e-12

    def test_elementary_tensor_factorizes(self, rng):
        hs = [random_hermitian(rng, 4, 2.0) for _ in range(3)]
        es = [from_hermitian(h) for h in hs]
        t1, t2 = random_complex(rng, 4), random_complex(rng, 4)
        f1, f2, f3 = np.cos, np.sin, lambda x: x**2
        fgrid = grid_eval(lambda x, y, z: f1(x) * f2(y) * f3(z), es[0].values, es[1].values, es[2].values)
        got = toi(fgrid, es[0], t1, es[1], t2, es[2])
        want = (apply_scalar(es[0], f1) @ t1 @ apply_scalar(es[1], f2)
                @ t2 @ apply_scalar(es[2], f3))
        assert np.abs(got - want).max() < 1e-10


def _measures():
    """Diagonal measures with the identity basis (``None``) and with a
    permutation basis (with a cluster), and a dense real ``eigh`` measure,
    all of dimension 5."""
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((5, 5))
    return {
        "sorted": from_hermitian(HermitianMatrix.diag([-1.0, 0.0, 0.5, 2.0, 3.0])),
        "unsorted": from_hermitian(HermitianMatrix.diag([3.0, -1.0, 3.0, 0.5, 2.0])),
        "dense": from_hermitian(HermitianMatrix(raw + raw.T)),
    }


def _random_matrix(rng, dtype):
    return random_complex(rng, 5) if dtype == np.complex128 else rng.standard_normal((5, 5))


def _dense(e):
    """The same measure with a dense basis, ``np.eye`` for ``None``, so doi
    and toi multiply by it: the reference for the skipped identity basis."""
    return SpectralMeasure(e.values, np.eye(e.dim) if e.basis is None else e.basis, e.starts)


class TestPermutationPath:
    """doi and toi over the identity basis (``None``, no change of basis)
    and over a permutation basis give bit for bit what they give over the
    same measures with a dense basis."""

    def test_measures_cover_both_kinds(self):
        e = _measures()
        assert e["sorted"].basis is None
        assert np.array_equal(e["unsorted"].basis, np.eye(5)[:, [1, 3, 4, 0, 2]])
        assert e["dense"].basis.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("k1", ["sorted", "unsorted", "dense"])
    @pytest.mark.parametrize("k2", ["sorted", "unsorted", "dense"])
    def test_doi_gather_equals_product(self, rng, dtype, k1, k2):
        e = _measures()
        t = _random_matrix(rng, dtype)
        fgrid = grid_eval(lambda x, y: np.cos(x) + 2.0 * y, e[k1].values, e[k2].values)
        got = doi(fgrid, e[k1], t, e[k2])
        want = doi(fgrid, _dense(e[k1]), t, _dense(e[k2]))
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("ks", [
        ("sorted", "sorted", "sorted"),
        ("unsorted", "sorted", "unsorted"),
        ("unsorted", "dense", "sorted"),
        ("dense", "unsorted", "dense"),
        ("sorted", "dense", "unsorted"),
        ("unsorted", "unsorted", "unsorted"),
    ])
    def test_toi_gather_equals_product(self, rng, dtype, ks):
        measures = _measures()
        e = [measures[k] for k in ks]
        t1, t2 = _random_matrix(rng, dtype), _random_matrix(rng, dtype)
        fgrid = grid_eval(lambda x, y, z: np.cos(x - z) * (1.0 + y), *(m.values for m in e))
        got = toi(fgrid, e[0], t1, e[1], t2, e[2])
        want = toi(fgrid, _dense(e[0]), t1, _dense(e[1]), t2, _dense(e[2]))
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)

    def test_toi_rejects_grid_of_wrong_shape(self):
        e = _measures()["unsorted"]
        with pytest.raises(ValueError, match="atom grid"):
            toi(np.ones((5, 5, 5)), e, np.eye(5), e, np.eye(5), e)
        with pytest.raises(ValueError, match="atom grid"):
            doi(np.ones((5, 5)), e, np.eye(5), e)


def _identity_cases():
    """Measures of dimension 5 for the identity-argument tests: the identity
    and a permutation basis, dense real and complex bases, and two one-atom
    measures (the zero matrix, whose basis is the identity, and an unsorted
    cluster, whose basis is a permutation)."""
    rng = np.random.default_rng(11)
    out = dict(_measures())
    out["complex"] = from_hermitian(random_hermitian(rng, 5))
    out["zero"] = from_hermitian(HermitianMatrix.zeros(5))
    out["cluster"] = from_hermitian(HermitianMatrix.diag([1.0 + 1e-12, 1.0, 1.0, 1.0, 1.0]))
    return out


class TestIdentityArgument:
    def test_cases_cover_every_kind(self):
        e = _identity_cases()
        assert e["complex"].basis.dtype == np.complex128
        assert e["zero"].atom_count == 1 and e["zero"].basis is None
        assert e["cluster"].atom_count == 1
        assert np.array_equal(e["cluster"].basis, np.eye(5)[:, [1, 2, 3, 4, 0]])

    def test_none_is_no_operator(self):
        # the identity argument is np.eye(dim); None raises as any non-matrix
        eye = np.eye(5)
        for e in _identity_cases().values():
            with pytest.raises(ValueError, match="square matrix"):
                doi(grid_eval(lambda x, y: x + y, e.values, e.values), e, None, e)
            fgrid = np.ones((e.atom_count,) * 3)
            for t1, t2 in ((None, eye), (eye, None)):
                with pytest.raises(ValueError, match="square matrix"):
                    toi(fgrid, e, t1, e, t2, e)


class TestFuncCalc:
    def test_product_gives_matrix_product(self, rng):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        got = func_calc_pair(lambda x, y: x * y, a, b)
        assert np.abs(got - a.mat @ b.mat).max() < 1e-10

    def test_one_variable_collapse(self, rng):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        g = np.polynomial.Polynomial([0.0, 1.0, 0.5])
        got = func_calc_pair(lambda x, y: g(x), a, b)
        assert np.abs(got - apply_scalar(from_hermitian(a), g)).max() < 1e-10

    def test_commuting_diagonal_pair(self):
        a = HermitianMatrix.diag([1.0, 2.0, 3.0])
        b = HermitianMatrix.diag([5.0, 7.0, 11.0])
        f = lambda x, y: x + 10.0 * y
        got = func_calc_pair(f, a, b)
        assert np.abs(got - np.diag([51.0, 72.0, 113.0])).max() < 1e-10

    def test_triple_product_symbol(self, rng):
        a, b, c = (random_hermitian(rng, 4) for _ in range(3))
        got = func_calc_triple(lambda x, y, z: x * y * z, a, b, c)
        assert np.abs(got - a.mat @ b.mat @ c.mat).max() < 1e-10

    def test_commuting_diagonal_triple(self):
        a = HermitianMatrix.diag([1.0, 2.0])
        b = HermitianMatrix.diag([3.0, 5.0])
        c = HermitianMatrix.diag([7.0, 11.0])
        f = lambda x, y, z: x * 100 + y * 10 + z
        got = func_calc_triple(f, a, b, c)
        assert np.abs(got - np.diag([137.0, 261.0])).max() < 1e-10

    def test_triple_reduces_to_pair(self, rng):
        a, b, c = (random_hermitian(rng, 4) for _ in range(3))
        f2 = lambda x, y: np.cos(x) * y
        got = func_calc_triple(lambda x, y, z: f2(x, y), a, b, c)
        # constant in z: the z-measure sums to the identity
        want = func_calc_pair(f2, a, b)
        assert np.abs(got - want).max() < 1e-10

    def test_separable_triple_equals_doi(self, rng):
        # f(x,y,z) = phi(x,z) psi(y) acting on (A, B, C) equals
        # doi(phi, E_A, psi(B), E_C)
        a, b, c = (random_hermitian(rng, 5) for _ in range(3))
        phi = lambda x, z: np.exp(1j * x) + z
        psi = lambda y: y**2
        f3 = lambda x, y, z: phi(x, z) * psi(y)
        got = func_calc_triple(f3, a, b, c)
        ea, ec = from_hermitian(a), from_hermitian(c)
        psi_b = apply_scalar(from_hermitian(b), psi)
        want = doi(grid_eval(phi, ea.values, ec.values), ea, psi_b, ec)
        assert np.abs(got - want).max() < 1e-10


class TestS2Contraction:
    def test_constant_symbol_attains(self, rng):
        e1 = from_hermitian(random_hermitian(rng, 5))
        e2 = from_hermitian(random_hermitian(rng, 5))
        t = random_complex(rng, 5)
        fgrid = grid_eval(lambda x, y: 1.0, e1.values, e2.values)
        lhs, rhs = s2_contraction_check(fgrid, e1, e2, t)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx(schatten_norm(t, 2), abs=1e-12)

    def test_triangular_mask_contracts(self, rng):
        n = 5
        e = from_hermitian(HermitianMatrix.diag(np.arange(n)))
        t = random_complex(rng, n)
        fgrid = grid_eval(lambda x, y: 1.0 * (x <= y), e.values, e.values)
        lhs, rhs = s2_contraction_check(fgrid, e, e, t)
        assert lhs <= rhs + 1e-12

    def test_random_instances(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            e1 = from_hermitian(random_hermitian(rng, n))
            e2 = from_hermitian(random_hermitian(rng, n))
            t = random_complex(rng, n)
            fgrid = grid_eval(lambda x, y: np.sin(x * y), e1.values, e2.values)
            lhs, rhs = s2_contraction_check(fgrid, e1, e2, t)
            assert lhs <= rhs + 1e-10

    def test_equality_at_matrix_unit(self, rng):
        n = 6
        e = from_hermitian(HermitianMatrix.diag(np.arange(n)))
        symbol = random_complex(rng, n)
        jstar, kstar = np.unravel_index(int(np.abs(symbol).argmax()), symbol.shape)
        unit = np.zeros((n, n), dtype=complex)
        unit[jstar, kstar] = 1.0
        lhs, rhs = s2_contraction_check(symbol, e, e, unit)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_equality_at_real_matrix_unit_is_exact(self, rng):
        # ||g E_jk||_F = sqrt(g^2) = |g| in floating point, with no SVD rounding
        e = from_hermitian(HermitianMatrix.diag(np.arange(6)))
        symbol = rng.standard_normal((6, 6))
        unit = (np.abs(symbol) == np.abs(symbol).max()).astype(complex)
        lhs, rhs = s2_contraction_check(symbol, e, e, unit)
        assert type(lhs) is float and lhs == rhs

    def test_frobenius_agrees_with_singular_values(self, rng):
        e1, e2 = (from_hermitian(random_hermitian(rng, 7)) for _ in range(2))
        t = random_complex(rng, 7)
        fgrid = grid_eval(lambda x, y: np.sin(x * y), e1.values, e2.values)
        lhs, rhs = s2_contraction_check(fgrid, e1, e2, t)
        assert lhs == pytest.approx(schatten_norm(doi(fgrid, e1, t, e2), 2), rel=1e-14)
        assert rhs == pytest.approx(np.abs(fgrid).max() * schatten_norm(t, 2), rel=1e-14)


class TestGridEval:
    def test_vectorized_field(self):
        out = grid_eval(lambda x, y: x + 1j * y, [0.0, 1.0], [2.0, 3.0, 4.0])
        assert out.shape == (2, 3)
        assert out[1, 2] == pytest.approx(1.0 + 4.0j)

    @pytest.mark.parametrize("error", [ValueError, TypeError])
    def test_other_errors_propagate_without_fallback(self, error):
        calls = []

        def broken(x, y):
            calls.append(1)
            raise error("broken field")

        with pytest.raises(error, match="broken field"):
            grid_eval(broken, np.arange(3.0), np.arange(4.0))
        assert len(calls) == 1

    def test_constant_broadcasts(self):
        out = grid_eval(lambda x, y: 1.0, np.arange(3.0), np.arange(5.0))
        assert out.shape == (3, 5)
        assert np.all(out == 1.0)
