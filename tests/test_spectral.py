import tracemalloc

import numpy as np
import pytest

from xplab.counterexample import TWO_PI, build_instance, eta_field
from xplab.experiment import _suite_perturbation
from xplab.hermitian import HermitianMatrix
from xplab.spectral import CLUSTER_TOL, SpectralMeasure, apply_scalar, from_hermitian, rank_one

from conftest import random_hermitian
from spectral_reference import atoms, full_apply_scalar, projection


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(mat):
        calls.append(mat.shape)
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


class TestFromHermitian:
    def test_exact_degeneracy_clusters(self):
        e = from_hermitian(HermitianMatrix.diag([TWO_PI, 0.0, 0.0]))
        assert e.atom_count == 2
        assert np.allclose(e.values, [0.0, TWO_PI])
        ranks = [round(np.trace(p).real) for _, p in atoms(e)]
        assert ranks == [2, 1]

    def test_identity_single_atom(self):
        e = from_hermitian(HermitianMatrix.diag(np.ones(4)))
        assert e.atom_count == 1
        assert e.values[0] == pytest.approx(1.0)
        assert np.allclose(projection(e, 0), np.eye(4))

    def test_near_degenerate_merged(self):
        e = from_hermitian(HermitianMatrix.diag([1.0, 1.0 + 1e-12]))
        assert e.atom_count == 1
        assert round(np.trace(projection(e, 0)).real) == 2

    def test_reconstruction(self, rng):
        h = random_hermitian(rng, 9, 3.0)
        e = from_hermitian(h)
        rebuilt = sum(v * p for v, p in atoms(e))
        assert np.abs(rebuilt - h.mat).max() < 1e-9

    def test_one_measure_per_matrix(self, rng, eigh_calls):
        h = random_hermitian(rng, 5)
        e = from_hermitian(h)
        assert from_hermitian(h) is e
        assert len(eigh_calls) == 1

    def test_measure_read_only(self, rng):
        e = from_hermitian(random_hermitian(rng, 4))
        with pytest.raises(ValueError):
            e.basis[0, 0] = 0.0
        with pytest.raises(ValueError):
            e.values[0] = 0.0
        clustered = from_hermitian(HermitianMatrix.diag([0.0, 0.0, 5.0]))
        with pytest.raises(ValueError):
            clustered.columns[0] = 1

    @pytest.mark.parametrize("values", [[np.nan], [0.0, np.nan], [-np.inf, 0.0], [0.0, np.inf]])
    def test_rejects_non_finite_values(self, values):
        k = len(values)
        with pytest.raises(ValueError, match="finite"):
            SpectralMeasure(values, np.eye(k), np.arange(k + 1))

    @pytest.mark.parametrize("call, match", [
        (lambda: SpectralMeasure([0.0, 1.0], None, [0, 0, 2]), "positive rank"),
        (lambda: SpectralMeasure([1.0, 1.0], None, [0, 1, 2]), "strictly increasing"),
        (lambda: SpectralMeasure([2.0, 1.0], np.eye(2), [0, 1, 2]), "strictly increasing"),
        (lambda: from_hermitian(np.zeros((0, 0))), "empty matrix"),
    ], ids=["zero-rank-atom", "equal-values", "decreasing-values", "empty-matrix"])
    def test_rejects_bad_input(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_caller_arrays_stay_writable(self):
        values, basis, starts = np.array([0.0, 1.0]), np.eye(2), np.arange(3)
        SpectralMeasure(values, basis, starts)
        values[0] = -1.0
        basis[0, 0] = 2.0
        starts[0] = 1

    def test_perturbation_suite_diagonalises_each_matrix_once(self, eigh_calls):
        # 30 trials, 2 matrices each, 7 fields per pair, in batches of one size
        _suite_perturbation(np.random.default_rng(1), 30)
        assert sum(int(np.prod(shape[:-2])) for shape in eigh_calls) == 60
        assert len(eigh_calls) < 60

    def test_invariants_hold(self, rng):
        e = from_hermitian(random_hermitian(rng, 7))
        eye = np.eye(e.dim)
        assert np.abs(e.basis.conj().T @ e.basis - eye).max() < 1e-10
        assert np.abs(sum(p for _, p in atoms(e)) - eye).max() < 1e-10
        assert np.all(np.diff(e.values) > 0)


@pytest.fixture
def no_eigh(monkeypatch):
    """Make any eigendecomposition fail, to show a path does not need one."""

    def fail(mat):
        raise AssertionError("eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", fail)


def _is_permutation(basis):
    return (basis.dtype == np.float64 and set(np.unique(basis)) <= {0.0, 1.0}
            and np.all(basis.sum(axis=0) == 1.0) and np.all(basis.sum(axis=1) == 1.0))


class TestDiagonalPath:
    @pytest.mark.parametrize("values", [[-1.0, 0.0, 0.5, 2.0], [1.0, 1.0, 1.0 + 1e-12, 3.0],
                                        [0.0, -0.0, 0.0], [7.0]])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_sorted_diagonal_has_no_basis(self, no_eigh, values, dtype):
        e = from_hermitian(np.diag(values).astype(dtype))
        assert e.basis is None
        assert e.dim == len(values)
        assert np.abs(sum(v * p for v, p in atoms(e)) - np.diag(values)).max() < 1e-12

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_unsorted_repeated_entries(self, no_eigh, dtype):
        d = np.array([3.0, -1.0, 3.0, 0.5, -1.0 + 1e-12])
        e = from_hermitian(np.diag(d).astype(dtype))
        assert np.allclose(e.values, [-1.0, 0.5, 3.0], rtol=0.0, atol=1e-12)
        assert list(np.diff(e.starts)) == [2, 1, 2]
        assert _is_permutation(e.basis)
        # stable sort: equal entries keep their order, so column 0 is e_1
        assert np.array_equal(e.basis, np.eye(5)[:, [1, 4, 3, 0, 2]])
        with pytest.raises(ValueError):
            e.basis[0, 0] = 1.0
        assert np.array_equal(sum(p for _, p in atoms(e)), np.eye(5))
        assert np.abs(sum(v * p for v, p in atoms(e)) - np.diag(d)).max() < 1e-12

    def test_zero_matrix_is_one_atom(self, no_eigh):
        e = from_hermitian(HermitianMatrix.zeros(6))
        assert list(e.values) == [0.0]
        assert list(np.diff(e.starts)) == [6]
        assert e.basis is None
        assert np.array_equal(projection(e, 0), np.eye(6))

    @pytest.mark.parametrize("perm", [[0, 1, 2], [0, 2, 1], [1, 0, 2],
                                      [1, 2, 0], [2, 0, 1], [2, 1, 0]])
    def test_perm_must_be_a_permutation(self, no_eigh, perm):
        # a diagonal in each of the six orders: its basis is the permutation
        # matrix of its sort order, or None when that order is the identity
        d = np.array([10.0, 20.0, 30.0])[np.argsort(perm)]
        e = from_hermitian(HermitianMatrix.diag(d))
        assert np.array_equal(e.values, [10.0, 20.0, 30.0])
        if perm == [0, 1, 2]:
            assert e.basis is None
        else:
            assert _is_permutation(e.basis)
            assert np.array_equal(e.basis, np.eye(3)[:, perm])

    def test_basis_must_match_dim(self):
        values, starts = np.arange(3.0), np.arange(4)
        with pytest.raises(ValueError, match="square matrix of size dim"):
            SpectralMeasure(values, np.eye(2), starts)
        with pytest.raises(ValueError, match="square matrix of size dim"):
            SpectralMeasure(values, np.ones((3, 4)), starts)
        with pytest.raises(ValueError, match="one more entry"):
            SpectralMeasure(values, None, np.arange(3))
        with pytest.raises(ValueError, match="from 0 to dim"):
            SpectralMeasure(values, None, np.arange(1, 5))
        e = SpectralMeasure(values, None, starts)
        assert e.basis is None
        assert type(e.dim) is int and e.dim == 3

    def test_diagonal_measure_stores_no_matrix(self, no_eigh):
        # O(n) work and memory for a sorted diagonal: no n x n basis
        n = 512
        h = HermitianMatrix.diag(np.arange(n, dtype=np.float64))
        tracemalloc.start()
        try:
            e = from_hermitian(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n
        assert type(e.dim) is int and e.dim == n
        assert e.basis is None

    def test_real_symmetric_gives_real_basis(self, rng):
        raw = rng.standard_normal((6, 6))
        h = HermitianMatrix(raw + raw.T)
        e = from_hermitian(h)
        assert e.basis.dtype == np.float64
        assert np.abs(sum(v * p for v, p in atoms(e)) - h.mat).max() < 1e-12

    def test_complex_hermitian_unchanged(self, rng):
        h = random_hermitian(rng, 6)
        w, v = np.linalg.eigh(h.mat)
        e = from_hermitian(h)
        assert e.basis.dtype == np.complex128
        assert np.array_equal(e.basis, v)
        assert np.array_equal(e.values, w)


class TestRankOne:
    @pytest.mark.parametrize("n", [2, 3, 64, 512])
    def test_matches_eigh(self, n, monkeypatch):
        want = from_hermitian(HermitianMatrix(TWO_PI * np.full((n, n), 1 / n)))

        def fail(mat):
            raise AssertionError("eigh was called")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        h = rank_one(TWO_PI, np.ones(n))
        e = from_hermitian(h)
        assert np.array_equal(h.mat, TWO_PI * np.full((n, n), 1 / n))
        assert list(e.starts) == [0, n - 1, n] == list(want.starts)
        assert np.array_equal(e.values, [0.0, TWO_PI])
        assert np.abs(e.values - want.values).max() <= 1e-12
        for j in range(2):
            assert np.abs(projection(e, j) - projection(want, j)).max() <= 1e-12

    @pytest.mark.parametrize("last", [2.0, -2.0, 0.0])
    def test_general_vector(self, rng, last, no_eigh):
        v = np.append(rng.standard_normal(6), last)
        h = rank_one(0.5, v)
        e = from_hermitian(h)
        assert np.abs(e.basis.T @ e.basis - np.eye(7)).max() < 1e-14
        assert np.abs(projection(e, 1) - np.outer(v, v) / (v @ v)).max() < 1e-14
        assert np.abs(sum(val * p for val, p in atoms(e)) - h.mat).max() < 1e-14
        assert np.array_equal(h.mat, 0.5 * (np.outer(v, v) / (v @ v)))

    @pytest.mark.parametrize("r, v", [
        (1.0, [1.0]), (1.0, [0.0, 0.0]), (1.0, [[1.0, 2.0]]), (1.0, [1.0, np.inf]),
        (1.0, [np.nan, 1.0]), (0.0, [1.0, 1.0]), (-1.0, [1.0, 1.0]),
        (CLUSTER_TOL, [1.0, 1.0]), (np.inf, [1.0, 1.0]), (np.nan, [1.0, 1.0]),
    ])
    def test_rejects(self, r, v):
        with pytest.raises(ValueError):
            rank_one(r, v)


class TestApplyScalar:
    def test_identity_map_reconstructs(self, rng):
        h = random_hermitian(rng, 5, 2.0)
        e = from_hermitian(h)
        assert np.abs(apply_scalar(e, lambda x: x) - h.mat).max() < 1e-10

    def test_constant_one_gives_identity(self, rng):
        e = from_hermitian(random_hermitian(rng, 6))
        assert np.abs(apply_scalar(e, lambda x: 1.0) - np.eye(6)).max() < 1e-10

    def test_rank_one_projection_recovered(self):
        # B1 = 2*pi*P, psi = eta(. - 2*pi): psi(B1) = P exactly
        n = 5
        p = np.full((n, n), 1.0 / n, dtype=complex)
        e = from_hermitian(HermitianMatrix(TWO_PI * p))
        psi = eta_field(TWO_PI)
        assert np.abs(apply_scalar(e, psi) - p).max() < 1e-12

    def test_multiplicativity(self, rng):
        e = from_hermitian(random_hermitian(rng, 6, 2.0))
        g = lambda x: np.cos(x)
        h = lambda x: x**2 + 1.0
        lhs = apply_scalar(e, lambda x: g(x) * h(x))
        rhs = apply_scalar(e, g) @ apply_scalar(e, h)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_real_field_gives_hermitian(self, rng):
        e = from_hermitian(random_hermitian(rng, 5))
        out = apply_scalar(e, np.exp)
        assert np.abs(out - out.conj().T).max() == 0.0

    def test_real_in_real_out(self, rng):
        e = from_hermitian(build_instance(8).B1)
        assert apply_scalar(e, np.cos).dtype == np.float64
        assert apply_scalar(e, lambda x: np.exp(1j * x)).dtype == np.complex128
        complex_basis = from_hermitian(random_hermitian(rng, 5))
        assert apply_scalar(complex_basis, np.cos).dtype == np.complex128

    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_zero_columns_dropped_on_instance(self, n):
        # psi(0) = 0 on B1's rank-(n-1) atom leaves one column: the outer
        # product gives the full product's bytes
        inst = build_instance(n)
        e = from_hermitian(inst.B1)
        assert np.count_nonzero(inst.psi(e.values)[e.columns]) == 1
        assert apply_scalar(e, inst.psi).tobytes() == full_apply_scalar(e, inst.psi).tobytes()

    def test_zero_atom_matches_atom_sum(self, rng):
        # on a generic measure the kept columns may round differently
        e = from_hermitian(random_hermitian(rng, 7, 2.0))
        g = lambda x: np.where(x == e.values[2], 0.0, np.cos(x))
        want = sum(g(v) * p for v, p in atoms(e))
        assert np.abs(apply_scalar(e, g) - want).max() < 1e-15

    def test_one_call_on_atom_values(self):
        e = from_hermitian(HermitianMatrix.diag([1.0, 4.0, 4.0]))
        calls = []

        def g(x):
            calls.append(np.array(x))
            return x

        assert np.allclose(apply_scalar(e, g), np.diag([1.0, 4.0, 4.0]))
        assert len(calls) == 1
        assert np.array_equal(calls[0], e.values)

    def test_field_error_propagates_unchanged(self):
        e = from_hermitian(HermitianMatrix.diag([1.0, 4.0]))

        def bad(x):
            raise FloatingPointError("boom")

        with pytest.raises(FloatingPointError, match="^boom$"):
            apply_scalar(e, bad)


class TestCoordinateMeasure:
    def test_integer_form(self):
        # diag(0..n-1) gives atom j = e_j e_j* at value j, exactly
        for n in range(1, 9):
            e = from_hermitian(HermitianMatrix.diag(np.arange(n)))
            assert np.array_equal(e.values, np.arange(n))
            assert e.basis is None
            assert np.array_equal(e.starts, np.arange(n + 1))

    def test_column_maps(self):
        e = from_hermitian(HermitianMatrix.diag([0.0, 0.0, 5.0]))
        assert list(e.columns) == [0, 0, 1]
        # rank-one atoms: the map is a slice, and indexing by it is a view
        e = from_hermitian(HermitianMatrix.diag([0.0, 1.0, 5.0]))
        assert e.columns == slice(None)
        assert np.shares_memory(e.values[e.columns], e.values)
