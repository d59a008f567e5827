import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xplab.counterexample import TWO_PI
from xplab.experiment import _hermitians
from xplab.hermitian import (
    _DOT_BLOCK,
    _U,
    HermitianMatrix,
    _gamma,
    _s1_lower_bound,
    _up,
    as_matrix,
    schatten_norm,
    singular_values,
)

from conftest import random_complex, random_hermitian, random_unitary

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class TestHermitianMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("entries", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, np.inf], [np.inf, 1.0]],
        [[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 1.0]],
        [[-np.inf]],
    ])
    def test_rejects_non_finite(self, entries):
        # checked before the symmetry test, whose inf - inf would warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                HermitianMatrix(entries)

    def test_symmetrizes_small_defect(self):
        m = np.array([[1.0, 1.0 + 1e-13j], [1.0 - 0.5e-13j, 2.0]])
        h = HermitianMatrix(m)
        assert np.abs(h.mat - h.mat.conj().T).max() == 0.0

    def test_symmetrizing_does_not_overflow(self):
        # H + H* overflows above half the largest float; H/2 + H*/2 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = HermitianMatrix([[1e308, 0.0], [0.0, 1.0]])
        assert h.mat[0, 0] == 1e308

    def test_entries_read_only(self):
        h = HermitianMatrix(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            h.mat[0, 0] = 5.0

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_difference_exactly_hermitian(self, rng, kind):
        # A.mat - B.mat is what a HermitianMatrix of the difference stores
        for n in (1, 2, 5, 16):
            a, b = (random_complex(rng, n) for _ in range(2))
            if kind == "real":
                a, b = a.real, b.real
            d = HermitianMatrix(a + a.conj().T).mat - HermitianMatrix(b + b.conj().T).mat
            assert d.tobytes() == HermitianMatrix(d).mat.tobytes()

    def test_symmetric_constructors_store_what_init_stores(self):
        # _symmetric skips the symmetry check and the H/2 + H*/2 pass, which give
        # back an exactly symmetric array bit for bit: diagonals, zeros and the
        # rank-one r v v^T / |v|^2
        rng = np.random.default_rng(5)
        values = rng.standard_normal(7)
        values[2] = -0.0
        v = rng.standard_normal(9)
        built = [HermitianMatrix._symmetric(m) for m in (
            np.diag(values),
            np.zeros((4, 4)),
            2.5 * (np.outer(v, v) / (v @ v)),
            TWO_PI * (np.outer(np.ones(6), np.ones(6)) / 6.0),
        )]
        for h in built:
            assert h.mat.tobytes() == HermitianMatrix(h.mat.copy()).mat.tobytes()
            assert h.mat.dtype == np.float64 and not h.mat.flags.writeable

    def test_random_hermitian_stores_what_init_stores(self, rng):
        # verify's plain-array draws and the tests' wrapped ones skip the symmetry
        # check: raw + raw^H is exactly Hermitian, and real scalings keep it so
        for n in range(1, 17):
            draws = [random_hermitian(rng, n, scale).mat for scale in (1.0, 2.0)]
            for mat in draws + list(_hermitians(rng, n, 2)):
                assert mat.tobytes() == HermitianMatrix(mat.copy()).mat.tobytes()
                assert mat.dtype == np.complex128
            assert not any(mat.flags.writeable for mat in draws)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_diag_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            HermitianMatrix(np.diag([1.0, bad]))

    def test_dtype_rule_real_in_real_out(self):
        # a real input stays float64 through construction and as_matrix; a
        # complex input stays complex128, even with zero imaginary part
        assert HermitianMatrix([[1, 2], [2, 3]]).mat.dtype == np.float64
        assert HermitianMatrix(np.diag([1.0, 2.0])).mat.dtype == np.float64
        assert HermitianMatrix(np.zeros((3, 3))).mat.dtype == np.float64
        assert as_matrix(np.eye(2, dtype=int)).dtype == np.float64
        assert HermitianMatrix(np.eye(2, dtype=complex)).mat.dtype == np.complex128
        assert as_matrix(np.eye(2, dtype=np.complex64)).dtype == np.complex128


class TestSingularValues:
    def test_zero_matrix(self):
        assert np.all(singular_values(np.zeros((3, 3))) == 0.0)

    def test_triangular_ones_golden_ratio(self):
        s = singular_values(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(s, [GOLDEN, 1.0 / GOLDEN], rtol=1e-14)

    def test_unitary_all_ones(self, rng):
        u = random_unitary(rng, 6)
        assert np.allclose(singular_values(u), 1.0, atol=1e-12)

    def test_descending_and_counted(self, rng):
        m = random_complex(rng, 7)
        s = singular_values(m)
        assert len(s) == 7
        assert np.all(np.diff(s) <= 0)

    def test_matches_gram_eigenvalues(self, rng):
        m = random_complex(rng, 5)
        s = singular_values(m)
        gram = np.sort(np.linalg.eigvalsh(m.conj().T @ m))[::-1]
        assert np.allclose(s**2, gram, rtol=1e-10, atol=1e-12)

    def test_hermitian_eigen_abs(self, rng):
        h = random_hermitian(rng, 6)
        eig = np.sort(np.abs(np.linalg.eigvalsh(h.mat)))[::-1]
        assert np.allclose(singular_values(h), eig, atol=1e-12)


class TestSchattenNorm:
    def test_trace_norm_diagonal(self):
        assert schatten_norm(HermitianMatrix(np.diag([3.0, -4.0])).mat, 1) == pytest.approx(7.0)

    def test_triangular_ones_sqrt5(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert schatten_norm(m, 1) == pytest.approx(math.sqrt(5.0), abs=1e-13)

    def test_rank_one_projection_any_p(self):
        p = np.full((4, 4), 0.25)
        for exponent in (1.0, 1.7, 2.0, 5.0, np.inf):
            assert schatten_norm(p, exponent) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.5)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            a = random_complex(rng, 5)
            b = random_complex(rng, 5)
            for p in (1.0, 2.0, 3.5, np.inf):
                assert schatten_norm(a + b, p) <= schatten_norm(a, p) + schatten_norm(b, p) + 1e-10

    def test_unitary_invariance(self, rng):
        m = random_complex(rng, 6)
        u = random_unitary(rng, 6)
        v = random_unitary(rng, 6)
        for p in (1.0, 2.0, 4.0, np.inf):
            assert schatten_norm(u @ m @ v, p) == pytest.approx(schatten_norm(m, p), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(min_value=1.0, max_value=20.0), q=st.floats(min_value=1.0, max_value=20.0),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_schatten_monotone_in_p(p, q, seed):
    if p < q:
        p, q = q, p
    m = random_complex(np.random.default_rng(seed), 4)
    # p >= q implies the p-norm is the smaller one
    assert schatten_norm(m, p) <= schatten_norm(m, q) + 1e-10


def _exact_gamma(k: int) -> Fraction:
    ku = Fraction(k) * Fraction(_U)
    return ku / (1 - ku)


def _cancelling_pair(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Square ``X`` and ``D`` with mixed signs and magnitudes over ``2^-20 .. 2^20``,
    whose products cancel in pairs up to rounding but for ``n`` of them, so
    ``tr(X^T D)`` is well below ``sum |X o D|`` and above the bound's allowance."""
    rng = np.random.default_rng(seed)
    x, d = (rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(1.0, 2.0, (n, n))
            * np.exp2(rng.integers(-20, 21, (n, n))) for _ in range(2))
    xf, df = x.ravel(), d.ravel()
    half = (n * n - n) // 2
    df[half : 2 * half] = -xf[:half] * df[:half] / xf[half : 2 * half]
    return x, d


class TestRoundingModel:
    @pytest.mark.parametrize("k", [1, 2, 3, 64, 130, 10**6, 2**40, 10**14])
    def test_gamma_bounds_the_exact_gamma(self, k):
        assert Fraction(_gamma(k)) >= _exact_gamma(k)

    def test_up_bounds_the_exact_value(self):
        # a computed x with relative error <= gamma_k (u for one rounded step, k = 0)
        # comes from an exact value of at most x / (1 - gamma_k), itself >= x (1 + gamma_k)
        rng = np.random.default_rng(3)
        xs = [1.0, math.nextafter(2.0, 0.0), 3.0, 2.0**-1000, 1e300,
              *(rng.uniform(1.0, 2.0, 50) * np.exp2(rng.integers(-60, 61, 50))).tolist()]
        for k in (0, 1, 2, 3, 7, 64, 65, 130, 4096, 10**6, 2**40):
            err = Fraction(_U) if k == 0 else _exact_gamma(k)
            for x in xs:
                assert Fraction(_up(x, k)) >= Fraction(x) / (1 - err)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_s1_lower_bound_at_the_block_edges(self, n):
        # one partial block, one whole block short of a block, exactly one, one and a
        # remainder, two and a remainder, against the trace computed exactly
        x, d = _cancelling_pair(n, n)
        products = [Fraction(a) * Fraction(b) for a, b in zip(x.ravel().tolist(), d.ravel().tolist())]
        exact = abs(sum(products))
        allowance = (Fraction(_gamma(_DOT_BLOCK + n // _DOT_BLOCK)) * sum(abs(p) for p in products)
                     + Fraction(_U) * exact)
        # X in up to three row blocks: the trace and |X o D| add up across them
        got = Fraction(_s1_lower_bound(d, np.array_split(x, min(n, 3)), 1.0))
        assert 0 < got <= exact
        # the allowance is spent twice at most: once by the trace's own error, once by
        # the slack subtracted to cover it, which its upward roundings raise by < 1e-9
        assert exact - got <= 2 * allowance * (1 + Fraction(1, 10**9))
