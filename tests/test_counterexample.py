import dataclasses
import math
from fractions import Fraction
import tracemalloc
import types

import mpmath
import numpy as np
import pytest

from xplab import counterexample, spectral
from xplab.counterexample import (
    TWO_PI,
    CoeffMatrix,
    build_instance,
    certified_sup_norm,
    closed_form_ratio,
    difference_matrix,
    _ETA_SERIES_CUTOFF,
    _lattice,
    _witness_norm_bound,
    eta,
    eta_field,
    eta_periodized,
    growth_ratio,
    measured_sup_norm,
    phi_from_coeffs,
    scale_instance,
    sup_norm_estimate,
    triangular_coeffs,
    triangular_witness,
)
from xplab.hermitian import ULP_TRIG, HermitianMatrix, _gamma, _s1_lower_bound, schatten_norm, singular_values
from xplab.opint import doi, func_calc_triple, grid_eval

from counterexample_reference import dense_difference, gram_norm_bound, phi_elementwise
from spectral_reference import operator


class TestEta:
    def test_value_at_zero(self):
        assert eta(0.0) == 1.0

    def test_lattice_zeros(self):
        ks = np.arange(1, 21)
        assert np.abs(eta(TWO_PI * ks)).max() < 1e-12
        assert np.abs(eta(-TWO_PI * ks)).max() < 1e-12

    def test_value_at_pi(self):
        assert eta(math.pi) == pytest.approx(4.0 / math.pi**2, abs=1e-15)

    def test_bounded_by_one(self):
        x = np.linspace(-500.0, 500.0, 100001)
        vals = eta(x)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0 + 1e-15)

    def test_series_matches_closed_form_at_cutoff(self):
        # both branches agree where they meet, up to the 1 - cos cancellation
        # noise of the closed form (~eps / x^2 relative)
        for x in (1.0000001e-3, 2e-3, 1e-2):
            direct = 2.0 * (1.0 - math.cos(x)) / x**2
            series = 1.0 - x**2 / 12.0 + x**4 / 360.0
            assert series == pytest.approx(direct, rel=2e-16 / x**2 + 1e-12)
            assert eta(x) == direct

    @pytest.mark.parametrize("x", [
        np.concatenate([np.linspace(-2e-3, 2e-3, 41), np.linspace(-50.0, 50.0, 101)]),
        np.array([[0.0, -0.0, 1e-3, -1e-3], [5e-4, TWO_PI, 1e-300, -7.5]]),
        np.linspace(-1e-4, 1e-4, 9),
        np.array(3.0),
        np.array(2e-4),
        0.0,
        -1.5,
    ])
    def test_bitwise_two_branch_formula(self, x):
        # the closed form where |x| >= cutoff, the series below it, each
        # evaluated on the whole array as np.where of both branches
        xa = np.asarray(x, dtype=np.float64)
        small = np.abs(xa) < _ETA_SERIES_CUTOFF
        safe = np.where(small, 1.0, xa)
        x2 = xa * xa
        want = np.where(small, 1.0 - x2 / 12.0 + x2 * x2 / 360.0,
                        2.0 * (1.0 - np.cos(safe)) / (safe * safe))[()]
        got = eta(x)
        assert type(got) is type(want)
        assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))

    def test_shifted_field_invariants(self):
        shift = 3.0 * TWO_PI
        f = eta_field(shift)
        assert f(shift) == 1.0
        for k in (-2, -1, 1, 2, 5):
            assert abs(f(shift + TWO_PI * k)) < 1e-12
        assert f(shift + 0.5) == eta(0.5)


class TestEtaPeriodized:
    def test_requires_lattice_period(self):
        with pytest.raises(ValueError):
            eta_periodized(0.0, 10.0)

    def test_interpolation_preserved(self):
        p = 16 * math.pi
        assert eta_periodized(0.0, p) == pytest.approx(1.0, abs=1e-14)
        for k in (1, 2, 3, -3):
            assert abs(eta_periodized(TWO_PI * k, p)) < 1e-14

    def test_periodicity(self):
        p = 32 * math.pi
        x = np.linspace(-40.0, 40.0, 101)
        assert np.abs(eta_periodized(x, p) - eta_periodized(x + p, p)).max() < 1e-12

    def test_against_zeta_oracle(self):
        # sum_m 2(1 - cos u)/(u + P m)^2 = 2(1 - cos u)/P^2 *
        #   (zeta(2, u/P) + zeta(2, 1 - u/P)) for 0 < u < P
        p = 16 * math.pi
        with mpmath.workdps(30):
            for u in (0.3, 2.0, math.pi, 11.0, 24.0):
                frac = u / p
                lattice = (mpmath.zeta(2, frac) + mpmath.zeta(2, 1 - frac)) / (p * p)
                want = 2.0 * (1.0 - math.cos(u)) * float(lattice)
                assert eta_periodized(u, p) == pytest.approx(want, rel=1e-12)

    def test_reduces_to_brute_force_sum(self):
        p = 16 * math.pi
        x = np.linspace(-p / 2, p / 2, 41)
        brute = sum(eta(x + p * m) for m in range(-4000, 4001))
        # brute tail is O(1/M); match accordingly
        assert np.abs(eta_periodized(x, p) - brute).max() < 1e-4

    @pytest.mark.parametrize("p", [TWO_PI, 16 * math.pi, 64 * TWO_PI])
    @pytest.mark.parametrize("x", [
        np.concatenate([np.linspace(-2e-3, 2e-3, 41), np.linspace(-500.0, 500.0, 1001)]),
        np.array([[0.0, -0.0, 1e-3, -1e-3], [5e-4, TWO_PI, 1e-300, -7.5]]),
        np.linspace(-1e-4, 1e-4, 9),
        np.array(3.0),
        np.array(2e-4),
        0.0,
        -1.5,
    ])
    def test_bitwise_two_branch_formula(self, x, p):
        # both branches on the whole array, merged by np.where
        xa = np.asarray(x, dtype=np.float64)
        u = np.remainder(xa + p / 2.0, p) - p / 2.0
        v = np.pi * u / p
        small = np.abs(u) < _ETA_SERIES_CUTOFF
        safe_u = np.where(small, 1.0, u)
        safe_v = np.where(small, 1.0, v)
        bracket = (np.pi / p) ** 2 / np.sin(safe_v) ** 2 - 1.0 / (safe_u * safe_u)
        v2 = v * v
        series = (np.pi / p) ** 2 * (1.0 / 3.0 + v2 / 15.0 + 2.0 * v2 * v2 / 189.0)
        bracket = np.where(small, series, bracket)
        want = (eta(u) + 2.0 * (1.0 - np.cos(u)) * bracket)[()]
        got = eta_periodized(x, p)
        assert type(got) is type(want)
        assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


class TestCoeffsAndInterpolant:
    def test_triangular_small(self):
        assert np.array_equal(triangular_coeffs(1).entries, [[1.0]])
        assert np.array_equal(triangular_coeffs(2).entries, [[1.0, 1.0], [0.0, 1.0]])
        rows = triangular_coeffs(3).entries.sum(axis=1)
        assert list(rows.real) == [3.0, 2.0, 1.0]

    @pytest.mark.parametrize("call, match", [
        (lambda: CoeffMatrix(np.ones(3)), "2-D and nonempty"),
        (lambda: CoeffMatrix(np.ones((2, 2, 2))), "2-D and nonempty"),
        (lambda: CoeffMatrix(np.zeros((0, 3))), "2-D and nonempty"),
        (lambda: triangular_coeffs(0), "n >= 1"),
        (lambda: triangular_witness(0), "n >= 1"),
    ], ids=["1-d", "3-d", "empty", "coeffs-0", "witness-0"])
    def test_rejects_bad_input(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_copies_a_callers_array_and_owns_its_builders(self, monkeypatch):
        raw = np.triu(np.ones((4, 4)))
        c = CoeffMatrix(raw)
        raw[0, 1] = 7.0
        assert c.entries[0, 1] == 1.0 and not c.entries.flags.writeable
        built = []
        triu = np.triu
        monkeypatch.setattr(np, "triu", lambda m: built.append(triu(m)) or built[-1])
        c = triangular_coeffs(5)
        assert c.entries is built[0] and not c.entries.flags.writeable
        assert c.sup_abs == 1.0 and c.peak == (0, 0)

    def test_sup_abs_stored(self):
        c = CoeffMatrix([[1.0, -3.0j], [0.0, 2.0]])
        assert c.sup_abs == 3.0
        # the first largest |c_jk| in row-major order, where certified_sup_norm checks f
        assert c.peak == (0, 1)
        assert CoeffMatrix([[1.0, 2.0], [-2.0, 0.5]]).peak == (0, 1)
        assert math.isnan(CoeffMatrix([[1.0, np.nan]]).sup_abs)

    def test_single_coefficient_interpolation(self):
        phi = phi_from_coeffs(CoeffMatrix([[1.0]]))
        assert complex(phi(0.0, 0.0)) == pytest.approx(1.0)
        assert abs(complex(phi(TWO_PI, 0.0))) < 1e-14

    def test_zero_coeffs_zero_field(self):
        phi = phi_from_coeffs(CoeffMatrix(np.zeros((2, 2))))
        x = np.linspace(-5, 20, 7)
        assert np.abs(np.asarray(phi(x[:, None], x[None, :]))).max() == 0.0

    def test_triangular_pattern_interpolation(self):
        phi = phi_from_coeffs(triangular_coeffs(3))
        assert complex(phi(TWO_PI * 1, TWO_PI * 2)) == pytest.approx(1.0, abs=1e-12)
        assert abs(complex(phi(TWO_PI * 2, TWO_PI * 1))) < 1e-12

    def test_interpolation_exact_on_all_indices(self):
        n = 5
        c = triangular_coeffs(n)
        phi = phi_from_coeffs(c)
        lattice = TWO_PI * np.arange(n)
        got = np.asarray(phi(lattice[:, None], lattice[None, :]))
        assert np.abs(got - c.entries).max() < 1e-12

    def test_outer_and_elementwise_paths_agree(self, rng):
        phi = phi_from_coeffs(triangular_coeffs(4))
        x = rng.uniform(-5, 30, size=6)
        z = rng.uniform(-5, 30, size=5)
        element = np.array([[complex(phi(a, b)) for b in z] for a in x])
        outer = np.asarray(phi(x[:, None], z[None, :]))
        assert np.abs(outer - element).max() < 1e-13
        # the sparse mesh of a three-variable grid, as the TOI passes it
        mesh = np.asarray(phi(x[:, None, None], z[None, None, :]))
        assert mesh.shape == (6, 1, 5)
        assert np.abs(mesh[:, 0, :] - element).max() < 1e-13
        # x's axis after y's is not an outer product; the reference broadcasts it
        reversed_axes = phi_elementwise(triangular_coeffs(4), x[None, :], z[:, None])
        assert reversed_axes.shape == (5, 6)
        assert np.abs(reversed_axes - element.T).max() < 1e-13


    @pytest.mark.parametrize("n", [4, 64])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_sparse_mesh_matches_elementwise(self, rng, n, dtype):
        raw = rng.standard_normal((n, n))
        if dtype == np.complex128:
            raw = raw + 1j * rng.standard_normal((n, n))
        phi = phi_from_coeffs(CoeffMatrix(raw))
        x = rng.uniform(-5.0, TWO_PI * n + 5.0, size=7)
        z = rng.uniform(-5.0, TWO_PI * n + 5.0, size=6)
        element = phi_elementwise(CoeffMatrix(raw), *np.meshgrid(x, z, indexing="ij"))
        mesh = phi(x[:, None, None], z[None, None, :])
        assert mesh.shape == (7, 1, 6)
        assert np.abs(mesh[:, 0, :] - element).max() < 1e-13
        assert mesh.dtype == element.dtype == dtype

    @pytest.mark.parametrize("xshape, yshape", [((7, 6), (7, 6)), ((1, 6), (5, 1)), ((6,), (5, 1))],
                             ids=["full", "reversed", "reversed-1d"])
    def test_rejects_arrays_that_are_no_sparse_mesh(self, xshape, yshape):
        phi = phi_from_coeffs(triangular_coeffs(3))
        with pytest.raises(ValueError, match="sparse mesh"):
            phi(np.zeros(xshape), np.zeros(yshape))


class TestLatticeGather:
    @pytest.mark.parametrize("n", [*range(2, 65), 512])
    def test_difference_matches_the_bump_path(self, monkeypatch, n):
        gathered = difference_matrix(build_instance(n))
        monkeypatch.setattr(counterexample, "_on_lattice", lambda axis, lattice: False)
        bumped = difference_matrix(build_instance(n))
        assert gathered.dtype == bumped.dtype and gathered.tobytes() == bumped.tobytes()

    def test_gathers_a_read_only_view(self, monkeypatch):
        c = triangular_coeffs(5)
        monkeypatch.setattr(counterexample, "eta", None)  # the gather runs no eta
        lat = _lattice(5)
        got = phi_from_coeffs(c)(lat[:, None, None], lat[None, None, :])
        assert got.shape == (5, 1, 5)
        assert np.shares_memory(got, c.entries) and not got.flags.writeable

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("change", ["ulp", "negative-zero"])
    def test_off_the_lattice_takes_the_bump_path(self, monkeypatch, axis, change):
        c = triangular_coeffs(6)
        calls = []
        monkeypatch.setattr(counterexample, "eta", lambda x: calls.append(1) or eta(x))
        lat, off = _lattice(6), _lattice(6)
        if change == "ulp":
            off[3] = np.nextafter(off[3], math.inf)
        else:
            off[0] = -0.0
        x, y = (off, lat) if axis == "x" else (lat, off)
        got = phi_from_coeffs(c)(x[:, None], y[None, :])
        assert len(calls) == 2 and not np.shares_memory(got, c.entries)
        assert np.abs(got - c.entries).max() <= 1e-15


class TestSupNorm:
    def test_zero_field(self):
        phi = phi_from_coeffs(CoeffMatrix(np.zeros((2, 2))))
        assert sup_norm_estimate(phi, 5.0, 0.5) == 0.0

    def test_single_bump_peaks_at_one(self):
        phi = phi_from_coeffs(CoeffMatrix([[1.0]]))
        est = sup_norm_estimate(phi, 4.0 * math.pi, math.pi / 8)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_triangular_family_order_one(self):
        phi = phi_from_coeffs(triangular_coeffs(16))
        est = sup_norm_estimate(phi, TWO_PI * 16 + math.pi, math.pi / 8)
        assert 0.99 <= est <= 1.0 + 1e-9

    def test_generic_callable_path(self):
        est = sup_norm_estimate(lambda x, y: np.cos(x) * np.cos(y), 3.2, 0.01)
        assert est == pytest.approx(1.0, abs=1e-4)

    def test_refinement_stable(self):
        inst = build_instance(8)
        base = measured_sup_norm(inst, math.pi / 8)
        fine = measured_sup_norm(inst, math.pi / 16)
        assert abs(fine - base) / fine < 0.01
        assert base == pytest.approx(1.0, abs=1e-9)


class TestCertifiedSupNorm:
    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.125])
    @pytest.mark.parametrize("step", [math.pi / 8, math.pi / 16])
    @pytest.mark.parametrize("n", [2, 3, 8, 16, 32])
    def test_equals_grid_scan(self, n, step, eps):
        inst = scale_instance(build_instance(n), eps)
        assert certified_sup_norm(inst) == eps
        assert certified_sup_norm(inst) == pytest.approx(measured_sup_norm(inst, step), rel=1e-12)

    @pytest.mark.parametrize("factor", [2.0, 0.5])
    def test_wrong_bound_is_a_bug(self, monkeypatch, factor):
        # phi misses the coefficients it interpolates, so |f| misses sup_bound
        monkeypatch.setattr(counterexample, "phi_from_coeffs",
                            lambda c: lambda x, y: factor * phi_from_coeffs(c)(x, y))
        with pytest.raises(AssertionError):
            certified_sup_norm(build_instance(4))

    def test_follows_replaced_coefficients(self):
        # sup |f| and the difference derive from the coefficients, so a replace cannot
        # leave them behind: doubling every c_jk doubles both, exactly
        inst = build_instance(6)
        before = difference_matrix(inst)  # reads inst.phi before the replace
        doubled = dataclasses.replace(inst, coeffs=CoeffMatrix(2 * np.triu(np.ones((6, 6)))))
        assert certified_sup_norm(doubled) == 2.0
        assert np.array_equal(difference_matrix(doubled), 2 * before)

    def test_instance_stores_only_its_inputs(self):
        inst = build_instance(4)
        assert [f.name for f in dataclasses.fields(inst)] == ["coeffs", "A", "B1", "B2", "C", "epsilon"]
        for name in ("n", "phi", "psi", "sup_bound", "epsilon"):
            with pytest.raises(AttributeError):
                setattr(inst, name, 1.0)


class TestInstance:
    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            build_instance(1)

    def test_operator_shapes_and_norms(self):
        inst = build_instance(6)
        assert np.array_equal(inst.A.values, TWO_PI * np.arange(6)) and inst.A.basis is None
        assert inst.C is inst.A
        assert np.array_equal(inst.B2.values, [0.0]) and inst.B2.basis is None
        delta = operator(inst.B1) - operator(inst.B2)
        s = singular_values(delta)
        assert abs(s[0] - TWO_PI) < 1e-10
        assert np.all(s[1:] < 1e-10)  # rank one
        assert abs(schatten_norm(delta, 1) - TWO_PI) < 1e-10

    def test_psi_vanishes_on_b2(self):
        inst = build_instance(4)
        assert abs(float(inst.psi(0.0))) < 1e-12  # psi(0) = eta(-2pi) = 0

    def test_difference_closed_form(self):
        for n in (2, 3, 5, 8):
            inst = build_instance(n)
            diff = difference_matrix(inst)
            want = np.triu(np.ones((n, n))) / n
            assert np.abs(diff - want).max() < 1e-10

    def test_difference_norm_n2(self):
        inst = build_instance(2)
        assert schatten_norm(difference_matrix(inst), 1) == pytest.approx(
            math.sqrt(5.0) / 2.0, abs=1e-10)

    def test_rank_one_reduction_lemma(self):
        # doi(phi, E_A, P, E_C) in the standard basis is the Schur product
        # {c_jk P_jk}; with the uniform witness every P_jk = 1/n
        for n in (2, 3, 5, 8):
            inst = build_instance(n)
            ea = inst.A
            p = operator(inst.B1) / TWO_PI
            got = doi(grid_eval(inst.phi, ea.values, ea.values), ea, p, ea)
            want = triangular_coeffs(n).entries * p
            assert np.abs(got - want).max() < 1e-12


class TestDifferenceMatrix:
    @pytest.mark.parametrize("n", [*range(2, 65), 512])
    def test_measures_give_the_dense_operators_bits(self, n):
        assert difference_matrix(build_instance(n)).tobytes() == dense_difference(n).tobytes()

    def test_no_measure_reaches_from_hermitian(self, monkeypatch):
        # from_hermitian is the name a trace wraps and reads as a matrix; the instance's
        # measures pass through _measure without it
        seen = []
        monkeypatch.setattr(spectral, "from_hermitian", lambda h: seen.append(h))
        inst = build_instance(8)
        difference_matrix(inst)
        func_calc_triple(lambda x, y, z: x + y + z, inst.A, inst.B1, inst.C)
        growth_ratio(inst)
        assert seen == []

    def test_factor_evaluations(self, monkeypatch):
        inst = build_instance(8)
        phi_calls, psi_calls = [], []

        def counted_phi(c):
            def phi(x, z):
                phi_calls.append((np.shape(x), np.shape(z)))
                return phi_from_coeffs(c)(x, z)
            return phi

        def counted_psi(shift):
            def psi(y):
                psi_calls.append(np.array(y))
                return eta_field(shift)(y)
            return psi

        monkeypatch.setattr(counterexample, "phi_from_coeffs", counted_phi)
        monkeypatch.setattr(counterexample, "eta_field", counted_psi)
        difference_matrix(inst)
        assert phi_calls == [((8, 1), (1, 8))]
        # B1 has the atoms 0 and 2 pi, B2 = 0 the atom 0
        assert [list(y) for y in psi_calls] == [[0.0, TWO_PI], [0.0]]

    @pytest.mark.parametrize("n, eps", [(2, 1.0), (3, 1.0), (8, 1.0), (64, 1.0), (512, 1.0),
                                        (8, 0.25), (5, 0.3), (33, 1.0 / 33.0)])
    def test_equals_two_functional_calculi(self, n, eps):
        inst = build_instance(n)
        if eps != 1.0:
            inst = scale_instance(inst, eps)

        def f(x, y, z):
            x, y, z = (np.asarray(v, dtype=np.float64) / eps for v in (x, y, z))
            return eps * inst.phi(x, z) * inst.psi(y)

        want = (func_calc_triple(f, inst.A, inst.B1, inst.C)
                - func_calc_triple(f, inst.A, inst.B2, inst.C))
        assert np.array_equal(difference_matrix(inst), want)


class TestRatios:
    def test_growth_ratio_n2_composition(self):
        inst = build_instance(2)
        s2 = measured_sup_norm(inst)
        s1_diff, pert, ratio = growth_ratio(inst)
        assert s1_diff == pytest.approx(math.sqrt(5.0) / 2.0, rel=1e-12)
        assert pert == pytest.approx(TWO_PI, rel=1e-12)
        assert ratio == pytest.approx((math.sqrt(5.0) / 2.0) / (TWO_PI * s2), rel=1e-9)

    def test_two_paths_agree(self):
        for n in range(2, 65):
            inst = build_instance(n)
            assert growth_ratio(inst)[2] == pytest.approx(closed_form_ratio(inst), rel=1e-12)

    def test_strictly_increasing_small_sizes(self):
        ratios = [growth_ratio(build_instance(n))[2] for n in (4, 8, 16, 32)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


    def test_matrix_path_at_512(self):
        inst = build_instance(512)
        assert growth_ratio(inst)[2] == pytest.approx(closed_form_ratio(inst), rel=1e-12)

    def test_growth_ratio_peak_memory(self):
        # numpy buffers only (BLAS and LAPACK workspaces are not traced), so
        # the peak is deterministic; the operators are O(n) measures, and the
        # arrays that live through the integral are the coefficients,
        # psi(B1) - psi(B2) and D (3.31 n^2 at n = 256)
        n = 256
        tracemalloc.start()
        try:
            growth_ratio(build_instance(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * n * 8

    def test_no_identity_built(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("np.eye was called")

        want = difference_matrix(build_instance(16))
        monkeypatch.setattr(np, "eye", fail)
        monkeypatch.setattr(np, "identity", fail)
        assert np.array_equal(difference_matrix(build_instance(16)), want)

    def test_no_decomposition_on_the_growth_path(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a LAPACK decomposition was called")

        for name in ("svd", "eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, fail)
        inst = build_instance(64)
        s1_diff, pert, ratio = growth_ratio(inst)
        assert ratio == pytest.approx(closed_form_ratio(inst), rel=1e-12)

    def test_difference_stays_real(self):
        # real data runs real eigh, GEMMs and SVD; a complex upcast would show here
        for n in (2, 5, 64):
            assert difference_matrix(build_instance(n)).dtype == np.float64


def _lapack_ratio(inst):
    """The SVD / eigvalsh ratio that growth_ratio certified bounds replace."""
    s1 = schatten_norm(difference_matrix(inst), 1)
    b1, b2 = (b.mat if isinstance(b, HermitianMatrix) else operator(b) for b in (inst.B1, inst.B2))
    pert = float(np.abs(np.linalg.eigvalsh(b1 - b2)).sum())
    return s1, pert, s1 / (certified_sup_norm(inst) * pert)


def _exact_pert(inst) -> Fraction:
    """``||B1 - B2||_S1`` of the unscaled instance's operators, exactly: ``B2 = 0`` and
    ``B1 = r v v^T``, ``v`` the last column of its reflector."""
    assert inst.B2.values.tolist() == [0.0] and inst.B1.values.tolist() == [0.0, TWO_PI]
    return Fraction(TWO_PI) * sum(Fraction(x) ** 2 for x in inst.B1.basis[:, -1].tolist())


class TestCertifiedRatio:
    @pytest.mark.parametrize("n", range(1, 33))
    def test_witness_is_the_svd_polar_factor(self, n):
        u, _, vt = np.linalg.svd(np.triu(np.ones((n, n))))
        assert np.abs(triangular_witness(n) - u @ vt).max() <= 1e-13

    @pytest.mark.parametrize("n", [*range(2, 65), 512])
    def test_between_closed_form_and_lapack(self, n):
        inst = build_instance(n)
        s1_diff, pert, ratio = growth_ratio(inst)
        svd_s1, eig_pert, lapack = _lapack_ratio(inst)
        assert s1_diff <= svd_s1 * (1.0 + 1e-14)
        # pert against the exact trace norm: eigvalsh's sum over a dense rank-one matrix
        # errs by about n u, 1.5e-14 at n = 512, more than pert's own rounding
        exact = _exact_pert(inst)
        assert exact <= Fraction(pert) <= exact * (1 + Fraction(16, 2**53))
        assert ratio <= lapack * (1.0 + 1e-14)
        assert ratio >= closed_form_ratio(inst) * (1.0 - 1e-12)
        # sin x <= x in the closed form: 1 / (2 sin x_k) >= (2n+1) / ((2k+1) pi), and the
        # odd harmonic sum grows like ln(n) / 2, so the ratio does too, in the direction needed
        odd_harmonic = math.fsum(1.0 / (2 * k + 1) for k in range(n))
        assert ratio >= (2 * n + 1) / (2 * math.pi**2 * n) * odd_harmonic

    def test_allowance_is_about_sqrt_n_u(self):
        # the witness-norm bound's excess over 1 (about 30 sqrt(n) u), the trace's gamma_k
        # with k = 64 + n // 64, pert's roundings (about 13 u), and a few more on either side
        u = 2.0**-53
        for n in (2, 8, 64, 512):
            excess = _witness_norm_bound(n) - 1.0
            assert excess <= 32.0 * math.sqrt(n) * u
            inst = build_instance(n)
            gap = 1.0 - growth_ratio(inst)[2] / closed_form_ratio(inst)
            assert 0.0 < gap <= excess + _gamma(64 + n // 64 + 1) + (math.sqrt(n) + 20.0) * u

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e-2, 1.0])
    def test_perturbed_witness_stays_below(self, scale):
        n = 48
        d = difference_matrix(build_instance(n))
        svd_s1 = schatten_norm(d, 1)
        x = triangular_witness(n) + scale * np.random.default_rng(7).standard_normal((n, n))
        got = _s1_lower_bound(d.copy(), x, gram_norm_bound(x))
        assert 0.0 <= got <= svd_s1

    def test_wrong_witness_gives_a_loose_bound(self):
        d = difference_matrix(build_instance(16))
        x = -np.eye(16)
        assert _s1_lower_bound(d.copy(), x, gram_norm_bound(x)) == pytest.approx(abs(np.trace(d)), rel=1e-12)
        x = np.zeros((16, 16))
        assert _s1_lower_bound(d.copy(), x, gram_norm_bound(x)) == 0.0

    @pytest.mark.parametrize("n", [1, 63, 64, 100, 200])
    def test_trace_within_its_allowance(self, n):
        # whole blocks of 64 products, a remainder, or both; nonnegative, so no cancellation
        rng = np.random.default_rng(n)
        x, d = rng.uniform(0.5, 2.0, (2, n, n))
        with mpmath.workdps(60):
            exact = mpmath.fsum(mpmath.mpf(a) * mpmath.mpf(b) for a, b in zip(x.ravel().tolist(), d.ravel().tolist()))
        slack = (_gamma(64 + n // 64) + 3.0 * 2.0**-53) * float(exact)
        got = _s1_lower_bound(d.copy(), x.copy(), 1.0)
        # below the exact trace, by at most the rounding error plus the slack that covers it
        assert 0.0 <= float(exact) - got <= 2.0 * slack

    @pytest.mark.parametrize("coeffs", [np.eye(6), 2.0 * np.triu(np.ones((6, 6))), np.ones((6, 6))],
                             ids=["identity", "doubled", "full"])
    def test_closed_form_needs_the_triangular_coefficients(self, coeffs):
        inst = dataclasses.replace(build_instance(6), coeffs=CoeffMatrix(coeffs))
        with pytest.raises(ValueError, match="triangular coefficients"):
            closed_form_ratio(inst)

    @pytest.mark.parametrize("n", [2, 5, 32])
    def test_perturbation_bound_with_a_residual(self, n):
        # B2 is not a multiple of the all-ones matrix, so B1 - B2 - c J and
        # the rounding of B1 - B2 are both nonzero
        rng = np.random.default_rng(n)
        noise = rng.standard_normal((n, n))
        inst = dataclasses.replace(build_instance(n), B2=HermitianMatrix(0.1 * (noise + noise.T)))
        s1_diff, pert, ratio = growth_ratio(inst)
        svd_s1, eig_pert, lapack = _lapack_ratio(inst)
        assert pert >= eig_pert
        assert pert <= eig_pert * n
        assert s1_diff <= svd_s1
        assert ratio <= lapack

    def test_b1_carries_its_measure(self):
        for n in (2, 3, 64, 512):
            inst = build_instance(n)
            b1 = operator(inst.B1)
            assert np.abs(b1 - TWO_PI * np.full((n, n), 1 / n)).max() <= 1e-15
            fresh = dataclasses.replace(inst, B1=HermitianMatrix(b1))
            assert np.abs(difference_matrix(inst) - difference_matrix(fresh)).max() <= 1e-13


class TestWitnessNormBound:
    @pytest.mark.parametrize("n", [*range(1, 65), 512])
    def test_bounds_the_computed_witness(self, n):
        bound = _witness_norm_bound(n)
        assert np.linalg.norm(triangular_witness(n), 2) <= bound <= 1.0 + 1e-12


class _SineArguments(Exception):
    pass


def _sine_arguments(monkeypatch, call) -> np.ndarray:
    """The array ``call()`` passes to its first ``np.sin``; the call stops there."""
    def record(x):
        raise _SineArguments(np.asarray(x, dtype=np.float64))

    monkeypatch.setattr(np, "sin", record)
    with pytest.raises(_SineArguments) as exc:
        call()
    monkeypatch.undo()
    return exc.value.args[0]


class TestSineAccuracy:
    @pytest.mark.parametrize("n", [8, 64, 512, 4096])
    def test_certificate_sines_within_ulp_trig(self, monkeypatch, n):
        # the witness's reduced r pi / (2N) and the closed form's (2k+1) pi / (2(2n+1)), as
        # the code forms them and as one np.sin call each; closed_form_ratio stops at np.sin,
        # before it reads more of its instance
        size_only = types.SimpleNamespace(n=n)
        calls = [_sine_arguments(monkeypatch, lambda: triangular_witness(n)),
                 _sine_arguments(monkeypatch, lambda: closed_form_ratio(size_only))]
        args = np.concatenate([a.ravel() for a in calls])
        sines = np.concatenate([np.sin(a).ravel() for a in calls])
        worst = 0.0
        with mpmath.workdps(40):
            for x, got in zip(args.tolist(), sines.tolist()):
                exact = mpmath.sin(mpmath.mpf(x))
                if exact == 0:
                    assert got == 0.0
                    continue
                # an ulp of the exact value: 2^(e - 53) for |exact| in [2^(e-1), 2^e)
                ulp = mpmath.ldexp(1, mpmath.frexp(exact)[1] - 53)
                worst = max(worst, float(abs(got - exact) / ulp))
        assert worst <= ULP_TRIG


class TestScaleInstance:
    def test_identity_scale(self):
        inst = build_instance(4)
        same = scale_instance(inst, 1.0)
        assert schatten_norm(difference_matrix(same), 1) == pytest.approx(
            schatten_norm(difference_matrix(inst), 1), abs=1e-12)

    def test_homogeneity_half(self):
        inst = build_instance(8)
        base = schatten_norm(difference_matrix(inst), 1)
        scaled = scale_instance(inst, 0.5)
        got = schatten_norm(difference_matrix(scaled), 1)
        assert abs(got - 0.5 * base) < 1e-10
        assert abs(schatten_norm(operator(scaled.B1) - operator(scaled.B2), 1) - TWO_PI * 0.5) < 1e-10

    def test_eighth_scale_and_composition(self):
        inst = build_instance(4)
        base = schatten_norm(difference_matrix(inst), 1)
        eighth = scale_instance(scale_instance(inst, 0.5), 0.25)
        assert eighth.epsilon == pytest.approx(0.125)
        got = schatten_norm(difference_matrix(eighth), 1)
        assert abs(got - base / 8.0) < 1e-10

    def test_sup_norm_scales(self):
        inst = build_instance(4)
        scaled = scale_instance(inst, 0.5)
        assert measured_sup_norm(scaled) == pytest.approx(0.5 * measured_sup_norm(inst), rel=1e-12)

    def test_keeps_the_a_c_alias(self):
        scaled = scale_instance(build_instance(4), 0.5)
        assert scaled.C is scaled.A
        assert np.array_equal(scaled.A.values, 0.5 * (TWO_PI * np.arange(4)))

    def test_rejects_bad_scale(self):
        inst = build_instance(2)
        with pytest.raises(ValueError):
            scale_instance(inst, 0.0)

    def test_schedule_arithmetic(self):
        # with eps = 1/n the perturbation shrinks while the scaled difference
        # norm tracks eps * ||U_n||_1 / n
        for n in (4, 8, 16):
            inst = build_instance(n)
            scaled = scale_instance(inst, 1.0 / n)
            pert = schatten_norm(operator(scaled.B1) - operator(scaled.B2), 1)
            assert pert == pytest.approx(TWO_PI / n, abs=1e-12)
            diff = schatten_norm(difference_matrix(scaled), 1)
            want = schatten_norm(np.triu(np.ones((n, n))), 1) / n**2
            assert diff == pytest.approx(want, rel=1e-9)


class TestTriangularTraceNorm:
    def test_exact_singular_values(self):
        # singular values of the ones-triangle have the closed form
        # 1 / (2 sin((2k+1) pi / (2(2n+1))))
        for n in (3, 5, 8, 13):
            s = singular_values(np.triu(np.ones((n, n))))
            k = np.arange(n)
            want = 1.0 / (2.0 * np.sin((2 * k + 1) * np.pi / (2.0 * (2 * n + 1))))
            assert np.allclose(np.sort(s), np.sort(want), rtol=1e-12)
