import math
import tracemalloc

import numpy as np
import pytest

import besov_reference
from besov_reference import NyquistError, lp_piece
from xplab import besov
from xplab.besov import (
    SampledField,
    SeparableField3,
    besov_breakdown,
    bandlimit_check,
    window,
)
from xplab.counterexample import (
    TWO_PI,
    build_instance,
    eta_periodized,
    scale_instance,
    triangular_coeffs,
)
from xplab.experiment import cmd_besov
from xplab.sampling import sample_eta_1d, sample_instance, sample_phi_2d


def _sampled(fn, start, step, count) -> SampledField:
    x = start + step * np.arange(count)
    return SampledField((start,), (step,), fn(x))


def _eta_sampled(extent, points) -> SampledField:
    # periodized eta on [-extent, extent), a smaller grid than sample_eta_1d's
    span = 2.0 * extent
    return _sampled(lambda x: eta_periodized(x, span), -extent, span / points, points)


class TestWindow:
    def test_endpoint_values(self):
        assert window(0.5) == 0.0
        assert window(1.0) == pytest.approx(1.0, abs=1e-15)
        assert window(2.0) == pytest.approx(0.0, abs=1e-15)
        assert window(3.0) == 0.0
        assert window(0.1) == 0.0

    def test_two_scale_identity(self):
        s = np.linspace(1.0, 2.0, 1000)
        assert np.abs(window(s) + window(s / 2.0) - 1.0).max() < 1e-10

    def test_spot_pair(self):
        assert window(1.3) + window(0.65) == pytest.approx(1.0, abs=1e-12)

    def test_partition_of_unity(self):
        s = np.logspace(-3, 3, 2000)
        total = sum(window(s / 2.0**n) for n in range(-20, 21))
        assert np.abs(total - 1.0).max() < 1e-9

    def test_nonnegative_and_bounded(self):
        s = np.linspace(0.0, 3.0, 4000)
        vals = window(s)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0 + 1e-15)

    def test_profile_monotone(self):
        # the rising half of the window is the glue profile itself
        t = np.linspace(0.5, 1.0, 200)
        assert np.all(np.diff(window(t)) >= -1e-15)


class TestSampledField:
    def test_axis_and_frequencies(self):
        f = SampledField((-1.0,), (0.5,), np.zeros(8))
        assert np.allclose(f.starts[0] + f.steps[0] * np.arange(f.shape[0]),
                           -1.0 + 0.5 * np.arange(8))
        assert f.nyquist() == pytest.approx(2.0 * math.pi)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            SampledField((0.0,), (1.0, 1.0), np.zeros((4, 4)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        samples = np.zeros((4, 4))
        samples[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            SampledField((0.0, 0.0), (1.0, 1.0), samples)

    def test_separable_factor_rejects_non_finite_samples(self):
        line = np.ones(8)
        line[3] = math.nan
        with pytest.raises(ValueError, match="finite"):
            SeparableField3(SampledField((0.0, 0.0), (1.0, 1.0), np.ones((4, 4))),
                            SampledField((0.0,), (1.0,), line))

    def test_pow2_required_for_transforms(self):
        f = SampledField((0.0,), (0.1,), np.zeros(12))
        with pytest.raises(ValueError, match="power-of-two"):
            lp_piece(f, 0)


class TestLpPiece:
    def test_constant_field_has_no_pieces(self):
        f = _sampled(lambda x: 0.0 * x + 3.7, -16 * math.pi, math.pi / 8, 256)
        for n in range(-6, 3):
            assert np.abs(lp_piece(f, n).samples).max() < 1e-12

    def test_pure_sine_survives_only_at_unit_scale(self):
        f = _sampled(np.sin, -32 * math.pi, math.pi / 16, 1024)
        assert np.abs(lp_piece(f, 0).samples - f.samples).max() < 1e-10
        for n in (-2, -1, 1, 2, 3):
            assert np.abs(lp_piece(f, n).samples).max() < 1e-12

    def test_band_limited_reconstruction(self):
        f = _eta_sampled(64 * math.pi, 2**13)
        total = np.zeros_like(f.samples, dtype=complex)
        for n in range(-20, 6):
            total += lp_piece(f, n).samples
        mean = f.samples.mean()
        assert np.abs(total - (f.samples - mean)).max() < 1e-6

    def test_piece_spectrum_confined_to_annulus(self):
        f = _eta_sampled(32 * math.pi, 2**12)
        n = -1
        piece = lp_piece(f, n)
        spec = np.abs(np.fft.fft(piece.samples))
        xi = np.abs(piece.freq_axis(0))
        outside = (xi < 2.0 ** (n - 1)) | (xi > 2.0 ** (n + 1))
        assert spec[outside].max() < 1e-12 * spec.max()

    def test_nyquist_guard_names_band(self):
        f = _sampled(np.sin, -8 * math.pi, math.pi / 2, 32)
        with pytest.raises(NyquistError, match=r"\[2, 8\]"):
            lp_piece(f, 2)


class TestBesovEstimate:
    def test_zero_field(self):
        f = SampledField((0.0,), (0.5,), np.zeros(64))
        assert besov_breakdown(f).total == 0.0

    def test_eta_upper_pieces_negligible(self):
        f = sample_eta_1d(0.0)
        breakdown = besov_breakdown(f)
        assert 0.2 < breakdown.total < 1.0
        for n in range(2, 6):
            assert breakdown.piece_sup[n] < 1e-8

    def test_tail_bound_reported(self):
        f = _eta_sampled(32 * math.pi, 2**12)
        breakdown = besov_breakdown(f)
        assert min(breakdown.piece_sup) == -20
        assert breakdown.tail_bound == 2.0**-20 * breakdown.sup_abs
        assert breakdown.total >= sum(
            2.0**n * s for n, s in breakdown.piece_sup.items())

    def test_scaling_covariance(self):
        base = _eta_sampled(64 * math.pi, 2**13)
        ref = besov_breakdown(base).total
        for eps in (0.5, 0.25):
            scaled = SampledField(
                (eps * base.starts[0],), (eps * base.steps[0],), eps * base.samples)
            got = besov_breakdown(scaled).total
            assert abs(got - ref) / ref < 0.02

    def test_piece_range_stops_below_nyquist(self):
        # Nyquist 16: piece 3 has the band [4, 16], piece 4 would need 32
        f = _eta_sampled(8 * math.pi, 256)
        assert f.nyquist() == 16.0
        assert list(besov_breakdown(f).piece_sup) == list(range(-20, 4))
        with pytest.raises(NyquistError):
            lp_piece(f, 4)

    def test_piece_range_capped_at_five(self):
        f = _eta_sampled(8 * math.pi, 2**12)
        assert f.nyquist() == 256.0
        assert list(besov_breakdown(f).piece_sup) == list(range(-20, 6))

    @pytest.mark.parametrize("name, estimate", [
        ("eta", 0.32523373202780687),
        ("psi", 0.3252337320274435),
        ("phi_tri:8", 0.5746335218434089),
    ])
    def test_dense_estimates_pinned(self, name, estimate):
        # the 1-D and 2-D dense path through the fixed window and piece range
        assert cmd_besov(name).breakdown.total == estimate


class TestBandlimit:
    def test_slow_sine_inside(self):
        f = _sampled(lambda x: np.sin(x / 2.0), -32 * math.pi, math.pi / 16, 1024)
        assert bandlimit_check(f, 1.0) < 1e-20

    def test_eta_inside_unit_band(self):
        f = sample_eta_1d(0.0)
        assert bandlimit_check(f, 1.0) < 1e-6

    def test_fast_sine_outside(self):
        f = _sampled(lambda x: np.sin(4.0 * x), -32 * math.pi, math.pi / 16, 1024)
        assert bandlimit_check(f, 1.0) > 0.999

    def test_rejects_bad_sigma(self):
        f = _eta_sampled(8 * math.pi, 256)
        for sigma in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                bandlimit_check(f, sigma)


@pytest.fixture(scope="module")
def small_instance_field():
    # the size-3 instance on a smaller grid than sample_instance's (a 4 pi
    # plane margin and a 32-point line), so the dense reference stays small
    c = build_instance(3).coeffs
    step = math.pi / 4
    x = -6 * math.pi + step * np.arange(64)
    bx = eta_periodized(x - TWO_PI * np.arange(c.rows)[:, None], 16 * math.pi)
    y = -2 * math.pi + step * np.arange(32)
    return SeparableField3(
        plane=SampledField((-6 * math.pi, -6 * math.pi), (step, step), bx.T @ c.entries @ bx),
        line=SampledField((-2 * math.pi,), (step,), eta_periodized(y - TWO_PI, 8 * math.pi)),
    )


def _random_separable() -> SeparableField3:
    # white noise makes every middle-frequency bin active, the lone DC and
    # Nyquist bins included
    rng = np.random.default_rng(8)
    plane = rng.standard_normal((16, 16))
    line = rng.standard_normal(8)
    step = math.pi / 4
    return SeparableField3(
        plane=SampledField((0.0, 0.0), (step, step), plane),
        line=SampledField((0.0,), (step,), line),
    )


def _random_separable_oblong() -> SeparableField3:
    # a 16 x 64 plane with unequal steps over a 32-point line: the plane's
    # half spectrum is not square and the line is longer than one plane side
    rng = np.random.default_rng(9)
    return SeparableField3(
        plane=SampledField((0.0, 0.0), (math.pi / 2, math.pi / 8), rng.standard_normal((16, 64))),
        line=SampledField((0.0,), (math.pi / 4,), rng.standard_normal(32)),
    )


def _single_shell_separable() -> SeparableField3:
    # the line cos(y) on 32 points of step pi / 4 has its spectrum in bins
    # 1 and 31 only, so every nonzero piece has one active |xi_2| shell
    step = math.pi / 4
    rng = np.random.default_rng(10)
    return SeparableField3(
        plane=SampledField((0.0, 0.0), (step, step), rng.standard_normal((32, 32))),
        line=SampledField((0.0,), (step,), np.cos(step * np.arange(32))),
    )


def _x_constant_separable() -> SeparableField3:
    # a plane constant in x gives bitwise-equal rows in every shell, so every
    # row's bound ties with the best row's and every row runs the product
    rng = np.random.default_rng(11)
    step = math.pi / 4
    return SeparableField3(
        plane=SampledField((0.0, 0.0), (step, step), np.tile(rng.standard_normal(32), (16, 1))),
        line=SampledField((0.0,), (step,), rng.standard_normal(16)),
    )


def _alternating_separable() -> SeparableField3:
    # a spike at y = ny / 2 has the line spectrum (-1)^k, so the g columns
    # alternate in sign and cancel: the triangle bound on each row is loose
    rng = np.random.default_rng(12)
    step = math.pi / 4
    return SeparableField3(
        plane=SampledField((0.0, 0.0), (step, step), rng.standard_normal((32, 32))),
        line=SampledField((0.0,), (step,), np.eye(16)[8]),
    )


def _named_separable(name: str, instance: SeparableField3) -> SeparableField3:
    if name == "instance":
        return instance
    return {
        "f3:8": lambda: sample_instance(build_instance(8)),
        "f3:16": lambda: sample_instance(build_instance(16)),
        "x-constant": _x_constant_separable,
        "alternating": _alternating_separable,
        "random": _random_separable,
        "oblong": _random_separable_oblong,
        "single-shell": _single_shell_separable,
    }[name]()


@pytest.fixture(params=["instance", "random-real"])
def separable_field(request, small_instance_field):
    if request.param == "instance":
        return small_instance_field
    return _random_separable()


class TestSeparable:

    def test_matches_dense_pipeline(self, separable_field):
        sep = separable_field
        dense = besov_reference.dense(sep)
        got = besov_breakdown(sep)
        want = besov_breakdown(dense)
        assert got.sup_abs == pytest.approx(want.sup_abs, rel=1e-12)
        assert got.piece_sup.keys() == want.piece_sup.keys()
        for n in want.piece_sup:
            assert got.piece_sup[n] == pytest.approx(want.piece_sup[n], abs=1e-12)
        assert got.total == pytest.approx(want.total, rel=1e-10)

    def test_grid_is_that_of_dense(self, separable_field):
        sep = separable_field
        dense = besov_reference.dense(sep)
        assert (sep.starts, sep.steps, sep.shape) == (dense.starts, dense.steps, dense.shape)
        assert sep.d == dense.d == 3
        assert sep.nyquist() == dense.nyquist()
        for i in range(3):
            assert np.array_equal(sep.freq_axis(i), dense.freq_axis(i))

    def test_nyquist_is_the_lower_factor(self, small_instance_field):
        sep = small_instance_field
        assert sep.nyquist() == min(sep.plane.nyquist(), sep.line.nyquist())
        coarse_line = SampledField((0.0,), (math.pi / 2,), np.ones(8))
        assert SeparableField3(sep.plane, coarse_line).nyquist() == 2.0

    def test_bandlimit_mass_nonnegative(self, small_instance_field):
        # the outside energy is summed directly, not taken as 1 - inside
        mass = bandlimit_check(small_instance_field, math.sqrt(3.0))
        assert 0.0 <= mass < 1e-25

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_bandlimit_random_matches_dense(self, sigma):
        sep = _random_separable()
        assert bandlimit_check(sep, sigma) == pytest.approx(
            bandlimit_check(besov_reference.dense(sep), sigma), rel=1e-12)

    def test_bandlimit_matches_dense(self, small_instance_field):
        sep = small_instance_field
        dense = besov_reference.dense(sep)
        sigma = math.sqrt(3.0)
        assert bandlimit_check(sep, sigma) == pytest.approx(
            bandlimit_check(dense, sigma), abs=1e-12)
        assert bandlimit_check(sep, sigma) < 1e-9

    def test_instance_band_limited(self, small_instance_field):
        # each axis carries the unit band; the 3-D radius is sqrt(3)
        assert bandlimit_check(small_instance_field, math.sqrt(3.0)) < 1e-9

    def test_phi_2d_band_limited(self):
        f = sample_phi_2d(triangular_coeffs(4))
        assert bandlimit_check(f, math.sqrt(2.0)) < 1e-9

    def test_complex_factor_rejected(self):
        sep = _random_separable()
        with pytest.raises(ValueError, match="must be real"):
            SeparableField3(sep.plane, SampledField((0.0,), (1.0,), np.ones(8, dtype=complex)))

    def test_scaled_instance_rejected(self):
        with pytest.raises(ValueError, match="unscaled"):
            sample_instance(scale_instance(build_instance(4), 0.5))

    def test_fixed_grids(self):
        # the grids behind the benchmark's f3 references; exact equality
        eta_grid = sample_eta_1d(0.0)
        assert (eta_grid.starts, eta_grid.steps, eta_grid.shape) == (
            (-64 * math.pi,), (math.pi / 128,), (16384,))
        phi = sample_phi_2d(triangular_coeffs(8))
        assert (phi.starts, phi.steps, phi.shape) == (
            (-9 * math.pi, -9 * math.pi), (math.pi / 4, math.pi / 4), (128, 128))
        f3 = sample_instance(build_instance(32))
        assert (f3.plane.starts, f3.plane.steps, f3.plane.shape) == (
            (-33 * math.pi, -33 * math.pi), (math.pi / 4, math.pi / 4), (512, 512))
        assert (f3.line.starts, f3.line.steps, f3.line.shape) == (
            (-6 * math.pi,), (math.pi / 4,), (64,))

    def test_phi_2d_is_the_lattice_sum(self):
        c = triangular_coeffs(5)
        f = sample_phi_2d(c)
        x, z = (f.starts[i] + f.steps[i] * np.arange(f.shape[i]) for i in range(2))
        bx = np.stack([eta_periodized(x - TWO_PI * j, len(x) * f.steps[0]) for j in range(c.rows)])
        bz = np.stack([eta_periodized(z - TWO_PI * k, len(z) * f.steps[1]) for k in range(c.cols)])
        assert np.array_equal(f.samples, bx.T @ c.entries @ bz)

    def test_estimates_stable_across_small_sizes(self):
        totals = []
        for n in (4, 8):
            f3 = sample_instance(build_instance(n))
            totals.append(besov_breakdown(f3).total)
        spread = (max(totals) - min(totals)) / min(totals)
        assert spread < 0.10

    @pytest.mark.parametrize("field", ["f3:8", "f3:16", "instance", "random", "oblong",
                                       "single-shell", "x-constant", "alternating"])
    def test_piece_sup_matches_reference(self, monkeypatch, small_instance_field, field):
        # the pruned first pass, the mirrored window and the row bound give
        # bitwise the values of a full irfft2 per shell and of the row loop
        f = _named_separable(field, small_instance_field)
        got = besov_breakdown(f).piece_sup
        monkeypatch.setattr(besov, "_separable_piece_sup", besov_reference.separable_piece_sup)
        want = besov_breakdown(f).piece_sup
        assert {n: v.hex() for n, v in got.items()} == {n: v.hex() for n, v in want.items()}
        assert any(got.values())

    @staticmethod
    def _rows_run(monkeypatch, f) -> tuple:
        """Rows that run the product along the middle axis, and plane rows
        of the pieces that run it at all (the pieces with an active shell)."""
        runs, rows = [0], [0]
        piece, row = besov._separable_piece_sup, besov._row_sup

        def piece_spy(phat, rr, xi2, g, shape, n):
            before = runs[0]
            out = piece(phat, rr, xi2, g, shape, n)
            rows[0] += shape[0] if runs[0] > before else 0
            return out

        def row_spy(gs, planes, x):
            runs[0] += 1
            return row(gs, planes, x)

        monkeypatch.setattr(besov, "_separable_piece_sup", piece_spy)
        monkeypatch.setattr(besov, "_row_sup", row_spy)
        besov_breakdown(f)
        return runs[0], rows[0]

    def test_row_bound_prunes_rows(self, monkeypatch):
        # f3:16 runs 42 of the 1792 rows of its pieces with an active shell
        runs, rows = self._rows_run(monkeypatch, sample_instance(build_instance(16)))
        assert 0 < runs < 0.1 * rows

    def test_budget_counts_the_middle_axis(self, monkeypatch):
        # a long random line over an 8 x 8 plane: the middle-axis matrices that build g,
        # not the slices, set the peak, and the budget counts them
        rng = np.random.default_rng(13)
        plane = SampledField((0.0, 0.0), (1.0, 1.0), rng.standard_normal((8, 8)))
        line = SampledField((0.0,), (1.0,), rng.standard_normal(512))
        tracemalloc.start()
        try:
            besov_breakdown(SeparableField3(plane, line))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(besov, "_SLICE_BYTES_BUDGET", peak)
        with pytest.raises(ValueError, match="512-sample middle axis"):
            besov.check_slice_budget(line, plane.shape)
        # 4096 samples would take about 0.5 GB; they are refused before any of it
        monkeypatch.setattr(besov, "_SLICE_BYTES_BUDGET", 100_000_000)
        long_line = SampledField((0.0,), (1.0,), rng.standard_normal(4096))
        with pytest.raises(ValueError, match="over the 0.1 GB budget"):
            besov_breakdown(SeparableField3(plane, long_line))

    def test_tied_rows_all_run(self, monkeypatch):
        runs, rows = self._rows_run(monkeypatch, _x_constant_separable())
        assert runs == rows > 0

    def test_single_shell_field_has_one_shell(self, monkeypatch):
        # so the single-shell case of the reference check runs the row bound on one shell
        shells = []
        original = besov._separable_piece_sup

        def spy(phat, rr, xi2, g, shape, n):
            shells.append(len(xi2))
            return original(phat, rr, xi2, g, shape, n)

        monkeypatch.setattr(besov, "_separable_piece_sup", spy)
        assert sum(v > 0 for v in besov_breakdown(_single_shell_separable()).piece_sup.values()) >= 2
        assert set(shells) == {1}

    @pytest.mark.parametrize("field", ["instance", "random", "oblong", "single-shell"])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, math.sqrt(3.0)])
    def test_bandlimit_matches_per_bin_reference(self, small_instance_field, field, sigma):
        f = _named_separable(field, small_instance_field)
        got = bandlimit_check(f, sigma)
        assert got.hex() == besov_reference.separable_bandlimit_check(f, sigma).hex()

    def test_headline_estimates(self):
        # the f3 references of the benchmark oracle
        report = cmd_besov("f3:32")
        assert report.breakdown.total == 0.6922923982526068
        assert 0.0 <= report.bandlimit_mass < 1e-25
        assert cmd_besov("f3:8").breakdown.total == pytest.approx(0.6892781146586121, rel=1e-14)

    def test_f3_8_pieces_pinned(self):
        # a shell skipped or kept by mistake changes a piece
        report = cmd_besov("f3:8")
        assert report.breakdown.total == 0.689278114658612
        assert report.breakdown.piece_sup == {
            **{n: 0.0 for n in range(-20, -4)},
            -4: 0.07101524098275559,
            -3: 0.2626046665252505,
            -2: 0.34356407880948164,
            -1: 0.470650526526458,
            0: 0.32707217874330025,
            1: 0.0018623316991587418,
        }
