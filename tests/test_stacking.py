"""Stacked fields and stacked matrices: a field whose value has leading
stack axes, or matrices and measures with leading member axes, give the
stack of the results of their fields and members, bit for bit, through the
code that handles one field and one matrix."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from xplab.counterexample import TWO_PI, eta_field
from xplab import experiment
from xplab.experiment import _suite_perturbation, _test_fields
from xplab.hermitian import HermitianMatrix, schatten_norm, singular_values
from xplab.opint import doi, func_calc_triple, grid_eval, s2_contraction_check, toi
from xplab.perturbation import (
    divided_difference,
    perturbation_identity_residual,
    separated_difference,
)
from xplab.spectral import apply_scalar, from_hermitian

from conftest import random_complex, random_hermitian, random_unitary


def _fields(seed):
    """``_test_fields`` of a seeded generator, and the same seven fields
    one by one, drawn as separate ``Polynomial`` objects from the same
    calls."""
    stacked = _test_fields(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    single = []
    for _ in range(5):
        single.append(Polynomial(rng.standard_normal(int(rng.integers(1, 6)) + 1)))
    single += [eta_field(0.0), eta_field(TWO_PI)]
    return stacked, single


def _pairs(rng):
    """Hermitian pairs of dimension 6 whose measures have a dense basis, the
    identity basis (``None``) and clustered atoms (``atom_count < dim``),
    the last with a dense basis and with ``None``."""
    u = random_unitary(rng, 6)
    clustered = [(u * d) @ u.conj().T for d in ([-1.0, -1.0, 0.5, 2.0, 2.0, 2.0],
                                                [-3.0, 0.0, 0.0, 1.0, 1.0, 4.0])]
    return {
        "dense": (random_hermitian(rng, 6, 2.0), random_hermitian(rng, 6, 2.0)),
        "none": tuple(HermitianMatrix(np.diag(np.sort(rng.standard_normal(6)))) for _ in range(2)),
        "clustered": tuple(HermitianMatrix((c + c.conj().T) / 2) for c in clustered),
        "clustered-none": (HermitianMatrix(np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 3.0])),
                           HermitianMatrix(np.diag([-1.0, 2.0, 2.0, 2.0, 5.0, 5.0]))),
    }


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_pairs_cover_every_kind(rng):
    measures = {k: [from_hermitian(h) for h in pair] for k, pair in _pairs(rng).items()}
    assert all(e.basis is not None and e.atom_count == e.dim for e in measures["dense"])
    assert all(e.basis is None and e.atom_count == e.dim for e in measures["none"])
    assert all(e.basis is not None and e.atom_count < e.dim for e in measures["clustered"])
    assert all(e.basis is None and e.atom_count < e.dim for e in measures["clustered-none"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_test_fields_equal_polynomial_and_eta(seed):
    f, single = _fields(seed)
    x = np.linspace(-7.0, 9.0, 41).reshape(41, 1)
    got = f(x)
    assert got.shape == (7, 41, 1)
    for k, fk in enumerate(single):
        assert _same(got[k], fk(x))


@pytest.mark.parametrize("kind", ["dense", "none", "clustered", "clustered-none"])
class TestStackEqualsFields:
    def test_grid_eval_and_apply_scalar(self, rng, kind):
        f, single = _fields(4)
        for h in _pairs(rng)[kind]:
            e = from_hermitian(h)
            grid, calc = grid_eval(f, e.values), apply_scalar(e, f)
            assert grid.shape == (7, e.atom_count) and calc.shape == (7, e.dim, e.dim)
            for k, fk in enumerate(single):
                assert _same(grid[k], grid_eval(fk, e.values))
                assert _same(calc[k], apply_scalar(e, fk))

    @pytest.mark.parametrize("identity", [False, True])
    def test_doi(self, rng, kind, identity):
        f, single = _fields(5)
        e1, e2 = (from_hermitian(h) for h in _pairs(rng)[kind])
        t = np.eye(6) if identity else random_complex(rng, 6)
        got = doi(grid_eval(divided_difference(f), e1.values, e2.values), e1, t, e2)
        assert got.shape == (7, 6, 6)
        for k, fk in enumerate(single):
            fkgrid = grid_eval(divided_difference(fk), e1.values, e2.values)
            assert _same(got[k], doi(fkgrid, e1, t, e2))

    def test_toi(self, rng, kind):
        e1, e2 = (from_hermitian(h) for h in _pairs(rng)[kind])
        t1, t2 = random_complex(rng, 6), random_complex(rng, 6)
        f = lambda x, y, z: np.stack((np.cos(x - z) * y, x + y * z + 0j))
        fgrid = grid_eval(f, e1.values, e2.values, e1.values)
        got = toi(fgrid, e1, t1, e2, t2, e1)
        assert got.shape == (2, 6, 6)
        for k in range(2):
            assert _same(got[k], toi(fgrid[k], e1, t1, e2, t2, e1))

    def test_perturbation_identity_residual(self, rng, kind):
        f, single = _fields(6)
        a, b = _pairs(rng)[kind]
        got = perturbation_identity_residual(f, a, b)
        assert got.shape == (7,) and np.all(got < 1e-9)
        for k, fk in enumerate(single):
            one = perturbation_identity_residual(fk, a, b)
            assert type(one) is float and one == got[k]


def test_doi_identity_branch_reached():
    # T = I over two identity bases keeps the symbol's diagonal; off it the
    # Hadamard product gives -0.0 where the symbol is negative, so compare values
    e = from_hermitian(HermitianMatrix(np.diag([0.0, 1.0, 3.0])))
    fgrid = grid_eval(lambda x, y: np.stack((x + y, x * y - 1.0)), e.values, e.values)
    got = doi(fgrid, e, np.eye(3), e)
    want = np.stack((np.diag([0.0, 2.0, 6.0]), np.diag([-1.0, 0.0, 8.0])))
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("p", [1.0, 1.3, 2.0, 3.0, math.inf])
def test_schatten_norm_of_stack(rng, p):
    # numpy's array power rounds some roots otherwise than its scalar power
    # (about one in twenty); a hundred matrices would show it
    mats = np.stack([np.zeros((3, 3))] + [random_complex(rng, 3) for _ in range(100)])
    got = schatten_norm(mats, p)
    assert singular_values(mats).shape == (101, 3) and got.shape == (101,)
    for k, m in enumerate(mats):
        assert type(schatten_norm(m, p)) is float and schatten_norm(m, p) == got[k]
    assert got[0] == 0.0


def test_singular_values_rejects_non_square_stack():
    with pytest.raises(ValueError, match="square matrix"):
        singular_values(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="square matrix"):
        singular_values(np.zeros(3))


def test_suite_sees_every_field_once_per_trial(monkeypatch):
    # every trial is one member of one stack, and every member gets 7 fields
    from xplab import experiment

    members = []
    residual = experiment.perturbation_identity_residual

    def counted(f, a, b):
        out = residual(f, a, b)
        assert out.shape == (7,) + a.mat.shape[:-2]
        members.append(a.mat[..., 0, 0].size)
        return out

    monkeypatch.setattr(experiment, "perturbation_identity_residual", counted)
    result = _suite_perturbation(np.random.default_rng(3), 40)
    assert sum(members) == 40 and len(members) < 40 and result.passed


def test_apply_scalar_tests_each_field_for_realness(rng):
    # a complex stack symmetrizes its real fields as each alone would
    e = from_hermitian(random_hermitian(rng, 5))
    fields = [lambda x: (x * x).astype(complex), lambda x: x + 1j * np.cos(x)]
    got = apply_scalar(e, lambda x: np.stack([f(x) for f in fields]))
    for k, f in enumerate(fields):
        assert _same(got[k], apply_scalar(e, f))
    assert np.array_equal(got[0], got[0].conj().T) and not np.array_equal(got[1], got[1].conj().T)


# ---------------------------------------------------------------------------
# member axes: a stack of matrices gives each member's own result


KINDS = ["dense", "none", "clustered", "clustered-none"]


def _stacks(rng, kind, k):
    """``k`` pairs of one kind of ``_pairs``, as the two member lists and
    the two stacks; the members of each stack share their atoms."""
    pairs = [_pairs(rng)[kind] for _ in range(k)]
    members = [[p[0] for p in pairs], [p[1] for p in pairs]]
    return members, [HermitianMatrix(np.stack([h.mat for h in hs])) for hs in members]


def _member(x, m, fields):
    """Member ``m`` of a result; the stack axis of a stacked field comes first."""
    return x[:, m] if fields else x[m]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("kind", KINDS)
class TestMembersEqualMatrices:
    def test_from_hermitian(self, rng, kind, k):
        (hs, _), (h, _) = _stacks(rng, kind, k)
        e = from_hermitian(h)
        assert e.values.shape == (k, e.atom_count)
        for m, hm in enumerate(hs):
            one = from_hermitian(hm)
            assert _same(e.values[m], one.values) and _same(e.starts, one.starts)
            assert (e.basis is None) == (one.basis is None)
            assert one.basis is None or _same(e.basis[m], one.basis)

    @pytest.mark.parametrize("fields", [False, True])
    def test_apply_scalar_grid_eval_doi(self, rng, kind, k, fields):
        f = _fields(7)[0] if fields else eta_field(TWO_PI)
        (a_list, b_list), (a, b) = _stacks(rng, kind, k)
        e1, e2 = from_hermitian(a), from_hermitian(b)
        t = np.stack([random_complex(rng, 6) for _ in range(k)])
        calc, grid = apply_scalar(e1, f), grid_eval(f, e1.values)
        got = doi(grid_eval(divided_difference(f), e1.values, e2.values), e1, t, e2)
        for m in range(k):
            o1, o2 = from_hermitian(a_list[m]), from_hermitian(b_list[m])
            assert _same(_member(calc, m, fields), apply_scalar(o1, f))
            assert _same(_member(grid, m, fields), grid_eval(f, o1.values))
            one = doi(grid_eval(divided_difference(f), o1.values, o2.values), o1, t[m], o2)
            assert _same(_member(got, m, fields), one)

    @pytest.mark.parametrize("fields", [False, True])
    def test_toi_and_func_calc_triple(self, rng, kind, k, fields):
        if fields:
            f = lambda x, y, z: np.stack((np.cos(x - z) * y, x + y * z + 0j))
        else:
            f = lambda x, y, z: np.cos(x - z) * y
        (a_list, b_list), (a, b) = _stacks(rng, kind, k)
        e1, e2 = from_hermitian(a), from_hermitian(b)
        t1, t2 = (np.stack([random_complex(rng, 6) for _ in range(k)]) for _ in range(2))
        got = toi(grid_eval(f, e1.values, e2.values, e1.values), e1, t1, e2, t2, e1)
        calc = func_calc_triple(f, a, b, a)
        for m in range(k):
            o1, o2 = from_hermitian(a_list[m]), from_hermitian(b_list[m])
            one = toi(grid_eval(f, o1.values, o2.values, o1.values), o1, t1[m], o2, t2[m], o1)
            assert _same(_member(got, m, fields), one)
            one = func_calc_triple(f, a_list[m], b_list[m], a_list[m])
            assert _same(_member(calc, m, fields), one)

    @pytest.mark.parametrize("fields", [False, True])
    def test_perturbation(self, rng, kind, k, fields):
        f = _fields(8)[0] if fields else eta_field(TWO_PI)
        phi = lambda x, z: np.cos(x - z) + x * z
        (a_list, b_list), (a, b) = _stacks(rng, kind, k)
        residual = perturbation_identity_residual(f, a, b)
        assert np.all(residual < 1e-9)
        sep = separated_difference(phi, f, a, b, a, b)
        for m in range(k):
            one = perturbation_identity_residual(f, a_list[m], b_list[m])
            assert _same(_member(residual, m, fields), one)
            one = separated_difference(phi, f, a_list[m], b_list[m], a_list[m], b_list[m])
            assert _same(_member(sep, m, fields), one)

    @pytest.mark.parametrize("fields", [False, True])
    def test_s2_contraction_check(self, rng, kind, k, fields):
        f = lambda x, y: np.stack((x - y * y, np.sin(x * y))) if fields else x - y * y
        (a_list, b_list), (a, b) = _stacks(rng, kind, k)
        e1, e2 = from_hermitian(a), from_hermitian(b)
        t = np.stack([random_complex(rng, 6) for _ in range(k)])
        lhs, rhs = s2_contraction_check(grid_eval(f, e1.values, e2.values), e1, e2, t)
        assert lhs.shape == rhs.shape == ((2, k) if fields else (k,))
        for m in range(k):
            o1, o2 = from_hermitian(a_list[m]), from_hermitian(b_list[m])
            one = s2_contraction_check(grid_eval(f, o1.values, o2.values), o1, o2, t[m])
            assert _same(_member(lhs, m, fields), one[0]) and _same(_member(rhs, m, fields), one[1])


def test_stack_of_unsorted_diagonals_has_member_permutations():
    # one sorted and one unsorted member: the sorted one gets the identity
    mats = np.stack([np.diag([1.0, 2.0, 3.0]), np.diag([3.0, 1.0, 2.0])])
    e = from_hermitian(HermitianMatrix(mats))
    assert np.array_equal(e.values, [[1.0, 2.0, 3.0]] * 2)
    assert np.array_equal(e.basis[0], np.eye(3))
    assert np.array_equal(e.basis[1], np.eye(3)[:, [1, 2, 0]])


def test_members_must_share_atoms():
    h = HermitianMatrix(np.stack([np.diag([0.0, 0.0, 1.0]), np.diag([0.0, 1.0, 1.0])]))
    with pytest.raises(ValueError, match="share their atoms"):
        from_hermitian(h)


def test_stack_of_no_members_has_a_measure():
    e = from_hermitian(HermitianMatrix(np.zeros((0, 3, 3))))
    assert e.dim == 3 and e.values.shape[0] == 0


def test_stack_with_a_non_hermitian_member_is_refused(rng):
    mats = np.stack([random_hermitian(rng, 4).mat for _ in range(3)])
    mats[1, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix(mats)


# ---------------------------------------------------------------------------
# verify's stacks: bounded memory


def test_perturbation_suite_memory_does_not_grow_with_trials():
    # queues are computed as they fill, so ten times the trials is not ten
    # times the memory; drawing every trial first would be
    _suite_perturbation(np.random.default_rng(2), 20)
    peaks = []
    for trials in (200, 2000):
        tracemalloc.start()
        try:
            _suite_perturbation(np.random.default_rng(1), trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_one_trial_verify_passes():
    summary = experiment.cmd_verify(seed=0, trials=1)
    assert summary.all_passed and len(summary.suites) == 6
