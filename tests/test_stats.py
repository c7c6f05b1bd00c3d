"""Estimator and verdict machinery."""

import itertools

import numpy as np
import pytest

from powerlimits import experiments as E
from powerlimits import groups as G
from powerlimits import preimage as P
from powerlimits import samplers as L
from powerlimits import stats as S
from powerlimits.groups import haar_batch, unitary
from powerlimits.torus import AngleSample
from oracles import MomentReport, empirical_fourier, rains_limit_batch, spectral_trace_moments

TAU = 2 * np.pi


def _by_id(labels, est) -> dict:
    """Each statistic of the record ``est`` as a scalar report, by its id in ``labels``."""
    assert len(labels) == len(est)
    return {label: MomentReport(label, e, se, est.sample_size)
            for label, e, se in zip(labels, est.estimate.tolist(), est.std_error.tolist())}


class TestEmpiricalFourier:
    def test_point_mass_at_zero(self):
        a = AngleSample(2, np.zeros((100, 2)))
        rep = empirical_fourier(a, (1, 0))
        assert rep.estimate == 1.0
        assert rep.std_error == 0.0

    def test_zero_lattice_point(self):
        rng = np.random.default_rng(0)
        a = AngleSample(1, rng.uniform(0, TAU, (50, 1)))
        rep = empirical_fourier(a, (0,))
        assert rep.estimate == pytest.approx(1.0)

    def test_uniform_clt_bound(self):
        rng = np.random.default_rng(1)
        s = 100000
        a = AngleSample(2, rng.uniform(0, TAU, (s, 2)))
        rep = empirical_fourier(a, (2, 1))
        assert abs(rep.estimate) <= 5.0 / np.sqrt(s)

    def test_transform_convention_sign(self):
        # estimate at p targets the series coefficient a_p: for density
        # 1 + cos(theta - 0.5) the coefficient at p=1 is exp(-0.5j)/2
        rng = np.random.default_rng(2)
        s = 200000
        theta = rng.uniform(0, TAU, 2 * s)
        keep = rng.uniform(0, 2, 2 * s) < 1 + np.cos(theta - 0.5)
        a = AngleSample(1, theta[keep][:s, None])
        rep = empirical_fourier(a, (1,))
        assert abs(rep.estimate - 0.5 * np.exp(-0.5j)) < 5 * rep.std_error

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(0, TAU, (500, 2))
        a = empirical_fourier(AngleSample(2, rows), (1, 2))
        b = empirical_fourier(AngleSample(2, rows[::-1]), (1, 2))
        assert a.estimate == pytest.approx(b.estimate, abs=1e-15)
        assert a.std_error == pytest.approx(b.std_error, abs=1e-15)


class TestEstimates:
    @pytest.mark.parametrize("bad", [np.nan, -1e-3, np.inf])
    def test_rejects_bad_std_error(self, bad):
        std_error = np.array([0.1, bad, 0.2])
        with pytest.raises(ValueError):
            S.Estimates(np.zeros(3, complex), std_error, 10)

    def test_len_counts_lattice_rows(self):
        rows = np.random.default_rng(5).uniform(0, TAU, (200, 2))
        lattice = S.lattice_ball(2, 3)
        reports = S.empirical_fourier_many(rows, lattice)
        assert len(reports) == lattice.shape[0] == 24
        assert reports.estimate.shape == reports.std_error.shape == (24,)
        assert reports.sample_size == 200

    def test_single_point_keeps_label_and_values(self):
        rows = np.random.default_rng(6).uniform(0, TAU, (300, 2))
        rep = empirical_fourier(rows, (1, -2))
        assert isinstance(rep, MomentReport)
        assert rep.statistic == "fourier[1,-2]" and rep.sample_size == 300
        assert type(rep.estimate) is complex and type(rep.std_error) is float
        many = S.empirical_fourier_many(rows, [[1, -2]])
        assert rep.estimate == many.estimate[0] and rep.std_error == many.std_error[0]
        assert S.fourier_labels([[2, 0], [1, -2]]) == ["fourier[2,0]", "fourier[1,-2]"]


class TestLatticeBall:
    @pytest.mark.parametrize("rank,degree", [(1, 3), (2, 3), (3, 2), (4, 3)])
    def test_one_point_of_each_pair(self, rank, degree):
        half = {tuple(p) for p in S.lattice_ball(rank, degree).tolist()}
        negated = {tuple(-x for x in p) for p in half}
        assert not half & negated
        box = set(itertools.product(range(-degree, degree + 1), repeat=rank))
        assert half | negated == box - {(0,) * rank}

    def test_first_nonzero_coordinate_positive(self):
        pts = S.lattice_ball(3, 1).tolist()
        assert [0, 1, -1] in pts and [1, -1, 0] in pts
        assert [0, -1, 1] not in pts and [-1, 1, 0] not in pts

    def test_negated_point_estimate_is_conjugate(self):
        rows = np.random.default_rng(4).uniform(0, TAU, (300, 2))
        a = empirical_fourier(rows, (1, -2))
        b = empirical_fourier(rows, (-1, 2))
        assert b.estimate == pytest.approx(a.estimate.conjugate(), abs=1e-12)
        assert b.std_error == pytest.approx(a.std_error, abs=1e-12)


def _weyl_elements(desc):
    """Every Weyl element of ``desc`` as (perm, signs or None), in preimage's gather form."""
    n = desc.torus_rank if desc.is_real else desc.matrix_size
    perms = [np.array(p) for p in itertools.permutations(range(n))]
    if not desc.is_real:
        return [(p, None) for p in perms]
    return [(p, np.array(sg, dtype=float)) for p in perms
            for sg in itertools.product((1, -1), repeat=n)]


def _weyl_average(desc, weyl, p):
    """The per-draw estimator at p averaged over the whole Weyl group: the mean of the
    plain estimates on the torus coordinates of w . t, one fixed w per pass."""
    s, total = weyl.shape[0], 0.0
    elements = _weyl_elements(desc)
    for perm, signs in elements:
        coords = P._act_angles(desc, weyl, np.tile(perm, (s, 1)),
                               None if signs is None else np.tile(signs, (s, 1)))
        total += empirical_fourier(coords, p).estimate
    return total / len(elements)


def _per_row_orbit_means(desc, orb, weyl):
    """The per-row orbit mean y_s, built as an (S, |O|) table: the reference for the
    mean and the plug-in standard error of orbit_report."""
    coords = weyl[:, :-1] if desc.family is G.Family.SPECIAL_UNITARY else weyl
    y = np.exp(-1j * coords @ S._torus_points(desc.family, orb.members).T.astype(float))
    return y.mean(axis=1).real if orb.real else y.mean(axis=1)


def _perturbed_weyl_rows(desc, size, seed):
    angles = L.EigenangleLaw(L.PerturbedHaarLaw(desc, 0.5)).sample_batch(
        np.random.default_rng(seed), size)
    return P.weyl_rows(desc, angles)


ORBIT_GROUPS = [G.unitary(3), G.special_unitary(3), G.special_orthogonal_odd(5)]


class TestOrbitMeans:
    @pytest.mark.parametrize("desc", ORBIT_GROUPS, ids=repr)
    def test_orbit_means_are_weyl_averaged_plain_estimates(self, desc):
        weyl = _perturbed_weyl_rows(desc, 400, 1)
        table = S.orbit_table(desc, 2)
        reports = S.orbit_means(table, weyl)
        assert len(reports) == len(table) and reports.sample_size == 400
        for label, est, real in zip(table.lattice.tolist(), reports.estimate, table.real):
            assert abs(_weyl_average(desc, weyl, label) - est) <= 1e-14
            # the dropped conjugate orbit would read the conjugate estimate
            assert abs(_weyl_average(desc, weyl, [-x for x in label]) - np.conj(est)) <= 1e-14
            assert not real or est.imag == 0.0

    @pytest.mark.parametrize("desc, degree, rows", [
        (G.unitary(4), 3, 109), (G.unitary(2), 3, 15), (G.special_orthogonal_odd(5), 3, 9),
        (G.special_unitary(2), 3, 3), (G.special_orthogonal_odd(3), 2, 2)], ids=repr)
    def test_table_covers_the_box_once_up_to_conjugation(self, desc, degree, rows):
        # on U and SO the box is Weyl-closed: its points are the members of the
        # kept orbits and of their conjugates, each counted once
        table = S.orbit_table(desc, degree)
        assert len(table) == rows == len(set(S.fourier_labels(table.lattice, "orbit")))
        assert int(np.sum(table.size * np.where(table.real, 1, 2))) == (2 * degree + 1) ** (
            desc.torus_rank) - 1
        assert table.points.shape == S.lattice_ball(desc.torus_rank, degree).shape
        for label, size, real in zip(table.lattice.tolist(), table.size, table.real):
            orb = S.orbit(desc, label)
            assert (orb.label, orb.size, orb.real) == (tuple(label), size, real)

    def test_su_orbits_reach_past_the_box(self):
        # SU(3): (3, -3) sits in the box, and its orbit holds (6, 3) and (-3, -6)
        orb = S.orbit(G.special_unitary(3), (3, -3))
        points = {tuple(q) for q in S._torus_points(orb.family, orb.members).tolist()}
        assert orb.label == (6, 3) and orb.real and orb.size == 6
        assert points == {(6, 3), (3, 6), (3, -3), (-3, 3), (-3, -6), (-6, -3)}
        table = S.orbit_table(G.special_unitary(3), 3)
        assert (6, 3) in {tuple(q) for q in table.lattice.tolist()}

    @pytest.mark.parametrize("desc", ORBIT_GROUPS + [G.unitary(1), G.special_unitary(2)],
                             ids=repr)
    def test_report_matches_the_per_row_plug_in(self, desc):
        weyl = _perturbed_weyl_rows(desc, 500, 2)
        table = S.orbit_table(desc, 2)
        means = S.orbit_means(table, weyl)
        for k, label in enumerate(table.lattice.tolist()):
            orb = S.orbit(desc, label)
            rep = S.orbit_report(orb, weyl)
            assert len(rep) == 1 and rep.sample_size == 500
            est, std_error = complex(rep.estimate[0]), float(rep.std_error[0])
            y = _per_row_orbit_means(desc, orb, weyl)
            assert abs(est - means.estimate[k]) <= 1e-14
            assert abs(est - y.mean()) <= 1e-14
            assert not orb.real or est.imag == 0.0
            se = S._std_error(np.mean(np.abs(y - y.mean()) ** 2), 500)
            assert std_error == pytest.approx(se, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("desc", ORBIT_GROUPS, ids=repr)
    def test_null_scale_under_the_fixed_law(self, desc):
        # rows of the fixed law have a uniform symmetrization, so E|y|^2 = 1/|O|:
        # the plug-in standard error meets the null scale 1/sqrt(S |O|)
        s = 20000
        weyl = P.weyl_rows(desc, rains_limit_batch(desc, np.random.default_rng(3), s))
        table = S.orbit_table(desc, 2)
        reports = S.orbit_means(table, weyl)
        np.testing.assert_allclose(reports.std_error, 1.0 / np.sqrt(s * table.size))
        z = np.abs(reports.estimate) / reports.std_error
        assert np.all(z <= 5.0)
        for label, null in zip(table.lattice.tolist(), reports.std_error):
            assert S.orbit_report(S.orbit(desc, label), weyl).std_error[0] == pytest.approx(
                null, rel=0.05)

    @pytest.mark.parametrize("edge", [1e-10, np.pi - 1e-10, np.pi + 1e-10, TAU - 1e-10])
    def test_so_rows_near_zero_or_pi_are_kept(self, edge):
        desc = G.special_orthogonal_odd(5)
        rng = np.random.default_rng(4)
        theta = rng.uniform(0.5, 2.5, (200, 2))
        theta[::2, 1] = edge
        eig = G.wrap_angles(np.concatenate([theta, -theta, np.zeros((200, 1))], axis=1))
        eig = np.take_along_axis(eig, rng.permuted(np.tile(np.arange(5), (200, 1)), axis=1), 1)
        weyl = P.weyl_rows(desc, eig)
        assert weyl.shape == (200, 2)
        folded = np.minimum(theta, TAU - theta)
        np.testing.assert_allclose(np.sort(weyl, axis=1), np.sort(folded, axis=1), atol=1e-15)
        assert S.orbit_means(S.orbit_table(desc, 2), weyl).sample_size == 200
        # the uniform preimage's signed Weyl draw drops every such row
        assert P.uniform_torus_rows(desc, eig, rng).shape == (100, 2)


class TestTraceMoments:
    def test_identity_sample(self):
        mats = np.broadcast_to(np.eye(3, dtype=complex), (10, 3, 3))
        by_id = _by_id(S.trace_labels(1), S.trace_moments(mats, 1))
        assert list(by_id) == ["trace[1]", "trace_abs2[1]"]
        assert by_id["trace[1]"].estimate == pytest.approx(3.0)
        assert by_id["trace_abs2[1]"].estimate == pytest.approx(9.0)

    def test_so_traces_are_real(self):
        from powerlimits.groups import special_orthogonal_odd
        rng = np.random.default_rng(4)
        mats = haar_batch(special_orthogonal_odd(3), rng, 200)
        reps = _by_id(S.trace_labels(2), S.trace_moments(mats, 2))
        assert reps["trace[1]"].estimate.imag == 0.0
        assert reps["trace[2]"].estimate.imag == 0.0
        assert np.all(S.entry_moments(mats).estimate.imag == 0.0)

    def test_haar_u2_trace_second_moment(self):
        # E |Tr g|^2 = 1 for Haar U(2); oracle is an independent Haar run
        # at ten times the sample size
        rng = np.random.default_rng(5)
        s = 20000
        small = _by_id(S.trace_labels(1), S.trace_moments(haar_batch(unitary(2), rng, s), 1))
        big = _by_id(S.trace_labels(1), S.trace_moments(haar_batch(unitary(2), rng, 10 * s), 1))
        r1, r2 = small["trace_abs2[1]"], big["trace_abs2[1]"]
        z = abs(r1.estimate - r2.estimate) / np.hypot(r1.std_error, r2.std_error)
        assert z <= 5.0
        assert abs(r2.estimate - 1.0) <= 5 * r2.std_error

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(6)
        mats = haar_batch(unitary(3), rng, 100)
        g = haar_batch(unitary(3), rng, 1)[0]
        conjugated = g @ mats @ g.conj().T
        a = S.trace_moments(mats, 3)
        b = S.trace_moments(conjugated, 3)
        assert len(a) == len(b) == 6
        assert np.all(np.abs(a.estimate - b.estimate) <= 1e-10)

    def test_spectral_route_agrees(self):
        from powerlimits.groups import eigenangles_batch
        rng = np.random.default_rng(7)
        mats = haar_batch(unitary(3), rng, 500)
        a = S.trace_moments(mats, 3)
        b = spectral_trace_moments(eigenangles_batch(mats), 3)
        assert len(a) == len(b) == len(S.trace_labels(3))
        assert np.all(np.abs(a.estimate - b.estimate) <= 1e-9)


def _orbit_value(desc, table, est, vector):
    """The mean at the orbit of the Weyl vector ``vector`` (least entry 0 on SU): its
    row of ``est``, conjugated where the table keeps the conjugate orbit."""
    vector = np.array(vector)
    point = vector[:-1] - vector[-1] if desc.family is G.Family.SPECIAL_UNITARY else vector
    orb = S.orbit(desc, point)
    value = est.estimate[table.lattice.tolist().index(list(orb.label))]
    return value if np.all(orb.members == vector, axis=1).any() else value.conjugate()


class TestTracesFromOrbits:
    """Traces of eigenangle rows are power sums, and power sums are affine in the
    Weyl-orbit means (monomial symmetric functions): so eigen_convergence, which
    reports every orbit of its box, reports no trace row."""

    @pytest.mark.parametrize("desc", [G.unitary(2), G.unitary(3), G.unitary(4),
                                      G.special_unitary(3), G.special_unitary(4)], ids=repr)
    def test_unitary_traces_are_orbit_rows_rescaled(self, desc):
        # Tr(g^k) = N conj(orbit[k, 0, ...]), |Tr(g^k)|^2 = N + N(N-1) orbit[k, 0, ..., -k]
        n, rng = desc.matrix_size, np.random.default_rng(70)
        angles = E._angle_rows(L.PerturbedHaarLaw(desc, 0.5), 2, rng, 3000)
        table = S.orbit_table(desc, 3)
        est = S.orbit_means(table, P.weyl_rows(desc, angles))
        want = []
        for k in range(1, 4):
            single, pair = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
            single[0], pair[0], pair[-1] = k, k, -k
            if desc.family is G.Family.SPECIAL_UNITARY:
                pair += k
            want += [n * np.conj(_orbit_value(desc, table, est, single)),
                     n + n * (n - 1) * _orbit_value(desc, table, est, pair)]
        got = spectral_trace_moments(angles, 3).estimate
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 5])
    def test_so_traces_read_orbits_up_to_degree_2k(self, n):
        # r the torus rank: Tr(g^k) = 1 + 2r orbit[k, 0, ...], and |Tr(g^k)|^2 = 1 + 2r
        # + 4r orbit[k, 0, ...] + 2r orbit[2k, 0, ...] + 4r(r-1) orbit[k, k, 0, ...]
        desc = G.special_orthogonal_odd(n)
        r, rng = desc.torus_rank, np.random.default_rng(71)
        angles = E._angle_rows(L.PerturbedHaarLaw(desc, 0.5), 2, rng, 3000)
        table = S.orbit_table(desc, 6)
        est = S.orbit_means(table, P.weyl_rows(desc, angles))
        at = lambda *head: _orbit_value(desc, table, est, list(head) + [0] * (r - len(head)))
        want = []
        for k in range(1, 4):
            both = 4 * r * (r - 1) * at(k, k) if r > 1 else 0.0
            want += [1 + 2 * r * at(k), 1 + 2 * r + 4 * r * at(k) + 2 * r * at(2 * k) + both]
        got = spectral_trace_moments(angles, 3).estimate
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


class TestEntryMoments:
    def test_identity_sample(self):
        mats = np.broadcast_to(np.eye(2, dtype=complex), (10, 2, 2))
        by_id = _by_id(S.entry_labels(2), S.entry_moments(mats))
        assert by_id["entry[0,0]"].estimate == pytest.approx(1.0)
        assert by_id["entry[0,1]"].estimate == pytest.approx(0.0)

    def test_haar_first_moments_vanish(self):
        rng = np.random.default_rng(8)
        s = 50000
        by_id = _by_id(S.entry_labels(2), S.entry_moments(haar_batch(unitary(2), rng, s)))
        for j in range(2):
            for k in range(2):
                rep = by_id[f"entry[{j},{k}]"]
                assert abs(rep.estimate) <= 5 * rep.std_error

    def test_haar_u2_entry_abs2_is_half(self):
        # |g_00|^2 ~ first coordinate of a uniform point on the complex
        # 2-sphere: brute-force oracle by normalized Gaussian vectors
        rng = np.random.default_rng(9)
        s = 50000
        by_id = _by_id(S.entry_labels(2), S.entry_moments(haar_batch(unitary(2), rng, s)))
        rep = by_id["entry2[0,0|0,0]"]
        v = rng.normal(size=(4 * s, 2)) + 1j * rng.normal(size=(4 * s, 2))
        oracle = np.mean(np.abs(v[:, 0]) ** 2 / np.sum(np.abs(v) ** 2, axis=1))
        assert abs(oracle - 0.5) < 0.01
        assert abs(rep.estimate - 0.5) <= 5 * rep.std_error

    def test_schedule_covers_all_pairs_for_u2(self):
        assert len(S.entry_moment_schedule(2)) == 4 + 6
        assert len(S.entry_moment_schedule(3)) == 9

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_label_per_statistic(self, n):
        mats = haar_batch(unitary(n), np.random.default_rng(n), 10)
        labels = S.entry_labels(n)
        assert len(labels) == len(set(labels)) == len(S.entry_moments(mats))


class TestMerge:
    @pytest.mark.parametrize("desc", [unitary(2), unitary(3), G.descriptor("SO", 3)])
    @pytest.mark.parametrize("cut", [2, 100, 500, 998])
    def test_two_halves_merge_to_the_whole(self, desc, cut):
        rng = np.random.default_rng(31)
        mats = G.power_batch(L.PerturbedHaarLaw(desc, 0.5).sample_batch(rng, 1000), 3)
        whole = S.entry_moments(mats)
        merged = S.merge(S.entry_moments(mats[:cut]), S.entry_moments(mats[cut:]))
        assert merged.sample_size == 1000
        np.testing.assert_allclose(merged.estimate, whole.estimate, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(merged.std_error, whole.std_error, rtol=1e-15, atol=0.0)

    def test_zero_spread_and_zero_statistics_stay_exact(self):
        # identity entries: every spread is 0, every off-diagonal mean exactly 0
        eye = np.broadcast_to(np.eye(3, dtype=np.complex128), (300, 3, 3))
        whole = S.entry_moments(eye)
        merged = S.merge(S.entry_moments(eye[:2]), S.entry_moments(eye[2:]))
        assert np.array_equal(merged.estimate, whole.estimate)
        assert np.array_equal(merged.std_error, np.zeros(len(whole)))
        # SO traces are real: the imaginary parts of both halves and of the merge are 0
        so3 = haar_batch(G.descriptor("SO", 3), np.random.default_rng(32), 400)
        traces = S.merge(S.trace_moments(so3[:150], 3), S.trace_moments(so3[150:], 3))
        assert np.all(traces.estimate.imag == 0.0)

    def test_unequal_point_masses_gain_spread(self):
        a = S.Estimates(np.array([1.0 + 0j]), np.zeros(1), 2)
        b = S.Estimates(np.array([3.0 + 0j]), np.zeros(1), 2)
        merged = S.merge(a, b)   # the sample 1, 1, 3, 3: mean 2, plug-in variance 1
        assert merged.estimate[0] == 2.0
        assert merged.std_error[0] == pytest.approx(np.sqrt(4 / 3) / 2)

    def test_mismatched_lengths_raise(self):
        a = S.Estimates(np.zeros(2, dtype=np.complex128), np.zeros(2), 5)
        with pytest.raises(ValueError, match="equal length"):
            S.merge(a, S.Estimates(np.zeros(3, dtype=np.complex128), np.zeros(3), 5))


class TestVerdictRule:
    def test_pass_iff_abs_z_within_threshold(self):
        assert not E._row(1, "x", -6.0, 5.0).passed
        assert E._row(1, "x", 5.0, 5.0).passed


class TestTwoSample:
    def test_identical_reports_give_zero(self):
        rng = np.random.default_rng(10)
        mats = haar_batch(unitary(2), rng, 200)
        reps = S.trace_moments(mats, 2)
        z = S.two_sample_test(reps, reps)
        assert z.shape == (4,) and np.all(z == 0.0)

    def test_equal_point_masses_give_zero(self):
        a = S.Estimates(np.array([1.0 + 0j]), np.array([0.0]), 100)
        assert S.two_sample_test(a, a).tolist() == [0.0]

    def test_distant_point_masses_fail(self):
        a = S.Estimates(np.array([1.0 + 0j]), np.array([0.0]), 100)
        b = S.Estimates(np.array([0.0 + 0j]), np.array([0.0]), 100)
        z = S.two_sample_test(a, b)
        assert not z[0] <= 5.0
        assert z[0] == np.inf

    def test_mismatched_lengths_raise(self):
        a = S.Estimates(np.zeros(1, complex), np.zeros(1), 10)
        b = S.Estimates(np.zeros(2, complex), np.zeros(2), 10)
        with pytest.raises(ValueError):
            S.two_sample_test(a, b)

    def test_haar_vs_haar_forty_statistics(self):
        rng = np.random.default_rng(11)
        s = 20000
        a = haar_batch(unitary(2), rng, s)
        b = haar_batch(unitary(2), rng, s)
        z = np.concatenate([S.two_sample_test(S.entry_moments(a), S.entry_moments(b)),
                            S.two_sample_test(S.trace_moments(a, 2), S.trace_moments(b, 2))])
        # 14 entry statistics and 2 x 2 trace statistics, one z each
        assert len(z) == len(S.entry_labels(2) + S.trace_labels(2)) == 18
        assert np.all(z <= 5.0)

    def test_symmetry_up_to_sign(self):
        rng = np.random.default_rng(12)
        x = haar_batch(unitary(2), rng, 500)
        y = haar_batch(unitary(2), rng, 500)
        ra, rb = S.trace_moments(x, 2), S.trace_moments(y, 2)
        ab = S.two_sample_test(ra, rb)
        ba = S.two_sample_test(rb, ra)
        assert np.all(ab >= 0.0)
        assert ab == pytest.approx(ba)

    def test_z_is_the_modulus_of_the_componentwise_scores(self):
        a = S.Estimates(np.array([0.3 - 0.4j]), np.array([0.03]), 100)
        b = S.Estimates(np.array([-0.1 + 0.1j]), np.array([0.04]), 100)
        z_re, z_im = 0.4 / 0.05, -0.5 / 0.05
        assert S.two_sample_test(a, b)[0] == pytest.approx(np.hypot(z_re, z_im), rel=1e-12)


class TestKolmogorovSmirnov:
    def test_evenly_spaced_passes(self):
        grid = (np.arange(1000) + 0.5) * TAU / 1000
        assert S.ks_uniform(grid) <= S.KS_THRESHOLD_1PCT

    def test_constant_sample_fails(self):
        assert S.ks_uniform(np.full(200, 1.0)) > S.KS_THRESHOLD_1PCT

    def test_uniform_draws_pass(self):
        rng = np.random.default_rng(13)
        assert S.ks_uniform(rng.uniform(0, TAU, 10000)) <= S.KS_THRESHOLD_1PCT

    def test_requires_minimum_size(self):
        with pytest.raises(ValueError):
            S.ks_uniform(np.ones(10))


class TestReportSerialization:
    def test_rejects_bad_std_error(self):
        with pytest.raises(ValueError):
            S.Estimates(np.zeros(1, complex), np.array([-1.0]), 10)
