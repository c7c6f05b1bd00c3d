"""Estimator and verdict machinery."""

import itertools

import numpy as np
import pytest

from powerlimits import stats as S
from powerlimits.groups import haar_batch, unitary
from powerlimits.torus import AngleSample

TAU = 2 * np.pi


class TestEmpiricalFourier:
    def test_point_mass_at_zero(self):
        a = AngleSample(2, np.zeros((100, 2)))
        rep = S.empirical_fourier(a, (1, 0))
        assert rep.estimate == 1.0
        assert rep.std_error == 0.0

    def test_zero_lattice_point(self):
        rng = np.random.default_rng(0)
        a = AngleSample(1, rng.uniform(0, TAU, (50, 1)))
        rep = S.empirical_fourier(a, (0,))
        assert rep.estimate == pytest.approx(1.0)

    def test_uniform_clt_bound(self):
        rng = np.random.default_rng(1)
        s = 100000
        a = AngleSample(2, rng.uniform(0, TAU, (s, 2)))
        rep = S.empirical_fourier(a, (2, 1))
        assert abs(rep.estimate) <= 5.0 / np.sqrt(s)

    def test_transform_convention_sign(self):
        # estimate at p targets the series coefficient a_p: for density
        # 1 + cos(theta - 0.5) the coefficient at p=1 is exp(-0.5j)/2
        rng = np.random.default_rng(2)
        s = 200000
        theta = rng.uniform(0, TAU, 2 * s)
        keep = rng.uniform(0, 2, 2 * s) < 1 + np.cos(theta - 0.5)
        a = AngleSample(1, theta[keep][:s, None])
        rep = S.empirical_fourier(a, (1,))
        assert abs(rep.estimate - 0.5 * np.exp(-0.5j)) < 5 * rep.std_error

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(0, TAU, (500, 2))
        a = S.empirical_fourier(AngleSample(2, rows), (1, 2))
        b = S.empirical_fourier(AngleSample(2, rows[::-1]), (1, 2))
        assert a.estimate == pytest.approx(b.estimate, abs=1e-15)
        assert a.std_error == pytest.approx(b.std_error, abs=1e-15)


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
        a = S.empirical_fourier(rows, (1, -2))
        b = S.empirical_fourier(rows, (-1, 2))
        assert b.estimate == pytest.approx(a.estimate.conjugate(), abs=1e-12)
        assert b.std_error == pytest.approx(a.std_error, abs=1e-12)


class TestTraceMoments:
    def test_identity_sample(self):
        mats = np.broadcast_to(np.eye(3, dtype=complex), (10, 3, 3))
        reps = S.trace_moments(mats, 1)
        by_id = {r.statistic: r for r in reps}
        assert list(by_id) == ["trace[1]", "trace_abs2[1]"]
        assert by_id["trace[1]"].estimate == pytest.approx(3.0)
        assert by_id["trace_abs2[1]"].estimate == pytest.approx(9.0)

    def test_so_traces_are_real(self):
        from powerlimits.groups import special_orthogonal_odd
        rng = np.random.default_rng(4)
        mats = haar_batch(special_orthogonal_odd(3), rng, 200)
        reps = {r.statistic: r for r in S.trace_moments(mats, 2)}
        assert reps["trace[1]"].estimate.imag == 0.0
        assert reps["trace[2]"].estimate.imag == 0.0
        assert all(r.estimate.imag == 0.0 for r in S.entry_moments(mats))

    def test_haar_u2_trace_second_moment(self):
        # E |Tr g|^2 = 1 for Haar U(2); oracle is an independent Haar run
        # at ten times the sample size
        rng = np.random.default_rng(5)
        s = 20000
        small = {r.statistic: r for r in S.trace_moments(haar_batch(unitary(2), rng, s), 1)}
        big = {r.statistic: r for r in S.trace_moments(haar_batch(unitary(2), rng, 10 * s), 1)}
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
        for ra, rb in zip(a, b):
            assert abs(ra.estimate - rb.estimate) <= 1e-10

    def test_spectral_route_agrees(self):
        from powerlimits.groups import eigenangles_batch
        rng = np.random.default_rng(7)
        mats = haar_batch(unitary(3), rng, 500)
        a = S.trace_moments(mats, 3)
        b = S.spectral_trace_moments(eigenangles_batch(mats), 3)
        for ra, rb in zip(a, b):
            assert ra.statistic == rb.statistic
            assert abs(ra.estimate - rb.estimate) <= 1e-9


class TestEntryMoments:
    def test_identity_sample(self):
        mats = np.broadcast_to(np.eye(2, dtype=complex), (10, 2, 2))
        by_id = {r.statistic: r for r in S.entry_moments(mats)}
        assert by_id["entry[0,0]"].estimate == pytest.approx(1.0)
        assert by_id["entry[0,1]"].estimate == pytest.approx(0.0)

    def test_haar_first_moments_vanish(self):
        rng = np.random.default_rng(8)
        s = 50000
        by_id = {r.statistic: r for r in S.entry_moments(haar_batch(unitary(2), rng, s))}
        for j in range(2):
            for k in range(2):
                rep = by_id[f"entry[{j},{k}]"]
                assert abs(rep.estimate) <= 5 * rep.std_error

    def test_haar_u2_entry_abs2_is_half(self):
        # |g_00|^2 ~ first coordinate of a uniform point on the complex
        # 2-sphere: brute-force oracle by normalized Gaussian vectors
        rng = np.random.default_rng(9)
        s = 50000
        by_id = {r.statistic: r for r in S.entry_moments(haar_batch(unitary(2), rng, s))}
        rep = by_id["entry2[0,0|0,0]"]
        v = rng.normal(size=(4 * s, 2)) + 1j * rng.normal(size=(4 * s, 2))
        oracle = np.mean(np.abs(v[:, 0]) ** 2 / np.sum(np.abs(v) ** 2, axis=1))
        assert abs(oracle - 0.5) < 0.01
        assert abs(rep.estimate - 0.5) <= 5 * rep.std_error

    def test_schedule_covers_all_pairs_for_u2(self):
        assert len(S.entry_moment_schedule(2)) == 4 + 6
        assert len(S.entry_moment_schedule(3)) == 9


class TestVerdictRule:
    def test_pass_iff_abs_z_within_threshold(self):
        assert not S.TestVerdict("x", -6.0, 5.0).passed
        assert S.TestVerdict("x", 5.0, 5.0).passed


class TestTwoSample:
    def test_identical_reports_give_zero(self):
        rng = np.random.default_rng(10)
        mats = haar_batch(unitary(2), rng, 200)
        reps = S.trace_moments(mats, 2)
        verdicts = S.two_sample_test(reps, reps, 5.0)
        assert all(v.z_score == 0.0 and v.passed for v in verdicts)

    def test_distant_point_masses_fail(self):
        a = [S.MomentReport("x", 1.0 + 0j, 0.0, 100)]
        b = [S.MomentReport("x", 0.0 + 0j, 0.0, 100)]
        verdicts = S.two_sample_test(a, b, 5.0)
        assert not verdicts[0].passed
        assert verdicts[0].z_score == np.inf

    def test_mismatched_ids_raise(self):
        a = [S.MomentReport("x", 0.0, 0.0, 10)]
        b = [S.MomentReport("y", 0.0, 0.0, 10)]
        with pytest.raises(ValueError):
            S.two_sample_test(a, b)

    def test_haar_vs_haar_forty_statistics(self):
        rng = np.random.default_rng(11)
        s = 20000
        a = haar_batch(unitary(2), rng, s)
        b = haar_batch(unitary(2), rng, s)
        reps_a = S.entry_moments(a) + S.trace_moments(a, 2)
        reps_b = S.entry_moments(b) + S.trace_moments(b, 2)
        verdicts = S.two_sample_test(reps_a, reps_b, 5.0)
        # 14 entry statistics and 2 x 2 trace statistics, one verdict each
        assert len(verdicts) == 18
        assert [v.statistic for v in verdicts] == [r.statistic for r in reps_a]
        assert all(v.passed for v in verdicts)

    def test_symmetry_up_to_sign(self):
        rng = np.random.default_rng(12)
        x = haar_batch(unitary(2), rng, 500)
        y = haar_batch(unitary(2), rng, 500)
        ra, rb = S.trace_moments(x, 2), S.trace_moments(y, 2)
        ab = S.two_sample_test(ra, rb, 5.0)
        ba = S.two_sample_test(rb, ra, 5.0)
        for u, v in zip(ab, ba):
            assert u.z_score >= 0.0
            assert u.z_score == pytest.approx(v.z_score)

    def test_z_is_the_modulus_of_the_componentwise_scores(self):
        a = [S.MomentReport("x", 0.3 - 0.4j, 0.03, 100)]
        b = [S.MomentReport("x", -0.1 + 0.1j, 0.04, 100)]
        z_re, z_im = 0.4 / 0.05, -0.5 / 0.05
        assert S.two_sample_test(a, b)[0].z_score == pytest.approx(np.hypot(z_re, z_im), rel=1e-12)


class TestKolmogorovSmirnov:
    def test_evenly_spaced_passes(self):
        grid = (np.arange(1000) + 0.5) * TAU / 1000
        assert S.ks_uniform(grid).passed

    def test_constant_sample_fails(self):
        assert not S.ks_uniform(np.full(200, 1.0)).passed

    def test_uniform_draws_pass(self):
        rng = np.random.default_rng(13)
        assert S.ks_uniform(rng.uniform(0, TAU, 10000)).passed

    def test_requires_minimum_size(self):
        with pytest.raises(ValueError):
            S.ks_uniform(np.ones(10))


class TestReportSerialization:
    def test_rejects_bad_std_error(self):
        with pytest.raises(ValueError):
            S.MomentReport("t", 0.0, -1.0, 10)
