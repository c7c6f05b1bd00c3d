"""Group descriptors, Haar sampling, torus embeddings, powers, eigenangles."""


import numpy as np
import pytest

from powerlimits import groups as G

ALL_DESCRIPTORS = [G.unitary(2), G.unitary(3), G.special_unitary(2),
                   G.special_unitary(3), G.special_orthogonal_odd(3),
                   G.special_orthogonal_odd(5)]


def haar_element(desc, rng):
    return G.GroupElement(G.haar_batch(desc, rng, 1)[0], desc)


def embed(desc, angles):
    """The torus element with coordinates ``angles``."""
    return G.embed_batch(desc, np.asarray(angles, dtype=np.float64)[None, :])[0]


def sorted_eigenangles(mat):
    return np.sort(G.eigenangles_batch(np.asarray(mat)[None, :, :])[0])


class TestDescriptors:
    def test_unitary_table(self):
        d = G.unitary(3)
        assert d.torus_rank == 3
        np.testing.assert_array_equal(d.monomials, np.eye(3))
        assert d.stationarity_exponent == 3

    def test_special_unitary_table(self):
        d = G.special_unitary(3)
        assert d.torus_rank == 2
        np.testing.assert_array_equal(d.monomials, [[1, 0], [0, 1], [-1, -1]])
        assert d.stationarity_exponent == 4

    def test_special_orthogonal_table(self):
        d = G.special_orthogonal_odd(5)
        assert d.torus_rank == 2
        np.testing.assert_array_equal(d.monomials, [[1, 0], [0, 1], [-1, 0], [0, -1], [0, 0]])
        assert d.stationarity_exponent == 5

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            G.special_unitary(1)
        with pytest.raises(ValueError):
            G.special_orthogonal_odd(4)

    def test_descriptor_lookup(self):
        assert G.descriptor("SU", 4).family is G.Family.SPECIAL_UNITARY


class TestHaar:
    @pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=repr)
    def test_invariants_across_draws(self, desc):
        rng = np.random.default_rng(100)
        mats = G.haar_batch(desc, rng, 1000)
        assert G.unitarity_defect(mats) <= G.TAU_UNIT
        if desc.family is not G.Family.UNITARY:
            assert np.max(np.abs(np.linalg.det(mats) - 1.0)) <= 1e-10
        if desc.is_real:
            assert not np.iscomplexobj(mats)

    def test_single_sample_is_element(self):
        rng = np.random.default_rng(4)
        g = haar_element(G.special_unitary(3), rng)
        assert abs(np.linalg.det(g.matrix) - 1.0) <= 1e-10

    def test_mean_trace_vanishes(self):
        # E Tr = 0 by translation invariance; CLT bound 5 sqrt(2/S)
        rng = np.random.default_rng(5)
        s = 100000
        mats = G.haar_batch(G.unitary(2), rng, s)
        mean = np.einsum("sii->s", mats).mean()
        assert abs(mean) <= 5 * np.sqrt(2.0 / s)


class TestTorusEmbed:
    def test_u2_zero_is_identity(self):
        np.testing.assert_allclose(embed(G.unitary(2), [0.0, 0.0]), np.eye(2))

    def test_su2_conjugate_pair(self):
        theta = 0.7
        e = embed(G.special_unitary(2), [theta])
        np.testing.assert_allclose(np.diag(e),
                                   [np.exp(1j * theta), np.exp(-1j * theta)], atol=1e-14)

    def test_so3_quarter_turn(self):
        e = embed(G.special_orthogonal_odd(3), [np.pi / 2])
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(e, expected, atol=1e-14)
        vals = np.sort_complex(np.linalg.eigvals(e))
        np.testing.assert_allclose(vals, np.sort_complex(np.array([1j, -1j, 1.0])), atol=1e-14)

    def test_rotation_sign_convention(self):
        # R(theta) carries eigenvalue exp(+i theta) on (1, -i)/sqrt(2)
        theta = 0.3
        e = embed(G.special_orthogonal_odd(3), [theta])
        vec = np.array([1.0, -1j, 0.0]) / np.sqrt(2)
        np.testing.assert_allclose(e @ vec, np.exp(1j * theta) * vec, atol=1e-14)

    def test_embed_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="expected 2 angles per row"):
            G.embed_batch(G.unitary(2), np.zeros((5, 1)))
        with pytest.raises(ValueError, match="expected 2 angles per row"):
            G.embed_phases(G.unitary(2), np.zeros((5, 3)))


class TestPower:
    def test_identity_power(self):
        g = G.identity(G.unitary(3))
        np.testing.assert_allclose(G.power(g, 17).matrix, np.eye(3))

    def test_diagonal_power(self):
        d = G.GroupElement(embed(G.unitary(2), [0.4, 1.1]), G.unitary(2))
        p = G.power(d, 3)
        np.testing.assert_allclose(np.diag(p.matrix),
                                   [np.exp(3j * 0.4), np.exp(3j * 1.1)], atol=1e-13)

    def test_unitarity_after_power(self):
        rng = np.random.default_rng(6)
        g = haar_element(G.unitary(4), rng)
        p = G.power(g, 8)
        assert G.unitarity_defect(p.matrix) <= 1e-9

    def test_power_is_additive(self):
        rng = np.random.default_rng(7)
        for desc in ALL_DESCRIPTORS:
            g = haar_element(desc, rng)
            a, b = int(rng.integers(1, 17)), int(rng.integers(1, 17))
            lhs = G.power(g, a + b).matrix
            rhs = G.power(g, a).matrix @ G.power(g, b).matrix
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("desc", [G.unitary(2), G.unitary(3)])
    def test_power_batch_matches_matrix_power(self, desc):
        mats = G.haar_batch(desc, np.random.default_rng(9), 64)
        np.testing.assert_allclose(G.power_batch(mats, 64), np.linalg.matrix_power(mats, 64),
                                   rtol=0, atol=1e-12)

    def test_power_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            G.power(G.identity(G.unitary(2)), 0)

    def test_drift_error_carries_defect(self):
        # an element admitted at the drift budget leaves it when squared
        desc = G.unitary(2)
        m = np.eye(2, dtype=complex) * (1.0 + 4e-9)
        g = G.GroupElement(m, desc, tolerance=G.TAU_DRIFT)
        with pytest.raises(G.PowerDriftError) as info:
            G.power(g, 4096)
        assert info.value.defect > G.TAU_DRIFT

    def test_batched_power_checks_drift(self):
        # U(4) Haar at m = 2^30 drifts to a defect of order 1e-7
        mats = G.haar_batch(G.unitary(4), np.random.default_rng(8), 16)
        G.power_batch(mats, 2 ** 20)
        with pytest.raises(G.PowerDriftError) as info:
            G.power_batch(mats, 2 ** 30)
        assert info.value.defect > G.TAU_DRIFT


class TestEigenangles:
    def test_identity(self):
        np.testing.assert_allclose(sorted_eigenangles(G.identity(G.unitary(3)).matrix), [0, 0, 0])

    def test_diag_i_minus_i(self):
        g = G.GroupElement(np.diag([1j, -1j]), G.unitary(2))
        np.testing.assert_allclose(sorted_eigenangles(g.matrix), [np.pi / 2, 3 * np.pi / 2],
                                   atol=1e-12)

    def test_so3_rotation(self):
        g = embed(G.special_orthogonal_odd(3), [1.0])
        np.testing.assert_allclose(sorted_eigenangles(g),
                                   np.sort([1.0, 2 * np.pi - 1.0, 0.0]), atol=1e-12)

    def test_spectral_mapping_under_power(self):
        rng = np.random.default_rng(8)
        for desc in ALL_DESCRIPTORS:
            g = haar_element(desc, rng)
            m = int(rng.integers(2, 9))
            lhs = sorted_eigenangles(G.power(g, m).matrix)
            rhs = np.sort(G.wrap_angles(m * sorted_eigenangles(g.matrix)))
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def monomial_angles(desc, t):
    """Angles of the N monomial values at the torus point ``t``."""
    return G.wrap_angles(desc.monomials @ np.asarray(t, dtype=np.float64))


class TestMonomialEval:
    def test_su2(self):
        theta = 2.2
        out = monomial_angles(G.special_unitary(2), [theta])
        np.testing.assert_allclose(np.sort(out),
                                   np.sort([theta, 2 * np.pi - theta]), atol=1e-12)

    def test_so3_contains_zero(self):
        out = monomial_angles(G.special_orthogonal_odd(3), [0.9])
        np.testing.assert_allclose(np.sort(out), np.sort([0.9, 2 * np.pi - 0.9, 0.0]), atol=1e-12)

    def test_u3_is_coordinates(self):
        t = [0.3, 1.7, 4.4]
        out = monomial_angles(G.unitary(3), t)
        np.testing.assert_allclose(out, t, atol=1e-12)

    @pytest.mark.parametrize("desc", [G.unitary(3), G.special_unitary(3),
                                      G.special_orthogonal_odd(5)], ids=repr)
    def test_matches_embedded_spectrum(self, desc):
        rng = np.random.default_rng(9)
        for _ in range(100):
            t = rng.uniform(0, 2 * np.pi, desc.torus_rank)
            via_monomials = np.sort(monomial_angles(desc, t))
            via_matrix = sorted_eigenangles(embed(desc, t))
            np.testing.assert_allclose(via_monomials, via_matrix, atol=1e-9)


class TestRainsLimit:
    def test_u1_uniform(self):
        rng = np.random.default_rng(10)
        angles = G.rains_limit_batch(G.unitary(1), rng, 5000)[:, 0]
        from powerlimits.stats import ks_uniform
        assert ks_uniform(angles).passed

    def test_su2_pair_structure(self):
        rng = np.random.default_rng(11)
        rows = G.rains_limit_batch(G.special_unitary(2), rng, 100)
        np.testing.assert_allclose(G.wrap_angles(rows.sum(axis=1)), 0.0, atol=1e-10)

    def test_so3_contains_angle_zero(self):
        rng = np.random.default_rng(12)
        rows = G.rains_limit_batch(G.special_orthogonal_odd(3), rng, 100)
        assert np.all(np.min(np.abs(rows), axis=1) == 0.0)

    @pytest.mark.parametrize("desc, mean, abs2", [(G.unitary(3), 0, 3),
                                                   (G.special_unitary(3), 0, 3),
                                                   (G.special_orthogonal_odd(5), 1, 5)],
                             ids=repr)
    def test_exact_trace_moments(self, desc, mean, abs2):
        from powerlimits.stats import spectral_trace_moments
        assert G.fixed_law_trace_moments(desc) == (mean, abs2)
        rng = np.random.default_rng(14)
        reports = spectral_trace_moments(G.rains_limit_batch(desc, rng, 100_000), 3)
        assert len(reports) == 6
        for r in reports:
            expect = abs2 if r.statistic.startswith("trace_abs2") else mean
            assert abs(r.estimate - expect) <= 5 * r.std_error, r.statistic

    @pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=repr)
    def test_haar_power_at_the_exponent_has_the_fixed_trace_moments(self, desc):
        # the stationarity exponent D is where Haar eigenvalue laws freeze
        from powerlimits.stats import spectral_trace_moments
        rng = np.random.default_rng(15)
        mats = G.power_batch(G.haar_batch(desc, rng, 20000), desc.stationarity_exponent)
        mean, abs2 = G.fixed_law_trace_moments(desc)
        for r in spectral_trace_moments(G.eigenangles_batch(mats), 3):
            expect = abs2 if r.statistic.startswith("trace_abs2") else mean
            assert abs(r.estimate - expect) <= 5 * r.std_error, r.statistic

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_su_haar_one_power_below_the_exponent_is_not_frozen(self, n):
        desc = G.special_unitary(n)
        rng = np.random.default_rng(16)
        angles = G.eigenangles_batch(G.haar_batch(desc, rng, 20000))
        tr = np.exp(1j * (desc.stationarity_exponent - 1) * angles).sum(axis=1)
        assert abs(tr.mean() - (-1) ** (n + 1)) < 0.05


class TestValidation:
    def test_torus_point_range(self):
        with pytest.raises(ValueError):
            G.TorusPoint([2 * np.pi])
        with pytest.raises(ValueError):
            G.TorusPoint([-0.1])

    def test_group_element_rejects_nonunitary(self):
        with pytest.raises(G.UnitarityError):
            G.GroupElement(np.eye(2) * 1.1, G.unitary(2))

    def test_su_rejects_wrong_determinant(self):
        with pytest.raises(G.UnitarityError):
            G.GroupElement(np.diag([1j, 1.0]), G.special_unitary(2))

    def test_so_rejects_complex(self):
        with pytest.raises(G.UnitarityError):
            G.GroupElement(np.diag([1j, -1j, 1.0]), G.special_orthogonal_odd(3))


class TestClosedFormHaar:
    @pytest.mark.parametrize("desc", ALL_DESCRIPTORS + [G.unitary(8)], ids=repr)
    def test_same_draw_as_gauged_qr(self, desc):
        """haar_batch's Q is the sign-fixed QR Q of the same Gaussian draw,
        with the same SU and SO fixes."""
        s, n = 400, desc.matrix_size
        mats = G.haar_batch(desc, np.random.default_rng(101), s)
        r = np.random.default_rng(101)
        z = r.normal(size=(s, n, n))
        if not desc.is_real:
            z = (z + 1j * r.normal(size=(s, n, n))) / np.sqrt(2.0)
        q, rr = np.linalg.qr(z)
        d = np.einsum("sii->si", rr)
        q = q * (d / np.abs(d))[:, None, :]
        if desc.family is G.Family.SPECIAL_UNITARY:
            q[:, :, 0] /= np.linalg.det(q)[:, None]
        elif desc.family is G.Family.SPECIAL_ORTHOGONAL_ODD:
            q[np.linalg.det(q) < 0, :, -1] *= -1.0
        np.testing.assert_allclose(mats, q, rtol=0, atol=1e-12)
        assert G.unitarity_defect(mats) <= 1e-14


class TestEigenangleOrder:
    @pytest.mark.parametrize("desc", [G.unitary(2), G.special_unitary(2), G.unitary(3)], ids=repr)
    def test_rows_in_eigvals_order(self, desc):
        """uniform_torus_rows permutes by position, so the rows keep LAPACK's
        order (here a != d on every row)."""
        from powerlimits.samplers import PerturbedHaarLaw
        mats = PerturbedHaarLaw(desc, 0.5).sample_batch(np.random.default_rng(102), 4000)
        mats = np.concatenate([mats, G.power_batch(mats, 5)])
        ref = G.wrap_angles(np.angle(np.linalg.eigvals(mats)))
        delta = np.abs(G.eigenangles_batch(mats) - ref)
        assert np.max(np.minimum(delta, 2 * np.pi - delta)) <= 1e-13
