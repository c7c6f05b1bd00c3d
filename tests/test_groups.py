"""Group descriptors, Haar sampling, torus embeddings, powers, eigenangles."""


import numpy as np
import pytest

from powerlimits import groups as G
from oracles import rains_limit_batch, spectral_trace_moments

ALL_DESCRIPTORS = [G.unitary(2), G.unitary(3), G.special_unitary(2),
                   G.special_unitary(3), G.special_orthogonal_odd(3),
                   G.special_orthogonal_odd(5)]


def haar_element(desc, rng):
    return G.haar_batch(desc, rng, 1)


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
        assert d.stationarity_exponent == 4

    @pytest.mark.parametrize("desc, roots, order", [
        (G.unitary(3), [[1, -1, 0], [1, 0, -1], [0, 1, -1]], 6),
        (G.special_unitary(3), [[1, -1], [2, 1], [1, 2]], 6),
        (G.special_orthogonal_odd(3), [[1]], 2),
        (G.special_orthogonal_odd(5), [[1, -1], [1, 1], [1, 0], [0, 1]], 8)], ids=repr)
    def test_positive_roots_and_weyl_order(self, desc, roots, order):
        # SO(2k+1): long roots e_j -+ e_l and short roots e_j; |W| = 2^k k!
        pairs = desc.root_pairs
        np.testing.assert_array_equal(desc.monomials[pairs[:, 0]] - desc.monomials[pairs[:, 1]],
                                      roots)
        assert desc.weyl_order == order

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
        assert abs(np.linalg.det(g[0]) - 1.0) <= 1e-10

    # a singular Gaussian draw, and one left unorthogonalized, far from unitary
    @pytest.mark.parametrize("qr, message", [(lambda z: None, "singular"),
                                             (lambda z: np.array(z, order="F"), "off the group")],
                             ids=["singular", "off-group"])
    def test_a_bad_draw_raises_after_one_draw(self, monkeypatch, qr, message):
        seen = []
        monkeypatch.setattr(G, "positive_qr_q", lambda z: seen.append(z.shape) or qr(z))
        with pytest.raises(G.UnitarityError, match=message):
            G.haar_batch(G.unitary(3), np.random.default_rng(0), 10)
        assert seen == [(10, 3, 3)]

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

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_so_blocks_and_pair_rotation(self, n):
        # embed_batch is rotate_pairs of the identity: both against dense 2x2 blocks
        desc, rng = G.special_orthogonal_odd(n), np.random.default_rng(n)
        t = rng.uniform(-np.pi, np.pi, (50, desc.torus_rank))
        c, s = np.cos(t), np.sin(t)
        dense = np.zeros((50, n, n))
        dense[:, -1, -1] = 1.0
        for j in range(desc.torus_rank):
            dense[:, 2 * j:2 * j + 2, 2 * j:2 * j + 2] = np.moveaxis(
                np.array([[c[:, j], -s[:, j]], [s[:, j], c[:, j]]]), -1, 0)
        assert np.array_equal(G.embed_batch(desc, t), dense)
        mats = rng.normal(size=(50, 4, n))
        np.testing.assert_allclose(G.rotate_pairs(desc, mats, t), mats @ dense,
                                   rtol=0.0, atol=1e-14)
        # any memory layout: the pairs are viewed on a C-ordered copy
        assert np.array_equal(G.rotate_pairs(desc, np.asfortranarray(mats), t),
                              G.rotate_pairs(desc, mats, t))

    @pytest.mark.parametrize("desc", [G.unitary(3), G.special_unitary(3)], ids=["U3", "SU3"])
    def test_embed_phases_equal_the_complex_exp(self, desc):
        t = np.random.default_rng(5).uniform(0.0, 2 * np.pi, (4096, desc.torus_rank))
        np.testing.assert_allclose(G.embed_phases(desc, t),
                                   np.exp(1j * (t @ desc.monomials.T.astype(np.float64))),
                                   rtol=0.0, atol=1e-15)

    def test_embed_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="expected 2 angles per row"):
            G.embed_batch(G.unitary(2), np.zeros((5, 1)))
        with pytest.raises(ValueError, match="expected 2 angles per row"):
            G.embed_phases(G.unitary(2), np.zeros((5, 3)))


class TestPower:
    def test_identity_power(self):
        eye = np.eye(3, dtype=np.complex128)[None]
        np.testing.assert_allclose(G.power_batch(eye, 17)[0], np.eye(3))

    def test_diagonal_power(self):
        p = G.power_batch(embed(G.unitary(2), [0.4, 1.1])[None], 3)[0]
        np.testing.assert_allclose(np.diag(p), [np.exp(3j * 0.4), np.exp(3j * 1.1)], atol=1e-13)

    def test_unitarity_after_power(self):
        rng = np.random.default_rng(6)
        p = G.power_batch(haar_element(G.unitary(4), rng), 8)
        assert G.unitarity_defect(p) <= 1e-9

    def test_power_is_additive(self):
        rng = np.random.default_rng(7)
        for desc in ALL_DESCRIPTORS:
            g = haar_element(desc, rng)
            a, b = int(rng.integers(1, 17)), int(rng.integers(1, 17))
            lhs = G.power_batch(g, a + b)
            rhs = G.power_batch(g, a) @ G.power_batch(g, b)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("desc", [G.unitary(2), G.unitary(3)])
    def test_power_batch_matches_matrix_power(self, desc):
        mats = G.haar_batch(desc, np.random.default_rng(9), 64)
        np.testing.assert_allclose(G.power_batch(mats, 64), np.linalg.matrix_power(mats, 64),
                                   rtol=0, atol=1e-12)

    def test_power_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            G.power_batch(np.eye(2, dtype=np.complex128)[None], 0)

    def test_drift_error_carries_defect(self):
        # an element inside the drift budget leaves it when squared
        g = np.eye(2, dtype=complex)[None] * (1.0 + 4e-9)
        assert G.unitarity_defect(g) <= G.TAU_DRIFT
        with pytest.raises(G.PowerDriftError) as info:
            G.power_batch(g, 4096)
        assert info.value.defect > G.TAU_DRIFT

    @pytest.mark.parametrize("desc", [G.unitary(3), G.unitary(5), G.special_orthogonal_odd(3)],
                             ids=repr)
    def test_a_nan_entry_is_a_nan_defect_and_a_drift_error(self, desc):
        # Python's max(0.0, nan) is 0.0, so the max over Gram entries must be numpy's
        mats = G.haar_batch(desc, np.random.default_rng(10), 8)
        mats[3, 1, 0] = np.nan
        assert np.isnan(G.unitarity_defect(mats))
        assert np.isnan(G.unitarity_defect(mats[3]))
        with pytest.raises(G.PowerDriftError) as info:
            G.power_batch(mats, 3)
        assert np.isnan(info.value.defect)

    def test_batched_power_checks_drift(self):
        # U(4) Haar at m = 2^30 drifts to a defect of order 1e-7
        mats = G.haar_batch(G.unitary(4), np.random.default_rng(8), 16)
        G.power_batch(mats, 2 ** 20)
        with pytest.raises(G.PowerDriftError) as info:
            G.power_batch(mats, 2 ** 30)
        assert info.value.defect > G.TAU_DRIFT


class TestEigenangles:
    def test_identity(self):
        np.testing.assert_allclose(sorted_eigenangles(np.eye(3, dtype=np.complex128)), [0, 0, 0])

    def test_diag_i_minus_i(self):
        np.testing.assert_allclose(sorted_eigenangles(np.diag([1j, -1j])),
                                   [np.pi / 2, 3 * np.pi / 2], atol=1e-12)

    def test_so3_rotation(self):
        g = embed(G.special_orthogonal_odd(3), [1.0])
        np.testing.assert_allclose(sorted_eigenangles(g),
                                   np.sort([1.0, 2 * np.pi - 1.0, 0.0]), atol=1e-12)

    def test_spectral_mapping_under_power(self):
        rng = np.random.default_rng(8)
        for desc in ALL_DESCRIPTORS:
            g = haar_element(desc, rng)
            m = int(rng.integers(2, 9))
            lhs = sorted_eigenangles(G.power_batch(g, m)[0])
            rhs = np.sort(G.wrap_angles(m * sorted_eigenangles(g[0])))
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
        angles = rains_limit_batch(G.unitary(1), rng, 5000)[:, 0]
        from powerlimits.stats import KS_THRESHOLD_1PCT, ks_uniform
        assert ks_uniform(angles) <= KS_THRESHOLD_1PCT

    def test_su2_pair_structure(self):
        rng = np.random.default_rng(11)
        rows = rains_limit_batch(G.special_unitary(2), rng, 100)
        np.testing.assert_allclose(G.wrap_angles(rows.sum(axis=1)), 0.0, atol=1e-10)

    def test_so3_contains_angle_zero(self):
        rng = np.random.default_rng(12)
        rows = rains_limit_batch(G.special_orthogonal_odd(3), rng, 100)
        assert np.all(np.min(np.abs(rows), axis=1) == 0.0)

    @pytest.mark.parametrize("desc, mean, abs2", [(G.unitary(3), 0, 3),
                                                   (G.special_unitary(3), 0, 3),
                                                   (G.special_orthogonal_odd(5), 1, 5)],
                             ids=repr)
    def test_exact_trace_moments(self, desc, mean, abs2):
        from powerlimits.stats import trace_labels
        assert G.fixed_law_trace_moments(desc) == (mean, abs2)
        rng = np.random.default_rng(14)
        est = spectral_trace_moments(rains_limit_batch(desc, rng, 100_000), 3)
        assert len(est) == 6
        for label, estimate, se in zip(trace_labels(3), est.estimate, est.std_error):
            expect = abs2 if label.startswith("trace_abs2") else mean
            assert abs(estimate - expect) <= 5 * se, label

    @pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=repr)
    def test_haar_power_at_the_exponent_has_the_fixed_trace_moments(self, desc):
        # the stationarity exponent D is where Haar eigenvalue laws freeze
        from powerlimits.stats import trace_labels
        rng = np.random.default_rng(15)
        mats = G.power_batch(G.haar_batch(desc, rng, 20000), desc.stationarity_exponent)
        mean, abs2 = G.fixed_law_trace_moments(desc)
        est = spectral_trace_moments(G.eigenangles_batch(mats), 3)
        for label, estimate, se in zip(trace_labels(3), est.estimate, est.std_error):
            expect = abs2 if label.startswith("trace_abs2") else mean
            assert abs(estimate - expect) <= 5 * se, label

    @pytest.mark.parametrize("family, n, mean", [
        ("SU", 2, -1), ("SU", 3, 1), ("SU", 4, -1), ("SO", 3, 0), ("SO", 5, 0), ("SO", 7, 0),
        ("U", 2, 0), ("U", 3, 0), ("U", 4, 0)],
        ids=["2", "3", "4", "SO(3)", "SO(5)", "SO(7)", "U(2)", "U(3)", "U(4)"])
    def test_su_haar_one_power_below_the_exponent_is_not_frozen(self, family, n, mean):
        # E Tr(H^(D-1)), H Haar: (-1)^(n+1) on SU(n), 0 on SO(n); the fixed law's 0 and 1.
        # On U(n) both means are 0, but E|Tr(H^(n-1))|^2 = n - 1 against the fixed law's n
        desc = G.descriptor(family, n)
        rng = np.random.default_rng(16)
        angles = G.eigenangles_batch(G.haar_batch(desc, rng, 20000))
        tr = np.exp(1j * (desc.stationarity_exponent - 1) * angles).sum(axis=1)
        assert abs(tr.mean() - mean) < 0.05
        if family == "U":
            assert G.fixed_law_trace_moments(desc)[1] == n
            assert abs(np.mean(np.abs(tr) ** 2) - (n - 1)) < 0.1


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
