"""psi, random preimages, the Weyl action, and the limit-law draws."""

import math

import numpy as np
import pytest

from powerlimits import groups as G
from powerlimits import preimage as P
from powerlimits.samplers import MIXTURE_A, PerturbedHaarLaw

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)  # the coordinate swap

FAMILIES = [G.unitary(2), G.unitary(3), G.special_unitary(2),
            G.special_unitary(3), G.special_orthogonal_odd(3),
            G.special_orthogonal_odd(5)]


def haar_element(desc, rng):
    return G.GroupElement(G.haar_batch(desc, rng, 1)[0], desc)


def draw_weyl(weyl, rng):
    """A uniform draw from the list of all Weyl elements."""
    return weyl[int(rng.integers(len(weyl)))]


def circular_distance(a, b):
    delta = np.abs(np.asarray(a) - np.asarray(b))
    return np.max(np.minimum(delta, 2 * np.pi - delta))


class TestPsi:
    def test_identity_flag(self):
        desc = G.unitary(2)
        t = G.TorusPoint([0.4, 1.3])
        out = P.psi(G.identity(desc), t)
        np.testing.assert_allclose(out.matrix, G.embed_batch(desc, t.angles[None])[0])

    def test_swap_matrix_swaps_diagonal(self):
        desc = G.unitary(2)
        alpha, beta = 0.5, 2.5
        p = G.GroupElement(SWAP, desc)
        out = P.psi(p, G.TorusPoint([alpha, beta]))
        np.testing.assert_allclose(np.diag(out.matrix),
                                   [np.exp(1j * beta), np.exp(1j * alpha)], atol=1e-14)

    def test_a_conjugation(self):
        desc = G.unitary(2)
        a = G.GroupElement(MIXTURE_A, desc)
        t = G.TorusPoint([1.0, 2.0])
        d = G.embed_batch(desc, t.angles[None])[0]
        out = P.psi(a, t)
        np.testing.assert_allclose(out.matrix, MIXTURE_A @ d @ MIXTURE_A.conj().T, atol=1e-14)


class TestWeylElements:
    @pytest.mark.parametrize("desc", FAMILIES, ids=repr)
    def test_enumeration_size(self, desc):
        # n! permutations on U(n) and SU(n); 2^k k! signed permutations on SO(2k+1)
        k = desc.torus_rank
        size = 2 ** k * math.factorial(k) if desc.is_real else math.factorial(desc.matrix_size)
        assert len(P.enumerate_weyl(desc)) == size

    @pytest.mark.parametrize("desc", FAMILIES, ids=repr)
    def test_matrix_consistency(self, desc):
        rng = np.random.default_rng(20)
        t = rng.uniform(0, 2 * np.pi, desc.torus_rank)
        emb = G.embed_batch(desc, t[None])[0]
        eye = np.eye(desc.matrix_size, dtype=np.float64 if desc.is_real else np.complex128)
        for w in P.enumerate_weyl(desc):
            # W^{-1} is the identity flag moved by the flag action
            wm = P._act_flags(desc, eye[None], *w._arrays())[0].conj().T
            lhs = wm @ emb @ wm.conj().T
            rhs = G.embed_batch(desc, w.apply_torus(desc, t)[None])[0]
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)
            if desc.family is not G.Family.UNITARY:
                assert abs(np.linalg.det(wm) - 1.0) < 1e-12

    @pytest.mark.parametrize("desc", FAMILIES, ids=repr)
    def test_compose_and_inverse(self, desc):
        # the actions of the enumerated elements on torus angles are closed
        # under composition and inversion; at a regular point the moved
        # angles name exactly one element
        rng = np.random.default_rng(21)
        t = rng.uniform(0, 2 * np.pi, desc.torus_rank)
        weyl = P.enumerate_weyl(desc)

        def acting_as(source, target):
            return [w for w in weyl
                    if circular_distance(w.apply_torus(desc, source), target) <= 1e-10]

        for _ in range(10):
            w1, w2 = draw_weyl(weyl, rng), draw_weyl(weyl, rng)
            assert len(acting_as(t, w1.apply_torus(desc, w2.apply_torus(desc, t)))) == 1
            assert len(acting_as(w1.apply_torus(desc, t), t)) == 1

    def test_identity_element(self):
        desc = G.special_orthogonal_odd(5)
        w = P.WeylElement((0, 1), (1, 1))
        t = np.array([0.5, 2.0])
        np.testing.assert_array_equal(w.apply_torus(desc, t), t)


class TestWeylAction:
    def test_identity_element_fixes(self):
        rng = np.random.default_rng(22)
        g = haar_element(G.unitary(3), rng)
        pre = P.preimage_sorted(g)
        out = P.weyl_action(P.WeylElement((0, 1, 2)), pre)
        np.testing.assert_allclose(out.torus.angles, pre.torus.angles)
        np.testing.assert_allclose(out.flag.matrix, pre.flag.matrix)

    def test_u2_transposition(self):
        desc = G.unitary(2)
        alpha, beta = 0.7, 2.1
        pre = P.Preimage(G.identity(desc), G.TorusPoint([alpha, beta]))
        out = P.weyl_action(P.WeylElement((1, 0)), pre)
        np.testing.assert_allclose(out.torus.angles, [beta, alpha])
        np.testing.assert_allclose(P.psi(out.flag, out.torus).matrix,
                                   P.psi(pre.flag, pre.torus).matrix, atol=1e-12)

    @pytest.mark.parametrize("desc", [G.unitary(3), G.special_unitary(3),
                                      G.special_orthogonal_odd(5)], ids=repr)
    def test_psi_invariance_full_group(self, desc):
        rng = np.random.default_rng(23)
        weyl = P.enumerate_weyl(desc)
        for _ in range(100):
            g = haar_element(desc, rng)
            pre = P.preimage_sorted(g)
            for w in weyl:
                moved = P.weyl_action(w, pre)
                err = np.max(np.abs(P.psi(moved.flag, moved.torus).matrix - g.matrix))
                assert err <= 1e-9

    def test_composition_is_group_action(self):
        rng = np.random.default_rng(24)
        for desc in FAMILIES:
            weyl = P.enumerate_weyl(desc)
            g = haar_element(desc, rng)
            pre = P.preimage_sorted(g)
            w1, w2 = draw_weyl(weyl, rng), draw_weyl(weyl, rng)
            twice = P.weyl_action(w1, P.weyl_action(w2, pre))
            assert P.matching_weyl_element(pre, twice) is not None


class TestBatchedWeylAction:
    @pytest.mark.parametrize("desc", FAMILIES, ids=repr)
    def test_batch_equals_per_element_action(self, desc):
        """The uniform batch is, row for row and bit for bit, the sorted
        preimage moved by the Weyl element drawn for that row."""
        s = 40
        mats = G.haar_batch(desc, np.random.default_rng(27), s)
        flags, torus = P.preimages_batch(mats, desc, np.random.default_rng(28))
        perms, signs = P._weyl_draw(desc, s, np.random.default_rng(28))
        sorted_flags, sorted_torus = P.preimages_batch(mats, desc)
        for i in range(s):
            w = P.WeylElement(tuple(perms[i]), None if signs is None else tuple(signs[i]))
            moved = P.weyl_action(w, P.Preimage(G.GroupElement(sorted_flags[i], desc),
                                                G.TorusPoint(sorted_torus[i])))
            np.testing.assert_array_equal(moved.flag.matrix, flags[i])
            np.testing.assert_array_equal(moved.torus.angles, torus[i])


class TestSortedPreimage:
    def test_sorted_diagonal(self):
        desc = G.unitary(2)
        u = G.GroupElement(np.diag([np.exp(2j), np.exp(1j)]), desc)
        pre = P.preimage_sorted(u)
        np.testing.assert_allclose(pre.torus.angles, [1.0, 2.0], atol=1e-12)

    def test_already_sorted_diagonal_gives_identity_coset(self):
        desc = G.unitary(2)
        u = G.GroupElement(np.diag([np.exp(1j), np.exp(2j)]), desc)
        pre = P.preimage_sorted(u)
        np.testing.assert_allclose(np.abs(pre.flag.matrix), np.eye(2), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        g = haar_element(G.special_unitary(3), rng)
        a, b = P.preimage_sorted(g), P.preimage_sorted(g)
        np.testing.assert_array_equal(a.torus.angles, b.torus.angles)
        np.testing.assert_array_equal(a.flag.matrix, b.flag.matrix)

    def test_so_chamber(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            g = haar_element(G.special_orthogonal_odd(5), rng)
            pre = P.preimage_sorted(g)
            t = pre.torus.angles
            assert np.all(t > 0) and np.all(t < np.pi)
            assert t[0] < t[1]

    def test_u_chamber_increasing(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            g = haar_element(G.unitary(3), rng)
            t = P.preimage_sorted(g).torus.angles
            assert np.all(np.diff(t) > 0)

    def test_degenerate_spectrum_rejected(self):
        desc = G.unitary(2)
        u = G.GroupElement(np.diag([np.exp(1j), np.exp(1j + 5e-10j)]), desc)
        with pytest.raises(P.DegenerateSpectrumError):
            P.preimage_sorted(u)

    @pytest.mark.parametrize("desc", FAMILIES, ids=repr)
    def test_reconstruction_thousand_draws(self, desc):
        rng = np.random.default_rng(28)
        mats = PerturbedHaarLaw(desc, 0.0).sample_batch(rng, 1000)
        flags, torus = P.preimages_batch(mats, desc)
        err = np.max(np.abs(P.psi_batch(flags, torus, desc) - mats))
        assert err <= 1e-8


def _rotations(desc, angles, rng):
    """Stack of elements conjugate to the torus rows ``angles`` by Haar draws."""
    q = G.haar_batch(desc, rng, len(angles))
    return q @ G.embed_batch(desc, np.asarray(angles)) @ q.swapaxes(-1, -2)


SO_FAMILIES = [G.special_orthogonal_odd(n) for n in (3, 5, 7)]


class TestBatchedOrthogonalPreimage:
    @pytest.mark.parametrize("m", [1, 3, 64])
    @pytest.mark.parametrize("desc", SO_FAMILIES, ids=repr)
    def test_sorted_preimage_invariants(self, desc, m):
        rng = np.random.default_rng(40 + m)
        mats = G.power_batch(PerturbedHaarLaw(desc, 0.0).sample_batch(rng, 500), m)
        flags, torus = P.preimages_batch(mats, desc)
        assert np.all(np.diff(torus, axis=1) > 0)
        assert np.all((torus > 0) & (torus < np.pi))
        np.testing.assert_allclose(np.linalg.det(flags), 1.0, atol=1e-12)
        assert G.unitarity_defect(flags) <= 1e-12
        assert np.max(np.abs(P.psi_batch(flags, torus, desc) - mats)) <= 1e-8
        again_flags, again_torus = P.preimages_batch(mats, desc)
        np.testing.assert_array_equal(again_flags, flags)
        np.testing.assert_array_equal(again_torus, torus)
        one = P.preimage_sorted(G.GroupElement(mats[7], desc))
        np.testing.assert_array_equal(one.flag.matrix, flags[7])
        np.testing.assert_array_equal(one.torus.angles, torus[7])

    @pytest.mark.parametrize("desc, angles", [
        (G.special_orthogonal_odd(3), [1e-9]),
        (G.special_orthogonal_odd(3), [np.pi - 1e-9]),
        (G.special_orthogonal_odd(5), [1.0, 1.0]),
    ], ids=["near-0", "near-pi", "coincident-pair"])
    def test_degenerate_rejected(self, desc, angles):
        mats = _rotations(desc, [angles], np.random.default_rng(41))
        with pytest.raises(P.DegenerateSpectrumError):
            P.preimages_batch(mats, desc)

    def test_missing_fixed_axis_rejected(self):
        # det -1: the real eigenvalue is -1, so there is no +1 axis
        mat = np.diag([1.0, 1.0, -1.0]) @ G.embed_batch(G.special_orthogonal_odd(3), [[1.0]])
        with pytest.raises(P.DegenerateSpectrumError, match="do not split"):
            P.preimages_batch(mat, G.special_orthogonal_odd(3))

    def test_one_bad_row_fails_the_batch(self):
        desc = G.special_orthogonal_odd(3)
        rng = np.random.default_rng(42)
        angles = rng.uniform(0.1, np.pi - 0.1, size=(1000, 1))
        angles[613] = 1e-9
        with pytest.raises(P.DegenerateSpectrumError, match=r"^1 element\(s\)"):
            P.preimages_batch(_rotations(desc, angles, rng), desc)


class TestUniformPreimage:
    def test_u2_diagonal_fifty_fifty(self):
        desc = G.unitary(2)
        u = G.GroupElement(np.diag([np.exp(1j), np.exp(2j)]), desc)
        rng = np.random.default_rng(29)
        first = sum(P.preimage_uniform(u, rng).torus.angles[0] < 1.5 for _ in range(1000))
        assert 420 <= first <= 580  # Binomial(1000, 1/2) at ~5 sigma

    def test_so3_sign_fifty_fifty(self):
        desc = G.special_orthogonal_odd(3)
        u = G.GroupElement(G.embed_batch(desc, [[1.0]])[0], desc)
        rng = np.random.default_rng(30)
        low = sum(P.preimage_uniform(u, rng).torus.angles[0] < np.pi for _ in range(1000))
        assert 420 <= low <= 580

    @pytest.mark.parametrize("desc", FAMILIES, ids=repr)
    def test_reconstruction_thousand_draws(self, desc):
        rng = np.random.default_rng(31)
        mats = PerturbedHaarLaw(desc, 0.0).sample_batch(rng, 1000)
        flags, torus = P.preimages_batch(mats, desc, rng)
        err = np.max(np.abs(P.psi_batch(flags, torus, desc) - mats))
        assert err <= 1e-8

    def test_postcondition_single(self):
        rng = np.random.default_rng(32)
        u = haar_element(G.unitary(3), rng)
        pre = P.preimage_uniform(u, rng)
        err = np.max(np.abs(P.psi(pre.flag, pre.torus).matrix - u.matrix))
        assert err <= 1e-8


class TestConstructiveWeylConversion:
    @pytest.mark.parametrize("desc", [G.unitary(2), G.unitary(3), G.special_unitary(3),
                                      G.special_orthogonal_odd(5)], ids=repr)
    def test_sorted_to_uniform_via_weyl(self, desc):
        # the converting random Weyl element exists draw by draw
        rng = np.random.default_rng(33)
        for _ in range(100):
            g = haar_element(desc, rng)
            ps, pu = P.preimage_sorted(g), P.preimage_uniform(g, rng)
            assert P.matching_weyl_element(ps, pu) is not None


class TestPowerPreimage:
    def test_m1_identity(self):
        rng = np.random.default_rng(34)
        g = haar_element(G.unitary(2), rng)
        pre = P.preimage_sorted(g)
        out = P.power_preimage(pre, 1)
        np.testing.assert_array_equal(out.torus.angles, pre.torus.angles)

    def test_quarter_angle_wraps(self):
        pre = P.Preimage(G.identity(G.unitary(1)), G.TorusPoint([np.pi / 2]))
        assert P.power_preimage(pre, 4).torus.angles[0] == 0.0

    def test_compatible_with_matrix_power(self):
        rng = np.random.default_rng(35)
        for desc in FAMILIES:
            g = haar_element(desc, rng)
            pre = P.preimage_uniform(g, rng)
            m = 5
            lhs = P.psi(pre.flag, P.power_preimage(pre, m).torus).matrix
            rhs = G.power(g, m).matrix
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)


class TestLimitLawSample:
    def test_identity_flag_gives_diagonal(self):
        rng = np.random.default_rng(36)
        desc = G.unitary(2)
        out = P.limit_law_batch(G.identity(desc).matrix[None], desc, rng)[0]
        off = out[~np.eye(2, dtype=bool)]
        np.testing.assert_allclose(off, 0.0, atol=1e-14)
        np.testing.assert_allclose(np.abs(np.diag(out)), 1.0, atol=1e-12)

    def test_a_flag_structure(self):
        rng = np.random.default_rng(37)
        out = P.limit_law_batch(MIXTURE_A[None], G.unitary(2), rng)[0]
        back = MIXTURE_A.conj().T @ out @ MIXTURE_A
        np.testing.assert_allclose(back[~np.eye(2, dtype=bool)], 0.0, atol=1e-12)

    def test_eigen_law_matches_monomial_limit(self):
        # two-sample check between eigenangles of limit draws and the
        # monomial limit sampler
        from powerlimits.preimage import limit_law_batch, preimages_batch
        from powerlimits.stats import spectral_trace_moments, two_sample_test

        rng = np.random.default_rng(38)
        desc = G.unitary(2)
        s = 20000
        mats = PerturbedHaarLaw(desc, 0.0).sample_batch(rng, s)
        flags, _ = preimages_batch(mats, desc, rng)
        draws = limit_law_batch(flags, desc, rng)
        a = spectral_trace_moments(G.eigenangles_batch(draws), 3)
        b = spectral_trace_moments(G.rains_limit_batch(desc, rng, s), 3)
        assert all(v.passed for v in two_sample_test(a, b, 5.0))


class TestSameConstructionSanity:
    def test_uniform_vs_uniform_independent_runs(self):
        # two independent uniform-preimage limit batches agree, of course
        from powerlimits.preimage import limit_law_batch, preimages_batch
        from powerlimits.stats import entry_moments, two_sample_test

        desc = G.unitary(2)
        s = 20000

        def one_run(seed):
            rng = np.random.default_rng(seed)
            flags, _ = preimages_batch(PerturbedHaarLaw(desc, 0.0).sample_batch(rng, s), desc, rng)
            return entry_moments(limit_law_batch(flags, desc, rng))

        verdicts = two_sample_test(one_run(60), one_run(61), 5.0)
        assert all(v.passed for v in verdicts)


class TestNoAtoms:
    def test_both_constructions_spread_mass(self):
        # 100-cell histogram of torus marginals: no cell above 10x uniform
        rng = np.random.default_rng(39)
        desc = G.unitary(2)
        s = 20000
        mats = PerturbedHaarLaw(desc, 0.0).sample_batch(rng, s)
        for use_rng in (None, rng):
            _, torus = P.preimages_batch(mats, desc, use_rng)
            for j in range(desc.torus_rank):
                counts, _ = np.histogram(torus[:, j], bins=100, range=(0, 2 * np.pi))
                assert counts.max() <= 10 * s / 100


class TestClosedFormPreimages:
    """U(2), SU(2) and SO(3) take closed forms instead of np.linalg.eig.
    Flags are compared as cosets: the flag of u = Q embed(t) Q^{-1}, t in the
    sorted chamber, must lie in Q's coset."""

    @staticmethod
    def _conjugated(desc, angles, seed):
        q = G.haar_batch(desc, np.random.default_rng(seed), len(angles))
        return q, P.psi_batch(q, np.asarray(angles, dtype=np.float64), desc)

    @pytest.mark.parametrize("gap", [1.0, 1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("desc", [G.unitary(2), G.special_unitary(2)], ids=repr)
    def test_unitary_2x2_down_to_small_gaps(self, desc, gap):
        s = 300
        if desc.family is G.Family.SPECIAL_UNITARY:
            angles = np.full((s, 1), np.pi - 0.5 * gap)  # spectrum e^{+-i(pi - gap/2)}
        else:
            lo = np.random.default_rng(50).uniform(0.1, 3.0, size=s)
            angles = np.stack([lo, lo + gap], axis=1)
        q, mats = self._conjugated(desc, angles, 51)
        flags, torus = P.preimages_batch(mats, desc)
        np.testing.assert_allclose(torus, angles, rtol=0, atol=1e-9)
        assert np.max(np.abs(P.psi_batch(flags, torus, desc) - mats)) <= 1e-13
        assert G.unitarity_defect(flags) <= 1e-14
        for i in range(0, s, 37):
            assert P.same_flag_coset(G.GroupElement(flags[i], desc), G.GroupElement(q[i], desc),
                                     tol=1e-9 / gap)

    @pytest.mark.parametrize("theta", [1e-7, 1e-5, 0.5, np.pi - 1e-7])
    def test_so3_axis_angle_preimage(self, theta):
        desc = G.special_orthogonal_odd(3)
        s = 300
        q, mats = self._conjugated(desc, np.full((s, 1), theta), 52)
        for rng in (None, np.random.default_rng(53)):
            flags, torus = P.preimages_batch(mats, desc, rng)
            assert np.max(np.abs(P.psi_batch(flags, torus, desc) - mats)) <= 1e-13
            assert G.unitarity_defect(flags) <= 1e-14
        flags, torus = P.preimages_batch(mats, desc)
        np.testing.assert_allclose(torus, theta, rtol=1e-9, atol=0)
        np.testing.assert_allclose(np.linalg.det(flags), 1.0, rtol=0, atol=1e-14)
        for i in range(0, s, 37):
            assert P.same_flag_coset(G.GroupElement(flags[i], desc), G.GroupElement(q[i], desc))

    def test_non_normal_row_fails_the_reconstruction_check(self):
        desc = G.unitary(2)
        mats = G.haar_batch(desc, np.random.default_rng(54), 50)
        mats[17] = [[1.0, 1.0], [0.0, np.exp(1j)]]
        with pytest.raises(P.DegenerateSpectrumError, match=r"^1 element\(s\) have preimage"):
            P.preimages_batch(mats, desc)
