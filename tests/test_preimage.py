"""psi, random preimages, the Weyl action, and the limit-law draws."""

import itertools
import math

import numpy as np
import pytest

from powerlimits import groups as G
from powerlimits import preimage as P
from powerlimits.samplers import MIXTURE_A, PerturbedHaarLaw
from oracles import rains_limit_batch, spectral_trace_moments

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)  # the coordinate swap

FAMILIES = [G.unitary(2), G.unitary(3), G.special_unitary(2),
            G.special_unitary(3), G.special_orthogonal_odd(3),
            G.special_orthogonal_odd(5)]


def enumerate_weyl(desc):
    """All Weyl elements as (perms, signs | None) arrays in the ``_weyl_draw``
    layout: n! permutations on U(n) and SU(n), 2^k k! signed ones on SO(2k+1)."""
    perms = np.array(list(itertools.permutations(range(P._weyl_size(desc)))))
    if not desc.is_real:
        return perms, None
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=perms.shape[1])))
    return np.repeat(perms, len(signs), axis=0), np.tile(signs, (len(perms), 1))


def act(desc, flags, torus, weyl=None):
    """Row i of (flags, torus) moved by row i of the Weyl arrays ``weyl``; by
    default every row by every Weyl element, row i * |W| + j by element j."""
    if weyl is None:
        w, s = len(enumerate_weyl(desc)[0]), len(torus)
        weyl = tuple(None if a is None else np.tile(a, (s, 1)) for a in enumerate_weyl(desc))
        flags, torus = np.repeat(flags, w, axis=0), np.repeat(torus, w, axis=0)
    return (P._act_flags(desc, flags, *weyl),
            P._act_angles(desc, P._full_angles(desc, torus), *weyl))


def in_group(desc, mats, tol=G.TAU_UNIT):
    """Every matrix unitary within ``tol``, real on SO, and of det 1 on SU and SO."""
    ok = G.unitarity_defect(mats) <= tol and not (desc.is_real and np.iscomplexobj(mats))
    return ok and (desc.family is G.Family.UNITARY
                   or float(np.max(np.abs(np.linalg.det(mats) - 1.0))) <= tol)


def in_torus(desc, mats, tol):
    """Per matrix, whether it is a torus element within ``tol``: at a regular point
    the torus is the centralizer, so this tests commuting with a regular one."""
    t = G.embed_batch(desc, 0.7 * np.arange(1, desc.torus_rank + 1))
    return np.max(np.abs(mats @ t - t @ mats), axis=(1, 2)) <= tol


def circular_distance(a, b):
    delta = np.abs(np.asarray(a) - np.asarray(b))
    return np.max(np.minimum(delta, 2 * np.pi - delta), axis=-1)


def weyl_converts(desc, source, target, tol=1e-6):
    """Per row, whether some Weyl element moves the preimage ``source`` to ``target``:
    angles within ``tol``, and V_w* V_target a torus element within ``tol``."""
    moved_flags, moved_torus = act(desc, *source)
    flags, torus = (np.repeat(x, len(moved_torus) // len(x), axis=0) for x in target)
    ok = ((circular_distance(moved_torus, torus) <= tol)
          & in_torus(desc, moved_flags.conj().swapaxes(-1, -2) @ flags, tol))
    return ok.reshape(len(target[1]), -1).any(axis=1)


class TestPsi:
    def test_identity_flag(self):
        desc = G.unitary(2)
        t = np.array([[0.4, 1.3]])
        out = P.psi_batch(np.eye(2, dtype=np.complex128)[None], t, desc)
        np.testing.assert_allclose(out, G.embed_batch(desc, t))

    def test_swap_matrix_swaps_diagonal(self):
        desc = G.unitary(2)
        alpha, beta = 0.5, 2.5
        out = P.psi_batch(SWAP[None], np.array([[alpha, beta]]), desc)[0]
        np.testing.assert_allclose(np.diag(out), [np.exp(1j * beta), np.exp(1j * alpha)],
                                   atol=1e-14)

    def test_a_conjugation(self):
        desc = G.unitary(2)
        t = np.array([[1.0, 2.0]])
        out = P.psi_batch(MIXTURE_A[None], t, desc)
        np.testing.assert_allclose(out, MIXTURE_A @ G.embed_batch(desc, t) @ MIXTURE_A.conj().T,
                                   atol=1e-14)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_so_pair_rotation_is_the_dense_product(self, n):
        # psi rotates column pairs of V; the reference multiplies by the dense embedding
        desc, rng = G.special_orthogonal_odd(n), np.random.default_rng(n)
        flags = G.haar_batch(desc, rng, 200)
        t = rng.uniform(0.0, 2 * np.pi, (200, desc.torus_rank))
        want = flags @ G.embed_batch(desc, t) @ flags.swapaxes(-1, -2)
        np.testing.assert_allclose(P.psi_batch(flags, t, desc), want, rtol=0.0, atol=1e-14)
        with pytest.raises(ValueError, match="angles per row"):
            P.psi_batch(flags, t[:, :-1], desc)


class TestWeylElements:
    @pytest.mark.parametrize("desc", FAMILIES, ids=repr)
    def test_enumeration_size(self, desc):
        # n! permutations on U(n) and SU(n); 2^k k! signed permutations on SO(2k+1)
        k = desc.torus_rank
        size = 2 ** k * math.factorial(k) if desc.is_real else math.factorial(desc.matrix_size)
        assert len(enumerate_weyl(desc)[0]) == size

    @pytest.mark.parametrize("desc", FAMILIES, ids=repr)
    def test_matrix_consistency(self, desc):
        rng = np.random.default_rng(20)
        t = rng.uniform(0, 2 * np.pi, (1, desc.torus_rank))
        eye = np.eye(desc.matrix_size, dtype=np.float64 if desc.is_real else np.complex128)
        # W^{-1} is the identity flag moved by the flag action
        w_inv, moved = act(desc, eye[None], t)
        wm = w_inv.conj().swapaxes(-1, -2)
        lhs = wm @ G.embed_batch(desc, t) @ w_inv
        np.testing.assert_allclose(lhs, G.embed_batch(desc, moved), atol=1e-12)
        if desc.family is not G.Family.UNITARY:
            assert np.max(np.abs(np.linalg.det(wm) - 1.0)) < 1e-12

    @pytest.mark.parametrize("desc", FAMILIES, ids=repr)
    def test_compose_and_inverse(self, desc):
        # the actions of the enumerated elements on torus angles are closed
        # under composition and inversion; at a regular point the moved
        # angles name exactly one element
        rng = np.random.default_rng(21)
        t = rng.uniform(0, 2 * np.pi, (10, desc.torus_rank))
        w1, w2 = P._weyl_draw(desc, 10, rng), P._weyl_draw(desc, 10, rng)
        w = len(enumerate_weyl(desc)[0])
        eye = np.broadcast_to(np.eye(desc.matrix_size), (10,) + (desc.matrix_size,) * 2)
        moved = lambda rows, weyl=None: act(desc, eye, rows, weyl)[1]

        def acting_as(source, target):
            hits = circular_distance(moved(source), np.repeat(target, w, axis=0)) <= 1e-10
            return hits.reshape(10, w).sum(axis=1)

        assert np.all(acting_as(t, moved(moved(t, w2), w1)) == 1)
        assert np.all(acting_as(moved(t, w1), t) == 1)

    def test_identity_element(self):
        desc = G.special_orthogonal_odd(5)
        t = np.array([[0.5, 2.0]])
        np.testing.assert_array_equal(
            P._act_angles(desc, t, np.array([[0, 1]]), np.array([[1.0, 1.0]])), t)


class TestWeylAction:
    def test_identity_element_fixes(self):
        desc = G.unitary(3)
        flags, torus = P.preimages_batch(G.haar_batch(desc, np.random.default_rng(22), 1), desc)
        out_flags, out_torus = act(desc, flags, torus, (np.array([[0, 1, 2]]), None))
        np.testing.assert_allclose(out_torus, torus)
        np.testing.assert_allclose(out_flags, flags)

    def test_u2_transposition(self):
        desc = G.unitary(2)
        alpha, beta = 0.7, 2.1
        flags, torus = np.eye(2, dtype=np.complex128)[None], np.array([[alpha, beta]])
        out_flags, out_torus = act(desc, flags, torus, (np.array([[1, 0]]), None))
        np.testing.assert_allclose(out_torus, [[beta, alpha]])
        np.testing.assert_allclose(P.psi_batch(out_flags, out_torus, desc),
                                   P.psi_batch(flags, torus, desc), atol=1e-12)

    @pytest.mark.parametrize("desc", [G.unitary(3), G.special_unitary(3),
                                      G.special_orthogonal_odd(5)], ids=repr)
    def test_psi_invariance_full_group(self, desc):
        mats = G.haar_batch(desc, np.random.default_rng(23), 100)
        flags, torus = act(desc, *P.preimages_batch(mats, desc))
        out = P.psi_batch(flags, torus, desc)
        assert in_group(desc, flags) and in_group(desc, out)
        w = len(torus) // len(mats)
        assert np.max(np.abs(out - np.repeat(mats, w, axis=0))) <= 1e-9

    def test_composition_is_group_action(self):
        rng = np.random.default_rng(24)
        for desc in FAMILIES:
            pre = P.preimages_batch(G.haar_batch(desc, rng, 1), desc)
            w1, w2 = (P._weyl_draw(desc, 1, rng) for _ in range(2))
            assert weyl_converts(desc, pre, act(desc, *act(desc, *pre, w2), w1)).all()


class TestBatchedWeylAction:
    @pytest.mark.parametrize("desc", FAMILIES, ids=repr)
    def test_batch_equals_per_element_action(self, desc):
        """The uniform batch is, row for row and bit for bit, the sorted
        preimage moved by the Weyl element drawn for that row."""
        s = 40
        mats = G.haar_batch(desc, np.random.default_rng(27), s)
        flags, torus = P.preimages_batch(mats, desc, np.random.default_rng(28))
        weyl = P._weyl_draw(desc, s, np.random.default_rng(28))
        moved_flags, moved_torus = act(desc, *P.preimages_batch(mats, desc), weyl)
        np.testing.assert_array_equal(moved_flags, flags)
        np.testing.assert_array_equal(moved_torus, torus)


class TestSortedPreimage:
    def test_sorted_diagonal(self):
        desc = G.unitary(2)
        _, torus = P.preimages_batch(np.diag([np.exp(2j), np.exp(1j)])[None], desc)
        np.testing.assert_allclose(torus, [[1.0, 2.0]], atol=1e-12)

    def test_already_sorted_diagonal_gives_identity_coset(self):
        desc = G.unitary(2)
        flags, _ = P.preimages_batch(np.diag([np.exp(1j), np.exp(2j)])[None], desc)
        np.testing.assert_allclose(np.abs(flags[0]), np.eye(2), atol=1e-12)

    def test_deterministic(self):
        desc = G.special_unitary(3)
        g = G.haar_batch(desc, np.random.default_rng(25), 1)
        (fa, ta), (fb, tb) = P.preimages_batch(g, desc), P.preimages_batch(g, desc)
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(fa, fb)

    def test_so_chamber(self):
        desc = G.special_orthogonal_odd(5)
        _, t = P.preimages_batch(G.haar_batch(desc, np.random.default_rng(26), 20), desc)
        assert np.all(t > 0) and np.all(t < np.pi)
        assert np.all(t[:, 0] < t[:, 1])

    def test_u_chamber_increasing(self):
        desc = G.unitary(3)
        _, t = P.preimages_batch(G.haar_batch(desc, np.random.default_rng(27), 20), desc)
        assert np.all(np.diff(t, axis=1) > 0)

    def test_degenerate_spectrum_rejected(self):
        u = np.diag([np.exp(1j), np.exp(1j + 5e-10j)])[None]
        with pytest.raises(P.DegenerateSpectrumError):
            P.preimages_batch(u, G.unitary(2))

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
        one_flag, one_torus = P.preimages_batch(mats[7:8], desc)
        np.testing.assert_array_equal(one_flag[0], flags[7])
        np.testing.assert_array_equal(one_torus[0], torus[7])

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
        u = np.broadcast_to(np.diag([np.exp(1j), np.exp(2j)]), (1000, 2, 2))
        _, torus = P.preimages_batch(u, G.unitary(2), np.random.default_rng(29))
        assert 420 <= np.sum(torus[:, 0] < 1.5) <= 580  # Binomial(1000, 1/2) at ~5 sigma

    def test_so3_sign_fifty_fifty(self):
        desc = G.special_orthogonal_odd(3)
        u = np.broadcast_to(G.embed_batch(desc, [[1.0]]), (1000, 3, 3))
        _, torus = P.preimages_batch(u, desc, np.random.default_rng(30))
        assert 420 <= np.sum(torus[:, 0] < np.pi) <= 580

    @pytest.mark.parametrize("desc", FAMILIES, ids=repr)
    def test_reconstruction_thousand_draws(self, desc):
        rng = np.random.default_rng(31)
        mats = PerturbedHaarLaw(desc, 0.0).sample_batch(rng, 1000)
        flags, torus = P.preimages_batch(mats, desc, rng)
        err = np.max(np.abs(P.psi_batch(flags, torus, desc) - mats))
        assert err <= 1e-8

    def test_postcondition_single(self):
        rng = np.random.default_rng(32)
        u = G.haar_batch(G.unitary(3), rng, 1)
        flags, torus = P.preimages_batch(u, G.unitary(3), rng)
        assert np.max(np.abs(P.psi_batch(flags, torus, G.unitary(3)) - u)) <= 1e-8


class TestConstructiveWeylConversion:
    @pytest.mark.parametrize("desc", [G.unitary(2), G.unitary(3), G.special_unitary(3),
                                      G.special_orthogonal_odd(5)], ids=repr)
    def test_sorted_to_uniform_via_weyl(self, desc):
        # the converting random Weyl element exists draw by draw
        rng = np.random.default_rng(33)
        mats = G.haar_batch(desc, rng, 100)
        sorted_pre, uniform_pre = P.preimages_batch(mats, desc), P.preimages_batch(mats, desc, rng)
        assert weyl_converts(desc, sorted_pre, uniform_pre).all()


class TestPowerPreimage:
    def test_m1_identity(self):
        desc = G.unitary(2)
        _, torus = P.preimages_batch(G.haar_batch(desc, np.random.default_rng(34), 1), desc)
        np.testing.assert_array_equal(G.wrap_angles(1 * torus), torus)

    def test_quarter_angle_wraps(self):
        assert G.wrap_angles(4 * np.array([np.pi / 2]))[0] == 0.0

    def test_compatible_with_matrix_power(self):
        rng = np.random.default_rng(35)
        m = 5  # same flag, torus angles times m: a preimage of u**m
        for desc in FAMILIES:
            mats = G.haar_batch(desc, rng, 1)
            flags, torus = P.preimages_batch(mats, desc, rng)
            lhs = P.psi_batch(flags, G.wrap_angles(m * torus), desc)
            np.testing.assert_allclose(lhs, G.power_batch(mats, m), atol=1e-8)


class TestLimitLawSample:
    def test_identity_flag_gives_diagonal(self):
        rng = np.random.default_rng(36)
        desc = G.unitary(2)
        out = P.limit_law_batch(np.eye(2, dtype=np.complex128)[None], desc, rng)[0]
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
        from powerlimits.stats import two_sample_test

        rng = np.random.default_rng(38)
        desc = G.unitary(2)
        s = 20000
        mats = PerturbedHaarLaw(desc, 0.0).sample_batch(rng, s)
        flags, _ = preimages_batch(mats, desc, rng)
        draws = limit_law_batch(flags, desc, rng)
        a = spectral_trace_moments(G.eigenangles_batch(draws), 3)
        b = spectral_trace_moments(rains_limit_batch(desc, rng, s), 3)
        assert np.all(two_sample_test(a, b) <= 5.0)


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

        assert np.all(two_sample_test(one_run(60), one_run(61)) <= 5.0)


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
        assert in_torus(desc, flags.conj().swapaxes(-1, -2) @ q, 1e-9 / gap).all()

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
        assert in_torus(desc, flags.swapaxes(-1, -2) @ q, 1e-6).all()

    def test_non_normal_row_fails_the_reconstruction_check(self):
        desc = G.unitary(2)
        mats = G.haar_batch(desc, np.random.default_rng(54), 50)
        mats[17] = [[1.0, 1.0], [0.0, np.exp(1j)]]
        with pytest.raises(P.DegenerateSpectrumError, match=r"^1 element\(s\) have preimage"):
            P.preimages_batch(mats, desc)
