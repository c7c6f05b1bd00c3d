"""Non-Haar laws: rejection sampling, the U(2) mixture, symbolic densities."""

import itertools
import math

import numpy as np
import pytest

from powerlimits import samplers as L
from powerlimits import torus as T
from powerlimits.groups import (
    TAU_UNIT,
    descriptor,
    eigenangles_batch,
    embed_batch,
    haar_batch,
    power_batch,
    special_orthogonal_odd,
    special_unitary,
    unitarity_defect,
    unitary,
)
from powerlimits.preimage import uniform_torus_rows
from powerlimits.stats import (
    Estimates,
    empirical_fourier_many,
    entry_moments,
    lattice_ball,
    trace_moments,
    two_sample_test,
)
from oracles import (dict_density, dict_eigen_density, dict_symmetrize, fourier_coefficient,
                     spectral_trace_moments)

TAU = 2 * np.pi
# eigenangle rows of a law: from its matrices, or from the Weyl density where it applies
ROUTES = {"matrix": lambda law, rng, size: eigenangles_batch(law.sample_batch(rng, size)),
          "weyl": lambda law, rng, size: L.EigenangleLaw(law).sample_batch(rng, size)}


def _test_functions(mats):
    """The unbiasedness test functions: ReTr, (ReTr)^2, ReTr(g^2)."""
    tr = np.einsum("sii->s", mats).real
    tr2 = np.einsum("sii->s", mats @ mats).real
    return {"re_tr": tr, "re_tr_sq": tr ** 2, "re_tr_g2": tr2}


def _estimates(columns) -> Estimates:
    """The record of the mean and std/sqrt(S) of each (S,) value column."""
    size = columns[0].size
    return Estimates(np.array([c.mean() for c in columns], dtype=np.complex128),
                     np.array([np.std(c) / np.sqrt(size) for c in columns]), size)


def weighted_haar_reports(rng, desc, strength, size):
    """Importance-weighted Haar oracle for perturbed-Haar moments:
    E_law[f] = E_Haar[f * (1 + a ReTr/N)]."""
    mats = haar_batch(desc, rng, size)
    w = 1.0 + strength * np.real(np.einsum("sii->s", mats)) / desc.matrix_size
    return _estimates([vals * w for vals in _test_functions(mats).values()])


def direct_reports(mats):
    """The test functions' estimates, in ``_test_functions`` order."""
    return _estimates(list(_test_functions(mats).values()))


class TestPerturbedHaar:
    def test_strength_bound(self):
        with pytest.raises(ValueError):
            L.PerturbedHaarLaw(unitary(2), 1.5)

    def test_zero_strength_is_haar(self):
        # strength 0 is Haar itself, on haar_batch's own stream: no rejection round
        for desc in (unitary(2), unitary(5), special_unitary(3), special_orthogonal_odd(3)):
            got = L.PerturbedHaarLaw(desc, 0.0).sample_batch(np.random.default_rng(40), 300)
            assert np.array_equal(got, haar_batch(desc, np.random.default_rng(40), 300))

    def test_unbiased_against_weighted_oracle(self):
        rng = np.random.default_rng(41)
        desc, a = unitary(2), 0.5
        s = 100000
        law = L.PerturbedHaarLaw(desc, a)
        got = direct_reports(law.sample_batch(rng, s))
        oracle = weighted_haar_reports(rng, desc, a, s)
        assert np.all(two_sample_test(got, oracle) <= 5.0)
        # analytic cross-check: E ReTr = a E_Haar[(ReTr)^2]/N = a/(2N); re_tr comes first
        assert abs(got.estimate[0] - a / 4.0) <= 5 * got.std_error[0]

    def test_single_sample_valid(self):
        rng = np.random.default_rng(42)
        mats = L.PerturbedHaarLaw(unitary(3), -0.8).sample_batch(rng, 1)
        assert mats.shape == (1, 3, 3) and unitarity_defect(mats) <= TAU_UNIT


class TestMixtureU2:
    def test_support_in_torus_union_conjugate(self):
        rng = np.random.default_rng(43)
        law = L.MixtureU2Law()
        mats = law.sample_batch(rng, 500)
        back = L.MIXTURE_A.conj().T @ mats @ L.MIXTURE_A
        off = lambda m: np.max(np.abs(m[:, ~np.eye(2, dtype=bool)]), axis=1)
        assert np.all(np.minimum(off(mats), off(back)) <= 1e-8)

    def test_diagonal_branch(self):
        rng = np.random.default_rng(44)
        law = L.MixtureU2Law()
        mats = law.sample_batch(rng, 200)
        diag_mask = np.max(np.abs(mats[:, ~np.eye(2, dtype=bool)]), axis=1) <= 1e-12
        assert 60 <= diag_mask.sum() <= 140  # fair X at ~5 sigma

    def test_limit_sampler_eigenangles_uniform(self):
        from powerlimits.stats import KS_THRESHOLD_1PCT, ks_uniform
        rng = np.random.default_rng(45)
        law = L.MixtureU2Law()
        mats = law.sample_limit_batch(rng, 10000)
        angles = eigenangles_batch(mats)
        assert ks_uniform(angles.ravel()) <= KS_THRESHOLD_1PCT

    def test_power_matches_limit(self):
        rng = np.random.default_rng(46)
        law = L.MixtureU2Law()
        s = 30000
        powered = power_batch(law.sample_batch(rng, s), 8)
        limit = law.sample_limit_batch(rng, s)
        a = trace_moments(powered, 2)
        b = trace_moments(limit, 2)
        assert np.all(two_sample_test(a, b) <= 5.0)

    def test_single_draws(self):
        rng = np.random.default_rng(47)
        law = L.MixtureU2Law()
        for mats in (law.sample_batch(rng, 1), law.sample_limit_batch(rng, 1)):
            assert mats.shape == (1, 2, 2) and unitarity_defect(mats) <= TAU_UNIT

    def test_branch_rows_equal_the_complex_exp(self):
        rng = np.random.default_rng(49)
        x = rng.integers(0, 2, size=4096).astype(bool)
        t1 = rng.uniform(0.0, TAU, (int(x.sum()), 2))
        t2 = rng.uniform(0.0, TAU, (x.size - len(t1), 2))
        old = np.empty((x.size, 4), dtype=np.complex128)
        old[x] = np.exp(1j * t1) @ L._BRANCH_OUTER[0]
        old[~x] = np.exp(1j * t2) @ L._BRANCH_OUTER[1]
        np.testing.assert_allclose(L._mixture_rows(x, t1, t2), old.reshape(-1, 2, 2),
                                   rtol=0.0, atol=1e-15)

    def test_rank_one_table_is_the_conjugation(self):
        z = np.exp(1j * np.random.default_rng(48).uniform(0.0, TAU, size=(100, 2)))
        conj = L.MIXTURE_A @ (z[:, :, None] * np.eye(2)) @ L.MIXTURE_A.conj().T
        assert np.max(np.abs((z @ L._BRANCH_OUTER[1]).reshape(-1, 2, 2) - conj)) <= 1e-14
        assert np.array_equal((z @ L._BRANCH_OUTER[0]).reshape(-1, 2, 2)[:, [0, 1], [0, 1]], z)

    def test_each_branch_is_drawn_for_its_own_rows(self):
        class Counting:
            """A density that records the sizes it is asked for and its draws."""

            def __init__(self, density):
                self.density, self.rank, self.sizes, self.rows = density, density.rank, [], []

            def sample(self, rng, size):
                self.sizes.append(size)
                out = self.density.sample(rng, size)
                self.rows.append(out.rows)
                return out

        d1 = Counting(L.default_mixture_marginal())
        d2 = Counting(dict_density(2, {(0, 0): 1.0, (1, 0): 0.3, (-1, 0): 0.3}))
        law = L.MixtureU2Law(d1, d2)
        size = 1001
        mats = law.sample_batch(np.random.default_rng(49), size)
        x = np.random.default_rng(49).integers(0, 2, size=size).astype(bool)
        assert d1.sizes == [x.sum()] and d2.sizes == [size - x.sum()]
        desc = unitary(2)
        assert np.allclose(mats[x], embed_batch(desc, d1.rows[0]), atol=1e-14, rtol=0)
        conj = L.MIXTURE_A @ embed_batch(desc, d2.rows[0]) @ L.MIXTURE_A.conj().T
        assert np.allclose(mats[~x], conj, atol=1e-14, rtol=0)

    @staticmethod
    def _both_branches_then_where(law, rng, size):
        """The mixture drawn with both branches at full size, then one kept per row."""
        x = rng.integers(0, 2, size=size).astype(bool)
        diag1 = embed_batch(law.descriptor, law.d1.sample(rng, size).rows)
        diag2 = embed_batch(law.descriptor, law.d2.sample(rng, size).rows)
        return np.where(x[:, None, None], diag1, L.MIXTURE_A @ diag2 @ L.MIXTURE_A.conj().T)

    @pytest.mark.parametrize("seed", [50, 51])
    def test_same_law_as_drawing_both_branches(self, seed):
        rng = np.random.default_rng(seed)
        law = L.MixtureU2Law(d2=dict_density(2, {(0, 0): 1.0, (0, 1): 0.4j, (0, -1): -0.4j}))
        s = 50000
        new = law.sample_batch(rng, s)
        old = self._both_branches_then_where(law, rng, s)
        for moments in (entry_moments, lambda m: trace_moments(m, 3)):
            assert np.all(two_sample_test(moments(new), moments(old)) <= 5.0)

    def test_limit_stream_is_unchanged(self):
        law = L.MixtureU2Law()
        new = law.sample_limit_batch(np.random.default_rng(52), 500)
        rng = np.random.default_rng(52)
        x = rng.integers(0, 2, size=500).astype(bool)
        diag = embed_batch(law.descriptor, rng.uniform(0.0, TAU, size=(500, 2)))
        old = np.where(x[:, None, None], diag, L.MIXTURE_A @ diag @ L.MIXTURE_A.conj().T)
        assert np.max(np.abs(new - old)) <= 1e-14


class TestSymbolicEigenDensity:
    def test_u2_haar_coefficients(self):
        d = L.symbolic_eigen_density(L.PerturbedHaarLaw(unitary(2), 0.0))
        assert d.coefficients == {(0, 0): 1.0, (1, -1): -0.5, (-1, 1): -0.5}
        assert T.stationarity_threshold(d) == 2

    def test_u2_perturbed_threshold(self):
        d = L.symbolic_eigen_density(L.PerturbedHaarLaw(unitary(2), 0.5))
        assert T.stationarity_threshold(d) == 3

    def test_normalized_and_nonnegative(self):
        for law in (L.PerturbedHaarLaw(unitary(3), 0.0), L.PerturbedHaarLaw(unitary(2), 0.5),
                    L.PerturbedHaarLaw(unitary(4), 1.0)):
            d = L.symbolic_eigen_density(law)
            assert d.coefficients[(0,) * d.rank] == 1.0
            grid = 360 if d.rank == 2 else 24
            assert d.grid_values(grid).min() >= -1e-9

    def test_unsupported_family(self):
        # the mixture has no symbolic density; U(5) (10 roots) and SO(7) (9) pass the
        # root cap of U(WEYL_MAX_N) = U(4) (6 roots)
        for law in (L.MixtureU2Law(), L.PerturbedHaarLaw(unitary(5), 0.0),
                    L.PerturbedHaarLaw(special_orthogonal_odd(7), 0.5)):
            with pytest.raises(ValueError):
                L.symbolic_eigen_density(law)

    @pytest.mark.parametrize("desc", [unitary(2), unitary(3), unitary(4), special_unitary(2),
                                      special_unitary(3), special_unitary(4),
                                      special_orthogonal_odd(3), special_orthogonal_odd(5)],
                             ids=repr)
    def test_haar_support_pins_the_stationarity_exponent(self, desc):
        # the pushforward through m keeps exactly the support points that m divides, so
        # Haar eigenvalues freeze from 1 + the largest gcd over the nonzero support on
        d = L.symbolic_eigen_density(L.PerturbedHaarLaw(desc, 0.0))
        assert 1 + max(math.gcd(*map(abs, p)) for p in d.coefficients if any(p)) == (
            desc.stationarity_exponent)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pushforward_gives_the_diaconis_shahshahani_moments(self, n):
        # E|Tr H^(mk)|^2 = N + sum_{j != l} E exp(i k (phi_j - phi_l)), phi the angles of
        # H^m, equals min(mk, N) for Haar H on U(N)
        d = L.symbolic_eigen_density(L.PerturbedHaarLaw(unitary(n), 0.0))
        eye = np.eye(n, dtype=np.int64)
        for m in (1, 2, 3):
            pushed = T.fourier_pushforward(d, m)
            for k in (1, 2, 3):
                got = n + sum(fourier_coefficient(pushed, (-k * (eye[j] - eye[l])).tolist())
                              for j in range(n) for l in range(n) if j != l)
                assert abs(got - min(m * k, n)) <= 1e-12

    @pytest.mark.parametrize("strength", [0.0, 0.5, 0.3, -1.0])
    @pytest.mark.parametrize("desc", [unitary(1), unitary(2), unitary(3), unitary(4),
                                      special_unitary(2), special_unitary(3), special_unitary(4),
                                      special_orthogonal_odd(3), special_orthogonal_odd(5)],
                             ids=repr)
    def test_box_expansion_matches_the_dict_convolutions(self, desc, strength):
        # the same support and values; bit for bit where every partial sum is exact:
        # at Haar (integers), and where a/(2N) is a short dyadic fraction
        got = L.symbolic_eigen_density(L.PerturbedHaarLaw(desc, strength)).coefficients
        ref = dict_eigen_density(desc, strength)
        assert got.keys() == ref.keys()
        assert max(abs(got[p] - ref[p]) for p in ref) <= 1e-15
        if strength == 0.0 or (strength in (0.5, -1.0) and desc.matrix_size in (1, 2, 4)):
            assert got == ref

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_torus_law_symmetrization_matches_the_dict_reference(self, n):
        # the shares of each coefficient are added in lattice order, as the reference
        # reads the density's coefficients, so the array route gives the reference's bits
        rng = np.random.default_rng(n)
        for degree in (1, 3):
            d = T.random_fourier_density(rng, n, degree)
            got = L.symbolic_eigen_density(L.TorusLaw(unitary(n), d)).coefficients
            assert got == dict_density(n, dict_symmetrize(unitary(n), d)).coefficients

    @pytest.mark.parametrize("desc", [special_unitary(2), special_unitary(3),
                                      special_orthogonal_odd(3), special_orthogonal_odd(5)],
                             ids=repr)
    def test_torus_law_weyl_symmetrization_matches_the_dict_reference(self, desc):
        # on SU the images of (p, 0) reach out to twice the degree; on SO the signs flip
        rng = np.random.default_rng(desc.matrix_size)
        for degree in (1, 3):
            d = T.random_fourier_density(rng, desc.torus_rank, degree)
            got = L.symbolic_eigen_density(L.TorusLaw(desc, d)).coefficients
            assert got == dict_density(desc.torus_rank, dict_symmetrize(desc, d)).coefficients

    @staticmethod
    def _assert_matches_symbolic(route, law, seed):
        """Uniform-preimage coefficients of ``route``'s rows of ``law`` within 5/sqrt(S)
        of the symbolic ones, over the degree-3 lattice ball."""
        rng = np.random.default_rng(seed)
        desc = law.descriptor
        d = L.symbolic_eigen_density(law)
        s = 100000
        coords = uniform_torus_rows(desc, ROUTES[route](law, rng, s), rng)
        lattice = lattice_ball(desc.torus_rank, 3)
        for estimate, p in zip(empirical_fourier_many(coords, lattice).estimate, lattice):
            expect = fourier_coefficient(d, tuple(p))
            assert abs(estimate - expect) <= 5.0 / np.sqrt(s)

    # The Weyl route and the symbolic density read the same root table, so the matrix
    # route (Haar QR, eigvals) is the independent check of that table on every family.
    @pytest.mark.parametrize("route, family, n, seed", [
        ("matrix", "U", 2, 48), ("weyl", "U", 1, 79), ("weyl", "U", 2, 53), ("weyl", "U", 3, 54), ("weyl", "U", 4, 55),
        ("matrix", "U", 3, 66), ("matrix", "U", 4, 67), ("matrix", "SU", 2, 68),
        ("matrix", "SU", 3, 69), ("matrix", "SO", 3, 70), ("matrix", "SO", 5, 71)],
        ids=["matrix-U2", "weyl-U1", "weyl-U2", "weyl-U3", "weyl-U4", "matrix-U3", "matrix-U4",
             "matrix-SU2", "matrix-SU3", "matrix-SO3", "matrix-SO5"])
    def test_empirical_haar_matches_symbolic(self, route, family, n, seed):
        self._assert_matches_symbolic(route, L.PerturbedHaarLaw(descriptor(family, n), 0.0), seed)

    @pytest.mark.parametrize("route, family, n, strength, seed", [
        ("matrix", "U", 2, 0.5, 49), ("weyl", "U", 1, 0.5, 80), ("weyl", "U", 2, 0.5, 56), ("weyl", "U", 2, -1.0, 57),
        ("weyl", "U", 3, 0.5, 58), ("weyl", "U", 3, -1.0, 59), ("weyl", "U", 4, 0.5, 60),
        ("weyl", "U", 4, -1.0, 61), ("matrix", "U", 3, 0.5, 72), ("matrix", "U", 4, 0.5, 73),
        ("matrix", "SU", 2, 0.5, 74), ("matrix", "SU", 3, 0.5, 75),
        ("matrix", "SO", 3, 0.5, 76), ("matrix", "SO", 3, -1.0, 77),
        ("matrix", "SO", 5, 0.5, 78)],
        ids=["matrix-U2-a0.5", "weyl-U1-a0.5", "weyl-U2-a0.5", "weyl-U2-a-1", "weyl-U3-a0.5", "weyl-U3-a-1",
             "weyl-U4-a0.5", "weyl-U4-a-1", "matrix-U3-a0.5", "matrix-U4-a0.5",
             "matrix-SU2-a0.5", "matrix-SU3-a0.5", "matrix-SO3-a0.5", "matrix-SO3-a-1",
             "matrix-SO5-a0.5"])
    def test_empirical_perturbed_matches_symbolic(self, route, family, n, strength, seed):
        self._assert_matches_symbolic(route, L.PerturbedHaarLaw(descriptor(family, n), strength),
                                      seed)

    # A random degree-2 density has no Weyl symmetry of its own, so the matrix route
    # (torus embedding, eigvals, a uniform Weyl element per row) checks the images.
    @pytest.mark.parametrize("family, n, seed", [("SU", 3, 81), ("SO", 5, 82)],
                             ids=["matrix-SU3-torus", "matrix-SO5-torus"])
    def test_empirical_torus_law_matches_symbolic(self, family, n, seed):
        desc = descriptor(family, n)
        d = T.random_fourier_density(np.random.default_rng(seed), desc.torus_rank, 2)
        self._assert_matches_symbolic("matrix", L.TorusLaw(desc, d), seed)


class TestEigenangleLaw:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("strength", [0.0, 0.5, -1.0])
    def test_trace_moments_match_the_matrix_route(self, n, strength):
        law = L.PerturbedHaarLaw(unitary(n), strength)
        rng = np.random.default_rng(62)
        s = 20000
        weyl, matrix = (spectral_trace_moments(ROUTES[route](law, rng, s), 4)
                        for route in ("weyl", "matrix"))
        assert np.all(two_sample_test(weyl, matrix) <= 5.0)

    @pytest.mark.parametrize("law", [
        L.PerturbedHaarLaw(unitary(5), 0.0), L.PerturbedHaarLaw(unitary(5), 0.5),
        L.PerturbedHaarLaw(special_unitary(3), 0.0),
        L.PerturbedHaarLaw(special_orthogonal_odd(3), 0.5),
        L.TorusLaw(unitary(2), L.default_mixture_marginal()), L.MixtureU2Law(),
        L.PointMassLaw(np.eye(3, dtype=np.complex128))],
        ids=["U5-haar", "U5-perturbed", "SU3-haar", "SO3-perturbed", "torus", "mixture",
             "point-mass"])
    def test_other_laws_keep_the_matrix_stream(self, law):
        got = L.EigenangleLaw(law).sample_batch(np.random.default_rng(63), 300)
        assert np.array_equal(got, ROUTES["matrix"](law, np.random.default_rng(63), 300))

    def test_rows_fill_across_chunks(self):
        law = L.EigenangleLaw(L.PerturbedHaarLaw(unitary(3), 0.5))
        rows = law.sample_batch(np.random.default_rng(64), 2 * L._WEYL_CHUNK + 5)
        assert rows.shape == (2 * L._WEYL_CHUNK + 5, 3)
        assert rows.min() >= 0.0 and rows.max() < TAU

    @staticmethod
    def _gap_simplex_rows(n, grid, rng):
        """Unwrapped rows with gaps 2 pi k/grid, k over the positive compositions of
        ``grid`` into n parts (so the roots of unity come first when n divides grid), each
        row turned by its own uniform first angle."""
        comps = [c for c in itertools.product(range(1, grid), repeat=n - 1) if sum(c) < grid]
        comps.sort(key=lambda c: max(c + (grid - sum(c),)) - min(c + (grid - sum(c),)))
        steps = TAU * np.array(comps, dtype=float).reshape(len(comps), n - 1) / grid
        first = rng.uniform(0.0, TAU, size=(len(comps), 1))
        return first + np.concatenate([np.zeros((len(comps), 1)), np.cumsum(steps, axis=1)],
                                      axis=1)

    def test_density_bound_is_attained_at_the_roots_of_unity(self):
        # r = weyl / q over a dense grid of the gap simplex: at most the bound, which the
        # equal gaps (the roots of unity, turned) attain; and at most (1 + |a|) times it
        # under the perturbation.  At a = 0 the bound is 2^N N^(3N-1)/Gamma(3N): 1, 1.07,
        # 1.30, 1.68.
        rng = np.random.default_rng(65)
        for n in (1, 2, 3, 4):
            desc = unitary(n)
            rows = self._gap_simplex_rows(n, 48, rng)
            assert len(rows) == math.comb(47, n - 1)
            bound = L._spacing_bound(desc, 0.0)
            assert bound == pytest.approx(2 ** n * n ** (3 * n - 1) / math.gamma(3 * n),
                                          rel=1e-12)
            ratio = L._spacing_ratio(desc, rows, 0.0)
            assert ratio.max() <= bound * (1 + 1e-12)
            assert ratio[0] == pytest.approx(bound, rel=1e-12)
            assert (ratio[1:] < bound * (1 - 1e-6)).all()
            for a in (0.5, -1.0):
                assert L._spacing_ratio(desc, rows, a).max() <= L._spacing_bound(desc, a) * (
                    1 + 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("strength", [0.0, 0.5])
    def test_ratio_has_mean_one_under_the_proposal(self, n, strength):
        # E_q[weyl / q] = 1 exactly when q is the proposal's normalized density; a slip in
        # its constant (N!, 2^N, Gamma(3N)) moves the mean by that factor
        rng = np.random.default_rng(66)
        ratio = L._spacing_ratio(unitary(n), L._spacing_proposal(rng, n, 200000), strength)
        se = ratio.std() / np.sqrt(ratio.size)
        assert abs(ratio.mean() - 1.0) <= 4 * se + 1e-12

    def test_weyl_density_has_mean_one_against_uniform_angles(self):
        rng = np.random.default_rng(67)
        for n in (2, 3, 4):
            theta = rng.uniform(0.0, TAU, size=(100000, n))
            # a probability density against uniform angles, as the ratio's constant assumes
            assert L._weyl_density(unitary(n), theta, 0.5).mean() == pytest.approx(1.0, abs=0.05)

    def test_proposal_rows_run_counterclockwise(self):
        x = L._spacing_proposal(np.random.default_rng(68), 4, 1000)
        assert x.shape == (1000, 4)
        assert (np.diff(x, axis=1) > 0).all() and (x[:, -1] - x[:, 0] < TAU).all()
        assert (x[:, 0] >= 0).all() and (x[:, 0] < TAU).all()

    @staticmethod
    def _smallest_gap_reports(rows):
        """Mean of the smallest circular gap of each row and of its square."""
        s = np.sort(rows, axis=1)
        gap = np.diff(s, axis=1, append=s[:, :1] + TAU).min(axis=1)
        return _estimates([gap, gap ** 2])

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("strength", [0.0, 0.5])
    def test_smallest_gap_matches_the_matrix_route(self, n, strength):
        # the collision region, where the proposal is thinnest, seen by its own statistic
        law = L.PerturbedHaarLaw(unitary(n), strength)
        rng = np.random.default_rng(69)
        s = 20000
        weyl, matrix = (self._smallest_gap_reports(ROUTES[route](law, rng, s))
                        for route in ("weyl", "matrix"))
        assert np.all(two_sample_test(weyl, matrix) <= 5.0)


class TestSU2SharpStationarity:
    """The free coordinate of Haar SU(2) has series 1 - (z^2 + conj)/2, so
    its powers freeze at m >= 3, with density 1 - cos(theta) at m = 2."""

    def test_su2_eigen_density_and_thresholds(self):
        rng = np.random.default_rng(50)
        desc = special_unitary(2)
        s = 100000
        mats = haar_batch(desc, rng, s)
        coords1 = uniform_torus_rows(desc, eigenangles_batch(mats), rng)
        rep = empirical_fourier_many(coords1, np.array([[2]]))
        assert abs(rep.estimate[0] - (-0.5)) <= 5 * rep.std_error[0]
        coords2 = uniform_torus_rows(desc, eigenangles_batch(power_batch(mats, 2)), rng)
        rep2 = empirical_fourier_many(coords2, np.array([[1]]))
        assert abs(rep2.estimate[0] - (-0.5)) <= 5 * rep2.std_error[0]  # not yet uniform
        coords3 = uniform_torus_rows(desc, eigenangles_batch(power_batch(mats, 3)), rng)
        for estimate in empirical_fourier_many(coords3, lattice_ball(1, 3)).estimate:
            assert abs(estimate) <= 5.0 / np.sqrt(s)


class TestEmptyBatches:
    @pytest.mark.parametrize("draw", [
        lambda rng: L.PerturbedHaarLaw(unitary(3), 0.0).sample_batch(rng, 0),
        lambda rng: L.PerturbedHaarLaw(special_orthogonal_odd(5), 0.5).sample_batch(rng, 0),
        lambda rng: L.MixtureU2Law().sample_batch(rng, 0),
        lambda rng: L.MixtureU2Law().sample_limit_batch(rng, 0),
        lambda rng: L.TorusLaw(unitary(2), L.default_mixture_marginal()).sample_batch(rng, 0),
        lambda rng: L.PointMassLaw(np.eye(3, dtype=np.complex128)).sample_batch(rng, 0),
        lambda rng: L.EigenangleLaw(L.PerturbedHaarLaw(unitary(3), 0.5)).sample_batch(rng, 0),
        lambda rng: L.EigenangleLaw(L.PerturbedHaarLaw(special_unitary(3), 0.5)).sample_batch(
            rng, 0),
        lambda rng: L.default_mixture_marginal().sample(rng, 0).rows,
        lambda rng: T.sample_grid(T.to_grid(L.default_mixture_marginal(), 12), rng, 0).rows,
    ], ids=["haar", "perturbed-SO5", "mixture", "mixture-limit", "torus", "point-mass",
            "eigenangle-weyl", "eigenangle-matrix", "fourier-density", "grid"])
    def test_size_zero_is_an_empty_batch_that_draws_nothing(self, draw):
        rng = np.random.default_rng(70)
        state = rng.bit_generator.state
        out = draw(rng)
        assert out.shape[0] == 0 and out.ndim >= 2
        assert rng.bit_generator.state == state


class TestOtherLaws:
    def test_torus_law_spectrum_is_prescribed(self):
        rng = np.random.default_rng(51)
        dens = L.default_mixture_marginal()
        law = L.TorusLaw(unitary(2), dens)
        mats = law.sample_batch(rng, 2000)
        off = np.max(np.abs(mats[:, ~np.eye(2, dtype=bool)]))
        assert off == 0.0  # embedded diagonals

    def test_point_mass(self):
        law = L.PointMassLaw(np.eye(2, dtype=np.complex128))
        mats = law.sample_batch(np.random.default_rng(52), 7)
        assert np.all(mats == np.eye(2))

    def test_default_marginal_is_degree_one_product(self):
        d = L.default_mixture_marginal()
        assert T.stationarity_threshold(d) == 2
        assert d.coefficients[(1, 1)] == 0.25
        assert d.coefficients[(1, 0)] == 0.5
