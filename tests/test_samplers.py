"""Non-Haar laws: rejection sampling, the U(2) mixture, symbolic densities."""

import math

import numpy as np
import pytest

from powerlimits import samplers as L
from powerlimits import torus as T
from powerlimits.groups import (
    GroupElement,
    eigenangles_batch,
    embed_batch,
    haar_batch,
    identity,
    power_batch,
    special_orthogonal_odd,
    special_unitary,
    unitary,
)
from powerlimits.preimage import uniform_torus_rows
from powerlimits.stats import (
    empirical_fourier_many,
    entry_moments,
    lattice_ball,
    spectral_trace_moments,
    trace_moments,
    two_sample_test,
)

TAU = 2 * np.pi
# eigenangle rows of a law: from its matrices, or from the Weyl density where it applies
ROUTES = {"matrix": lambda law, rng, size: eigenangles_batch(law.sample_batch(rng, size)),
          "weyl": lambda law, rng, size: L.EigenangleLaw(law).sample_batch(rng, size)}


def _test_functions(mats):
    """The unbiasedness test functions: ReTr, (ReTr)^2, ReTr(g^2)."""
    tr = np.einsum("sii->s", mats).real
    tr2 = np.einsum("sii->s", mats @ mats).real
    return {"re_tr": tr, "re_tr_sq": tr ** 2, "re_tr_g2": tr2}


def weighted_haar_reports(rng, desc, strength, size):
    """Importance-weighted Haar oracle for perturbed-Haar moments:
    E_law[f] = E_Haar[f * (1 + a ReTr/N)]."""
    from powerlimits.stats import MomentReport

    mats = haar_batch(desc, rng, size)
    w = 1.0 + strength * np.real(np.einsum("sii->s", mats)) / desc.matrix_size
    out = []
    for name, vals in _test_functions(mats).items():
        weighted = vals * w
        out.append(MomentReport(name, complex(weighted.mean()),
                                float(np.std(weighted) / np.sqrt(size)), size))
    return out


def direct_reports(mats):
    from powerlimits.stats import MomentReport

    size = mats.shape[0]
    return [MomentReport(name, complex(vals.mean()),
                         float(np.std(vals) / np.sqrt(size)), size)
            for name, vals in _test_functions(mats).items()]


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
        assert all(v.passed for v in two_sample_test(got, oracle, 5.0))
        # analytic cross-check: E ReTr = a E_Haar[(ReTr)^2]/N = a/(2N)
        mean_tr = {r.statistic: r for r in got}["re_tr"]
        assert abs(mean_tr.estimate - a / 4.0) <= 5 * mean_tr.std_error

    def test_single_sample_valid(self):
        rng = np.random.default_rng(42)
        mats = L.PerturbedHaarLaw(unitary(3), -0.8).sample_batch(rng, 1)
        assert GroupElement(mats[0], unitary(3)).matrix.shape == (3, 3)


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
        from powerlimits.stats import ks_uniform
        rng = np.random.default_rng(45)
        law = L.MixtureU2Law()
        mats = law.sample_limit_batch(rng, 10000)
        angles = eigenangles_batch(mats)
        assert ks_uniform(angles.ravel()).passed

    def test_power_matches_limit(self):
        rng = np.random.default_rng(46)
        law = L.MixtureU2Law()
        s = 30000
        powered = power_batch(law.sample_batch(rng, s), 8)
        limit = law.sample_limit_batch(rng, s)
        a = trace_moments(powered, 2)
        b = trace_moments(limit, 2)
        assert all(v.passed for v in two_sample_test(a, b, 5.0))

    def test_single_draws(self):
        rng = np.random.default_rng(47)
        law = L.MixtureU2Law()
        for mats in (law.sample_batch(rng, 1), law.sample_limit_batch(rng, 1)):
            assert GroupElement(mats[0], law.descriptor).matrix.shape == (2, 2)

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
        d2 = Counting(T.FourierDensity(2, {(0, 0): 1.0, (1, 0): 0.3, (-1, 0): 0.3}))
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
        law = L.MixtureU2Law(d2=T.FourierDensity(2, {(0, 0): 1.0, (0, 1): 0.4j, (0, -1): -0.4j}))
        s = 50000
        new = law.sample_batch(rng, s)
        old = self._both_branches_then_where(law, rng, s)
        for moments in (entry_moments, lambda m: trace_moments(m, 3)):
            assert all(v.passed for v in two_sample_test(moments(new), moments(old), 5.0))

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
        with pytest.raises(ValueError):
            L.symbolic_eigen_density(L.PerturbedHaarLaw(special_orthogonal_odd(3), 0.0))
        with pytest.raises(ValueError):
            L.symbolic_eigen_density(L.MixtureU2Law())

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
        for rep, p in zip(empirical_fourier_many(coords, lattice), lattice):
            expect = T.fourier_coefficient(d, tuple(p))
            assert abs(rep.estimate - expect) <= 5.0 / np.sqrt(s)

    @pytest.mark.parametrize("route, n, seed", [
        ("matrix", 2, 48), ("weyl", 2, 53), ("weyl", 3, 54), ("weyl", 4, 55)],
        ids=["matrix-U2", "weyl-U2", "weyl-U3", "weyl-U4"])
    def test_empirical_haar_matches_symbolic(self, route, n, seed):
        self._assert_matches_symbolic(route, L.PerturbedHaarLaw(unitary(n), 0.0), seed)

    @pytest.mark.parametrize("route, n, strength, seed", [
        ("matrix", 2, 0.5, 49), ("weyl", 2, 0.5, 56), ("weyl", 2, -1.0, 57),
        ("weyl", 3, 0.5, 58), ("weyl", 3, -1.0, 59), ("weyl", 4, 0.5, 60),
        ("weyl", 4, -1.0, 61)],
        ids=["matrix-U2-a0.5", "weyl-U2-a0.5", "weyl-U2-a-1", "weyl-U3-a0.5", "weyl-U3-a-1",
             "weyl-U4-a0.5", "weyl-U4-a-1"])
    def test_empirical_perturbed_matches_symbolic(self, route, n, strength, seed):
        self._assert_matches_symbolic(route, L.PerturbedHaarLaw(unitary(n), strength), seed)


class TestEigenangleLaw:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("strength", [0.0, 0.5, -1.0])
    def test_trace_moments_match_the_matrix_route(self, n, strength):
        law = L.PerturbedHaarLaw(unitary(n), strength)
        rng = np.random.default_rng(62)
        s = 20000
        weyl, matrix = (spectral_trace_moments(ROUTES[route](law, rng, s), 4)
                        for route in ("weyl", "matrix"))
        assert all(v.passed for v in two_sample_test(weyl, matrix, 5.0))

    @pytest.mark.parametrize("law", [
        L.PerturbedHaarLaw(unitary(5), 0.0), L.PerturbedHaarLaw(unitary(5), 0.5),
        L.PerturbedHaarLaw(special_unitary(3), 0.0),
        L.PerturbedHaarLaw(special_orthogonal_odd(3), 0.5),
        L.TorusLaw(unitary(2), L.default_mixture_marginal()), L.MixtureU2Law(),
        L.PointMassLaw(identity(unitary(3)))],
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

    def test_density_bound_is_attained_at_the_roots_of_unity(self):
        for n in (2, 3, 4):
            roots = TAU * np.arange(n)[None] / n
            bound = n ** n / math.factorial(n)
            assert L._weyl_density(roots, 0.0)[0] == pytest.approx(bound, rel=1e-12)
            rng = np.random.default_rng(65)
            theta = rng.uniform(0.0, TAU, size=(100000, n))
            assert L._weyl_density(theta, -1.0).max() <= 2 * bound
            # mean 1 against uniform angles: a probability density, as the fill assumes
            assert L._weyl_density(theta, 0.5).mean() == pytest.approx(1.0, abs=0.05)


class TestSU2SharpStationarity:
    """The free coordinate of Haar SU(2) has series 1 - (z^2 + conj)/2, so
    its powers freeze at m >= 3, with density 1 - cos(theta) at m = 2."""

    def test_su2_eigen_density_and_thresholds(self):
        rng = np.random.default_rng(50)
        desc = special_unitary(2)
        s = 100000
        mats = haar_batch(desc, rng, s)
        coords1 = uniform_torus_rows(desc, eigenangles_batch(mats), rng)
        rep = empirical_fourier_many(coords1, np.array([[2]]))[0]
        assert abs(rep.estimate - (-0.5)) <= 5 * rep.std_error
        coords2 = uniform_torus_rows(desc, eigenangles_batch(power_batch(mats, 2)), rng)
        rep2 = empirical_fourier_many(coords2, np.array([[1]]))[0]
        assert abs(rep2.estimate - (-0.5)) <= 5 * rep2.std_error  # not yet uniform
        coords3 = uniform_torus_rows(desc, eigenangles_batch(power_batch(mats, 3)), rng)
        for rep3 in empirical_fourier_many(coords3, lattice_ball(1, 3)):
            assert abs(rep3.estimate) <= 5.0 / np.sqrt(s)


class TestOtherLaws:
    def test_torus_law_spectrum_is_prescribed(self):
        rng = np.random.default_rng(51)
        dens = L.default_mixture_marginal()
        law = L.TorusLaw(unitary(2), dens)
        mats = law.sample_batch(rng, 2000)
        off = np.max(np.abs(mats[:, ~np.eye(2, dtype=bool)]))
        assert off == 0.0  # embedded diagonals

    def test_point_mass(self):
        law = L.PointMassLaw(identity(unitary(2)))
        mats = law.sample_batch(np.random.default_rng(52), 7)
        assert np.all(mats == np.eye(2))

    def test_default_marginal_is_degree_one_product(self):
        d = L.default_mixture_marginal()
        assert T.stationarity_threshold(d) == 2
        assert d.coefficients[(1, 1)] == 0.25
        assert d.coefficients[(1, 0)] == 0.5
