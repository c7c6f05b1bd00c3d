"""Fourier and grid density dynamics under the power map."""

import json
import tracemalloc

import numpy as np
import pytest

from powerlimits import torus as T
from powerlimits.groups import special_orthogonal_odd, unitary
from powerlimits.samplers import PerturbedHaarLaw, default_mixture_marginal, symbolic_eigen_density
from powerlimits._kernels import trig_poly_values
from powerlimits.stats import KS_THRESHOLD_1PCT, empirical_fourier_many, ks_uniform, lattice_ball
from oracles import (dict_density, empirical_fourier, fourier_coefficient, loop_pushforward,
                     scalar_rejection_sample_grid, scalar_random_fourier_density)

TAU = 2 * np.pi


def cosine_density():
    return dict_density(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})


def uniform(rank):
    return dict_density(rank, {(0,) * rank: 1.0})


def value_at(d, t):
    """Series value at one torus point."""
    return float(trig_poly_values(d.lattice, d.coeffs, np.asarray(t, dtype=np.float64)[None])[0])


class TestFourierDensityInvariants:
    def test_requires_unit_constant_term(self):
        with pytest.raises(T.DensityError):
            dict_density(1, {(0,): 0.5})

    def test_requires_hermitian_symmetry(self):
        with pytest.raises(T.DensityError):
            dict_density(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.4})
        with pytest.raises(T.DensityError):
            dict_density(1, {(0,): 1.0, (2,): 0.1})
        # the values mirror each other, the points do not: -1 and 2 are unpaired
        with pytest.raises(T.DensityError, match="Hermitian"):
            dict_density(1, {(-1,): 0.1, (0,): 1.0, (2,): 0.1})

    @pytest.mark.parametrize("coeffs", [
        {(0,): 1.0, (1,): np.nan, (-1,): np.nan},        # was dropped as a structural zero
        {(0,): np.nan, (1,): 0.2, (-1,): 0.2},           # was overwritten with 1
        {(0,): 1.0, (1,): complex(0.1, np.nan), (-1,): complex(0.1, np.nan)},
        {(0,): 1.0, (1,): np.inf, (-1,): np.inf},
    ])
    def test_rejects_non_finite_coefficients(self, coeffs):
        with pytest.raises(T.DensityError, match="finite"):
            dict_density(1, coeffs)

    def test_rejects_signed_series(self):
        # 1 + 3 cos(theta) dips to -2: not a density
        with pytest.raises(T.DensityError):
            dict_density(1, {(0,): 1.0, (1,): 1.5, (-1,): 1.5})


def _loop_built(rank, coefficients):
    """The per-key construction FourierDensity replaced: (coefficients, lattice, coeffs),
    the dict in sorted (lattice) order."""
    clean = {}
    for p, a in coefficients.items():
        key = tuple(int(x) for x in np.atleast_1d(p))
        a = complex(a)
        if abs(a) > T._COEFF_PRUNE or key == (0,) * rank:
            clean[key] = a
    clean[(0,) * rank] = 1.0 + 0.0j
    clean = {p: clean[p] for p in sorted(clean)}
    lattice = np.array(list(clean), dtype=np.int64).reshape(len(clean), rank)
    return clean, lattice, np.array(list(clean.values()), dtype=np.complex128)


def _densities():
    """Hand-written, symbolic, random and pushed-forward densities."""
    from powerlimits import groups, samplers
    rng = np.random.default_rng(8)
    out = [default_mixture_marginal(), uniform(3),
           dict_density(2, {(1, -1): 0.2, (0, 0): 1.0 + 1e-13j, (-1, 1): 0.2, (0, 1): 1e-17})]
    for desc in (groups.unitary(4), groups.special_unitary(3), groups.special_orthogonal_odd(5)):
        out.append(samplers.symbolic_eigen_density(samplers.PerturbedHaarLaw(desc, 0.5)))
    out += [T.random_fourier_density(rng, rank, 3) for rank in (1, 2, 3)]
    return out + [T.fourier_pushforward(d, m) for d in out for m in (2, 3)]


def _same_arrays(a, b):
    return (a.rank == b.rank and a.lattice.dtype == b.lattice.dtype == np.int64
            and a.lattice.shape == b.lattice.shape and a.lattice.tobytes() == b.lattice.tobytes()
            and a.coeffs.dtype == b.coeffs.dtype and a.coeffs.tobytes() == b.coeffs.tobytes())


class TestArrayBuiltDensity:
    """FourierDensity keeps one store, the arrays sorted by lattice point; they and
    the ``coefficients`` view must equal, bit for bit and in lattice order, those of
    the per-key loop it replaced."""

    def test_equals_the_loop_reference(self):
        for d in _densities():
            clean, lattice, coeffs = _loop_built(d.rank, d.coefficients)
            assert repr(list(d.coefficients.items())) == repr(list(clean.items()))
            assert d.lattice.dtype == lattice.dtype and d.lattice.shape == lattice.shape
            assert d.lattice.tobytes() == lattice.tobytes()
            assert d.coeffs.tobytes() == coeffs.tobytes()

    def test_pruned_points_leave_lattice_order(self):
        d = dict_density(1, {(2,): 0.1, (0,): 1.0, (5,): 1e-16, (-2,): 0.1})
        assert list(d.coefficients) == [(-2,), (0,), (2,)]
        assert d.lattice.tolist() == [[-2], [0], [2]]

    def test_arrays_are_read_only(self):
        d = cosine_density()
        for a in (d.lattice, d.coeffs):
            with pytest.raises(ValueError):
                a[0] = 0
        d.coefficients[(1,)] = 9.0   # a fresh dict per read: the density keeps its own
        assert d.coefficients[(1,)] == 0.5

    def test_rejects_a_point_given_twice(self):
        with pytest.raises(ValueError, match="twice"):
            T.FourierDensity(1, [[0], [1], [1], [-1]], [1.0, 0.1, 0.1, 0.1])

    def test_rejects_non_integer_points(self):
        with pytest.raises(ValueError, match="integers"):
            T.FourierDensity(1, [[0.0], [1.5], [-1.5]], [1.0, 0.1, 0.1])

    @pytest.mark.parametrize("row", [{"p": [0], "re": True}, {"p": [0], "re": 1.0, "im": False}])
    def test_from_json_rejects_boolean_parts(self, row):
        # JSON true once read as 1.0, so {"p": [0], "re": true} built a_0 = 1
        with pytest.raises(ValueError, match="booleans"):
            T.FourierDensity.from_json({"rank": 1, "coeffs": [row]})

    @pytest.mark.parametrize("lattice, coeffs", [
        ([[0, 0]], [1.0]), ([[0], [1]], [1.0]), ([0], [1.0]), ([[0]], 1.0)])
    def test_rejects_misshapen_arrays(self, lattice, coeffs):
        with pytest.raises(ValueError, match="arrays"):
            T.FourierDensity(1, lattice, coeffs)


class TestInputOrder:
    """The constructor sorts, so the order its rows come in changes no bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_rows_give_the_same_arrays(self, seed):
        rng = np.random.default_rng(seed)
        for d in _densities():
            order = rng.permutation(d.lattice.shape[0])
            again = T.FourierDensity(d.rank, d.lattice[order], d.coeffs[order])
            assert _same_arrays(again, d)
            assert repr(list(again.coefficients.items())) == repr(list(d.coefficients.items()))

    def test_symmetrized_torus_law_ignores_the_json_order(self):
        from powerlimits import samplers
        d = T.random_fourier_density(np.random.default_rng(5), 3, 3)
        rows = [{"p": p, "re": a.real, "im": a.imag}
                for p, a in zip(d.lattice.tolist(), d.coeffs.tolist())]
        rng = np.random.default_rng(6)
        want = samplers.symbolic_eigen_density(samplers.TorusLaw(unitary(3), d))
        for _ in range(4):
            order = rng.permutation(len(rows))
            text = json.dumps({"rank": 3, "coeffs": [rows[i] for i in order]})
            got = samplers.symbolic_eigen_density(
                samplers.TorusLaw(unitary(3), T.FourierDensity.from_json(text)))
            assert _same_arrays(got, want)


class TestRandomFourierDensity:
    @pytest.mark.parametrize("rank,degree", [(1, 3), (1, 6), (2, 3), (3, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 31, 4242])
    @pytest.mark.parametrize("mass", [None, 0.5])
    def test_draws_what_the_scalar_loop_draws(self, rank, degree, seed, mass):
        """Same arrays and coefficients, bit for bit and in lattice order, and the same
        generator state afterwards, as one scalar draw per kept point and per Gaussian part."""
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = T.random_fourier_density(rng, rank, degree, mass)
        ref = scalar_random_fourier_density(twin, rank, degree, mass)
        assert _same_arrays(got, ref)
        assert repr(list(got.coefficients.items())) == repr(list(ref.coefficients.items()))
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_degree_zero_is_refused(self):
        with pytest.raises(ValueError, match="max_degree must be an integer >= 1"):
            T.random_fourier_density(np.random.default_rng(0), 2, 0)


class TestFourierPushforward:
    def test_m1_is_identity(self):
        d = cosine_density()
        assert T.fourier_pushforward(d, 1) is d

    def test_indices_divide(self):
        d = dict_density(1, {(0,): 1.0, (2,): 0.3, (-2,): 0.3})
        out = T.fourier_pushforward(d, 2)
        assert out.coefficients == {(0,): 1.0, (1,): 0.3, (-1,): 0.3}

    def test_odd_support_dies_at_two(self):
        d = dict_density(2, {(0, 0): 1.0, (1, 0): 0.2, (-1, 0): 0.2,
                                 (0, 1): 0.2, (0, -1): 0.2})
        out = T.fourier_pushforward(d, 2)
        assert out.coefficients == {(0, 0): 1.0}

    def test_uniform_is_fixed_point(self):
        u = uniform(2)
        for m in (1, 2, 5, 50):
            assert T.fourier_pushforward(u, m).coefficients == u.coefficients

    def test_requires_positive_m(self):
        with pytest.raises(ValueError):
            T.fourier_pushforward(cosine_density(), 0)

    def test_composition(self):
        rng = np.random.default_rng(1)
        d = T.random_fourier_density(rng, 2, 6)
        for a, b in ((2, 3), (3, 2), (2, 2)):
            lhs = T.fourier_pushforward(d, a * b)
            rhs = T.fourier_pushforward(T.fourier_pushforward(d, a), b)
            assert lhs.coefficients.keys() == rhs.coefficients.keys()
            for p in lhs.coefficients:
                assert abs(lhs.coefficients[p] - rhs.coefficients[p]) < 1e-15


    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_the_loop_reference(self, m):
        rng = np.random.default_rng(m)
        densities = [symbolic_eigen_density(PerturbedHaarLaw(desc, a))
                     for desc, a in ((unitary(4), 0.5), (unitary(3), -1.0),
                                     (special_orthogonal_odd(5), 0.3))]
        densities += [T.random_fourier_density(rng, rank, 7) for rank in (1, 2, 3)]
        for d in densities:
            assert T.fourier_pushforward(d, m).coefficients == loop_pushforward(d, m)

class TestFourierCoefficient:
    def test_outside_support_is_zero(self):
        assert fourier_coefficient(uniform(2), (3, -1)) == 0.0

    def test_normalization(self):
        d = cosine_density()
        assert fourier_coefficient(d, (0,)) == 1.0

    def test_pushforward_identity(self):
        d = dict_density(2, {(0, 0): 1.0, (2, 0): 0.3, (-2, 0): 0.3})
        pushed = T.fourier_pushforward(d, 2)
        assert fourier_coefficient(pushed, (1, 0)) == fourier_coefficient(d, (2, 0))


class TestStationarityThreshold:
    def test_uniform(self):
        assert T.stationarity_threshold(uniform(3)) == 1

    def test_degree_two(self):
        d = dict_density(2, {(0, 0): 1.0, (2, -1): 0.1, (-2, 1): 0.1})
        assert T.stationarity_threshold(d) == 3

    def test_u2_weyl_density(self):
        d = dict_density(2, {(0, 0): 1.0, (1, -1): -0.5, (-1, 1): -0.5})
        assert T.stationarity_threshold(d) == 2

    def test_pushforward_is_uniform_at_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = T.random_fourier_density(rng, 2, int(rng.integers(1, 5)))
            thr = T.stationarity_threshold(d)
            for m in (thr, thr + 1, 2 * thr):
                out = T.fourier_pushforward(d, m)
                assert out.coefficients == {(0, 0): 1.0}


class TestEvaluate:
    def test_uniform(self):
        assert value_at(uniform(2), [1.0, 2.0]) == pytest.approx(1.0)

    def test_cosine_peak_and_zero(self):
        d = cosine_density()
        assert value_at(d, [0.0]) == pytest.approx(2.0)
        assert value_at(d, [np.pi]) == pytest.approx(0.0, abs=1e-12)


class TestToGrid:
    def test_uniform_constant(self):
        g = T.to_grid(uniform(1), 8)
        np.testing.assert_allclose(g.values, 1.0 / TAU)

    def test_cosine_grid_four(self):
        g = T.to_grid(cosine_density(), 4)
        np.testing.assert_allclose(g.values, np.array([2.0, 1.0, 0.0, 1.0]) / TAU, atol=1e-14)

    def test_antialias_precondition(self):
        d = dict_density(1, {(0,): 1.0, (3,): 0.1, (-3,): 0.1})
        with pytest.raises(ValueError):
            T.to_grid(d, 6)

    def test_round_trip_against_sampler(self):
        # MC oracle: empirical coefficients of grid samples reproduce a_p
        rng = np.random.default_rng(3)
        d = T.random_fourier_density(rng, 1, 2, mass=0.6)
        sample = T.sample_grid(T.to_grid(d, 256), rng, 40000)
        for p in ((1,), (2,)):
            rep = empirical_fourier(sample, p)
            expect = fourier_coefficient(d, p)
            assert abs(rep.estimate - expect) <= 5 * max(rep.std_error, 1e-12) + 1e-3

    def test_peak_memory_holds_no_complex_grid(self):
        # Traced peaks in grid sizes (G**2 float64 bytes): a complex (G, G) synthesis
        # copied to its real part read 3.0 for to_grid, and a second CDF array 2.0 for
        # sample_grid.  A first untraced call of each keeps one-time allocations out.
        d = T.random_fourier_density(np.random.default_rng(2), 2, 3)
        g = T.to_grid(d, 360)
        T.sample_grid(g, np.random.default_rng(1), 5000)

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1] / g.values.nbytes
            finally:
                tracemalloc.stop()

        assert peak(lambda: T.to_grid(d, 360)) < 1.5
        assert peak(lambda: T.sample_grid(g, np.random.default_rng(1), 5000)) < 0.6

    def test_grid_peaked_on_one_cell_costs_time_not_memory(self):
        # bound 3600: about 1.8e6 proposals for 500 draws, which unchunked held 102 MB
        vals = np.zeros((60, 60))
        vals[17, 42] = (60 / TAU) ** 2
        g = T.GridDensity(2, 60, vals)
        tracemalloc.start()
        try:
            rows = T.sample_grid(g, np.random.default_rng(4), 500).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (500, 2) and peak < 16e6
        assert np.all(np.floor(rows * (60 / TAU)) == [17, 42])

    def test_fractional_grid_size_is_refused(self):
        # int() once truncated 60.5 to a 60-grid
        with pytest.raises(ValueError, match="grid_size must be an integer"):
            T.to_grid(cosine_density(), 60.5)


class TestGridPushforward:
    def test_constant_stays_constant(self):
        g = T.GridDensity(1, 12, np.full(12, 1.0 / TAU))
        for m in (2, 3, 4):
            out = T.grid_pushforward(g, m)
            np.testing.assert_allclose(out.values, 1.0 / TAU)

    def test_two_cells(self):
        a, b = 0.8 / TAU, 1.2 / TAU
        g = T.GridDensity(1, 2, np.array([a, b]))
        out = T.grid_pushforward(g, 2)
        np.testing.assert_allclose(out.values, [(a + b) / 2])

    def test_indicator_becomes_uniform(self):
        # density (1/pi) 1_{[0, pi)} spun by m=2; MC histogram oracle
        gsize = 360
        vals = np.zeros(gsize)
        vals[: gsize // 2] = 1.0 / np.pi
        g = T.GridDensity(1, gsize, vals)
        out = T.grid_pushforward(g, 2)
        np.testing.assert_allclose(out.values, 1.0 / TAU, atol=1e-15)
        rng = np.random.default_rng(4)
        s = 1_000_000
        doubled = (2.0 * rng.uniform(0, np.pi, s)) % TAU
        counts, _ = np.histogram(doubled, bins=20, range=(0, TAU))
        chi2 = np.sum((counts - s / 20) ** 2 / (s / 20))
        assert chi2 < 45.0  # 1% point of chi2(19) is 36.2; extra slack

    def test_requires_divisor(self):
        g = T.GridDensity(1, 10, np.full(10, 1.0 / TAU))
        with pytest.raises(ValueError):
            T.grid_pushforward(g, 3)

    @pytest.mark.parametrize("m", [2.5, 4.0, 0])
    def test_rejects_a_power_that_is_no_positive_integer(self, m):
        # a fractional power is no map of the torus, and 4.0 is a float even though
        # 4 divides the grid: each fails as power_angles does, before any arithmetic
        g = T.GridDensity(1, 12, np.full(12, 1.0 / TAU))
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            T.grid_pushforward(g, m)

    def test_riemann_sum_preserved(self):
        rng = np.random.default_rng(5)
        d = T.random_fourier_density(rng, 2, 3)
        g = T.to_grid(d, 60)
        out = T.grid_pushforward(g, 3)
        before = g.values.sum() * (TAU / 60) ** 2
        after = out.values.sum() * (TAU / 20) ** 2
        assert abs(after - before) <= 1e-12


def fft_grid_values(d, g):
    """The FFT route to a grid: the coefficients scattered into a (g,)*rank
    spectrum mod g, inverse DFT, then to_grid's clip and scale."""
    spectrum = np.zeros((g,) * d.rank, dtype=np.complex128)
    for p, a in d.coefficients.items():
        spectrum[tuple(x % g for x in p)] += a
    vals = np.real(np.fft.ifftn(spectrum)) * g ** d.rank
    return np.clip(vals, 0.0, None) / TAU ** d.rank


class TestOracleEquivalence:
    @pytest.mark.parametrize("rank", [1, 2])
    def test_twenty_random_densities(self, rank):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = T.random_fourier_density(rng, rank, 3)
            grid = T.to_grid(d, 360)
            np.testing.assert_allclose(grid.values, fft_grid_values(d, 360), rtol=0, atol=1e-12)
            for m in (2, 3, 4, 6):
                pushed = T.fourier_pushforward(d, m)
                via_coeff = T.to_grid(pushed, 360 // m)
                np.testing.assert_allclose(via_coeff.values, fft_grid_values(pushed, 360 // m),
                                           rtol=0, atol=1e-12)
                via_grid = T.grid_pushforward(grid, m)
                err = np.max(np.abs(via_coeff.values - via_grid.values))
                assert err <= 1e-9


class TestContraction:
    def test_signed_grid_functions(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.normal(size=360)
            for m in (2, 3, 5):
                f = T.fold_grid(v, m)
                before = np.abs(v).sum() * (TAU / 360)
                after = np.abs(f).sum() * (TAU / (360 // m))
                assert after <= before + 1e-12


class TestGridDensityInvariants:
    def test_rejects_negative_values(self):
        v = np.full(8, 1.0 / TAU)
        v[0] = -0.01
        with pytest.raises(T.DensityError):
            T.GridDensity(1, 8, v)

    def test_rejects_unnormalized_point_mass(self):
        v = np.zeros(8)
        v[3] = 1.0  # Riemann sum 2 pi / 8 != 1
        with pytest.raises(T.DensityError):
            T.GridDensity(1, 8, v)

    def test_rejects_nan_value(self):
        v = np.full((8, 8), 1.0 / TAU ** 2)
        v[3, 5] = np.nan
        with pytest.raises(T.DensityError):
            T.GridDensity(2, 8, v)


class TestSampleGrid:
    def test_uniform_marginal_passes_ks(self):
        rng = np.random.default_rng(8)
        g = T.GridDensity(1, 64, np.full(64, 1.0 / TAU))
        sample = T.sample_grid(g, rng, 10000)
        assert ks_uniform(sample.rows[:, 0]) <= KS_THRESHOLD_1PCT

    def test_half_support(self):
        vals = np.zeros(64)
        vals[:32] = 1.0 / np.pi
        g = T.GridDensity(1, 64, vals)
        rng = np.random.default_rng(9)
        sample = T.sample_grid(g, rng, 2000)
        assert np.all(sample.rows < np.pi)

    @staticmethod
    def _point_cell(rank, g, cell):
        vals = np.zeros((g,) * rank)
        vals[cell] = (g / TAU) ** rank
        return T.GridDensity(rank, g, vals)

    @pytest.mark.parametrize("name,size", [
        ("rank1", 3000), ("rank2", 3000), ("half", 2000), ("cell1", 500), ("cell2", 500),
        ("rank2", 1), ("cell1", 1), ("cell2", 2000),
    ])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_draws_what_the_scalar_oracle_draws(self, name, size, seed):
        """Same rows, bit for bit, and the same generator state afterwards, as rejection
        one proposal at a time.  ("cell2", 2000) needs about 290000 proposals, so its
        round runs over two chunks."""
        grids = {
            "rank1": lambda: T.to_grid(T.random_fourier_density(np.random.default_rng(1), 1, 3), 96),
            "rank2": lambda: T.to_grid(T.random_fourier_density(np.random.default_rng(2), 2, 3), 60),
            "half": lambda: T.GridDensity(1, 64, np.tile([0.0, 1.0 / np.pi], 32)),
            "cell1": lambda: self._point_cell(1, 16, (5,)),
            "cell2": lambda: self._point_cell(2, 12, (0, 11)),
        }
        g = grids[name]()
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got, ref = T.sample_grid(g, rng, size), scalar_rejection_sample_grid(g, twin, size)
        np.testing.assert_array_equal(got.rows, ref.rows)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("rank,grid_size", [(1, 96), (2, 12)])
    def test_cell_counts_follow_the_grid(self, rank, grid_size):
        """Each cell k is drawn S p_k times within 5 sd, p_k = values_k / sum(values),
        whatever the stream."""
        d = T.random_fourier_density(np.random.default_rng(rank), rank, 3)
        g = T.to_grid(d, grid_size)
        s = 20000
        rows = T.sample_grid(g, np.random.default_rng(11), s).rows
        cells = np.ravel_multi_index(tuple(np.floor(rows.T * (grid_size / TAU)).astype(int)),
                                     g.values.shape)
        counts = np.bincount(cells, minlength=g.values.size)
        p = g.values.ravel() / g.values.sum()
        assert np.all(np.abs(counts - s * p) <= 5.0 * np.sqrt(s * p * (1.0 - p)))

    def test_flat_grid_a_hair_under_its_mass_draws(self):
        # Riemann sum 1 - 5e-10 passes GridDensity; its max (2 pi) is below 1, the bound 1
        g = T.GridDensity(2, 8, np.full((8, 8), (1.0 - 5e-10) / TAU ** 2))
        assert T.sample_grid(g, np.random.default_rng(0), 100).rows.shape == (100, 2)

    @pytest.mark.parametrize("draw", [
        lambda: T.sample_grid(T.GridDensity(1, 8, np.full(8, 1.0 / TAU)),
                              np.random.default_rng(0), -1),
        lambda: cosine_density().sample(np.random.default_rng(0), -1),
    ], ids=["sample_grid", "FourierDensity.sample"])
    def test_negative_size_is_refused(self, draw):
        with pytest.raises(ValueError, match="size must be an integer >= 0"):
            draw()


class TestAngleSample:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            T.AngleSample(1, np.array([[2 * np.pi]]))
        with pytest.raises(ValueError):
            T.AngleSample(2, np.array([[0.0, -0.5]]))

    @pytest.mark.parametrize("bad", [[[0.5, np.nan], [1.0, 2.0]], [[np.nan, np.nan]]])
    def test_nan_row_rejected(self, bad):
        with pytest.raises(ValueError):
            T.AngleSample(2, np.array(bad))

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            T.AngleSample(2, np.zeros((5, 3)))


class TestPowerAngles:
    def test_m1_identity(self):
        a = T.AngleSample(1, np.array([[0.5], [1.5]]))
        assert T.power_angles(a, 1) is a

    def test_rejects_nonpositive_power(self):
        a = T.AngleSample(1, np.array([[0.5], [1.5]]))
        for m in (0, -2):
            with pytest.raises(ValueError):
                T.power_angles(a, m)

    def test_rejects_fractional_power(self):
        # wrap(2.5 theta) is no map of the torus
        a = T.AngleSample(1, np.array([[0.5], [1.5]]))
        with pytest.raises(ValueError, match="m must be an integer"):
            T.power_angles(a, 2.5)

    def test_pi_doubles_to_zero(self):
        a = T.AngleSample(1, np.array([[np.pi]]))
        assert T.power_angles(a, 2).rows[0, 0] == 0.0

    def test_exact_fourier_index_identity(self):
        # E exp(-i p . (m theta)) = E exp(-i (m p) . theta)
        rng = np.random.default_rng(10)
        a = T.AngleSample(2, rng.uniform(0, TAU, size=(4000, 2)))
        m = 3
        spun = T.power_angles(a, m)
        for p in ((1, 0), (1, -1), (2, 1)):
            lhs = empirical_fourier(spun, p).estimate
            rhs = empirical_fourier(a, tuple(m * x for x in p)).estimate
            assert abs(lhs - rhs) < 1e-9

    def test_coefficient_index_identity_statistically(self):
        # samples from d, spun by m: coefficient at p estimates a_{m p}
        rng = np.random.default_rng(11)
        d = T.random_fourier_density(rng, 2, 4, mass=0.7)
        s = 40000
        sample = d.sample(rng, s)
        spun = T.power_angles(sample, 2)
        for p in ((1, 0), (0, 1), (1, 1), (2, -1)):
            rep = empirical_fourier(spun, p)
            expect = fourier_coefficient(d, tuple(2 * x for x in p))
            assert abs(rep.estimate - expect) <= 5.0 / np.sqrt(s)

    def test_high_power_flattens_degree_six_density(self):
        # finite stand-in for an infinite series: geometric decay to degree 6
        coeffs = {(0,): 1.0 + 0j}
        for p in range(1, 7):
            coeffs[(p,)] = 0.3 ** p
            coeffs[(-p,)] = 0.3 ** p
        d = dict_density(1, coeffs)
        rng = np.random.default_rng(12)
        s = 40000
        spun = T.power_angles(d.sample(rng, s), 50)
        for estimate in empirical_fourier_many(spun, lattice_ball(1, 3)).estimate:
            assert abs(estimate) <= 5.0 / np.sqrt(s)


def test_exact_sampler_matches_density():
    rng = np.random.default_rng(13)
    d = T.random_fourier_density(rng, 2, 2, mass=0.5)
    s = 40000
    sample = d.sample(rng, s)
    assert sample.rows.shape == (s, 2)
    for p in ((1, 0), (1, 1), (2, -1)):
        rep = empirical_fourier(sample, p)
        expect = fourier_coefficient(d, p)
        assert abs(rep.estimate - expect) <= 5 * max(rep.std_error, 1e-12)


class TestRejectionFill:
    def test_never_accepting_density_hits_the_round_cap(self):
        proposals = []

        def propose(draw):
            proposals.append(draw)
            return np.zeros((draw, 1))

        with pytest.raises(T.RejectionError, match="failed to fill"):
            T._rejection_fill(np.random.default_rng(0), 10, 1.0, propose,
                              lambda x: np.zeros(x.shape[0]))
        assert len(proposals) == T._REJECTION_ROUNDS

    @pytest.mark.parametrize("top", [1.5, np.nan])
    def test_density_above_the_bound_is_refused(self, top):
        # a wrong envelope fails loudly instead of sampling a biased law
        def density(x):
            out = np.full(x.shape[0], 0.5)
            out[-1] = top
            return out

        with pytest.raises(T.RejectionError, match="exceeds the rejection bound"):
            T._rejection_fill(np.random.default_rng(0), 10, 1.2, lambda draw: np.zeros((draw, 1)),
                              density)
        # float noise at the bound itself is not a breach
        out = T._rejection_fill(np.random.default_rng(0), 10, 1.2,
                                lambda draw: np.zeros((draw, 1)),
                                lambda x: np.full(x.shape[0], 1.2 * (1 + 1e-12)))
        assert out.shape == (10, 1)

    @pytest.mark.parametrize("bound", [0.5, np.nan])
    def test_bound_below_one_is_refused_before_proposing(self, bound):
        with pytest.raises(T.RejectionError, match="below 1"):
            T._rejection_fill(np.random.default_rng(0), 10, bound,
                              lambda draw: pytest.fail("proposed"), lambda x: x[:, 0])

    def test_low_acceptance_fills_over_several_rounds(self):
        rng = np.random.default_rng(1)
        proposals = []

        def propose(draw):
            proposals.append(draw)
            return rng.uniform(size=(draw, 1))

        out = T._rejection_fill(rng, 5000, 1.0, propose, lambda x: np.full(x.shape[0], 0.3))
        assert out.shape == (5000, 1) and len(proposals) > 1

    def test_one_round_sized_to_the_expected_need(self):
        # acceptance exactly 1/4: the proposals needed for 30000 draws have
        # mean 120000 and variance 120000 * 3
        expected = int(120000 + 4.0 * np.sqrt(120000 * 3.0)) + 64
        for seed in range(50):
            rng = np.random.default_rng(seed)
            proposals = []

            def propose(draw):
                proposals.append(draw)
                return rng.uniform(size=(draw, 1))

            out = T._rejection_fill(rng, 30000, 4.0, propose, lambda x: np.ones(x.shape[0]))
            assert out.shape == (30000, 1) and proposals == [expected]


def geometric_density():
    """Rank 1, degree 6: a_p = 0.3^|p|."""
    coeffs = {(0,): 1.0 + 0j}
    for p in range(1, 7):
        coeffs[(p,)] = coeffs[(-p,)] = 0.3 ** p
    return dict_density(1, coeffs)


SQUEEZED = ([("mixture", default_mixture_marginal), ("geometric", geometric_density)]
            + [(f"random-rank{r}-degree{k}",
                lambda r=r, k=k: T.random_fourier_density(np.random.default_rng(10 * r + k), r, k))
               for r in range(1, 5) for k in range(1, 4)])


class TestCellBound:
    @pytest.mark.parametrize("name, make", SQUEEZED, ids=[n for n, _ in SQUEEZED])
    def test_bounds_the_density_throughout_every_cell(self, name, make):
        d = make()
        bound, g, table = d._cell_table()
        assert bound == max(np.abs(d.coeffs).sum(), 1.0)
        assert table.shape == (g ** d.rank,) and table.max() <= bound
        assert table.mean() <= bound * (1 + 1e-12)   # all at the envelope, it sums a rounding over
        # every cell's lower corner, a jittered interior point, and its upper corner
        # just inside the cell, which ends the torus at 2 pi - eps
        k = np.stack(np.unravel_index(np.arange(g ** d.rank), (g,) * d.rank), axis=1)
        jitter = np.random.default_rng(0).uniform(size=k.shape)
        edge = np.nextafter(k + 1.0, 0.0)
        for where in (k, k + jitter, edge):
            theta = np.minimum(where * (TAU / g), np.nextafter(TAU, 0.0))
            values = trig_poly_values(d.lattice, d.coeffs, theta)
            upper = T._cell_values(g, table, theta)
            # a cell capped at the envelope may sit a rounding below a maximum that
            # reaches it, but every uniform lies below the envelope
            assert np.all((values <= upper) | (upper == bound))
            assert np.all(values <= bound * (1 + T._BOUND_RTOL))
        assert T._cell_values(g, table, np.full((1, d.rank), TAU - 1e-12))[0] == table[-1]

    def test_mixture_marginal_sheds_most_of_its_envelope(self):
        # 64 x 64 cells: about 1.19 evaluations per draw against the envelope's 4
        bound, _, table = default_mixture_marginal()._cell_table()
        assert bound == 4.0 and table.mean() < 1.25

    def test_table_is_built_once_per_density(self, monkeypatch):
        d = default_mixture_marginal()
        d.sample(np.random.default_rng(0), 100)
        monkeypatch.setattr(T, "trig_poly_grid", lambda *args: pytest.fail("rebuilt"))
        d.sample(np.random.default_rng(1), 100)


class TestSqueezeFill:
    def _fill(self, d, seed, size, upper):
        bound, _, _ = d._cell_table()
        rng = np.random.default_rng(seed)
        return T._rejection_fill(rng, size, bound,
                                 lambda draw: rng.uniform(0.0, TAU, size=(draw, d.rank)),
                                 lambda x: trig_poly_values(d.lattice, d.coeffs, x), upper)

    @pytest.mark.parametrize("name, make", SQUEEZED[:3], ids=[n for n, _ in SQUEEZED[:3]])
    def test_squeeze_keeps_the_same_draws(self, name, make):
        d = make()
        bound, g, table = d._cell_table()
        plain = self._fill(d, 5, 5000, None)
        assert np.array_equal(plain, self._fill(d, 5, 5000, lambda x: T._cell_values(g, table, x)))
        assert np.array_equal(plain, self._fill(d, 5, 5000, lambda x: np.full(len(x), 2 * bound)))
        assert np.array_equal(plain, d.sample(np.random.default_rng(5), 5000).rows)

    def test_upper_below_the_density_is_refused(self):
        with pytest.raises(T.RejectionError, match="exceeds the rejection bound"):
            self._fill(default_mixture_marginal(), 0, 1000, lambda x: np.full(len(x), 0.5))

    def test_round_without_candidates_fills_on(self):
        # density x on [0, 1] with upper = density: the first round proposes only
        # x = 0, where upper is 0, so no proposal is evaluated there
        rng = np.random.default_rng(2)
        rounds = []

        def propose(draw):
            rounds.append(draw)
            return np.zeros((draw, 1)) if len(rounds) == 1 else rng.uniform(size=(draw, 1))

        evaluated = []

        def density(x):
            evaluated.append(len(x))
            return x[:, 0]

        out = T._rejection_fill(rng, 1000, 1.0, propose, density, lambda x: x[:, 0])
        assert out.shape == (1000, 1) and len(rounds) > 1 and evaluated[0] == 0

    def test_mixture_marginal_is_evaluated_under_one_and_a_half_times_per_draw(self, monkeypatch):
        points = []

        def counted(lattice, coeffs, x):
            points.append(len(x))
            return trig_poly_values(lattice, coeffs, x)

        monkeypatch.setattr(T, "trig_poly_values", counted)
        size = 20000
        assert default_mixture_marginal().sample(np.random.default_rng(3), size).size == size
        assert 0 < sum(points) <= 1.5 * size
