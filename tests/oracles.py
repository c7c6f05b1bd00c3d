"""Reference implementations that only the tests read."""

import itertools

import numpy as np

from powerlimits.groups import GroupDescriptor
from powerlimits.stats import MomentReport, empirical_fourier_many, fourier_labels, lattice_ball
from powerlimits.torus import AngleSample, FourierDensity, GridDensity
from powerlimits._kernels import TAU, _factors, _layout, _power_table, _split, wrap_angles


def rains_limit_batch(desc: GroupDescriptor, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, N) eigenangle rows of the fixed law of high Haar powers:
    the monomial table evaluated at iid uniform torus angles."""
    y = rng.uniform(0.0, TAU, size=(size, desc.torus_rank))
    return wrap_angles(y @ desc.monomials.T.astype(np.float64))


def empirical_fourier(sample, p) -> MomentReport:
    """The report of ``stats.empirical_fourier_many`` at the single lattice point p."""
    reports = empirical_fourier_many(sample, np.atleast_2d(np.asarray(p)))
    return MomentReport(fourier_labels(reports.lattice)[0], complex(reports.estimate[0]),
                        float(reports.std_error[0]), reports.sample_size)


def _convolve(a: dict, b: dict) -> dict:
    out: dict[tuple, complex] = {}
    for p, ca in a.items():
        for q, cb in b.items():
            key = tuple(x + y for x, y in zip(p, q))
            out[key] = out.get(key, 0.0) + ca * cb
    return {p: c for p, c in out.items() if abs(c) > 1e-15}


def dict_eigen_density(desc: GroupDescriptor, strength: float) -> dict:
    """Coefficients of the perturbed-Haar uniform-preimage torus marginal, expanded by
    dict convolutions: one per root factor {0: 2, a: -1, -a: -1}, then one by the
    perturbation 1 + (a/2N) sum_j (e^{i M_j.t} + e^{-i M_j.t}), normalized to a_0 = 1."""
    zero = (0,) * desc.torus_rank
    weyl = {zero: 1.0 + 0.0j}
    for j, k in desc.root_pairs:
        plus = tuple((desc.monomials[j] - desc.monomials[k]).tolist())
        weyl = _convolve(weyl, {zero: 2.0, plus: -1.0, tuple(-x for x in plus): -1.0})
    if strength != 0.0:
        pert = {zero: 1.0 + 0.0j}
        half = strength / (2.0 * desc.matrix_size)
        for row in desc.monomials.tolist():
            for e in (tuple(row), tuple(-x for x in row)):
                pert[e] = pert.get(e, 0.0) + half
        weyl = _convolve(weyl, pert)
    norm = weyl[zero].real
    return {p: c / norm for p, c in weyl.items()}


def dict_symmetrize(d: FourierDensity) -> dict:
    """Coefficients of the mean over coordinate permutations of the density, each share
    a_p / n! added to its image one permutation at a time."""
    perms = list(itertools.permutations(range(d.rank)))
    out: dict[tuple, complex] = {}
    for p, a in d.coefficients.items():
        share = a / len(perms)
        for sigma in perms:
            key = tuple(p[sigma[i]] for i in range(d.rank))
            out[key] = out.get(key, 0.0) + share
    return out


def loop_pushforward(d: FourierDensity, m: int) -> dict:
    """Coefficients of the density of m X, kept and reindexed one point at a time."""
    return {tuple(x // m for x in p): a for p, a in d.coefficients.items()
            if all(x % m == 0 for x in p)}


def unfolded_fourier_sums(angles, lattice) -> np.ndarray:
    """``fourier_sums`` over the whole bounding box, with a power table for every
    coordinate, also one that is 0 at every lattice point."""
    lo, shape, flat = _layout(np.asarray(lattice, dtype=np.int64))
    box = np.zeros(_split(shape), dtype=np.complex128)
    for left, right in _factors(np.asarray(angles, dtype=np.float64), lo, shape, -1.0):
        box += left @ right.T
    return box.ravel()[flat]


def ones_first_khatri_rao(angles, lo, shape, sign):
    """``_kernels._khatri_rao`` starting from a row of ones, multiplied by every table."""
    out = np.ones((1, angles.shape[0]), dtype=np.complex128)
    for j, width in enumerate(shape):
        table = _power_table(angles[:, j], lo[j], width, sign)
        out = (out[:, None, :] * table[None, :, :]).reshape(-1, angles.shape[0])
    return out


def choice_sample_grid(d: GridDensity, rng: np.random.Generator, size: int) -> AngleSample:
    """``torus.sample_grid`` with the cell drawn by ``rng.choice``, then the uniform
    jitter inside the cell."""
    flat = d.values.ravel()
    idx = rng.choice(flat.size, size=size, p=flat / flat.sum())
    coords = np.stack(np.unravel_index(idx, d.values.shape), axis=1).astype(np.float64)
    coords += rng.uniform(0.0, 1.0, size=coords.shape)
    return AngleSample(d.rank, wrap_angles(coords * (TAU / d.grid_size)))


def scalar_random_fourier_density(rng: np.random.Generator, rank: int, max_degree: int,
                                  mass: float | None = None) -> FourierDensity:
    """``torus.random_fourier_density`` with one scalar draw per kept point and per
    Gaussian part."""
    if mass is None:
        mass = float(rng.uniform(0.3, 0.9))
    half = [tuple(q) for q in lattice_ball(rank, max_degree).tolist()]
    keep = [q for q in half if rng.random() < 0.7]
    at_max = [q for q in half if max(abs(x) for x in q) == max_degree]
    forced = at_max[int(rng.integers(len(at_max)))]
    if forced not in keep:
        keep.append(forced)
    raw = {q: complex(rng.normal(), rng.normal()) for q in keep}
    scale = mass / (2.0 * sum(abs(a) for a in raw.values()))
    coeffs = {(0,) * rank: 1.0 + 0.0j}
    for q, a in raw.items():
        coeffs[q] = a * scale
        coeffs[tuple(-x for x in q)] = a.conjugate() * scale
    return FourierDensity(rank, coeffs)
