"""Reference implementations that only the tests read."""

import itertools

import numpy as np

from powerlimits.groups import GroupDescriptor
from powerlimits.stats import MomentReport, empirical_fourier_many, fourier_labels
from powerlimits.torus import FourierDensity
from powerlimits._kernels import TAU, _factors, _layout, _split, wrap_angles


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
