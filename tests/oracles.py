"""Reference implementations that only the tests read."""

import itertools
from dataclasses import dataclass

import numpy as np

from powerlimits.experiments import VerdictRow
from powerlimits.groups import GroupDescriptor
from powerlimits.stats import (Estimates, _column_estimates, _std_error, empirical_fourier_many,
                               entry_moment_schedule, fourier_labels, lattice_ball)
from powerlimits.torus import AngleSample, FourierDensity, GridDensity
from powerlimits._kernels import TAU, _factors, _layout, _power_table, _split, wrap_angles


def rains_limit_batch(desc: GroupDescriptor, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, N) eigenangle rows of the fixed law of high Haar powers:
    the monomial table evaluated at iid uniform torus angles."""
    y = rng.uniform(0.0, TAU, size=(size, desc.torus_rank))
    return wrap_angles(y @ desc.monomials.T.astype(np.float64))


def spectral_trace_moments(angle_rows, k_max: int) -> Estimates:
    """Tr(g^k) = sum_j exp(i k theta_j) and |Tr(g^k)|^2 from eigenangle rows, in
    ``stats.trace_labels`` order: the matrix trace moments without a matrix."""
    rows = np.asarray(getattr(angle_rows, "rows", angle_rows), dtype=np.float64)
    traces = [np.exp(1j * k * rows).sum(axis=1) for k in range(1, k_max + 1)]
    return _column_estimates(rows.shape[0],
                             (col for tr in traces for col in (tr, np.abs(tr) ** 2)))


# ---------------------------------------------------------------------------
# the scalar estimate and verdict path: one report object per statistic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    """One estimated statistic: mean, plug-in standard error, sample size."""

    statistic: str
    estimate: complex
    std_error: float
    sample_size: int

    def __post_init__(self):
        if not np.isfinite(self.std_error) or self.std_error < 0.0:
            raise ValueError("std_error must be a finite nonnegative real")


def _report_from_values(statistic: str, values: np.ndarray) -> MomentReport:
    s = values.shape[0]
    if s < 2:
        raise ValueError("need at least two samples")
    mean = complex(values.mean())
    spread = float(np.mean(np.abs(values - mean) ** 2))
    return MomentReport(statistic, mean, float(_std_error(spread, s)), s)


def scalar_trace_moments(traces) -> list:
    """Reports of Tr(g^k) and |Tr(g^k)|^2 from the (S,) trace column of each k = 1, 2, ..."""
    out = []
    for k, tr in enumerate(traces, start=1):
        out += [_report_from_values(f"trace[{k}]", tr),
                _report_from_values(f"trace_abs2[{k}]", np.abs(tr) ** 2)]
    return out


def scalar_entry_moments(mats: np.ndarray) -> list:
    """Reports of every entry and of the scheduled second moments, one at a time."""
    n = mats.shape[-1]
    out = [_report_from_values(f"entry[{j},{k}]", mats[:, j, k])
           for j in range(n) for k in range(n)]
    for (j, k), (l, m) in entry_moment_schedule(n):
        out.append(_report_from_values(f"entry2[{j},{k}|{l},{m}]",
                                       mats[:, j, k] * mats[:, l, m].conj()))
    return out


def scalar_two_sample_test(reports_a, reports_b) -> list:
    """One z per statistic, |est_a - est_b| / sqrt(se_a^2 + se_b^2); ids must match."""
    out = []
    for a, b in zip(reports_a, reports_b, strict=True):
        if a.statistic != b.statistic:
            raise ValueError(f"mismatched statistics: {a.statistic} vs {b.statistic}")
        diff, denom = abs(a.estimate - b.estimate), float(np.hypot(a.std_error, b.std_error))
        out.append(diff / denom if denom else (0.0 if diff == 0.0 else np.inf))
    return out


def scalar_row(m: int, statistic: str, z, threshold, report=None, passed=None) -> VerdictRow:
    """A verdict row: it passes iff |z| <= threshold unless ``passed`` says otherwise,
    and carries ``report``'s estimate."""
    return VerdictRow(m, statistic,
                      float(report.estimate.real) if report else None,
                      float(report.estimate.imag) if report else None,
                      float(report.std_error) if report else None,
                      float(z), float(threshold),
                      bool(abs(z) <= threshold if passed is None else passed))


def match_z(report, expect) -> float:
    """The two-sample z of ``report`` against ``expect`` as an exact record of zero spread:
    |estimate - expect| / std_error, and for a zero std_error 0 if they are equal, else inf."""
    exact = MomentReport(report.statistic, complex(expect), 0.0, report.sample_size)
    return scalar_two_sample_test([report], [exact])[0]


def _match_row(m: int, statistic: str, report, expect, threshold: float) -> VerdictRow:
    """The estimate must sit within ``threshold`` standard errors of ``expect``."""
    return scalar_row(m, statistic, match_z(report, expect), threshold, report)


def scalar_ks_uniform(angles) -> float:
    """sqrt(S) D of the Kolmogorov-Smirnov distance to uniform [0, 2 pi), one point at a time."""
    x = sorted(float(a) for a in np.ravel(angles))
    s = len(x)
    d = max(max((i + 1) / s - v / (2.0 * np.pi), v / (2.0 * np.pi) - i / s)
            for i, v in enumerate(x))
    return float(np.sqrt(s) * d)


def empirical_fourier(sample, p) -> MomentReport:
    """The estimate of ``stats.empirical_fourier_many`` at the single lattice point p."""
    p = np.atleast_2d(np.asarray(p))
    est = empirical_fourier_many(sample, p)
    return MomentReport(fourier_labels(p)[0], complex(est.estimate[0]),
                        float(est.std_error[0]), est.sample_size)


def dict_density(rank: int, coefficients: dict) -> FourierDensity:
    """The density of a {lattice point tuple: a_p} dict, its rows handed over in dict order."""
    points = np.array(list(coefficients)).reshape(len(coefficients), rank)
    return FourierDensity(rank, points, np.array(list(coefficients.values()), dtype=np.complex128))


def _as_lattice_key(p) -> tuple[int, ...]:
    return tuple(int(x) for x in np.atleast_1d(p))


def fourier_coefficient(d: FourierDensity, p) -> complex:
    """Stored coefficient a_p (= the transform at p), 0 outside support."""
    return complex(d.coefficients.get(_as_lattice_key(p), 0.0))


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
    return dict_density(rank, coeffs)
