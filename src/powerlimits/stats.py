"""Estimators and pass/fail tests for convergence-in-distribution claims.

Weak convergence is checked through finite fingerprint families:

* empirical Fourier coefficients of torus-coordinate samples (the
  transform convention E exp(-i p.theta), so the estimate at p targets
  the stored series coefficient a_p directly), and their means over the
  Weyl orbits of the lattice (the uniform-preimage coefficients of
  eigenangle rows, read with no Weyl draw),
* trace moments Tr(g^k) and |Tr(g^k)|^2 of matrix stacks (conjugation
  invariant; on eigenangle rows they are affine images of the orbit means
  above, up to degree 2k on SO, so no spectral route is kept),
* entry moments E[g_jk] and E[g_jk conj(g_lm)] (full group-law
  fingerprints).

Every estimator returns one :class:`Estimates` record of arrays, one entry per
statistic; the caller names the statistics once per run (:func:`fourier_labels`,
:func:`trace_labels`, :func:`entry_labels`).  :func:`two_sample_test` turns two
matched records into one z-score per statistic, on the modulus of the complex
difference.  Estimators are plain sample means, so they are permutation invariant
in the sample order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._kernels import SMALL_N, _plane_matmul, fourier_sums
from .groups import Family, GroupDescriptor

KS_THRESHOLD_1PCT = 1.63  # sqrt(S) * D_S acceptance point at the 1% level


@dataclass(frozen=True)
class Estimates:
    """Sample means over ``sample_size`` draws: a complex ``estimate`` and a plug-in
    ``std_error`` array, one entry per statistic; len() counts the statistics."""

    estimate: np.ndarray
    std_error: np.ndarray
    sample_size: int

    def __post_init__(self):
        if not np.all((self.std_error >= 0.0) & (self.std_error < np.inf)):
            raise ValueError("std_error must be a finite nonnegative real")

    def __len__(self) -> int:
        return self.estimate.shape[0]


def _std_error(spread, s: int):
    """Standard error of a mean from the plug-in variance ``spread`` (a float or an array)."""
    return np.sqrt(spread * s / (s - 1)) / np.sqrt(s)


def _column_estimates(s: int, columns) -> Estimates:
    """The mean and plug-in spread of each (S,) value column, one column at a time:
    a column is read in place, and no (S, K) table is built."""
    if s < 2:
        raise ValueError("need at least two samples")
    means, spreads = [], []
    for values in columns:
        means.append(complex(values.mean()))
        spreads.append(np.mean(np.abs(values - means[-1]) ** 2))
    return Estimates(np.array(means, dtype=np.complex128), _std_error(np.array(spreads), s), s)


def merge(a: Estimates, b: Estimates) -> Estimates:
    """The record of two disjoint samples' union, from their records alone: each gives
    back its count n, mean and sum of squared deviations M2 = n (n - 1) std_error^2,
    joined by the pairwise update of Chan, Golub & LeVeque (Am. Stat. 37, 1983).  Equal
    means of zero spread keep their value and a zero standard error, bit for bit."""
    if len(a) != len(b):
        raise ValueError("estimate records must have equal length")
    na, nb = a.sample_size, b.sample_size
    n, delta = na + nb, b.estimate - a.estimate
    m2 = (na * (na - 1) * a.std_error ** 2 + nb * (nb - 1) * b.std_error ** 2
          + np.abs(delta) ** 2 * (na * nb / n))
    return Estimates(a.estimate + delta * (nb / n), _std_error(m2 / n, n), n)


# ---------------------------------------------------------------------------
# empirical Fourier coefficients
# ---------------------------------------------------------------------------


def fourier_labels(lattice, kind: str = "fourier") -> list[str]:
    """The statistic id of each row of the (K, n) ``lattice``, ``fourier[p_1,...,p_n]``
    (``orbit[...]`` for the Weyl-orbit means of :func:`orbit_means`)."""
    return [f"{kind}[" + ",".join(map(str, p)) + "]" for p in np.asarray(lattice).tolist()]


def empirical_fourier_many(sample, lattice) -> Estimates:
    """Estimates of E exp(-i p.theta) at every lattice row.

    The values have unit modulus, so the sample variance collapses to
    1 - |mean|^2 and no second pass over the data is needed.  For real
    angles the estimate at -p is the conjugate of the one at p, with the
    same standard error, so callers pass one point of each +-p pair (as
    :func:`lattice_ball` does) and lose nothing.  |mean| is np.hypot(re, im), which
    equals abs(complex) bit for bit where np.abs of a complex array does not.
    """
    rows = np.asarray(getattr(sample, "rows", sample), dtype=np.float64)
    lattice = np.atleast_2d(np.asarray(lattice, dtype=np.int64))
    s = rows.shape[0]
    if s < 2:
        raise ValueError("need at least two samples")
    mean = fourier_sums(rows, lattice) / s
    spread = np.maximum(1.0 - np.hypot(mean.real, mean.imag) ** 2, 0.0)
    return Estimates(mean, _std_error(spread, s), s)


def lattice_ball(rank: int, max_degree: int) -> np.ndarray:
    """Nonzero lattice points with every |p_j| <= max_degree, one of each
    +-p pair: the one whose first nonzero coordinate is positive.

    Angles are real, so the empirical coefficient at -p is the conjugate of
    the one at p, and the bound and match tests give the same z at both;
    the dropped half would only repeat every statistic and verdict.
    """
    grids = np.meshgrid(*[np.arange(-max_degree, max_degree + 1)] * rank, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    first = pts[np.arange(pts.shape[0]), np.argmax(pts != 0, axis=1)]
    return pts[first > 0].astype(np.int64)


# ---------------------------------------------------------------------------
# Weyl-orbit means of Fourier coefficients
# ---------------------------------------------------------------------------
#
# The uniform-preimage torus law is the Weyl symmetrization of the law of the
# angle rows the Weyl group permutes (``preimage.weyl_rows``), so its coefficient
# at p is the mean over the orbit Wp of the plain coefficients of those rows:
# no Weyl draw is needed, and one orbit is one statistic.  The orbit sums are
# monomial symmetric functions of the rows (Macdonald, Symmetric Functions and
# Hall Polynomials, ch. I).  The Weyl group acts on integer vectors of length L:
# on U(N) it permutes the N exponents of a torus point; on SU(N) it permutes
# (p, 0) up to a multiple of (1, ..., 1), since the N angles sum to 0; on
# SO(2k+1) it permutes and flips the signs of the k exponents.


def _keys(family: Family, points: np.ndarray) -> np.ndarray:
    """Canonical key of the orbit of each torus lattice point, as a Weyl vector: the
    row sorted descending on U, (p, 0) sorted descending minus its minimum on SU,
    |p| sorted descending on SO."""
    if family is Family.SPECIAL_ORTHOGONAL_ODD:
        return -np.sort(-np.abs(points), axis=1)
    if family is Family.SPECIAL_UNITARY:
        points = np.concatenate([points, np.zeros((points.shape[0], 1), points.dtype)], axis=1)
    keys = -np.sort(-points, axis=1)
    return keys - keys[:, -1:] if family is Family.SPECIAL_UNITARY else keys


def _torus_points(family: Family, vectors: np.ndarray) -> np.ndarray:
    """The torus lattice points of Weyl vectors: (q - q_N)[:N-1] on SU, q elsewhere."""
    return vectors[:, :-1] - vectors[:, -1:] if family is Family.SPECIAL_UNITARY else vectors


def _weyl_images(family: Family, keys: np.ndarray) -> np.ndarray:
    """(K, |W|, L): every Weyl image of each key row, repeats kept."""
    width = keys.shape[1]
    images = keys[:, np.array(list(itertools.permutations(range(width))))]
    if family is Family.SPECIAL_ORTHOGONAL_ODD:
        signs = np.array(list(itertools.product((1, -1), repeat=width)))
        images = (images[:, :, None, :] * signs).reshape(keys.shape[0], -1, width)
    return images


def _codes(vectors: np.ndarray, reach: int) -> np.ndarray:
    """One integer per row of entries in [-reach, reach], in the rows' lexicographic order."""
    base = 2 * reach + 1
    return (vectors + reach) @ base ** np.arange(vectors.shape[1] - 1, -1, -1, dtype=np.int64)


@dataclass(frozen=True)
class OrbitTable:
    """The Weyl orbits of the nonzero points of a box [-d, d]^n on a group's torus,
    one of each conjugate pair O, -O (the one with the lexicographically larger
    key), and how one ``fourier_sums`` call over ``points`` yields all their means.

    Row r is an orbit: ``lattice[r]`` its key as a torus point (a member, which
    labels it), ``size[r]`` = |O| and ``real[r]`` whether O = -O.  ``points`` (K, n)
    holds one point of each +-pair of the members of every orbit; ``index`` (2K,)
    is the row of the orbit of each point, then of its negation, with the row count
    standing for a dropped conjugate.  len() counts the rows.
    """

    family: Family
    lattice: np.ndarray
    size: np.ndarray
    real: np.ndarray
    points: np.ndarray
    index: np.ndarray

    def __len__(self) -> int:
        return self.size.shape[0]


def orbit_table(desc: GroupDescriptor, max_degree: int) -> OrbitTable:
    """The orbits of the nonzero points of the box [-max_degree, max_degree]^n.

    The box of U and SO is closed under the Weyl group, so its points are the
    members; on SU an orbit reaches out to twice the degree, and the members
    outside the box are added.  Each point's orbit is found from an integer code
    of its key, with no Python loop over points: about a millisecond on U(4) at
    degree 3.
    """
    family = desc.family
    half = lattice_ball(desc.torus_rank, max_degree)
    points = np.concatenate([half, -half])
    if family is Family.SPECIAL_UNITARY:
        keys = np.unique(_keys(family, points), axis=0)
        points = np.unique(_torus_points(family, _weyl_images(family, keys).reshape(
            -1, keys.shape[1])), axis=0)
    keys = _keys(family, points)
    reach = int(np.abs(keys).max())
    codes, first, orbit = np.unique(_codes(keys, reach), return_index=True, return_inverse=True)
    lattice = _torus_points(family, keys[first])
    conj = np.searchsorted(codes, _codes(_keys(family, -lattice), reach))
    kept = codes >= codes[conj]
    row = np.where(kept, np.cumsum(kept) - 1, np.count_nonzero(kept))
    size = np.bincount(orbit, minlength=codes.shape[0])
    positive = points[np.arange(points.shape[0]), np.argmax(points != 0, axis=1)] > 0
    points, orbit = points[positive], orbit[positive]
    return OrbitTable(family, lattice[kept], size[kept], (conj == np.arange(conj.shape[0]))[kept],
                      points, np.concatenate([row[orbit], row[conj[orbit]]]))


def orbit_means(table: OrbitTable, rows) -> Estimates:
    """Each orbit's mean of the plain coefficients E exp(-i q.theta) of the Weyl rows
    (S, L) of ``preimage.weyl_rows``: the uniform-preimage coefficient at its label.

    One ``fourier_sums`` call reads every member, and ``bincount`` gathers the sums
    by orbit (a point's negation adds the conjugate).  A self-conjugate orbit's
    mean is real.  ``std_error`` is the null scale 1/sqrt(S |O|): a per-row orbit
    mean y has E|y|^2 = 1/|O| when the symmetrized law is uniform.
    """
    rows = np.asarray(rows, dtype=np.float64)
    s = rows.shape[0]
    if s < 2:
        raise ValueError("need at least two samples")
    coords = rows[:, :-1] if table.family is Family.SPECIAL_UNITARY else rows
    sums = fourier_sums(coords, table.points) / s
    count = len(table) + 1
    re = np.bincount(table.index, np.concatenate([sums.real, sums.real]), count)[:-1]
    im = np.bincount(table.index, np.concatenate([sums.imag, -sums.imag]), count)[:-1]
    estimate = re / table.size + 1j * (np.where(table.real, 0.0, im) / table.size)
    return Estimates(estimate, 1.0 / np.sqrt(s * table.size), s)


@dataclass(frozen=True)
class Orbit:
    """One Weyl orbit: its ``label`` (the key as a torus point), its distinct
    Weyl vectors ``members`` (|O|, L) and whether it is its own conjugate."""

    family: Family
    label: tuple
    members: np.ndarray
    real: bool

    @property
    def size(self) -> int:
        return self.members.shape[0]


def orbit(desc: GroupDescriptor, p) -> Orbit:
    """The orbit of the torus point ``p`` or of ``-p``, whichever :func:`orbit_table` keeps."""
    p = np.asarray(p, dtype=np.int64)
    mine, conj = _keys(desc.family, np.stack([p, -p])).tolist()
    key = np.array([max(mine, conj)])
    return Orbit(desc.family, tuple(_torus_points(desc.family, key)[0].tolist()),
                 np.unique(_weyl_images(desc.family, key)[0], axis=0), mine == conj)


def orbit_report(orb: Orbit, rows) -> Estimates:
    """The mean over ``orb`` of the plain coefficients of the Weyl rows, as in
    :func:`orbit_means`, as a one-row record with the plug-in standard error of the per-row mean
    y = mean_q exp(-i q.theta).  E|y|^2 is the mean over member pairs (q, q') of the
    coefficient at q - q', so one ``fourier_sums`` call at the members and their
    distinct differences gives both moments, and no (S, |O|) table is built.

    On U and SU, q.theta = sum_{j<N} q_j (theta_j - theta_N) + (sum_j q_j) theta_N,
    and the members of an orbit share their sum: so the call reads the N - 1 angle
    differences and theta_N, and every difference q - q' has a 0 in that last place.
    """
    rows = np.asarray(rows, dtype=np.float64)
    s, size, members = rows.shape[0], orb.size, orb.members
    if s < 2:
        raise ValueError("need at least two samples")
    if orb.family is not Family.SPECIAL_ORTHOGONAL_ODD:
        rows = np.concatenate([rows[:, :-1] - rows[:, -1:], rows[:, -1:]], axis=1)
        members = np.concatenate([members[:, :-1], members.sum(axis=1, keepdims=True)], axis=1)
    diffs = (members[:, None] - members[None]).reshape(size * size, -1)
    lattice, where = np.unique(np.concatenate([members, diffs]), axis=0, return_inverse=True)
    sums = fourier_sums(rows, lattice)[where.ravel()] / s
    mean = complex(sums[:size].sum() / size)
    if orb.real:
        mean = complex(mean.real, 0.0)
    spread = max(float(sums[size:].sum().real) / (size * size) - abs(mean) ** 2, 0.0)
    return Estimates(np.array([mean]), _std_error(np.array([spread]), s), s)


# ---------------------------------------------------------------------------
# trace and entry moments
# ---------------------------------------------------------------------------


def trace_labels(k_max: int) -> list[str]:
    """The statistic ids of the trace moments, ``trace[k]`` and ``trace_abs2[k]`` per k."""
    return [f"{name}[{k}]" for k in range(1, k_max + 1) for name in ("trace", "trace_abs2")]


def trace_moments(mats: np.ndarray, k_max: int) -> Estimates:
    """Tr(g^k) and |Tr(g^k)|^2 for k = 1..k_max over a (S, N, N) stack; up to
    N = SMALL_N g^k accumulates on entry planes (einsum sums their diagonal in order)."""
    small = mats.shape[-1] <= SMALL_N
    mats = np.asfortranarray(mats) if small else mats
    powers = itertools.accumulate(itertools.repeat(mats, k_max - 1),
                                  _plane_matmul if small else np.matmul, initial=mats)
    traces = (np.einsum("sii->s", acc) for acc in powers)
    return _column_estimates(mats.shape[0],
                             (col for tr in traces for col in (tr, np.abs(tr) ** 2)))


def entry_moment_schedule(n: int) -> list[tuple]:
    """The documented second-moment index schedule.

    All |g_jk|^2 always; every distinct cross pair E[g_jk conj(g_lm)] as
    well when the matrix has at most 4 entries (n <= 2), where the full
    list stays small.
    """
    flat = [(j, k) for j in range(n) for k in range(n)]
    pairs = [(a, a) for a in flat]
    if n <= 2:
        pairs += [(a, b) for i, a in enumerate(flat) for b in flat[i + 1:]]
    return pairs


def entry_labels(n: int) -> list[str]:
    """The statistic ids of the entry moments of N x N matrices, in their order."""
    return [f"entry[{j},{k}]" for j in range(n) for k in range(n)] + [
        f"entry2[{j},{k}|{l},{m}]" for (j, k), (l, m) in entry_moment_schedule(n)]


def entry_moments(mats: np.ndarray) -> Estimates:
    """First moments of every entry plus scheduled second moments, over a (S, N, N) stack."""
    n = mats.shape[-1]
    firsts = (mats[:, j, k] for j in range(n) for k in range(n))
    seconds = (mats[:, j, k] * mats[:, l, m].conj() for (j, k), (l, m) in entry_moment_schedule(n))
    return _column_estimates(mats.shape[0], itertools.chain(firsts, seconds))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def two_sample_test(a: Estimates, b: Estimates) -> np.ndarray:
    """z = |est_a - est_b| / sqrt(se_a^2 + se_b^2) per statistic, the modulus of the
    complex difference; a zero denominator gives 0 for equal estimates, inf otherwise.
    The two records list the same statistics in the same order."""
    if len(a) != len(b):
        raise ValueError("estimate records must have equal length")
    diff = np.hypot(a.estimate.real - b.estimate.real, a.estimate.imag - b.estimate.imag)
    denom = np.hypot(a.std_error, b.std_error)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, diff / denom, np.where(diff == 0.0, 0.0, np.inf))


def ks_uniform(angles) -> float:
    """z = sqrt(S) * D, D the Kolmogorov-Smirnov distance of a 1-D sample against
    uniform [0, 2*pi); pass iff z <= ``KS_THRESHOLD_1PCT`` (the 1% point)."""
    x = np.sort(np.asarray(angles, dtype=np.float64).ravel())
    s = x.shape[0]
    if s < 50:
        raise ValueError("KS check needs at least 50 samples")
    cdf = x / (2.0 * np.pi)
    upper = np.max(np.arange(1, s + 1) / s - cdf)
    lower = np.max(cdf - np.arange(0, s) / s)
    d = max(upper, lower)
    return float(np.sqrt(s) * d)
