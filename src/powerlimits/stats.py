"""Estimators and pass/fail tests for convergence-in-distribution claims.

Weak convergence is checked through finite fingerprint families:

* empirical Fourier coefficients of torus-coordinate samples (the
  transform convention E exp(-i p.theta), so the estimate at p targets
  the stored series coefficient a_p directly),
* trace moments Tr(g^k) and |Tr(g^k)|^2 (conjugation invariant, they
  separate eigenvalue laws),
* entry moments E[g_jk] and E[g_jk conj(g_lm)] (full group-law
  fingerprints).

Estimates travel as :class:`MomentReport` rows; :func:`two_sample_test`
turns matched report lists into one z-score verdict per statistic, on
the modulus of the complex difference.  Estimators are plain sample
means, so they are permutation invariant in the sample order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import fourier_sums, stack_matmul

KS_THRESHOLD_1PCT = 1.63  # sqrt(S) * D_S acceptance point at the 1% level


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


@dataclass(frozen=True)
class TestVerdict:
    """A z-score compared against a threshold."""

    statistic: str
    z_score: float
    threshold: float

    @property
    def passed(self) -> bool:
        """Pass iff |z| <= threshold."""
        return bool(abs(self.z_score) <= self.threshold)


def _std_error(spread: float, s: int) -> float:
    """Standard error of a mean from the plug-in variance ``spread``."""
    return float(np.sqrt(spread * s / (s - 1)) / np.sqrt(s))


def _report_from_values(statistic: str, values: np.ndarray) -> MomentReport:
    s = values.shape[0]
    if s < 2:
        raise ValueError("need at least two samples")
    mean = complex(values.mean())
    spread = float(np.mean(np.abs(values - mean) ** 2))
    return MomentReport(statistic, mean, _std_error(spread, s), s)


# ---------------------------------------------------------------------------
# empirical Fourier coefficients
# ---------------------------------------------------------------------------


def empirical_fourier_many(sample, lattice) -> list[MomentReport]:
    """Reports for E exp(-i p.theta) at every lattice row.

    The values have unit modulus, so the sample variance collapses to
    1 - |mean|^2 and no second pass over the data is needed.  For real
    angles the estimate at -p is the conjugate of the one at p, with the
    same standard error, so callers pass one point of each +-p pair (as
    :func:`lattice_ball` does) and lose nothing.
    """
    rows = np.asarray(getattr(sample, "rows", sample), dtype=np.float64)
    lattice = np.atleast_2d(np.asarray(lattice, dtype=np.int64))
    s = rows.shape[0]
    if s < 2:
        raise ValueError("need at least two samples")
    sums = fourier_sums(rows, lattice)
    out = []
    for p, total in zip(lattice, sums):
        mean = total / s
        se = _std_error(max(1.0 - abs(mean) ** 2, 0.0), s)
        label = "fourier[" + ",".join(str(int(x)) for x in p) + "]"
        out.append(MomentReport(label, complex(mean), se, s))
    return out


def empirical_fourier(sample, p) -> MomentReport:
    """Report for a single lattice point."""
    return empirical_fourier_many(sample, np.atleast_2d(np.asarray(p)))[0]


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
# trace and entry moments
# ---------------------------------------------------------------------------


def _trace_reports(k: int, tr: np.ndarray) -> list[MomentReport]:
    return [_report_from_values(f"trace[{k}]", tr),
            _report_from_values(f"trace_abs2[{k}]", np.abs(tr) ** 2)]


def trace_moments(mats: np.ndarray, k_max: int) -> list[MomentReport]:
    """Tr(g^k) and |Tr(g^k)|^2 for k = 1..k_max over a (S, N, N) stack."""
    out = []
    acc = mats
    for k in range(1, k_max + 1):
        if k > 1:
            acc = stack_matmul(acc, mats)
        out += _trace_reports(k, np.einsum("sii->s", acc))
    return out


def spectral_trace_moments(angle_rows: np.ndarray, k_max: int) -> list[MomentReport]:
    """Same statistics computed from eigenangle rows: Tr(g^k) = sum_j e^{ik theta_j}."""
    rows = np.asarray(getattr(angle_rows, "rows", angle_rows), dtype=np.float64)
    out = []
    for k in range(1, k_max + 1):
        out += _trace_reports(k, np.exp(1j * k * rows).sum(axis=1))
    return out


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


def entry_moments(mats: np.ndarray) -> list[MomentReport]:
    """First moments of every entry plus scheduled second moments, over a (S, N, N) stack."""
    n = mats.shape[-1]
    out = []
    for j in range(n):
        for k in range(n):
            out.append(_report_from_values(f"entry[{j},{k}]", mats[:, j, k]))
    for (j, k), (l, m) in entry_moment_schedule(n):
        values = mats[:, j, k] * mats[:, l, m].conj()
        out.append(_report_from_values(f"entry2[{j},{k}|{l},{m}]", values))
    return out


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def two_sample_test(reports_a, reports_b, threshold: float = 5.0) -> list[TestVerdict]:
    """One verdict per statistic: z = |est_a - est_b| / sqrt(se_a^2 + se_b^2),
    the modulus of the complex difference; statistic ids must match pairwise."""
    if len(reports_a) != len(reports_b):
        raise ValueError("report lists must have equal length")
    out = []
    for a, b in zip(reports_a, reports_b):
        if a.statistic != b.statistic:
            raise ValueError(f"mismatched statistics: {a.statistic} vs {b.statistic}")
        diff, denom = abs(a.estimate - b.estimate), float(np.hypot(a.std_error, b.std_error))
        z = diff / denom if denom else (0.0 if diff == 0.0 else np.inf)
        out.append(TestVerdict(a.statistic, z, threshold))
    return out


def coefficient_bound_test(reports, bound_multiple: float = 5.0) -> list[TestVerdict]:
    """Pass iff sqrt(S)*|estimate| <= bound_multiple (a CLT null bound for
    statistics that vanish under the limit law)."""
    out = []
    for r in reports:
        z = float(np.sqrt(r.sample_size) * abs(r.estimate))
        out.append(TestVerdict(r.statistic, z, bound_multiple))
    return out


def ks_uniform(angles) -> TestVerdict:
    """Kolmogorov-Smirnov distance of a 1-D sample against uniform [0, 2*pi);
    pass iff sqrt(S) * D <= 1.63 (the 1% point)."""
    x = np.sort(np.asarray(angles, dtype=np.float64).ravel())
    s = x.shape[0]
    if s < 50:
        raise ValueError("KS check needs at least 50 samples")
    cdf = x / (2.0 * np.pi)
    upper = np.max(np.arange(1, s + 1) / s - cdf)
    lower = np.max(cdf - np.arange(0, s) / s)
    d = max(upper, lower)
    z = float(np.sqrt(s) * d)
    return TestVerdict("ks_uniform", z, KS_THRESHOLD_1PCT)
