"""Named experiments: configs in, verdict tables out.

An :class:`ExperimentConfig` (usually loaded from JSON) names one of five
experiment kinds, a group family, a law, a list of powers and sample
sizes, and a seed.  Runners sample, transform, test, and return an
:class:`ExperimentReport` whose summary passes iff every constituent
verdict does.  A config may declare itself a negative control, in which
case the summary passes iff the raw verdicts *fail* (the suites are meant
to demonstrate test power, not just absence of alarms).

Reproducibility: all randomness flows from ``numpy.random.SeedSequence``
children of the config seed, spawned per pipeline stage in a fixed order,
so a config and seed pin the entire report (wall-clock aside).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import preimage as pre
from . import samplers, stats, torus
from .groups import (
    GroupDescriptor,
    descriptor,
    eigenangles_batch,
    haar_batch,
    identity,
    power_batch,
    rains_limit_batch,
)

EXPERIMENT_KINDS = {
    "eigen_convergence": "eigenangles of U^m against the fixed high-power law",
    "group_limit": "U^m against psi(flag, Y) (or Haar^D) in entry/trace moments",
    "exact_threshold": "symbolic stationarity threshold, matched statistically",
    "preimage_invariance": "limit law from sorted vs uniform preimages",
    "torus_suite": "exact and statistical torus pushforward checks",
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    experiment: str
    family: str = "U"
    matrix_size: int = 2
    law: dict = field(default_factory=lambda: {"type": "haar"})
    powers: list = field(default_factory=lambda: [1, 2])
    samples: int = 10000
    seed: int | None = None
    max_lattice_degree: int = 3
    trace_k_max: int = 3
    grid_size: int = 360
    threshold: float = 5.0
    target: str = "preimage_limit"
    negative_control: bool = False
    density_count: int = 20
    torus_rank: int = 2

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {sorted(EXPERIMENT_KINDS)}")
        if self.seed is None:
            raise ConfigError("an explicit seed is required")
        if self.samples < 100:
            raise ConfigError("samples must be at least 100")
        if any(int(m) < 1 for m in self.powers):
            raise ConfigError("powers must be >= 1")
        if self.family not in ("U", "SU", "SO"):
            raise ConfigError("family must be one of U, SU, SO")
        if self.target not in ("preimage_limit", "haar_power"):
            raise ConfigError("target must be preimage_limit or haar_power")
        return self

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        return cls(**data).validate()

    def descriptor(self) -> GroupDescriptor:
        return descriptor(self.family, self.matrix_size)

    def build_law(self):
        desc = self.descriptor()
        kind = self.law.get("type", "haar")
        if kind == "haar":
            return samplers.HaarLaw(desc)
        if kind == "perturbed_haar":
            return samplers.PerturbedHaarLaw(desc, float(self.law.get("strength", 0.5)))
        if kind == "mixture_u2":
            d1 = self.law.get("d1")
            d2 = self.law.get("d2")
            default = samplers.default_mixture_marginal()
            return samplers.MixtureU2Law(
                torus.FourierDensity.from_json(d1) if d1 else default,
                torus.FourierDensity.from_json(d2) if d2 else default,
                desc)
        if kind == "torus_density":
            payload = self.law.get("density")
            dens = (torus.FourierDensity.from_json(payload) if payload
                    else samplers.default_mixture_marginal())
            return samplers.TorusLaw(desc, dens)
        if kind == "point_mass":
            return samplers.PointMassLaw(identity(desc))
        raise ConfigError(f"unknown law type {kind!r}")


@dataclass
class VerdictRow:
    """One flattened verdict with its estimate (None for estimate-free
    checks such as KS or exactness bounds), ready for CSV."""

    m: int
    statistic: str
    estimate_re: float | None
    estimate_im: float | None
    std_error: float | None
    z: float
    threshold: float
    passed: bool

    @classmethod
    def from_pair(cls, m: int, verdict: stats.TestVerdict,
                  report: stats.MomentReport | None) -> "VerdictRow":
        est_re = float(report.estimate.real) if report else None
        est_im = float(report.estimate.imag) if report else None
        se = float(report.std_error) if report else None
        return cls(int(m), verdict.statistic, est_re, est_im, se,
                   float(verdict.z_score), float(verdict.threshold),
                   bool(verdict.passed))


@dataclass
class ExperimentReport:
    config: dict
    rows: list
    raw_pass: bool
    summary_pass: bool
    wall_clock: float
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"config": self.config, "rows": [asdict(r) for r in self.rows],
                "raw_pass": self.raw_pass, "summary_pass": self.summary_pass,
                "notes": self.notes, "wall_clock": self.wall_clock}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["experiment", "m", "statistic_id", "estimate_re",
                         "estimate_im", "std_error", "z", "pass"])
        name = self.config.get("experiment", "")
        fmt = lambda x: "" if x is None else f"{x:.12g}"
        for r in self.rows:
            writer.writerow([name, r.m, r.statistic, fmt(r.estimate_re),
                             fmt(r.estimate_im), fmt(r.std_error),
                             f"{r.z:.12g}", str(r.passed).lower()])
        return buf.getvalue()


def _finish(config: ExperimentConfig, rows: list, t0: float,
            notes: dict | None = None) -> ExperimentReport:
    raw = all(r.passed for r in rows)
    summary = (not raw) if config.negative_control else raw
    return ExperimentReport(asdict(config), rows, raw, summary,
                            time.perf_counter() - t0, notes or {})


def _rngs(config: ExperimentConfig, count: int):
    seq = np.random.SeedSequence(config.seed)
    return [np.random.default_rng(s) for s in seq.spawn(count)]


def _fourier_rows(m: int, reports, bound: float) -> list:
    verdicts = stats.coefficient_bound_test(reports, bound)
    return [VerdictRow.from_pair(m, v, r) for v, r in zip(verdicts, reports)]


def _two_sample_rows(m: int, reports_a, reports_b, threshold: float) -> list:
    verdicts = stats.two_sample_test(reports_a, reports_b, threshold)
    rows = []
    for i, v in enumerate(verdicts):
        rows.append(VerdictRow.from_pair(m, v, reports_a[i // 2]))
    return rows


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_eigen_convergence(config: ExperimentConfig) -> ExperimentReport:
    """Eigenangles of U^m against the fixed high-power law.

    Per power m: uniform-preimage torus coordinates of U^m must look iid
    uniform (Fourier bound suite plus a KS check per coordinate), and the
    trace moments of the eigenangle multiset must match an independent
    draw from the monomial limit sampler.
    """
    config.validate()
    t0 = time.perf_counter()
    desc = config.descriptor()
    law = config.build_law()
    lattice = stats.lattice_ball(desc.torus_rank, config.max_lattice_degree)
    rows = []
    rngs = _rngs(config, 4 * len(config.powers))
    for i, m in enumerate(config.powers):
        r_samp, r_weyl, r_limit, _ = rngs[4 * i:4 * i + 4]
        mats = law.sample_batch(r_samp, config.samples)
        angles = eigenangles_batch(power_batch(mats, int(m)))
        coords = pre.uniform_torus_rows(desc, angles, r_weyl)
        reports = stats.empirical_fourier_many(coords, lattice)
        rows += _fourier_rows(m, reports, config.threshold)
        for j in range(desc.torus_rank):
            ks = stats.ks_uniform(coords[:, j])
            ks = stats.TestVerdict(f"ks_uniform[{j}]", ks.z_score, ks.threshold, ks.passed)
            rows.append(VerdictRow.from_pair(m, ks, None))
        limit_angles = rains_limit_batch(desc, r_limit, config.samples)
        rows += _two_sample_rows(
            m,
            stats.spectral_trace_moments(angles, config.trace_k_max),
            stats.spectral_trace_moments(limit_angles, config.trace_k_max),
            config.threshold)
    return _finish(config, rows, t0)


def run_group_limit(config: ExperimentConfig) -> ExperimentReport:
    """U^m against its limiting group law, in entry and trace moments.

    The limit side is psi(flag, Y) over uniform preimages of an
    independent run of the same law, or Haar^D when the config targets
    ``haar_power`` (the conjugate-invariant case).
    """
    config.validate()
    t0 = time.perf_counter()
    desc = config.descriptor()
    law = config.build_law()
    rows = []
    rngs = _rngs(config, 4 * len(config.powers))
    for i, m in enumerate(config.powers):
        r_a, r_b, r_pre, r_y = rngs[4 * i:4 * i + 4]
        powered = power_batch(law.sample_batch(r_a, config.samples), int(m))
        if config.target == "haar_power":
            limit = power_batch(haar_batch(desc, r_b, config.samples),
                                desc.stationarity_exponent)
        else:
            flags, _ = pre.preimages_batch(law.sample_batch(r_b, config.samples),
                                           desc, r_pre)
            limit = pre.limit_law_batch(flags, desc, r_y)
        reports_a = stats.entry_moments(powered) + stats.trace_moments(powered, config.trace_k_max)
        reports_b = stats.entry_moments(limit) + stats.trace_moments(limit, config.trace_k_max)
        rows += _two_sample_rows(m, reports_a, reports_b, config.threshold)
    return _finish(config, rows, t0)


def run_exact_threshold(config: ExperimentConfig) -> ExperimentReport:
    """Stationarity threshold of the symbolic eigenvalue density.

    Verifies statistically that the torus coordinates of U^m are iid
    uniform at m = threshold, that they stay non-uniform at the largest
    power below the threshold where the symbolic pushforward is not yet
    the constant 1 (detection of a designated surviving coefficient), and
    that intermediate powers agree with what the symbolic oracle says.
    """
    config.validate()
    t0 = time.perf_counter()
    desc = config.descriptor()
    law = config.build_law()
    dens = samplers.symbolic_eigen_density(law)
    thr = torus.stationarity_threshold(dens)
    lattice = stats.lattice_ball(desc.torus_rank, config.max_lattice_degree)
    notes = {"threshold": thr}

    # largest power below thr whose symbolic pushforward is still non-uniform
    detect_m, designated = None, None
    for m in range(thr - 1, 0, -1):
        pushed = torus.fourier_pushforward(dens, m)
        support = {p: a for p, a in pushed.coefficients.items() if any(p)}
        if support:
            detect_m = m
            designated = max(support, key=lambda p: abs(support[p]))
            notes["detection_power"] = detect_m
            notes["designated_coefficient"] = list(designated)
            notes["designated_value"] = [support[designated].real, support[designated].imag]
            # the detection z has mean sqrt(S) |value|: below this S it
            # misses the threshold more often than not
            need = int(np.ceil((config.threshold / abs(support[designated])) ** 2))
            notes["detection_min_samples"] = need
            notes["detection_powered"] = config.samples >= need
            break

    rows = []
    rngs = _rngs(config, 2 * thr)
    for m in range(1, thr + 1):
        r_samp, r_weyl = rngs[2 * (m - 1):2 * m]
        mats = law.sample_batch(r_samp, config.samples)
        angles = eigenangles_batch(power_batch(mats, m))
        coords = pre.uniform_torus_rows(desc, angles, r_weyl)
        pushed = torus.fourier_pushforward(dens, m)
        if m == thr or not any(any(p) for p in pushed.coefficients):
            # the oracle says uniform: the whole coefficient ball must vanish
            reports = stats.empirical_fourier_many(coords, lattice)
            for row in _fourier_rows(m, reports, config.threshold):
                row.statistic = f"uniform@{row.statistic}"
                rows.append(row)
        else:
            # the oracle says not yet: the designated coefficient must be
            # seen (a detection row passes when z *exceeds* the threshold,
            # so it is built directly rather than as a TestVerdict)
            report = stats.empirical_fourier(coords, designated)
            z = float(np.sqrt(report.sample_size) * abs(report.estimate))
            rows.append(VerdictRow(m, f"detect@{report.statistic}",
                                   float(report.estimate.real), float(report.estimate.imag),
                                   float(report.std_error), z, config.threshold,
                                   bool(z > config.threshold)))
            # and it must match the symbolic value
            expect = torus.fourier_coefficient(pushed, designated)
            dz = abs(report.estimate - expect) / max(report.std_error, 1e-300)
            v2 = stats.TestVerdict(f"match@{report.statistic}", float(dz),
                                   config.threshold, bool(dz <= config.threshold))
            rows.append(VerdictRow.from_pair(m, v2, report))
    return _finish(config, rows, t0, notes)


def run_preimage_invariance(config: ExperimentConfig) -> ExperimentReport:
    """limit draws psi(flag, Y) from sorted vs uniform preimages of the
    same law must agree in distribution (entry and trace moments)."""
    config.validate()
    t0 = time.perf_counter()
    desc = config.descriptor()
    law = config.build_law()
    r_a, r_b, r_w, r_y1, r_y2 = _rngs(config, 5)
    flags_sorted, _ = pre.preimages_batch(law.sample_batch(r_a, config.samples), desc)
    flags_uniform, _ = pre.preimages_batch(law.sample_batch(r_b, config.samples), desc, r_w)
    side_a = pre.limit_law_batch(flags_sorted, desc, r_y1)
    side_b = pre.limit_law_batch(flags_uniform, desc, r_y2)
    reports_a = stats.entry_moments(side_a) + stats.trace_moments(side_a, config.trace_k_max)
    reports_b = stats.entry_moments(side_b) + stats.trace_moments(side_b, config.trace_k_max)
    rows = _two_sample_rows(0, reports_a, reports_b, config.threshold)
    return _finish(config, rows, t0)


def run_torus_suite(config: ExperimentConfig) -> ExperimentReport:
    """Exact pushforward checks plus statistical convergence on the torus.

    Per random density: the coefficient route and the grid route must
    agree pointwise; the grid operator must preserve the Riemann sum and
    contract L1 on signed functions; samples pushed through m = 50 must
    look uniform; at m = 1 the empirical coefficients must match the
    density's own.
    """
    config.validate()
    t0 = time.perf_counter()
    rank = config.torus_rank
    r_dens, r_samp, r_sign = _rngs(config, 3)
    rows = []
    powers = [int(m) for m in config.powers] or [2]
    g = config.grid_size
    for i in range(config.density_count):
        dens = torus.random_fourier_density(r_dens, rank, max_degree=3)
        grid = torus.to_grid(dens, g)
        for m in powers:
            if g % m:
                raise ConfigError(f"powers must divide grid_size; {m} does not divide {g}")
            via_coeff = torus.to_grid(torus.fourier_pushforward(dens, m), g // m)
            via_grid = torus.grid_pushforward(grid, m)
            err = float(np.max(np.abs(via_coeff.values - via_grid.values)))
            v = stats.TestVerdict(f"oracle_equiv[{i}]", err, 1e-9, bool(err <= 1e-9))
            rows.append(VerdictRow.from_pair(m, v, None))
            drift = abs(via_grid.values.sum() * (torus.TAU / via_grid.grid_size) ** rank - 1.0)
            v = stats.TestVerdict(f"integral[{i}]", float(drift), 1e-12, bool(drift <= 1e-12))
            rows.append(VerdictRow.from_pair(m, v, None))
        signed = r_sign.normal(size=grid.values.shape)
        for m in powers:
            before = float(np.abs(signed).sum()) * (torus.TAU / g) ** rank
            after_vals = torus.fold_grid(signed, m)
            after = float(np.abs(after_vals).sum()) * (torus.TAU / (g // m)) ** rank
            violation = max(after - before, 0.0)
            v = stats.TestVerdict(f"contraction[{i}]", violation, 1e-12,
                                  bool(violation <= 1e-12))
            rows.append(VerdictRow.from_pair(m, v, None))
        sample = torus.sample_grid(grid, r_samp, config.samples)
        lattice = stats.lattice_ball(rank, 3)
        spun = torus.power_angles(sample, 50)
        rows += [_tagged(row, f"spun[{i}]@") for row in
                 _fourier_rows(50, stats.empirical_fourier_many(spun, lattice),
                               config.threshold)]
        # m = 1: empirical coefficients match the density's own series.
        # The grid sampler draws a cell by its point value and jitters
        # uniformly inside it, so coefficient p carries the extra factor
        # prod_j exp(-i pi p_j / G) sinc(p_j / G); apply it before comparing.
        reports = stats.empirical_fourier_many(sample, lattice)
        for rep, p in zip(reports, lattice):
            pf = np.asarray(p, dtype=float)
            expect = torus.fourier_coefficient(dens, tuple(p))
            expect *= np.prod(np.exp(-1j * np.pi * pf / g) * np.sinc(pf / g))
            dz = abs(rep.estimate - expect) / max(rep.std_error, 1e-300)
            v = stats.TestVerdict(f"match[{i}]@{rep.statistic}", float(dz),
                                  config.threshold, bool(dz <= config.threshold))
            rows.append(VerdictRow.from_pair(1, v, rep))
    return _finish(config, rows, t0)


def _tagged(row: VerdictRow, prefix: str) -> VerdictRow:
    row.statistic = prefix + row.statistic
    return row


RUNNERS = {
    "eigen_convergence": run_eigen_convergence,
    "group_limit": run_group_limit,
    "exact_threshold": run_exact_threshold,
    "preimage_invariance": run_preimage_invariance,
    "torus_suite": run_torus_suite,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch one config to its runner."""
    config.validate()
    return RUNNERS[config.experiment](config)
