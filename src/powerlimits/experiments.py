"""Named experiments: configs in, verdict tables out.

An :class:`ExperimentConfig` (usually loaded from JSON) names one of five
experiment kinds, a group family, a law, a list of powers and sample
sizes, and a seed.  :func:`run_experiment` validates it, builds the group,
the law and the seed sequence once, hands them to the kind's runner, and
returns an :class:`ExperimentReport` whose summary passes iff every
constituent verdict does.  A config may declare itself a negative control,
in which case the summary passes iff the raw verdicts *fail* (the suites
are meant to demonstrate test power, not just absence of alarms).

Reproducibility: all randomness flows from ``numpy.random.SeedSequence``
children of the config seed, spawned per pipeline stage in a fixed order,
so a config and seed pin the entire report (wall-clock aside); streamed
chunks (:func:`_streamed`) draw one after another from those streams.  The
independent stages of ``group_limit`` and ``preimage_invariance`` run on a
pool of two threads when two CPUs are allowed (:func:`_in_parallel`); each
draws only from its own streams, so the report is the same on one core or two.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import preimage as pre
from . import samplers, stats, torus
from ._kernels import wrap_angles
from .groups import (
    GroupDescriptor,
    descriptor,
    fixed_law_trace_moments,
    haar_batch,
    power_batch,
)

# the config fields every kind reads (EXPERIMENT_KINDS, below the runners, adds each kind's)
_COMMON_FIELDS = {"experiment", "samples", "seed", "threshold", "negative_control"}
# integer config fields and their least allowed values
_INT_FIELDS = {"matrix_size": 0, "samples": 100, "seed": 0, "max_lattice_degree": 1,
               "grid_size": 0, "density_count": 0, "torus_rank": 1}
CHUNK_ROWS = 4096   # rows per chunk of a streamed side: two stages in flight hold 8192
TRACE_K_MAX = 3     # group_limit matches Tr(g^k) and |Tr(g^k)|^2 for k = 1..TRACE_K_MAX
_TORUS_SUITE_DEGREE = 3   # degree of torus_suite's random densities and its lattice
# law types and the keys each accepts besides "type"
_LAW_KEYS = {"haar": set(), "perturbed_haar": {"strength"}, "mixture_u2": {"d1", "d2"},
             "torus_density": {"density"}, "point_mass": set()}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _kind_fields(kind) -> set:
    """The config fields experiment ``kind`` reads."""
    if not isinstance(kind, str) or kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment {kind!r}; choose from {sorted(EXPERIMENT_KINDS)}")
    return _COMMON_FIELDS | EXPERIMENT_KINDS[kind][1]


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
    grid_size: int = 360
    threshold: float = 5.0
    target: str = "preimage_limit"
    negative_control: bool = False
    density_count: int = 20
    torus_rank: int = 2

    def validate(self) -> "ExperimentConfig":
        """Raise :class:`ConfigError` for anything the runners would trip
        over; the law is built here, so its own checks count too."""
        _kind_fields(self.experiment)
        if self.seed is None:
            raise ConfigError("an explicit seed is required")
        for name, low in _INT_FIELDS.items():
            if type(getattr(self, name)) is not int or getattr(self, name) < low:
                raise ConfigError(f"{name} must be an integer >= {low}")
        if type(self.threshold) not in (int, float) or not 0 < self.threshold < float("inf"):
            raise ConfigError("threshold must be a positive finite number")
        if type(self.negative_control) is not bool:
            raise ConfigError("negative_control must be true or false")
        if not (isinstance(self.powers, list) and self.powers
                and all(type(m) is int and m >= 1 for m in self.powers)):
            raise ConfigError("powers must be a non-empty list of integers >= 1")
        if len(set(self.powers)) < len(self.powers):
            raise ConfigError(f"powers must be distinct (got {self.powers})")
        if self.experiment == "torus_suite" and (self.grid_size <= 2 * _TORUS_SUITE_DEGREE or any(
                self.grid_size % m for m in self.powers)):
            raise ConfigError(f"torus_suite needs grid_size > {2 * _TORUS_SUITE_DEGREE}, "
                              f"divisible by every power (got {self.grid_size})")
        if self.target not in ("preimage_limit", "haar_power"):
            raise ConfigError("target must be preimage_limit or haar_power")
        try:
            self.build_law()
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise ConfigError(f"cannot build the law: {exc}") from exc
        if self.law.get("type") == "point_mass" and (self.experiment == "preimage_invariance" or (
                self.experiment == "group_limit" and self.target == "preimage_limit")):
            raise ConfigError(f"{self.experiment} needs preimages, undefined for a point mass")
        if self.experiment == "group_limit" and self.target == "haar_power" and self.law.get(
                "type") in ("torus_density", "mixture_u2"):
            raise ConfigError(f"a {self.law['type']} law is not conjugation invariant, so its "
                              f"limit is not Haar^D: use target preimage_limit")
        return self

    @classmethod
    def from_json(cls, data) -> "ExperimentConfig":
        """A validated config from JSON text or its parsed dict, of fields its kind reads."""
        data = json.loads(data) if isinstance(data, str) else data
        if not isinstance(data, dict) or "experiment" not in data:
            raise ConfigError("a config is a JSON object naming its experiment")
        extra = set(data) - _kind_fields(data["experiment"])
        if extra:
            raise ConfigError(f"{data['experiment']} does not read config fields {sorted(extra)}")
        return cls(**data).validate()

    def descriptor(self) -> GroupDescriptor:
        return descriptor(self.family, self.matrix_size)

    def build_law(self):
        desc = self.descriptor()
        kind = self.law.get("type", "haar")
        if kind not in _LAW_KEYS:
            raise ConfigError(f"unknown law type {kind!r}")
        extra = set(self.law) - _LAW_KEYS[kind] - {"type"}
        if extra:
            raise ConfigError(f"unknown {kind} law keys: {sorted(extra)}")
        if kind == "haar":
            return samplers.PerturbedHaarLaw(desc, 0.0)
        if kind == "perturbed_haar":
            strength = self.law.get("strength", 0.5)
            if type(strength) not in (int, float):   # float(True) or float("0.3") would run
                raise ConfigError("the perturbed_haar strength must be a number")
            return samplers.PerturbedHaarLaw(desc, float(strength))

        def dens(key):
            if key not in self.law:
                return samplers.default_mixture_marginal()
            if not isinstance(self.law[key], dict):   # from_json would parse a string as JSON
                raise ConfigError("a density is a JSON object with a rank and coeffs")
            return torus.FourierDensity.from_json(self.law[key])

        if kind == "mixture_u2":
            return samplers.MixtureU2Law(dens("d1"), dens("d2"), desc)
        if kind == "torus_density":
            return samplers.TorusLaw(desc, dens("density"))
        return samplers.PointMassLaw(np.eye(desc.matrix_size,
                                             dtype=np.float64 if desc.is_real else np.complex128))


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


@dataclass
class ExperimentReport:
    config: dict
    rows: list
    raw_pass: bool
    summary_pass: bool
    wall_clock: float
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        # vars, not asdict: the row fields are scalars, which asdict would deep-copy.
        return {"config": self.config, "rows": [dict(vars(r)) for r in self.rows],
                "raw_pass": self.raw_pass, "summary_pass": self.summary_pass,
                "notes": self.notes, "wall_clock": self.wall_clock}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

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


def _rngs(seq: np.random.SeedSequence, count: int) -> list:
    return [np.random.default_rng(s) for s in seq.spawn(count)]


def _row(m: int, statistic: str, z, threshold) -> VerdictRow:
    """A row with no estimate (KS or an exactness bound): it passes iff |z| <= threshold."""
    return VerdictRow(m, statistic, None, None, None, float(z), float(threshold),
                      bool(abs(z) <= threshold))


def _verdict_rows(m: int, labels, est, z, threshold: float, passed=None) -> list:
    """One row per statistic of the record ``est`` and its z, in one vector pass; a row
    passes iff z <= threshold unless ``passed`` says otherwise."""
    threshold = float(threshold)
    cols = (est.estimate.real.tolist(), est.estimate.imag.tolist(), est.std_error.tolist(),
            z.tolist(), (z <= threshold if passed is None else passed).tolist())
    return [VerdictRow(m, label, re, im, se, zz, threshold, ok)
            for label, re, im, se, zz, ok in zip(labels, *cols)]


def _bound_rows(m: int, labels, est, threshold: float, size=1, detect: bool = False) -> list:
    """z = sqrt(S |O|) |estimate|, a CLT null bound for coefficients that vanish under
    the limit law: 1/sqrt(S |O|) is the null standard error of a mean over a Weyl orbit
    of ``size`` |O| (1 for a plain coefficient).  Pass iff z <= threshold, or iff
    z > threshold when the rows ``detect`` a coefficient that must not vanish.
    np.hypot equals abs(complex) bit for bit, np.abs not."""
    z = np.sqrt(est.sample_size * size) * np.hypot(est.estimate.real, est.estimate.imag)
    return _verdict_rows(m, labels, est, z, threshold, z > threshold if detect else None)


def _matched_rows(m: int, labels, est, expect, threshold: float) -> list:
    """Each estimate must sit within ``threshold`` standard errors of ``expect``: a
    two-sample row against the exact values as a record of zero spread."""
    exact = stats.Estimates(np.asarray(expect, dtype=np.complex128), np.zeros(len(est)),
                            est.sample_size)
    return _two_sample_rows(m, labels, est, exact, threshold)


def _two_sample_rows(m: int, labels, est_a, est_b, threshold: float) -> list:
    return _verdict_rows(m, labels, est_a, stats.two_sample_test(est_a, est_b), threshold)


def _detection_need(threshold: float, value: complex, size: int) -> int:
    """ceil((threshold / |a|)^2 / |O|), where the detection z's mean sqrt(S |O|) |a|
    reaches ``threshold``, less a rounding-level excess (|a| one ulp below 1/12 on SO(3)
    gives 1800.000000000001, which needs 1800)."""
    return int(np.ceil((threshold / abs(value)) ** 2 / size * (1.0 - 1e-9)))


def _angle_rows(law, m: int, r_samp, size: int) -> np.ndarray:
    """Eigenangle rows of U^m (m times those of U: no matrix is powered) over ``size``
    draws of ``law``.  The rows of U come from :class:`samplers.EigenangleLaw`:
    perturbed-Haar angles (Haar at strength 0) on U(N <= ``WEYL_MAX_N``) straight from
    the Weyl density, with no matrix, in counterclockwise rather than exchangeable
    order; the Weyl-orbit means are symmetric in the row, and the uniform-preimage
    coordinates permute it."""
    return wrap_angles(m * samplers.EigenangleLaw(law).sample_batch(r_samp, size))


# ---------------------------------------------------------------------------
# experiment kinds: (config, descriptor, law, seed sequence) -> (rows, notes)
# ---------------------------------------------------------------------------


def _eigen_convergence(config: ExperimentConfig, desc, law, seq):
    """Eigenangles of U^m against the fixed high-power law.

    Per power m, from a fresh U, with the eigenangles of U^m m times those of
    U: the uniform-preimage torus law must look uniform, in one ``orbit[p]``
    bound row per Weyl orbit of the coefficient box (up to conjugation), read
    from the Weyl rows with no Weyl draw; one uniform Weyl draw on each Weyl row
    gives the torus coordinates of a KS check per coordinate.  No trace row: on
    U and SU, Tr(g^k) of g = U^m is N times the conjugate orbit mean at (k, 0, ...)
    and |Tr(g^k)|^2 is N + N(N-1) times the one at (k, 0, ..., -k); on SO the
    second needs orbits up to degree 2k (README).
    """
    table = stats.orbit_table(desc, config.max_lattice_degree)
    labels = stats.fourier_labels(table.lattice, "orbit")
    rows = []
    rngs = _rngs(seq, 4 * len(config.powers))  # two of each four unused: fixed stream layout
    for i, m in enumerate(config.powers):
        r_samp, r_weyl = rngs[4 * i:4 * i + 2]
        angles = _angle_rows(law, m, r_samp, config.samples)
        rows += _bound_rows(m, labels, stats.orbit_means(table, pre.weyl_rows(desc, angles)),
                            config.threshold, table.size)
        coords = pre.uniform_torus_rows(desc, angles, r_weyl)
        for j in range(desc.torus_rank):
            rows.append(_row(m, f"ks_uniform[{j}]", stats.ks_uniform(coords[:, j]),
                             stats.KS_THRESHOLD_1PCT))
    return rows, {}


def _in_parallel(stages) -> list:
    """The results of the zero-argument callables ``stages``, in list order.

    When the process may run on two or more CPUs, a pool of two threads takes the
    stages in list order; otherwise the calling thread runs them one by one.  Once a
    stage has failed, or the caller is interrupted, no further stage starts; both
    threads are joined, and then the error of the lowest failing index is raised: the
    one a serial run raises.  The result does not depend on the schedule so long as
    each stage draws only from its own generators and writes no shared state.
    numpy's matrix and elementwise kernels release the GIL, so two stages overlap.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if len(stages) < 2 or cpus < 2:
        return [stage() for stage in stages]
    from concurrent.futures import ThreadPoolExecutor, wait

    stop = []   # non-empty once a stage has failed or the caller is leaving

    def run(stage):
        if stop:
            return None
        try:
            return stage()
        except BaseException:
            stop.append(stage)
            raise

    with ThreadPoolExecutor(max_workers=2) as pool:
        try:
            futures = [pool.submit(run, stage) for stage in stages]
            wait(futures)
        finally:
            stop.append(None)   # an interrupt reaches this thread only: start nothing more
    return [future.result() for future in futures]


def _streamed(samples: int, rngs, moments):
    """The moment records (one, or a tuple) that ``moments(size, *rngs)`` returns, over
    ceil(samples / CHUNK_ROWS) near-equal chunks drawn in turn from ``rngs`` and merged
    in order: one chunk's matrices at most are alive, and every check runs per chunk.
    A stage of :func:`_in_parallel` owns its ``rngs``, so two stages streamed at once
    hold two chunks, and draw what they would draw one after the other."""
    count = -(-samples // CHUNK_ROWS)
    size, extra = divmod(samples, count)
    merged = moments(size + (extra > 0), *rngs)
    for c in range(1, count):
        part = moments(size + (c < extra), *rngs)
        merged = (stats.merge(merged, part) if isinstance(part, stats.Estimates)
                  else tuple(map(stats.merge, merged, part)))
    return merged


def _preimage_limit_moments(desc, law, samples: int, r_law, r_pre, r_y) -> stats.Estimates:
    """Entry moments of psi(flag, Y) over the preimages of ``samples`` fresh draws of
    ``law``: uniform preimages with ``r_pre``, sorted ones when it is None."""
    def moments(size, r_law, r_pre, r_y):
        flags, _ = pre.preimages_batch(law.sample_batch(r_law, size), desc, r_pre)
        return stats.entry_moments(pre.limit_law_batch(flags, desc, r_y))
    return _streamed(samples, [r_law, r_pre, r_y], moments)


def _group_limit(config: ExperimentConfig, desc, law, seq):
    """U^m against its limiting group law, in entry and trace moments.

    Entry moments face one limit sample, drawn once from the streams of the
    first power and shared by every power: Haar^D, or psi(flag, Y) over uniform
    preimages of an independent run of ``law``.  Each power draws and powers its
    own U.  Both limit sides have the fixed eigenvalue law, so trace moments are
    matched against its exact values.  Every side is streamed (:func:`_streamed`),
    and the sides run as independent stages (:func:`_in_parallel`).
    """
    entry_ids = stats.entry_labels(desc.matrix_size)
    trace_ids = stats.trace_labels(TRACE_K_MAX)
    expect = np.tile(fixed_law_trace_moments(desc), TRACE_K_MAX)   # in trace_labels order
    rngs = _rngs(seq, 4 * len(config.powers))
    if config.target == "haar_power":
        def haar_moments(size, rng):
            return stats.entry_moments(power_batch(haar_batch(desc, rng, size),
                                                   desc.stationarity_exponent))
        limit_side = lambda: _streamed(config.samples, rngs[1:2], haar_moments)
    else:
        limit_side = lambda: _preimage_limit_moments(desc, law, config.samples, *rngs[1:4])

    def power_side(m, rng):
        def power_moments(size, rng):
            powered = power_batch(law.sample_batch(rng, size), m)
            return stats.entry_moments(powered), stats.trace_moments(powered, TRACE_K_MAX)
        return lambda: _streamed(config.samples, [rng], power_moments)

    limit, *sides = _in_parallel([limit_side] + [power_side(m, rngs[4 * i])
                                                 for i, m in enumerate(config.powers)])
    rows = []
    for m, (entry, trace) in zip(config.powers, sides):
        rows += _two_sample_rows(m, entry_ids, entry, limit, config.threshold)
        rows += _matched_rows(m, trace_ids, trace, expect, config.threshold)
    return rows, {}


def _exact_threshold(config: ExperimentConfig, desc, law, seq):
    """Stationarity threshold of the symbolic eigenvalue density.

    Verifies statistically, on fresh eigenangles of U per power (drawn by
    :func:`_angle_rows`, matrix-free for Haar and perturbed-Haar U(N <= 4); U^m
    has m times its angles), that the uniform-preimage torus law of U^m is
    uniform at m = threshold, and at every power whose symbolic pushforward is
    already uniform.  Each statistic is one Weyl orbit O (up to conjugation):
    the law is Weyl-invariant, so its coefficient at p is the mean over O of the
    plain coefficients of the eigenangle rows, and no Weyl element is drawn.
    The ``uniform@orbit[p]`` rows bound every orbit of the coefficient box by
    z = sqrt(S |O|) |estimate|.  Each power whose pushforward is not yet uniform
    detects (z = sqrt(S |O|) |estimate| above the threshold) and matches (within
    the threshold in plug-in standard errors) the orbit designated at the
    largest such power, or its own largest where that is 0.
    ``detection_min_samples`` is the largest S that any of these detections needs.
    """
    try:
        dens = samplers.symbolic_eigen_density(law)
    except ValueError as exc:
        raise ConfigError(f"exact_threshold needs a symbolic density: {exc}") from exc
    thr = torus.stationarity_threshold(dens)
    table = stats.orbit_table(desc, config.max_lattice_degree)
    labels = ["uniform@" + label for label in stats.fourier_labels(table.lattice, "orbit")]
    notes = {"threshold": thr}
    # the nonzero-frequency coefficients of each pushforward, in lattice (lexicographic)
    # order, and the largest; a tie goes to the first point in that order
    pushed = {m: {p: a for p, a in torus.fourier_pushforward(dens, m).coefficients.items()
                  if any(p)} for m in range(1, thr + 1)}
    largest = lambda m: max(pushed[m], key=lambda p: abs(pushed[m][p]))

    # the powers below thr whose symbolic pushforward is still non-uniform, each
    # with the orbit its detect@ row tests; the density is Weyl-invariant, so its
    # coefficient is the same at every member, the label among them
    powers = [m for m in range(1, thr) if pushed[m]]
    tested = {}
    if powers:
        designated = stats.orbit(desc, largest(powers[-1])).label
        tested = {m: stats.orbit(desc, designated if designated in pushed[m] else largest(m))
                  for m in powers}
        value = pushed[powers[-1]][designated]
        notes["detection_power"] = powers[-1]
        notes["designated_coefficient"] = list(designated)
        notes["designated_value"] = [value.real, value.imag]
        # the detection z at m has mean sqrt(S |O|) |a| for the orbit O and the
        # coefficient a tested there: below the largest such need some row
        # misses more often than not
        need = max(_detection_need(config.threshold, pushed[m][orb.label], orb.size)
                   for m, orb in tested.items())
        notes["detection_min_samples"] = need
        notes["detection_powered"] = config.samples >= need

    rows = []
    rngs = _rngs(seq, 2 * thr)  # the second of each pair unused: fixed stream layout
    for m in range(1, thr + 1):
        angles = _angle_rows(law, m, rngs[2 * (m - 1)], config.samples)
        weyl = pre.weyl_rows(desc, angles)
        if m not in tested:
            # the oracle says uniform: every orbit of the coefficient box must vanish
            rows += _bound_rows(m, labels, stats.orbit_means(table, weyl), config.threshold,
                                table.size)
        else:
            # the oracle says not yet: a surviving coefficient must be seen
            # (the one row that passes when z *exceeds* the threshold) and
            # must match the symbolic value
            orb = tested[m]
            est = stats.orbit_report(orb, weyl)
            label = stats.fourier_labels([orb.label], "orbit")[0]
            rows += _bound_rows(m, [f"detect@{label}"], est, config.threshold, orb.size,
                                detect=True)
            rows += _matched_rows(m, [f"match@{label}"], est, [pushed[m][orb.label]],
                                  config.threshold)
    return rows, notes


def _preimage_invariance(config: ExperimentConfig, desc, law, seq):
    """Limit draws psi(flag, Y) from sorted and uniform preimages agree in entry moments.

    Tr psi(V, Y)^k does not depend on the flag V, so trace moments would test nothing."""
    r_a, r_b, r_w, r_y1, r_y2 = _rngs(seq, 5)
    side_a, side_b = _in_parallel([
        lambda: _preimage_limit_moments(desc, law, config.samples, r_a, None, r_y1),
        lambda: _preimage_limit_moments(desc, law, config.samples, r_b, r_w, r_y2)])
    return _two_sample_rows(0, stats.entry_labels(desc.matrix_size), side_a, side_b,
                            config.threshold), {}


def _torus_suite(config: ExperimentConfig, desc, law, seq):
    """Exact pushforward checks plus statistical convergence on the torus.

    Per random density: the coefficient route and the grid route must
    agree pointwise; the grid operator must preserve the Riemann sum and
    contract L1 on signed functions; samples pushed through m = 50 must
    look uniform; at m = 1 the empirical coefficients must match the
    density's own.  The signed inputs are uniform on [-1, 1], a cheaper draw
    than Gaussian: a branch average never raises an L1 norm, and on random
    signs it lowers it far beyond rounding, so ``contraction[i]`` reads 0.
    """
    rank, g = config.torus_rank, config.grid_size
    r_dens, r_samp, r_sign = _rngs(seq, 3)
    lattice = stats.lattice_ball(rank, _TORUS_SUITE_DEGREE)
    # m = 1 rows match the density's own series, but the grid sampler's law is
    # uniform inside each cell, so coefficient p carries the extra
    # factor prod_j exp(-i pi p_j / G) sinc(p_j / G), the same for every density.
    pf = lattice.astype(float)
    jitter = np.prod(np.exp(-1j * np.pi * pf / g) * np.sinc(pf / g), axis=1)
    labels = stats.fourier_labels(lattice)
    keys = [tuple(p) for p in lattice.tolist()]
    rows = []
    for i in range(config.density_count):
        dens = torus.random_fourier_density(r_dens, rank, max_degree=_TORUS_SUITE_DEGREE)
        grid = torus.to_grid(dens, g)
        for m in config.powers:
            via_coeff = torus.to_grid(torus.fourier_pushforward(dens, m), g // m)
            via_grid = torus.grid_pushforward(grid, m)
            err = np.max(np.abs(via_coeff.values - via_grid.values))
            rows.append(_row(m, f"oracle_equiv[{i}]", err, 1e-9))
            drift = abs(via_grid.values.sum() * (torus.TAU / via_grid.grid_size) ** rank - 1.0)
            rows.append(_row(m, f"integral[{i}]", drift, 1e-12))
        signed = r_sign.uniform(-1.0, 1.0, size=grid.values.shape)
        before = float(np.abs(signed).sum()) * (torus.TAU / g) ** rank
        for m in config.powers:
            after_vals = torus.fold_grid(signed, m)
            after = float(np.abs(after_vals).sum()) * (torus.TAU / (g // m)) ** rank
            rows.append(_row(m, f"contraction[{i}]", max(after - before, 0.0), 1e-12))
        sample = torus.sample_grid(grid, r_samp, config.samples)
        spun = torus.power_angles(sample, 50)
        rows += _bound_rows(50, [f"spun[{i}]@{lab}" for lab in labels],
                            stats.empirical_fourier_many(spun, lattice), config.threshold)
        # a_p * jitter in real and imaginary parts: bit-equal to the scalar product
        coefficients = dens.coefficients
        a = np.array([coefficients.get(k, 0.0) for k in keys], dtype=np.complex128)
        expect = np.empty_like(a)
        expect.real, expect.imag = (a.real * jitter.real - a.imag * jitter.imag,
                                    a.real * jitter.imag + a.imag * jitter.real)
        rows += _matched_rows(1, [f"match[{i}]@{lab}" for lab in labels],
                              stats.empirical_fourier_many(sample, lattice), expect,
                              config.threshold)
    return rows, {}


# experiment kind -> (its runner, the config fields it reads besides _COMMON_FIELDS)
EXPERIMENT_KINDS = {
    "eigen_convergence": (_eigen_convergence,
                          {"family", "matrix_size", "law", "powers", "max_lattice_degree"}),
    "group_limit": (_group_limit, {"family", "matrix_size", "law", "powers", "target"}),
    "exact_threshold": (_exact_threshold, {"family", "matrix_size", "law", "max_lattice_degree"}),
    "preimage_invariance": (_preimage_invariance, {"family", "matrix_size", "law"}),
    "torus_suite": (_torus_suite, {"powers", "grid_size", "density_count", "torus_rank"}),
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Validate ``config``, run its experiment kind, and assemble the report."""
    config.validate()
    t0 = time.perf_counter()
    rows, notes = EXPERIMENT_KINDS[config.experiment][0](
        config, config.descriptor(), config.build_law(), np.random.SeedSequence(config.seed))
    if not rows:
        raise ConfigError("the config yields no verdict rows")
    raw = all(r.passed for r in rows)
    fields = _kind_fields(config.experiment)
    echo = {k: v for k, v in asdict(config).items() if k in fields}
    return ExperimentReport(echo, rows, raw, raw != config.negative_control,
                            time.perf_counter() - t0, notes)
