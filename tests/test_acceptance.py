"""Acceptance suite: one test per criterion, one printed line per criterion.

Where a stated expectation is provably wrong in the source material, the
suite asserts the value derived by the symbolic Fourier oracle instead and
says so next to the assertion.  The two corrections, in criteria 4 and 5,
share a root cause: the exact Fourier series of the eigenvalue density.
Pushing a density forward under theta -> m*theta keeps the coefficients
a_p with m | p (every component) and moves them to p/m, so the law of the
m-th power is uniform exactly when no nonzero support point has all
components divisible by m.

SU(2).  The eigenvalues are e^{+-i theta} and the Weyl density of the free
angle is |e^{i theta} - e^{-i theta}|^2 / 2 = 1 - cos(2 theta), i.e. the
series 1 - (z^2 + z^-2)/2 with z = e^{i theta}.  Its support is {0, +-2}:
at m = 2 the points +-2 survive as +-1 (density 1 - cos theta, coefficient
-1/2 at p = 1), and from m = 3 on only 0 survives.  So the free angle
freezes at m = 3, not at m = N = 2.  The m = 2 uniformity expectation also
contradicts E Tr(H^2) = 2 E cos(2 theta) = -1, which would be 0 for a
uniform angle.

Perturbed U(2), strength a.  The Haar part is |z1 - z2|^2 / 2, with
coefficients {0: 1, +-(1,-1): -1/2}.  The perturbation
1 + (a/4)(z1 + 1/z1 + z2 + 1/z2) has {0: 1, +-e1: a/4, +-e2: a/4}.  Their
product has support 0, +-(1,-1) (-1/2), +-(1,0) and +-(0,1)
(a/4 - a/8 = a/8), and +-(2,-1) and +-(1,-2) (-a/8).  The highest degree
is 2, so the guaranteed threshold is 3.  But every nonzero support point
has an odd component, so m = 2 already annihilates all of them and the
law is exactly uniform one power *below* the threshold.  Detection
therefore lives at m = 1, the largest non-uniform power, on the largest
coefficient, (1,-1).
"""

import time

import numpy as np
import pytest

from powerlimits import groups as G
from powerlimits import preimage as P
from powerlimits import samplers as L
from powerlimits import stats as S
from powerlimits import torus as T
from powerlimits.experiments import ExperimentConfig, run_experiment
from oracles import empirical_fourier, rains_limit_batch
from test_preimage import act, in_group, weyl_converts

TAU = 2 * np.pi
SAMPLES = 100_000


def _report(number: int, label: str, ok: bool, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.1f}s/{budget:.0f}s) {label}")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def _bounded(reports, bound_multiple: float) -> bool:
    """Every coefficient passes the CLT null bound sqrt(S)*|estimate| <= bound_multiple."""
    modulus = np.hypot(reports.estimate.real, reports.estimate.imag)
    return bool(np.all(np.sqrt(reports.sample_size) * modulus <= bound_multiple))


def test_criterion_1_oracle_equivalence():
    """Coefficient reindexing vs grid branch averaging, 20 densities."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        d = T.random_fourier_density(rng, 2, 3)
        grid = T.to_grid(d, 360)
        for m in (2, 3, 4, 6):
            via_coeff = T.to_grid(T.fourier_pushforward(d, m), 360 // m)
            via_grid = T.grid_pushforward(grid, m)
            worst = max(worst, float(np.max(np.abs(via_coeff.values - via_grid.values))))
    _report(1, f"oracle equivalence, worst {worst:.2e} <= 1e-9", worst <= 1e-9, t0, 30.0)


def test_criterion_2_grid_operator_exactness():
    """Integral preservation and L1 contraction on signed grids."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_drift, worst_slack = 0.0, -np.inf
    for i in range(100):
        if i % 2:
            v, g = rng.normal(size=360), 360
        else:
            v, g = rng.normal(size=(60, 60)), 60
        scale = (TAU / g) ** v.ndim
        for m in (2, 3, 4, 6):
            f = T.fold_grid(v, m)
            coarse = (TAU / (g // m)) ** v.ndim
            worst_drift = max(worst_drift, abs(f.sum() * coarse - v.sum() * scale))
            worst_slack = max(worst_slack,
                              np.abs(f).sum() * coarse - np.abs(v).sum() * scale)
    ok = worst_drift <= 1e-12 and worst_slack <= 1e-12
    _report(2, f"integral drift {worst_drift:.2e}, contraction slack {worst_slack:.2e}",
            ok, t0, 5.0)


def test_criterion_3_u2_haar_frozen_at_two():
    """U(2) Haar: iid-uniform eigenangles at m = 2 = D, detection at m = 1."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    desc = G.unitary(2)
    lattice = S.lattice_ball(2, 3)
    mats = G.haar_batch(desc, rng, SAMPLES)

    coords2 = P.uniform_torus_rows(desc, G.eigenangles_batch(G.power_batch(mats, 2)), rng)
    bound_ok = _bounded(S.empirical_fourier_many(coords2, lattice), 5.0)

    coords1 = P.uniform_torus_rows(desc, G.eigenangles_batch(mats), rng)
    rep1 = empirical_fourier(coords1, (1, -1))
    z_detect = abs(rep1.estimate) / rep1.std_error
    detect_ok = z_detect > 5.0

    _report(3, f"m=2 coefficients bounded: {bound_ok}; "
               f"m=1 Weyl coefficient z={z_detect:.0f} > 5",
            bound_ok and detect_ok, t0, 60.0)


def test_criterion_4_su2_and_so3():
    """SU(2)/SO(3) structure at m = D plus uniformity of the free angle.

    The determinant-product and fixed-eigenvalue identities hold at m = D
    literally.  The SU(2) free-angle uniformity is asserted at m = 3, the
    power where the symbolic oracle proves the law freezes; at m = D = 2
    the oracle value -1/2 at lattice point 1 is confirmed instead (the
    m = 2 uniformity expectation contradicts E Tr(H^2) = -1).
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)

    # SO(3), m = D = 3: everything literal
    so3 = G.special_orthogonal_odd(3)
    powered = G.power_batch(G.haar_batch(so3, rng, SAMPLES), 3)
    angles = G.eigenangles_batch(powered)
    one_present = float(np.max(np.min(np.minimum(angles, TAU - angles), axis=1)))
    so_fixed_ok = one_present <= 1e-8
    coords = P.uniform_torus_rows(so3, angles, rng)
    so_ks_ok = S.ks_uniform(coords[:, 0]) <= S.KS_THRESHOLD_1PCT
    so_fourier_ok = _bounded(S.empirical_fourier_many(coords, S.lattice_ball(1, 3)), 5.0)

    # SU(2): det-product identity at m = D = 2 (exact group structure)
    su2 = G.special_unitary(2)
    mats = G.haar_batch(su2, rng, SAMPLES)
    h2 = G.power_batch(mats, 2)
    su_det_ok = float(np.max(np.abs(np.linalg.det(h2) - 1.0))) <= 1e-8
    ang2 = G.eigenangles_batch(h2)
    wsum = G.wrap_angles(ang2.sum(axis=1))
    su_pair_ok = float(np.max(np.minimum(wsum, TAU - wsum))) <= 1e-6

    # SU(2) free angle: uniform at the oracle threshold m = 3 ...
    coords3 = P.uniform_torus_rows(su2, G.eigenangles_batch(G.power_batch(mats, 3)), rng)
    su_ks_ok = S.ks_uniform(coords3[:, 0]) <= S.KS_THRESHOLD_1PCT
    su_fourier_ok = _bounded(S.empirical_fourier_many(coords3, S.lattice_ball(1, 3)), 5.0)
    # ... and exactly the oracle's -1/2 coefficient at m = 2, not uniform
    coords2 = P.uniform_torus_rows(su2, ang2, rng)
    rep = empirical_fourier(coords2, (1,))
    su_m2_ok = abs(rep.estimate - (-0.5)) <= 5 * rep.std_error

    # the fixed limit law itself carries the structural identities
    lim_su = rains_limit_batch(su2, rng, 1000)
    lim_so = rains_limit_batch(so3, rng, 1000)
    wlim = G.wrap_angles(lim_su.sum(axis=1))
    limit_ok = (float(np.max(np.minimum(wlim, TAU - wlim))) <= 1e-10
                and bool(np.all(np.min(lim_so, axis=1) == 0.0)))

    ok = all([so_fixed_ok, so_ks_ok, so_fourier_ok, su_det_ok, su_pair_ok,
              su_ks_ok, su_fourier_ok, su_m2_ok, limit_ok])
    _report(4, "SU(2): det identity at m=2, uniform free angle at oracle m=3; "
               "SO(3): eigenvalue 1 and uniform free angle at m=3",
            ok, t0, 60.0)


def test_criterion_5_exact_thresholds():
    """Symbolic thresholds 2 (Haar) and 3 (perturbed a=0.5) on U(2).

    Statistical match at the threshold; the designated-coefficient
    detection sits at the largest non-uniform power computed by the
    symbolic oracle (m = 1 for both laws: the perturbed support at m = 2
    is annihilated by parity, so 'one power below' is already uniform
    there, and the runner checks that uniformity too).
    """
    t0 = time.perf_counter()
    thresholds, detections, passes = {}, {}, {}
    for name, law in (("haar", {"type": "haar"}),
                      ("perturbed", {"type": "perturbed_haar", "strength": 0.5})):
        cfg = ExperimentConfig(experiment="exact_threshold", family="U", matrix_size=2,
                               law=law, samples=SAMPLES, seed=105)
        rep = run_experiment(cfg)
        thresholds[name] = rep.notes["threshold"]
        detections[name] = rep.notes["detection_power"]
        passes[name] = rep.summary_pass
    ok = (thresholds == {"haar": 2, "perturbed": 3}
          and detections == {"haar": 1, "perturbed": 1}
          and all(passes.values()))
    _report(5, f"thresholds {thresholds}, detection powers {detections}", ok, t0, 120.0)


def test_criterion_6_mixture_limit():
    """U(2) mixture at m = 64 vs the explicit limit X Y + (1-X) a Y a*."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    law = L.MixtureU2Law()
    powered = G.power_batch(law.sample_batch(rng, SAMPLES), 64)
    limit = law.sample_limit_batch(rng, SAMPLES)
    z = np.concatenate([S.two_sample_test(S.entry_moments(powered), S.entry_moments(limit)),
                        S.two_sample_test(S.trace_moments(powered, 3), S.trace_moments(limit, 3))])
    _report(6, f"{len(z)} mixture-limit z-scores, worst {z.max():.2f} <= 5",
            bool(np.all(z <= 5.0)), t0, 120.0)


def test_criterion_7_conjugate_invariant_limit():
    """Perturbed-Haar U(2) at m = 64 vs Haar^D."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(experiment="group_limit", family="U", matrix_size=2,
                           law={"type": "perturbed_haar", "strength": 0.5},
                           powers=[64], samples=SAMPLES, seed=107,
                           target="haar_power")
    rep = run_experiment(cfg)
    worst = max(abs(r.z) for r in rep.rows)
    _report(7, f"perturbed-Haar vs Haar^D, worst z {worst:.2f} <= 5",
            rep.summary_pass, t0, 120.0)


def test_criterion_8_preimage_invariance():
    """Sorted vs uniform preimages feed the same limit law, both laws."""
    t0 = time.perf_counter()
    ok = True
    worsts = {}
    for name, law in (("perturbed", {"type": "perturbed_haar", "strength": 0.5}),
                      ("mixture", {"type": "mixture_u2"})):
        cfg = ExperimentConfig(experiment="preimage_invariance", family="U",
                               matrix_size=2, law=law, samples=SAMPLES, seed=108)
        rep = run_experiment(cfg)
        ok = ok and rep.summary_pass
        worsts[name] = round(max(abs(r.z) for r in rep.rows), 2)
    _report(8, f"sorted vs uniform limit laws, worst z {worsts}", ok, t0, 120.0)


def test_criterion_9_machinery_invariants():
    """Unitarity suites, Weyl psi-invariance, power compatibility, and the
    constructive preimage conversion, across the implemented families."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    on_torus_chart = lambda rows: bool(np.all((rows >= 0.0) & (rows < TAU)))  # NaN fails too
    ok = True
    for desc in (G.unitary(2), G.unitary(3), G.special_unitary(2),
                 G.special_unitary(3), G.special_orthogonal_odd(3),
                 G.special_orthogonal_odd(5)):
        mats = G.haar_batch(desc, rng, 1000)
        ok = ok and G.unitarity_defect(mats) <= G.TAU_UNIT
        if desc.family is not G.Family.UNITARY:
            ok = ok and float(np.max(np.abs(np.linalg.det(mats) - 1.0))) <= 1e-9

        flags, torus = P.preimages_batch(mats, desc, rng)
        recon = float(np.max(np.abs(P.psi_batch(flags, torus, desc) - mats)))
        ok = ok and recon <= 1e-8

        # 25 drawn rows, each checked against every Weyl element at once
        g = mats[rng.integers(1000, size=25)]
        ok = ok and in_group(desc, g, G.TAU_DRIFT)
        flags, torus = P.preimages_batch(g, desc)
        moved_flags, moved_torus = act(desc, flags, torus)
        out = P.psi_batch(moved_flags, moved_torus, desc)
        ok = ok and all(in_group(desc, x) for x in (flags, moved_flags, out))
        ok = ok and all(on_torus_chart(x) for x in (torus, moved_torus))
        ok = ok and float(np.max(np.abs(out - np.repeat(g, len(out) // 25, axis=0)))) <= 1e-9
        ms = rng.integers(2, 9, size=25)
        for m in np.unique(ms):
            powered = G.wrap_angles(m * torus[ms == m])
            lhs = P.psi_batch(flags[ms == m], powered, desc)
            rhs = G.power_batch(g[ms == m], int(m))
            ok = (ok and on_torus_chart(powered) and in_group(desc, lhs)
                  and in_group(desc, rhs, G.TAU_DRIFT) and float(np.max(np.abs(lhs - rhs))) <= 1e-8)
        uniform = P.preimages_batch(g, desc, rng)
        ok = ok and in_group(desc, uniform[0]) and on_torus_chart(uniform[1])
        ok = ok and bool(weyl_converts(desc, (flags, torus), uniform).all())
        if not ok:
            break
    _report(9, "unitarity, psi-invariance, power compatibility, Weyl conversion",
            ok, t0, 60.0)
