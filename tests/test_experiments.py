"""Experiment configs, runners, reports, and the CLI."""

import dataclasses
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from powerlimits import cli, experiments, groups, preimage, samplers, stats, torus
from powerlimits._kernels import _plane_matmul, fourier_sums
from powerlimits.experiments import (
    EXPERIMENT_KINDS,
    ConfigError,
    ExperimentConfig,
    _kind_fields,
    run_experiment,
)
from oracles import (
    MomentReport,
    _match_row,
    fourier_coefficient,
    match_z,
    scalar_entry_moments,
    scalar_ks_uniform,
    scalar_row,
    scalar_trace_moments,
    scalar_two_sample_test,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FILE_CONFIGS = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}


def _workload_configs():
    """The benchmark's workload configs at seed 1, loaded by file path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", CONFIGS.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {name: workloads.config(name, 1) for name in workloads.WORKLOADS}


SHIPPED_CONFIGS = {**FILE_CONFIGS, **_workload_configs()}


def small_config(**overrides):
    base = dict(experiment="eigen_convergence", family="U", matrix_size=2,
                law={"type": "haar"}, powers=[2], samples=4000, seed=17)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_requires_seed(self):
        with pytest.raises(ConfigError):
            small_config(seed=None).validate()

    def test_requires_sample_floor(self):
        with pytest.raises(ConfigError):
            small_config(samples=10).validate()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            small_config(experiment="nope").validate()

    def test_rejects_zero_power(self):
        with pytest.raises(ConfigError):
            small_config(powers=[0]).validate()

    @pytest.mark.parametrize("powers", [[], [2.7], [2, True], 2, "2"])
    def test_powers_are_a_nonempty_list_of_ints(self, powers):
        with pytest.raises(ConfigError):
            small_config(law={"type": "point_mass"}, powers=powers).validate()

    @pytest.mark.parametrize("overrides", [
        dict(law={"type": "wat"}),
        dict(law={"type": "perturbed_haar", "strength": 3}),
        dict(law={"type": "perturbed_haar", "strength": True}),
        dict(law={"type": "torus_density", "density": {"rank": 2}}),
        dict(family="SO", matrix_size=4),
        dict(family="X"),
        dict(law="haar"),
        dict(experiment="torus_suite", powers=[7], grid_size=360),
    ])
    def test_validation_builds_the_law_and_checks_powers(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides).validate()

    @pytest.mark.parametrize("kind, extra", [
        ("eigen_convergence", {}), ("group_limit", {}),
        ("torus_suite", {"density_count": 1, "grid_size": 360})])
    def test_repeated_powers_are_refused(self, kind, extra):
        # a repeated power once repeated every (m, statistic_id) row of that power
        with pytest.raises(ConfigError, match="distinct"):
            ExperimentConfig.from_json({"experiment": kind, "seed": 1, "powers": [2, 3, 2],
                                        **extra})

    def test_empty_run_is_an_error(self):
        with pytest.raises(ConfigError, match="no verdict rows"):
            run_experiment(small_config(experiment="torus_suite", density_count=0))

    @pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
    def test_shipped_configs_validate(self, name):
        # the CLI's load path: parse, then build and validate from the dict
        cfg = ExperimentConfig.from_json(SHIPPED_CONFIGS[name])
        assert cfg.experiment in EXPERIMENT_KINDS

    @pytest.mark.parametrize("kind, target, refused", [
        ("group_limit", "preimage_limit", True),
        ("preimage_invariance", "preimage_limit", True),
        ("group_limit", "haar_power", False),
        ("eigen_convergence", "preimage_limit", False),
    ])
    def test_point_mass_is_refused_where_preimages_are_taken(self, kind, target, refused):
        cfg = small_config(experiment=kind, target=target, law={"type": "point_mass"})
        if refused:
            with pytest.raises(ConfigError, match="preimages"):
                cfg.validate()
        else:
            assert cfg.validate() is cfg

    def test_rejects_unknown_json_fields(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(json.dumps({"experiment": "torus_suite",
                                                   "seed": 1, "bogus": 2}))

    @pytest.mark.parametrize("kind, key, value", [
        ("exact_threshold", "powers", [7]),
        ("preimage_invariance", "target", "haar_power"),
        ("torus_suite", "family", "U"),
    ])
    def test_json_refuses_fields_the_kind_does_not_read(self, kind, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_json({"experiment": kind, "seed": 1, key: value})
        # a config built in Python keeps every field
        assert small_config(experiment=kind, **{key: value}).validate().experiment == kind

    @pytest.mark.parametrize("kind", sorted(EXPERIMENT_KINDS))
    def test_no_kind_reads_trace_k_max(self, kind):
        # group_limit reads Tr(g^k) for k up to the constant TRACE_K_MAX
        with pytest.raises(ConfigError, match="trace_k_max"):
            ExperimentConfig.from_json({"experiment": kind, "seed": 1, "trace_k_max": 3})

    def test_json_round_trip(self):
        cfg = ExperimentConfig.from_json(json.dumps(
            {"experiment": "group_limit", "family": "U", "matrix_size": 2,
             "law": {"type": "mixture_u2"}, "powers": [4], "samples": 500,
             "seed": 3}))
        assert cfg.experiment == "group_limit"
        assert cfg.build_law().__class__.__name__ == "MixtureU2Law"

    def test_law_construction(self):
        assert small_config(law={"type": "perturbed_haar", "strength": 0.25}
                            ).build_law().strength == 0.25
        with pytest.raises(ConfigError):
            small_config(law={"type": "wat"}).build_law()

    def test_custom_density_payloads(self):
        dens = {"rank": 2, "coeffs": [
            {"p": [0, 0], "re": 1.0, "im": 0.0},
            {"p": [1, -1], "re": 0.25, "im": 0.0},
            {"p": [-1, 1], "re": 0.25, "im": 0.0}]}
        law = small_config(law={"type": "mixture_u2", "d1": dens}).build_law()
        assert law.d1.coefficients[(1, -1)] == 0.25
        assert law.d2.coefficients[(1, 0)] == 0.5  # default marginal
        torus_law = small_config(law={"type": "torus_density", "density": dens}).build_law()
        assert torus_law.density.max_degree == 1


class TestRunners:
    def test_eigen_convergence_haar_passes(self):
        rep = run_experiment(small_config(samples=20000))
        assert rep.raw_pass and rep.summary_pass

    def test_so_rows_at_pi_keep_their_ks_coordinates(self, monkeypatch):
        # an SO(3) row with its angle at pi folds to pi, and the signed Weyl draw keeps
        # it there: the KS rows read every row, and no note counts a drop
        cfg = small_config(family="SO", matrix_size=3, powers=[1, 3], samples=2000)
        angle_rows, ks_uniform, seen = experiments._angle_rows, stats.ks_uniform, []

        def at_pi(law, m, rng, size):
            angles = angle_rows(law, m, rng, size)
            angles[:10 * m] = [0.0, np.pi, np.pi]
            return angles

        def ks(coords):
            seen.append(np.count_nonzero(coords == np.pi))
            return ks_uniform(coords)
        monkeypatch.setattr(experiments, "_angle_rows", at_pi)
        monkeypatch.setattr(stats, "ks_uniform", ks)
        assert run_experiment(cfg).notes == {}
        assert seen == [10, 30]

    def test_eigen_point_mass_negative_control(self):
        rep = run_experiment(small_config(law={"type": "point_mass"}, powers=[10],
                                          negative_control=True))
        assert not rep.raw_pass
        assert rep.summary_pass

    def test_point_mass_keeps_the_family_dtype_and_fails_every_row(self):
        # the dtype picks the spectral path: complex 2x2 stacks take eig_normal_2x2
        for family, n, dtype in (("U", 2, np.complex128), ("SO", 3, np.float64)):
            law = small_config(family=family, matrix_size=n, law={"type": "point_mass"}).build_law()
            draws = law.sample_batch(np.random.default_rng(0), 3)
            assert draws.dtype == dtype and np.all(draws == np.eye(n))
        rep = run_experiment(ExperimentConfig.from_json(FILE_CONFIGS["eigen_point_mass_negative"]))
        assert rep.summary_pass and not any(r.passed for r in rep.rows)
        orbit_rows = [r for r in rep.rows if r.statistic.startswith("orbit[")]
        assert orbit_rows and all((r.estimate_re, r.estimate_im) == (1.0, 0.0)
                                  for r in orbit_rows)

    def test_eigen_m1_detects_weyl_coefficient(self):
        rep = run_experiment(small_config(powers=[1], samples=20000))
        assert not rep.raw_pass
        failing = {r.statistic for r in rep.rows if not r.passed}
        assert "orbit[1,-1]" in failing

    @pytest.mark.parametrize("kind", ["eigen_convergence", "exact_threshold"])
    def test_spectral_kinds_power_no_matrix(self, monkeypatch, kind):
        def refuse(*args):
            raise AssertionError("a spectral kind powered a matrix")
        monkeypatch.setattr(groups, "power_batch", refuse)
        monkeypatch.setattr(experiments, "power_batch", refuse)
        assert run_experiment(small_config(experiment=kind, samples=20000)).summary_pass

    @pytest.mark.parametrize("kind", ["eigen_convergence", "exact_threshold"])
    @pytest.mark.parametrize("n, law", [
        (2, {"type": "haar"}), (3, {"type": "perturbed_haar", "strength": 0.5}),
        (4, {"type": "haar"}), (4, {"type": "perturbed_haar", "strength": -1.0})])
    def test_spectral_kinds_draw_no_matrix_on_small_unitary(self, monkeypatch, kind, n, law):
        def refuse(*args):
            raise AssertionError("a spectral kind drew a matrix")
        for module in (groups, samplers, experiments):
            monkeypatch.setattr(module, "haar_batch", refuse)
        for module in (groups, samplers):
            monkeypatch.setattr(module, "eigenangles_batch", refuse)
        rep = run_experiment(small_config(experiment=kind, matrix_size=n, law=law,
                                          samples=500, max_lattice_degree=1))
        assert rep.rows

    @pytest.mark.parametrize("kind, n, law", [
        ("eigen_convergence", 5, {"type": "haar"}),
        ("eigen_convergence", 5, {"type": "perturbed_haar", "strength": 0.5}),
        ("eigen_convergence", 2, {"type": "point_mass"}),
        ("eigen_convergence", 2, {"type": "torus_density"}),
        ("exact_threshold", 2, {"type": "torus_density"})])
    def test_spectral_kinds_keep_the_matrix_route_elsewhere(self, monkeypatch, kind, n, law):
        sizes, eigenangles_batch = [], samplers.eigenangles_batch

        def counted(mats):
            sizes.append(len(mats))
            return eigenangles_batch(mats)

        monkeypatch.setattr(samplers, "eigenangles_batch", counted)
        rep = run_experiment(small_config(experiment=kind, matrix_size=n, law=law, powers=[2, 3],
                                          samples=500, max_lattice_degree=1))
        assert sizes == [500] * len({r.m for r in rep.rows})

    def test_eigen_convergence_past_the_drift_of_squaring(self):
        # U(2) squared 40 times drifts off the group by about 1e-3; the
        # eigenangles of U^m are m theta, which cannot drift
        assert run_experiment(small_config(powers=[2 ** 40], samples=2000, seed=1)).summary_pass

    @pytest.mark.parametrize("target, law_draws, haar_draws", [
        ("preimage_limit", 4, 0), ("haar_power", 3, 1)])
    def test_group_limit_draws_its_limit_side_once(self, monkeypatch, target, law_draws,
                                                   haar_draws):
        calls = {"law": 0, "haar": 0}
        law_batch, haar_batch = samplers.PerturbedHaarLaw.sample_batch, experiments.haar_batch

        def counted_law(law, rng, size):
            calls["law"] += 1
            return law_batch(law, rng, size)

        def counted_haar(*args):
            calls["haar"] += 1
            return haar_batch(*args)

        monkeypatch.setattr(samplers.PerturbedHaarLaw, "sample_batch", counted_law)
        monkeypatch.setattr(experiments, "haar_batch", counted_haar)
        run_experiment(small_config(experiment="group_limit", powers=[2, 3, 64], samples=500,
                                    law={"type": "perturbed_haar", "strength": 0.5},
                                    target=target))
        assert calls == {"law": law_draws, "haar": haar_draws}

    def test_group_limit_mixture(self):
        rep = run_experiment(small_config(experiment="group_limit",
                                          law={"type": "mixture_u2"}, powers=[8],
                                          samples=20000))
        assert rep.summary_pass

    def test_group_limit_negative_power_m1(self):
        rep = run_experiment(small_config(
            experiment="group_limit", law={"type": "perturbed_haar", "strength": 1.0},
            powers=[1], samples=20000, target="haar_power", negative_control=True))
        assert rep.summary_pass  # the m=1 law is visibly not the limit

    def test_exact_threshold_haar(self):
        rep = run_experiment(small_config(experiment="exact_threshold", samples=20000))
        assert rep.notes["threshold"] == 2
        assert rep.notes["detection_power"] == 1
        assert rep.summary_pass

    @pytest.mark.parametrize("samples, powered", [(1000, False), (2000, True)])
    def test_exact_threshold_detection_power_note(self, samples, powered):
        # U(2) Haar designates the orbit {(1, -1), (-1, 1)} with coefficient -1/2 at
        # m = 1, so a threshold of 25 needs (25 / 0.5)^2 / 2 = 1250 samples to reach
        rep = run_experiment(small_config(experiment="exact_threshold",
                                          samples=samples, threshold=25.0))
        assert rep.notes["designated_value"] == [-0.5, 0.0]
        assert rep.notes["detection_min_samples"] == 1250
        assert rep.notes["detection_powered"] is powered

    @pytest.mark.parametrize("family, n, threshold, need", [("SU", 2, 4, 800),
                                                            ("SO", 3, 3, 1800)])
    def test_exact_threshold_off_unitary(self, family, n, threshold, need):
        # the symbolic density comes from the descriptor's roots; U^m from matrices.
        # Rank 1: each orbit is {p, -p}, so the need is (5 / |a|)^2 / 2
        rep = run_experiment(small_config(experiment="exact_threshold", family=family,
                                          matrix_size=n, samples=20000,
                                          law={"type": "perturbed_haar", "strength": 0.5}))
        assert rep.notes["threshold"] == threshold
        assert rep.notes["detection_min_samples"] == need and rep.notes["detection_powered"]
        assert rep.summary_pass

    @pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_detection_need_ignores_rounding_level_excess(self, ulps, sign):
        # SO(3) designates a = -1/12 on an orbit of 2: (5 * 12)^2 / 2 = 1800 exactly,
        # but one ulp below |a| the quotient reads 1800.000000000001
        a = 1 / 12
        for _ in range(abs(ulps)):
            a = np.nextafter(a, np.sign(ulps))
        assert experiments._detection_need(5.0, sign * a, 2) == 1800
        assert experiments._detection_need(5.0, complex(0.0, sign * a), 2) == 1800
        # an excess above rounding level still needs the next sample
        assert experiments._detection_need(5.0, sign * a * (1 - 1e-6), 2) == 1801

    def test_exact_threshold_reads_one_row_per_weyl_orbit(self):
        # U(4) at degree 3: 109 orbits up to conjugation at each uniform power (m = 4, 5)
        # and a detect@/match@ pair on the designated orbit at m = 1, 2, 3
        rep = run_experiment(ExperimentConfig.from_json(SHIPPED_CONFIGS["spectral-u4"]))
        assert len(rep.rows) == 224 and all(r.passed for r in rep.rows)
        bound = [r for r in rep.rows if r.statistic.startswith("uniform@orbit[")]
        assert [r.m for r in bound] == [4] * 109 + [5] * 109
        # the null scale: z = |estimate| / std_error with std_error = 1 / sqrt(S |O|)
        assert all(r.z * r.std_error == pytest.approx(np.hypot(r.estimate_re, r.estimate_im))
                   for r in bound)
        assert {r.std_error for r in bound} <= {1 / np.sqrt(2000 * size) for size in (
            1, 4, 6, 12, 24)}
        assert rep.notes["designated_coefficient"] == [1, 0, 0, -1]
        # |a| = 1/12 on an orbit of 12: (5 * 12)^2 / 12
        assert rep.notes["detection_min_samples"] == 300 and rep.notes["detection_powered"]
        assert [r.statistic for r in rep.rows if r.m == 3] == ["detect@orbit[1,0,0,-1]",
                                                               "match@orbit[1,0,0,-1]"]

    def test_exact_threshold_requires_symbolic_density(self):
        with pytest.raises(ConfigError):
            run_experiment(small_config(experiment="exact_threshold",
                                        law={"type": "mixture_u2"}))

    def test_exact_threshold_torus_density_law(self):
        # degree-1 product density on the torus: threshold 2
        rep = run_experiment(small_config(experiment="exact_threshold",
                                          law={"type": "torus_density"},
                                          samples=20000))
        assert rep.notes["threshold"] == 2
        assert rep.summary_pass

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("family, n, terms, threshold", [
        ("SU", 3, [([1, 0], 0.25, 0.0), ([0, 2], 0.0, 0.15)], 3),
        ("SO", 5, [([1, 0], 0.2, 0.0), ([1, 2], 0.1, 0.1), ([0, 2], 0.15, 0.0)], 3)],
        ids=["SU3", "SO5"])
    def test_exact_threshold_torus_law_off_unitary(self, family, n, terms, threshold, seed):
        # densities with no Weyl symmetry of their own; the symbolic side is their mean
        # over the Weyl group, the matrix side eigenvalues of embedded torus draws
        coeffs = [{"p": [0, 0], "re": 1.0}] + [
            {"p": [sign * x for x in p], "re": re, "im": sign * im}
            for p, re, im in terms for sign in (1, -1)]
        rep = run_experiment(small_config(
            experiment="exact_threshold", family=family, matrix_size=n, samples=20000,
            seed=seed, law={"type": "torus_density", "density": {"rank": 2, "coeffs": coeffs}}))
        assert rep.notes["threshold"] == threshold and rep.notes["detection_powered"]
        assert rep.summary_pass and all(r.passed for r in rep.rows)

    def test_exact_threshold_where_the_designated_coefficient_vanishes(self):
        # support (+-2, 0), (0, +-2): threshold 3 and (1, 0) designated at m = 2,
        # but at m = 1 the coefficient at (1, 0) is 0, so m = 1 detects its own largest
        coeffs = [{"p": [0, 0], "re": 1.0}] + [{"p": p, "re": 0.15}
                                               for p in ([2, 0], [-2, 0], [0, 2], [0, -2])]
        rep = run_experiment(small_config(
            experiment="exact_threshold", samples=20000, seed=3,
            law={"type": "torus_density", "density": {"rank": 2, "coeffs": coeffs}}))
        assert rep.notes["designated_coefficient"] == [1, 0]
        assert [r.statistic for r in rep.rows if r.m == 1] == ["detect@orbit[2,0]",
                                                               "match@orbit[2,0]"]
        assert rep.summary_pass

    def test_exact_threshold_detection_need_covers_every_power(self):
        # the orbit of (1, 0) is designated at m = 2 with 0.15, but m = 1 tests it at
        # 0.01, which needs S = (5 / 0.01)^2 / 2; the notes must not call S = 20000 powered
        coeffs = ([{"p": [0, 0], "re": 1.0}] + [{"p": p, "re": 0.02} for p in ([1, 0], [-1, 0])]
                  + [{"p": p, "re": 0.3} for p in ([2, 0], [-2, 0])])
        rep = run_experiment(small_config(
            experiment="exact_threshold", samples=20000, seed=3,
            law={"type": "torus_density", "density": {"rank": 2, "coeffs": coeffs}}))
        assert rep.notes["detection_power"] == 2
        assert rep.notes["designated_coefficient"] == [1, 0]
        assert rep.notes["detection_min_samples"] == 125000
        assert rep.notes["detection_powered"] is False
        detect = {r.m: r for r in rep.rows if r.statistic.startswith("detect@")}
        assert [(m, r.statistic) for m, r in detect.items()] == [(1, "detect@orbit[1,0]"),
                                                                 (2, "detect@orbit[1,0]")]
        assert not detect[1].passed and detect[1].z == pytest.approx(1.7534, abs=1e-4)
        assert detect[2].passed

    def test_exact_threshold_designation_tie_goes_to_the_first_lattice_point(self):
        # at m = 2 the orbits of (1, 0) and (1, 1) both carry 0.1: the tie goes to the
        # first nonzero point in lattice order, (-1, -1), whatever order the config lists
        # the coefficients in
        coeffs = ([{"p": [0, 0], "re": 1.0}] + [{"p": p, "re": 0.1} for p in (
            [2, 0], [-2, 0], [0, 2], [0, -2], [2, 2], [-2, -2])])
        rep = run_experiment(small_config(
            experiment="exact_threshold", samples=4000, seed=3,
            law={"type": "torus_density", "density": {"rank": 2, "coeffs": coeffs}}))
        assert rep.notes["detection_power"] == 2
        label = stats.orbit(groups.unitary(2), (-1, -1)).label
        assert rep.notes["designated_coefficient"] == list(label)
        assert [r.statistic for r in rep.rows if r.m == 2][0] == "detect@orbit[1,1]"

    def test_preimage_invariance(self):
        rep = run_experiment(small_config(experiment="preimage_invariance",
                                          law={"type": "perturbed_haar", "strength": 0.5},
                                          samples=20000))
        assert rep.summary_pass

    def test_torus_suite(self):
        rep = run_experiment(small_config(experiment="torus_suite", powers=[2, 3],
                                          density_count=3, samples=4000))
        assert rep.summary_pass

    @pytest.mark.parametrize("family, n", [("SU", 2), ("SU", 3), ("SO", 3), ("SO", 5)],
                             ids=["2", "3", "SO(3)", "SO(5)"])
    def test_group_limit_haar_power_su(self, family, n):
        # Haar eigenvalues freeze at D = n + 1 on SU(n), n - 1 on SO(n); the
        # limit side Haar^(D-1) is a different law and fails these rows
        rep = run_experiment(small_config(
            experiment="group_limit", family=family, matrix_size=n,
            law={"type": "perturbed_haar", "strength": 0.5}, powers=[64], samples=20000,
            seed=3, target="haar_power"))
        assert rep.raw_pass and rep.summary_pass

    def test_torus_law_group_column(self):
        rep = run_experiment(small_config(law={"type": "torus_density"}, powers=[4],
                                          samples=20000))
        assert rep.summary_pass


STREAMED_CONFIGS = {
    "mixture_limit": dict(experiment="group_limit", law={"type": "mixture_u2"}, powers=[64]),
    "so3_haar_power": dict(experiment="group_limit", family="SO", matrix_size=3,
                           law={"type": "perturbed_haar", "strength": 0.5}, powers=[3, 64],
                           target="haar_power"),
    "invariance": dict(experiment="preimage_invariance",
                       law={"type": "perturbed_haar", "strength": 0.5}),
}


class TestStreaming:
    @pytest.mark.parametrize("samples", [experiments.CHUNK_ROWS + 1, 2 * experiments.CHUNK_ROWS])
    @pytest.mark.parametrize("name", sorted(STREAMED_CONFIGS))
    def test_chunked_runs_pass_and_repeat(self, name, samples):
        cfg = small_config(samples=samples, seed=5, **STREAMED_CONFIGS[name])
        first, again = (run_experiment(cfg).to_json_dict() for _ in range(2))
        assert first["summary_pass"]
        assert {**first, "wall_clock": 0} == {**again, "wall_clock": 0}

    def test_chunks_are_near_equal(self, monkeypatch):
        sizes, law_batch = {}, samplers.PerturbedHaarLaw.sample_batch

        def counted(law, rng, size):
            sizes.setdefault(id(rng), []).append(size)
            return law_batch(law, rng, size)

        monkeypatch.setattr(samplers.PerturbedHaarLaw, "sample_batch", counted)
        half = experiments.CHUNK_ROWS // 2
        run_experiment(small_config(samples=experiments.CHUNK_ROWS + 1,
                                    **STREAMED_CONFIGS["invariance"]))
        # two chunks per side, the first one row more; the two sides may interleave
        assert list(sizes.values()) == [[half + 1, half]] * 2

    @pytest.mark.parametrize("name", sorted(STREAMED_CONFIGS))
    def test_reports_do_not_depend_on_the_core_count(self, name, monkeypatch):
        cfg = small_config(samples=2 * experiments.CHUNK_ROWS + 1, seed=5,
                           **STREAMED_CONFIGS[name])
        reports = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            reports.append(dict(run_experiment(cfg).to_json_dict(), wall_clock=0))
        assert reports[0] == reports[1]

    def test_peak_memory_does_not_grow_with_samples(self):
        import powerlimits

        src = str(Path(powerlimits.__file__).resolve().parent.parent)
        code = ("import resource, sys; sys.path.insert(0, sys.argv[1]); "
                "from powerlimits.experiments import ExperimentConfig, run_experiment; "
                "run_experiment(ExperimentConfig(experiment='group_limit', matrix_size=2, "
                "law={'type': 'mixture_u2'}, powers=[64], samples=int(sys.argv[2]), seed=11)); "
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        # each size in a fresh interpreter: ru_maxrss is a process's high-water mark
        runs = [subprocess.run([sys.executable, "-c", code, src, str(k * experiments.CHUNK_ROWS)],
                               capture_output=True, text=True, check=True) for k in (2, 16)]
        small_kb, large_kb = (int(done.stdout) for done in runs)
        assert abs(large_kb - small_kb) < 8 * 1024


class TestInParallel:
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_results_come_in_list_order(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        ran = []
        stages = [lambda i=i: ran.append(threading.current_thread()) or i for i in range(5)]
        assert experiments._in_parallel(stages) == list(range(5))
        if len(cpus) == 1:   # one CPU: no worker, every stage on the calling thread
            assert ran == [threading.current_thread()] * 5

    def test_every_stage_runs_once_under_fast_thread_switching(self, monkeypatch):
        # a stage taken twice or never breaks the invariant; an index read and then
        # written back without the lock failed this in about half of the runs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(300):
                runs = [[] for _ in range(200)]
                results = experiments._in_parallel(
                    [lambda i=i: runs[i].append(threading.get_ident()) or i for i in range(200)])
                assert results == list(range(200))
                assert [len(r) for r in runs] == [1] * 200
        finally:
            sys.setswitchinterval(interval)

    def test_the_lowest_failing_stage_is_raised_after_the_join(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        # stages 0 and 1 wait for each other, so each runs on its own thread; stage 1
        # fails first, stage 0 after it, and neither thread takes stage 2
        both, first_failed, ran = threading.Barrier(2, timeout=10), threading.Event(), []

        def stage_0():
            both.wait()
            assert first_failed.wait(timeout=10)
            raise ValueError("stage 0")

        def stage_1():
            both.wait()
            first_failed.set()
            raise ValueError("stage 1")

        threads = threading.active_count()
        with pytest.raises(ValueError, match="stage 0"):
            experiments._in_parallel([stage_0, stage_1, lambda: ran.append(2)])
        assert ran == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}, {0, 1, 2, 3}])
    def test_at_most_two_stages_run_at_once(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        count, lock, running, peak = [0], threading.Lock(), [0], [0]

        def stage():
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.05)
            with lock:
                running[0] -= 1
                count[0] += 1

        experiments._in_parallel([stage] * 6)
        assert count[0] == 6
        assert peak[0] == min(2, len(cpus))

    def test_an_interrupt_starts_no_later_stage_and_joins_every_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        # stages 0 and 1 run at once, and stage 2 is queued by the time the interrupt
        # arrives; both are still sleeping then, so neither thread may take stage 2
        both, ran = threading.Barrier(2, timeout=10), []

        def stage_0():
            both.wait()
            time.sleep(0.3)

        def stage_1():
            both.wait()
            time.sleep(0.05)
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.2)

        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            experiments._in_parallel([stage_0, stage_1, lambda: ran.append(2)])
        assert ran == []
        assert threading.active_count() == threads


SHAPE_CONFIGS = dict(FILE_CONFIGS)
SHAPE_CONFIGS["so3_group_limit"] = dict(
    experiment="group_limit", family="SO", matrix_size=3,
    law={"type": "perturbed_haar", "strength": 0.5}, powers=[3, 64], seed=1)
EXACT_ROWS = ("oracle_equiv[", "integral[", "contraction[")


class TestReports:
    @pytest.mark.parametrize("name", sorted(SHAPE_CONFIGS))
    def test_one_row_per_statistic_and_none_zero_by_construction(self, name):
        rep = run_experiment(ExperimentConfig.from_json(dict(SHAPE_CONFIGS[name], samples=500)))
        ids = [(r.m, r.statistic) for r in rep.rows]
        assert len(ids) == len(set(ids))
        # only an exact identity may sit at z == 0; a statistical row
        # there compares two sides that are equal by construction
        assert [r.statistic for r in rep.rows
                if r.z == 0.0 and not r.statistic.startswith(EXACT_ROWS)] == []

    def test_determinism_modulo_wall_clock(self):
        cfg = small_config(samples=2000)
        a = run_experiment(cfg).to_json_dict()
        b = run_experiment(small_config(samples=2000)).to_json_dict()
        a.pop("wall_clock"), b.pop("wall_clock")
        assert a == b

    @pytest.mark.parametrize("overrides", [
        dict(experiment="exact_threshold", samples=2000),
        dict(experiment="torus_suite", powers=[2, 3], density_count=2, samples=2000),
    ])
    def test_json_matches_the_asdict_serialization(self, overrides):
        rep = run_experiment(small_config(**overrides))
        data = dict(rep.to_json_dict(), rows=[dataclasses.asdict(r) for r in rep.rows])
        assert rep.to_json() == json.dumps(data, sort_keys=True)

    def test_seed_changes_estimates(self):
        a = run_experiment(small_config(samples=2000)).to_json_dict()
        b = run_experiment(small_config(samples=2000, seed=18)).to_json_dict()
        a.pop("wall_clock"), b.pop("wall_clock")
        assert a != b

    def test_config_echoed(self):
        rep = run_experiment(small_config(samples=2000))
        assert rep.config["experiment"] == "eigen_convergence"
        assert rep.config["seed"] == 17

    @pytest.mark.parametrize("name", sorted(FILE_CONFIGS))
    def test_config_echo_holds_only_the_fields_its_kind_reads(self, name):
        data = dict(FILE_CONFIGS[name], samples=500)
        rep = run_experiment(ExperimentConfig.from_json(data))
        assert set(rep.config) == _kind_fields(data["experiment"])
        assert {k: rep.config[k] for k in data} == data

    def test_csv_shape(self):
        rep = run_experiment(small_config(samples=2000))
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "experiment,m,statistic_id,estimate_re,estimate_im,std_error,z,pass"
        assert len(lines) == len(rep.rows) + 1
        import csv as csvmod
        import io
        parsed = list(csvmod.reader(io.StringIO(rep.to_csv())))
        assert all(len(row) == 8 for row in parsed)

    def test_summary_matches_rows(self):
        rep = run_experiment(small_config(samples=2000))
        assert rep.raw_pass == all(r.passed for r in rep.rows)


def _bits(rows) -> list:
    """Each row's fields by repr, which tells every float apart, -0.0 from 0.0 too."""
    return [repr(r) for r in rows]


def _matrix_traces(mats, k_max: int) -> list:
    """Tr(g^k) for k = 1..k_max by the products ``stats.trace_moments`` takes on N <= 3."""
    acc = mats = np.asfortranarray(mats)
    out = []
    for k in range(1, k_max + 1):
        if k > 1:
            acc = _plane_matmul(acc, mats)
        out.append(np.einsum("sii->s", acc))
    return out


class TestFourierRowsBitIdentity:
    """Every estimate row is built from one record of arrays in one vector pass; each
    must equal, float for float, the scalar formula it replaced (``tests/oracles.py``
    keeps that per-statistic path).  np.abs of a complex array and an array complex
    multiply can both differ from the scalar results in the last ulp, so the Fourier
    tests first show that their sample hits that trap."""

    @staticmethod
    def _scalar_std_error(estimate: complex, s: int) -> float:
        return float(stats._std_error(max(1.0 - abs(estimate) ** 2, 0.0), s))

    def test_bound_rows_equal_the_scalar_formulas(self):
        # concentrated angles: |mean| near 1, where 1 - |mean|^2 keeps an ulp of |mean|
        rows = np.mod(np.random.default_rng(21).normal(1.0, 0.4, (3000, 2)), torus.TAU)
        lattice = stats.lattice_ball(2, 6)
        means = fourier_sums(rows, lattice) / 3000
        scalar = [complex(mean) for mean in means]
        assert np.any(np.abs(means) != [abs(e) for e in scalar])
        labels = stats.fourier_labels(lattice)
        built = experiments._bound_rows(4, labels, stats.empirical_fourier_many(rows, lattice), 5.0)
        assert [r.statistic for r in built] == labels
        for row, est in zip(built, scalar):
            z = float(np.sqrt(3000) * abs(est))
            assert (row.estimate_re, row.estimate_im) == (est.real, est.imag)
            assert row.std_error == self._scalar_std_error(est, 3000)
            assert (row.m, row.z, row.threshold, row.passed) == (4, z, 5.0, z <= 5.0)

    def test_torus_suite_match_rows_equal_the_scalar_formula(self):
        cfg = small_config(experiment="torus_suite", powers=[2], density_count=3,
                           samples=3000, grid_size=60)
        rows = [r for r in run_experiment(cfg).rows if r.statistic.startswith("match[")]
        lattice = stats.lattice_ball(2, 3)
        assert len(rows) == 3 * len(lattice)
        # the suite's densities and cell jitter, rebuilt from its first seed stream
        r_dens = experiments._rngs(np.random.SeedSequence(cfg.seed), 3)[0]
        pf = lattice.astype(float)
        jitter = np.prod(np.exp(-1j * np.pi * pf / 60) * np.sinc(pf / 60), axis=1)
        coeffs, diffs = [], []
        for i in range(3):
            dens = torus.random_fourier_density(r_dens, 2, max_degree=3)
            for k, p in enumerate(lattice.tolist()):
                row = rows[i * len(lattice) + k]
                assert row.statistic == f"match[{i}]@fourier[{p[0]},{p[1]}]"
                a = fourier_coefficient(dens, p)
                est = complex(row.estimate_re, row.estimate_im)
                z = match_z(MomentReport(row.statistic, est, row.std_error, 3000), a * jitter[k])
                assert row.std_error == self._scalar_std_error(est, 3000)
                assert (row.z, row.passed) == (z, z <= cfg.threshold)
                coeffs.append(a)
                diffs.append(est - a * jitter[k])
        products = np.array(coeffs) * np.tile(jitter, 3)
        assert np.any(products != [a * j for a, j in zip(coeffs, np.tile(jitter, 3))])
        assert np.any(np.abs(np.array(diffs)) != [abs(complex(d)) for d in diffs])

    def test_zero_spread_match_is_a_two_sample_row_against_an_exact_record(self):
        # one zero-spread rule: 0 for an equal estimate, inf otherwise, on both paths
        est = stats.Estimates(np.array([1 + 1j, 0.5, 0.25j, 0.3]), np.array([0.0, 0.0, 0.0, 0.1]),
                              100)
        expect = np.array([0.0, 0.5, 0.5j, 0.1])
        rows = experiments._matched_rows(2, list("abcd"), est, expect, 5.0)
        exact = stats.Estimates(expect, np.zeros(4), 100)
        for z in (stats.two_sample_test(est, exact), stats.two_sample_test(exact, est)):
            assert [r.z for r in rows] == z.tolist()
        assert [r.z for r in rows][:3] == [np.inf, 0.0, np.inf]
        assert [r.passed for r in rows] == [False, True, False, True]

    @pytest.mark.parametrize("desc", [groups.unitary(2), groups.unitary(3),
                                      groups.special_orthogonal_odd(3)], ids=repr)
    def test_entry_two_sample_rows_equal_the_scalar_loop(self, desc):
        rng = np.random.default_rng(22)
        law = samplers.PerturbedHaarLaw(desc, 0.5)
        powered = groups.power_batch(law.sample_batch(rng, 3000), 3)
        limit = groups.haar_batch(desc, rng, 3000)
        built = experiments._two_sample_rows(3, stats.entry_labels(desc.matrix_size),
                                             stats.entry_moments(powered),
                                             stats.entry_moments(limit), 5.0)
        ref_a, ref_b = scalar_entry_moments(powered), scalar_entry_moments(limit)
        z = scalar_two_sample_test(ref_a, ref_b)
        assert _bits(built) == _bits(scalar_row(3, r.statistic, zz, 5.0, r)
                                     for r, zz in zip(ref_a, z))

    @pytest.mark.parametrize("family, n, law, target", [
        ("U", 3, {"type": "point_mass"}, "haar_power"),
        ("SO", 3, {"type": "perturbed_haar", "strength": 0.5}, "haar_power"),
        ("U", 2, {"type": "mixture_u2"}, "preimage_limit")])
    def test_trace_match_rows_equal_the_scalar_formula(self, family, n, law, target):
        # a point mass has zero spread: its unequal estimates read z = inf, the two-sample rule.
        # The trace rows come from the power side's stream, whatever the target.
        cfg = small_config(experiment="group_limit", family=family, matrix_size=n, law=law,
                           powers=[2, 5], target=target, samples=2000)
        desc, built = cfg.descriptor(), run_experiment(cfg).rows
        mean, abs2 = groups.fixed_law_trace_moments(desc)
        rngs = experiments._rngs(np.random.SeedSequence(cfg.seed), 4 * len(cfg.powers))
        for i, m in enumerate(cfg.powers):
            powered = groups.power_batch(cfg.build_law().sample_batch(rngs[4 * i], cfg.samples), m)
            want = [_match_row(m, r.statistic, r, abs2 if r.statistic.startswith("trace_abs2")
                               else mean, cfg.threshold)
                    for r in scalar_trace_moments(_matrix_traces(powered, experiments.TRACE_K_MAX))]
            got = [r for r in built if r.m == m and r.statistic.startswith("trace")]
            assert _bits(got) == _bits(want)
            if law["type"] == "point_mass":
                assert all(r.std_error == 0.0 and not r.passed for r in got)

    @pytest.mark.parametrize("family, n, law", [
        ("U", 2, {"type": "haar"}), ("U", 2, {"type": "perturbed_haar", "strength": 0.5}),
        ("U", 3, {"type": "perturbed_haar", "strength": 0.5}), ("SO", 3, {"type": "haar"})])
    def test_detect_and_match_orbit_rows_equal_the_scalar_formulas(self, family, n, law):
        cfg = small_config(experiment="exact_threshold", family=family, matrix_size=n, law=law,
                           samples=3000)
        rep = run_experiment(cfg)
        desc, dens, s = cfg.descriptor(), samplers.symbolic_eigen_density(cfg.build_law()), 3000
        rngs = experiments._rngs(np.random.SeedSequence(cfg.seed), 2 * rep.notes["threshold"])
        detect = [r for r in rep.rows if r.statistic.startswith("detect@")]
        assert detect
        for row in detect:
            m, label = row.m, row.statistic.removeprefix("detect@")
            orb = stats.orbit(desc, [int(x) for x in label[6:-1].split(",")])
            angles = experiments._angle_rows(cfg.build_law(), m, rngs[2 * (m - 1)], s)
            est = stats.orbit_report(orb, preimage.weyl_rows(desc, angles))
            report = MomentReport(label, complex(est.estimate[0]), float(est.std_error[0]), s)
            z = float(np.sqrt(s * orb.size) * abs(report.estimate))
            want = [scalar_row(m, f"detect@{label}", z, cfg.threshold, report,
                               passed=z > cfg.threshold),
                    _match_row(m, f"match@{label}", report,
                               torus.fourier_pushforward(dens, m).coefficients[orb.label],
                               cfg.threshold)]
            assert _bits([r for r in rep.rows if r.m == m][:2]) == _bits(want)

    @pytest.mark.parametrize("family, n", [("U", 3), ("SU", 3), ("SO", 5)])
    def test_ks_rows_equal_the_scalar_formula(self, family, n):
        cfg = small_config(family=family, matrix_size=n, powers=[1, 4], samples=2000,
                           law={"type": "perturbed_haar", "strength": 0.5})
        rep, desc = run_experiment(cfg), cfg.descriptor()
        rngs = experiments._rngs(np.random.SeedSequence(cfg.seed), 4 * len(cfg.powers))
        for i, m in enumerate(cfg.powers):
            r_samp, r_weyl = rngs[4 * i:4 * i + 2]
            angles = experiments._angle_rows(cfg.build_law(), m, r_samp, cfg.samples)
            coords = preimage.uniform_torus_rows(desc, angles, r_weyl)
            want = [scalar_row(m, f"ks_uniform[{j}]", scalar_ks_uniform(coords[:, j]),
                               stats.KS_THRESHOLD_1PCT) for j in range(desc.torus_rank)]
            got = [r for r in rep.rows if r.m == m and not r.statistic.startswith("orbit[")]
            assert _bits(got) == _bits(want)


def _negated_point(statistic):
    """The row id with its Fourier lattice point negated."""
    return re.sub(r"fourier\[([^\]]*)\]",
                  lambda m: "fourier[" + ",".join(str(-int(x)) for x in m.group(1).split(",")) + "]",
                  statistic)


class TestHalfLattice:
    @pytest.mark.parametrize("overrides", [
        dict(experiment="exact_threshold", law={"type": "perturbed_haar", "strength": 0.5}),
        dict(experiment="torus_suite", powers=[2, 3], density_count=2),
    ])
    def test_dropped_rows_are_twins_of_kept_rows(self, monkeypatch, overrides):
        kept = run_experiment(small_config(**overrides))
        half_ball = stats.lattice_ball
        if overrides["experiment"] == "exact_threshold":
            # its rows are Weyl orbits of the whole box, and the orbit table keeps one of
            # each conjugate pair by its key: the other point of each +-p pair reads the same
            monkeypatch.setattr(stats, "lattice_ball", lambda rank, d: -half_ball(rank, d))
            assert run_experiment(small_config(**overrides)).rows == kept.rows
            return
        monkeypatch.setattr(stats, "lattice_ball",
                            lambda rank, d: np.concatenate([half_ball(rank, d), -half_ball(rank, d)]))
        full = run_experiment(small_config(**overrides))
        assert len(full.rows) > len(kept.rows)
        by_id = {(r.m, r.statistic): r for r in kept.rows}
        full_ids = {(r.m, r.statistic) for r in full.rows}
        assert set(by_id) <= full_ids
        for row in full.rows:
            twin = by_id.get((row.m, row.statistic)) or by_id[(row.m, _negated_point(row.statistic))]
            assert twin.z == pytest.approx(row.z, rel=1e-9, abs=1e-9)
            assert twin.passed == row.passed
        assert kept.summary_pass == full.summary_pass


class TestCli:
    def test_import_leaves_scipy_unloaded(self):
        import powerlimits

        src = str(Path(powerlimits.__file__).resolve().parent.parent)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import powerlimits, powerlimits.cli; print('scipy' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def _write_config(self, tmp_path, **overrides):
        """A U(2) Haar config file holding the fields its kind reads, with
        ``overrides`` applied; an override of None drops the field."""
        data = dict(experiment="eigen_convergence", family="U", matrix_size=2,
                    law={"type": "haar"}, powers=[2], samples=2000, seed=21)
        fields = _kind_fields(overrides.get("experiment", data["experiment"]))
        data = {k: v for k, v in data.items() if k in fields}
        data.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
        return path

    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for kind in EXPERIMENT_KINDS:
            assert kind in out

    def test_run_passing_config(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        assert cli.main(["run", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary_pass"] is True

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_config_passes(self, tmp_path, path):
        """Each shipped config passes at its own samples and seed."""
        assert cli.main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 0

    def test_run_failing_config_exit_code(self, tmp_path):
        path = self._write_config(tmp_path, powers=[1], samples=20000)
        assert cli.main(["run", str(path)]) == 1

    def test_flag_overrides(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        assert cli.main(["run", str(path), "--seed", "99", "--samples", "2500"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == 99
        assert payload["config"]["samples"] == 2500

    def test_csv_output_file(self, tmp_path):
        path = self._write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert cli.main(["run", str(path), "--format", "csv", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("experiment,m,statistic_id")

    def test_bad_config_is_a_usage_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert cli.main(["run", str(path)]) == 2
        path.write_text(json.dumps({"experiment": "eigen_convergence"}))
        assert cli.main(["run", str(path)]) == 2

    @pytest.mark.parametrize("data", [
        {"law": {"type": "wat"}},
        [1, 2],
        dict(experiment="eigen_convergence", law={"type": "wat"}, seed=1),
        dict(experiment="eigen_convergence", law={"type": "perturbed_haar", "strength": 3},
             seed=1),
        # a string strength once ran as its number, and NaN aborted at sampling (exit 3)
        dict(experiment="eigen_convergence", law={"type": "perturbed_haar", "strength": "0.3"},
             seed=1),
        dict(experiment="eigen_convergence",
             law={"type": "perturbed_haar", "strength": float("nan")}, seed=1),
        dict(experiment="torus_suite", powers=[7], grid_size=360, seed=1),
        dict(experiment="eigen_convergence", law={"type": "point_mass"}, powers=[], seed=1),
        dict(experiment="eigen_convergence", powers=[2.7], seed=1),
        dict(experiment="torus_suite", powers=[2], density_count=0, seed=1),
        dict(experiment="exact_threshold", law={"type": "mixture_u2"}, samples=100, seed=1),
        dict(experiment="eigen_convergence", samples="2000", seed=1),
        dict(experiment="eigen_convergence", threshold="5", seed=1),
        dict(experiment="eigen_convergence", seed=-1),
        dict(experiment="torus_suite", powers=[2], torus_rank=0, seed=1),
        dict(experiment="torus_suite", powers=[2], grid_size=4, seed=1),
        dict(experiment="eigen_convergence", max_lattice_degree=0, seed=1),
        dict(experiment="eigen_convergence", negative_control="yes", seed=1),
        dict(experiment="eigen_convergence", threshold=float("inf"), seed=1),
        dict(experiment="eigen_convergence", law={"type": "perturbed_haar", "strenght": 0.9},
             seed=1),
        dict(experiment="eigen_convergence", law={"type": "haar", "strength": 0.5}, seed=1),
        dict(experiment=["eigen_convergence"], seed=1),
        dict(experiment="exact_threshold", powers=[7], seed=1),
        dict(experiment="preimage_invariance", target="haar_power", powers=[2], seed=1),
        dict(experiment="group_limit", trace_k_max=3, seed=1),
        # a repeated power once repeated its rows' (m, statistic_id) pairs
        dict(experiment="eigen_convergence", powers=[2, 2], seed=1),
        dict(experiment="group_limit", powers=[3, 3], seed=1),
        dict(experiment="torus_suite", powers=[2, 2], density_count=1, seed=1),
        # no preimage of a degenerate spectrum: refused before any draw
        dict(experiment="group_limit", law={"type": "point_mass"}, samples=200, seed=1),
        dict(experiment="preimage_invariance", law={"type": "point_mass"}, seed=1),
        # a present but empty density once ran the default marginal, as an absent key does
        *(dict(experiment="eigen_convergence", law={"type": law, key: value}, seed=1)
          for law, key in (("torus_density", "density"), ("mixture_u2", "d1"))
          for value in ({}, None, 0, "")),
    ])
    def test_config_errors_exit_2(self, tmp_path, capsys, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("law, refused", [
        ("torus_density", True), ("mixture_u2", True),
        ("haar", False), ("perturbed_haar", False), ("point_mass", False)])
    def test_haar_power_needs_a_conjugation_invariant_law(self, tmp_path, capsys, law, refused):
        # U^m of a law that is not conjugation invariant tends to psi(flag, Y), not Haar^D:
        # mixture_u2 at m = 64 read a false FAIL at z 61 against Haar^D
        data = dict(experiment="group_limit", law={"type": law}, powers=[64], samples=1000,
                    seed=1, target="haar_power")
        if not refused:
            assert ExperimentConfig.from_json(data).target == "haar_power"
            return
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "preimage_limit" in err
        assert ExperimentConfig.from_json({**data, "target": "preimage_limit"})

    @pytest.mark.parametrize("kind", ["group_limit", "preimage_invariance"])
    def test_u1_preimages_run(self, tmp_path, capsys, kind):
        # an element of U(1) has one eigenvalue and no eigenangle gap; its minimum gap
        # was once a reduction over an empty array, which raised an uncaught error
        path = self._write_config(tmp_path, experiment=kind, matrix_size=1, samples=1000,
                                  seed=1)
        assert cli.main(["run", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["summary_pass"] is True

    @pytest.mark.parametrize("overrides", [
        dict(matrix_size=4, powers=[2 ** 30]),     # U^m drifts off U(4) by about 8e-7
    ])
    def test_aborted_run_exits_3(self, tmp_path, capsys, overrides):
        path = self._write_config(tmp_path, experiment="group_limit", samples=200, seed=1,
                                  **overrides)
        assert cli.main(["run", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error:")
        # the --out file the run made is removed; one that was there keeps its bytes
        out = tmp_path / "report.json"
        assert cli.main(["run", str(path), "--out", str(out)]) == 3
        assert not out.exists()
        out.write_text("kept")
        assert cli.main(["run", str(path), "--out", str(out)]) == 3
        assert out.read_text() == "kept"

    def test_a_failing_concurrent_stage_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        power = experiments.power_batch

        def drifting(mats, m):
            if m == 64:
                raise groups.PowerDriftError(1.0)
            return power(mats, m)

        monkeypatch.setattr(experiments, "power_batch", drifting)
        path = self._write_config(tmp_path, experiment="group_limit", powers=[3, 64, 5],
                                  law={"type": "perturbed_haar", "strength": 0.5})
        threads = threading.active_count()
        assert cli.main(["run", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error:")
        assert threading.active_count() == threads

    @pytest.mark.parametrize("family, n", [("SU", 2), ("U", 3)])
    def test_mixture_law_is_refused_off_u2(self, tmp_path, capsys, family, n):
        path = self._write_config(tmp_path, family=family, matrix_size=n,
                                  law={"type": "mixture_u2"})
        assert cli.main(["run", str(path)]) == 2
        assert "the mixture law lives on U(2)" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_density_coefficient_exits_2(self, tmp_path, capsys, bad):
        coeffs = [{"p": [0, 0], "re": 1.0}, {"p": [1, 0], "re": bad}, {"p": [-1, 0], "re": bad}]
        path = self._write_config(tmp_path, law={"type": "torus_density", "density": {
            "rank": 2, "coeffs": coeffs}})
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        assert cli.main(["run", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("density, message", [
        # a point listed twice once ran as its last value, 0.1
        ({"rank": 1, "coeffs": [{"p": [0], "re": 1.0}, {"p": [1], "re": 0.4},
                                {"p": [1], "re": 0.1}, {"p": [-1], "re": 0.1}]}, "twice"),
        # a fractional coordinate once ran truncated, as p = 1
        ({"rank": 1, "coeffs": [{"p": [0], "re": 1.0}, {"p": [1.7], "re": 0.2},
                                {"p": [-1.7], "re": 0.2}]}, "integers"),
        ({"rank": 1.0, "coeffs": [{"p": [0], "re": 1.0}]}, "integers"),
        # a boolean part once ran as 1.0
        ({"rank": 1, "coeffs": [{"p": [0], "re": True}]}, "booleans"),
        ({"rank": 1, "coeffs": [{"p": [0], "re": 1.0}], "degree": 1}, "unknown density keys"),
        ({"rank": 1, "coeffs": [{"p": [0], "re": 1.0}, {"p": [1], "re": 0.2, "imag": 0.1},
                                {"p": [-1], "re": 0.2, "imag": -0.1}]}, "unknown density keys"),
        # a string once ran as the density its JSON text spells, or failed as bad JSON
        (json.dumps({"rank": 1, "coeffs": [{"p": [0], "re": 1.0}]}), "a density is a JSON object"),
        ("", "a density is a JSON object"),
    ], ids=["repeated-point", "fractional-coordinate", "fractional-rank", "boolean-part",
            "unknown-density-key", "unknown-row-key", "json-text", "empty-string"])
    def test_malformed_density_exits_2(self, tmp_path, capsys, density, message):
        path = self._write_config(tmp_path, matrix_size=1, law={"type": "torus_density",
                                                                "density": density})
        assert cli.main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_so_point_mass_eigen_convergence_is_a_negative_control(self, tmp_path):
        # the identity atom of SO folds every angle to 0: each orbit mean reads 1 and
        # every coordinate 0, so every row fails and the KS row reads z = sqrt(S)
        path = self._write_config(tmp_path, family="SO", matrix_size=3, powers=[10],
                                  law={"type": "point_mass"}, samples=1000, seed=7,
                                  negative_control=True)
        out = tmp_path / "report.json"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert rows and not any(r["passed"] for r in rows)
        assert [r["z"] for r in rows if r["statistic"] == "ks_uniform[0]"] == [
            pytest.approx(np.sqrt(1000))]

    def test_failed_rejection_fill_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(torus, "_REJECTION_ROUNDS", 0)
        out = tmp_path / "report.json"
        path = CONFIGS / "threshold_perturbed.json"
        assert cli.main(["run", str(path), "--samples", "500", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: rejection sampler failed to fill")
        assert not out.exists()

    def test_cell_bound_below_the_density_exits_3(self, tmp_path, capsys, monkeypatch):
        # one cell bounding the mixture marginal (maximum 4) by 1: a wrong squeeze
        monkeypatch.setattr(torus.FourierDensity, "_cell_table",
                            lambda self: (4.0, 1, np.ones(1)))
        out = tmp_path / "report.json"
        path = CONFIGS / "mixture_limit.json"
        assert cli.main(["run", str(path), "--samples", "500", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: density value")
        assert not out.exists()

    def test_degenerate_spectrum_exits_3(self, tmp_path, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise preimage.DegenerateSpectrumError("3 elements have a degenerate spectrum")

        monkeypatch.setattr(preimage, "preimages_batch", degenerate)
        path = self._write_config(tmp_path, experiment="group_limit", samples=200, seed=1)
        assert cli.main(["run", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: 3 elements")

    def test_unwritable_out_fails_before_sampling(self, tmp_path, capsys, monkeypatch):
        path = self._write_config(tmp_path)
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("sampled"))
        out = tmp_path / "missing" / "report.json"
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.parent.exists()

    def test_flags_apply_before_validation(self, tmp_path, capsys):
        path = self._write_config(tmp_path, seed=None)
        assert cli.main(["run", str(path), "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 5
        path = self._write_config(tmp_path, samples=50)
        assert cli.main(["run", str(path), "--samples", "2000"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["samples"] == 2000
