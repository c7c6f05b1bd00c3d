"""The benchmark's four workloads, each one powerlimits experiment config.

A workload's config is generated from the benchmark seed alone (the seed
becomes the config seed), so the same seed gives the same inputs and the
same verdict rows.  Each workload makes one layer dominant and leaves
another idle, so a change to one layer shows its gain on one workload and
a predicted "no change" on another:

* ``spectral-u4``: large-K Fourier sums (a 2400-point lattice); preimage
  and grid code stay idle.
* ``flags-so3``: the orthogonal preimage path (per-row Schur); zero
  Fourier-sum calls.
* ``mixture-u2``: trig-polynomial rejection sampling, the unitary
  preimage path and the largest memory; zero Fourier-sum calls.
* ``torus-grid``: the grid operations and many small Fourier-sum calls;
  it builds no matrices.

``samples`` is sized so that one untraced pass takes about half a second
to a second on a 2-core x86-64 box: many short passes per run, each
timed against the yardstick beside it, track the host's slow phases
more closely than a few long ones.
"""

from __future__ import annotations

WORKLOADS = {
    "spectral-u4": {
        "experiment": "exact_threshold", "family": "U", "matrix_size": 4,
        "law": {"type": "perturbed_haar", "strength": 0.5}, "samples": 2000,
    },
    "flags-so3": {
        "experiment": "group_limit", "family": "SO", "matrix_size": 3,
        "law": {"type": "perturbed_haar", "strength": 0.5}, "powers": [3, 64],
        "target": "preimage_limit", "samples": 5000,
    },
    "mixture-u2": {
        "experiment": "group_limit", "family": "U", "matrix_size": 2,
        "law": {"type": "mixture_u2"}, "powers": [64], "samples": 30000,
    },
    "torus-grid": {
        "experiment": "torus_suite", "torus_rank": 2, "powers": [2, 3, 4, 6],
        "grid_size": 360, "density_count": 20, "samples": 5000,
    },
}

SMOKE_SAMPLES = 200

# Rows that check an exact identity rather than a statistical one; a
# failing exact row is a program error, never a statistical alarm.
EXACT_PREFIXES = ("oracle_equiv[", "integral[", "contraction[")


def config(name: str, seed: int, smoke: bool = False) -> dict:
    """The experiment config of workload ``name`` for ``seed``."""
    cfg = dict(WORKLOADS[name], seed=seed)
    if smoke:
        cfg["samples"] = SMOKE_SAMPLES
    return cfg


def is_exact(statistic: str) -> bool:
    return statistic.startswith(EXACT_PREFIXES)
