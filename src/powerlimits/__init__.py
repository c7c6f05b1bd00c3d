"""powerlimits: power-map limit laws on compact matrix groups.

Simulation and verification tools for the eigenvalue and group-level
limits of U^m as m grows: Haar and non-Haar sampling on U(N), SU(N) and
SO(2k+1), exact Fourier dynamics of torus densities, random preimages
with their Weyl actions, and statistical suites that turn the limit
claims into pass/fail experiments.
"""

from .groups import (
    Family,
    GroupDescriptor,
    GroupElement,
    PowerDriftError,
    TorusPoint,
    UnitarityError,
    descriptor,
    identity,
    power,
    special_orthogonal_odd,
    special_unitary,
    unitary,
)
from .preimage import (
    DegenerateSpectrumError,
    Preimage,
    WeylElement,
    enumerate_weyl,
    power_preimage,
    preimage_sorted,
    preimage_uniform,
    psi,
    weyl_action,
)
from .samplers import (
    HaarLaw,
    MixtureU2Law,
    PerturbedHaarLaw,
    PointMassLaw,
    TorusLaw,
    symbolic_eigen_density,
)
from .stats import (
    MomentReport,
    TestVerdict,
    empirical_fourier,
    entry_moments,
    ks_uniform,
    trace_moments,
    two_sample_test,
)
from .torus import (
    AngleSample,
    DensityError,
    FourierDensity,
    GridDensity,
    fourier_coefficient,
    fourier_pushforward,
    grid_pushforward,
    power_angles,
    sample_grid,
    stationarity_threshold,
    to_grid,
)
from .experiments import ExperimentConfig, ExperimentReport, run_experiment

__version__ = "0.1.0"
