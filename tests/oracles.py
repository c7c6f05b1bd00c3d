"""Reference implementations that only the tests read."""

import numpy as np

from powerlimits.groups import GroupDescriptor
from powerlimits.stats import MomentReport, empirical_fourier_many, fourier_labels
from powerlimits._kernels import TAU, wrap_angles


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
