"""powerlimits: power-map limit laws on compact matrix groups.

Simulation and verification tools for the eigenvalue and group-level
limits of U^m as m grows: Haar and non-Haar sampling on U(N), SU(N) and
SO(2k+1), exact Fourier dynamics of torus densities, random preimages
with their Weyl actions, and statistical suites that turn the limit
claims into pass/fail experiments.  The modules are the API: import
them (``from powerlimits import groups, torus, experiments``), not names.
"""

__version__ = "0.1.0"
