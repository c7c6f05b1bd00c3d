"""Laws of a random U, Haar and non-Haar, used to exercise the limit behavior.

* :class:`PerturbedHaarLaw`: density 1 + a ReTr(g)/N against Haar,
  conjugate invariant, sampled by rejection; at a = 0 it is Haar itself,
  drawn with no rejection step.
* :class:`MixtureU2Law`: the U(2) two-branch mixture X D1 + (1-X) a D2 a*,
  supported on T union aTa* (not absolutely continuous on the group, yet
  its torus marginal is), plus its explicit limit X Y + (1-X) a Y a*.
* :class:`TorusLaw`: embed(t) with t drawn from a torus density (again
  singular on the group, absolutely continuous on the torus).
* :class:`PointMassLaw`: an atom, the standing negative control.

:class:`EigenangleLaw` is the law of the eigenangle rows of a draw of any of
these, which is all the spectral experiments read.  For perturbed-Haar
laws (Haar among them) on U(N), N <= ``WEYL_MAX_N``, it draws the angles
directly by exact rejection from the Weyl density (no matrix, no QR, no
eigensolver); every other law draws matrices and takes their eigenangles.

``symbolic_eigen_density`` expands the exact torus-marginal density of the
uniform random preimage of a perturbed-Haar law on U(N), N <= ``WEYL_MAX_N``:
the squared-Vandermonde eigenvalue density times 1 + (a/N) sum_j cos(theta_j),
organized as exact lattice coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import TAU
from .groups import (
    Family,
    GroupDescriptor,
    GroupElement,
    eigenangles_batch,
    embed_batch,
    haar_batch,
    unitary,
)
from .torus import AngleSample, FourierDensity, _rejection_fill

# the fixed U(2) mixture matrix a: a rotation by pi/4
MIXTURE_A = np.array([[np.sqrt(2) / 2, -np.sqrt(2) / 2],
                      [np.sqrt(2) / 2, np.sqrt(2) / 2]], dtype=np.complex128)
# rows b_k b_k* flattened, b = 1 or a per branch: exp(i t) @ rows = b diag(exp(i t)) b*
_BRANCH_OUTER = np.stack([np.einsum("ik,jk->kij", b, b.conj()).reshape(2, 4)
                          for b in (np.eye(2, dtype=np.complex128), MIXTURE_A)])


def default_mixture_marginal() -> FourierDensity:
    """Product density on T^2 with 1-D marginal (1 + cos theta)/(2 pi).

    Degree 1, so torus-level stationarity is reached exactly at m >= 2 -
    sharp test material for the mixture limit.
    """
    coeffs = {}
    for p1 in (-1, 0, 1):
        for p2 in (-1, 0, 1):
            coeffs[(p1, p2)] = 0.5 ** (abs(p1) + abs(p2))
    return FourierDensity(2, coeffs)


@dataclass(frozen=True)
class PerturbedHaarLaw:
    """Density 1 + strength * ReTr(g)/N against Haar; |strength| <= 1.

    Dividing by N keeps |density - 1| <= |strength| uniformly in N, and
    the rejection acceptance rate at exactly 1/(1 + |strength|).  Strength 0
    is Haar measure itself, drawn straight from ``haar_batch`` with no
    rejection step.
    """

    descriptor: GroupDescriptor
    strength: float

    def __post_init__(self):
        if abs(self.strength) > 1.0:
            raise ValueError("|strength| must be at most 1")

    def density(self, mats: np.ndarray) -> np.ndarray:
        """Density against Haar of each matrix of a (S, N, N) stack."""
        tr = np.einsum("sii->s", mats)
        return 1.0 + self.strength * tr.real / self.descriptor.matrix_size

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if not self.strength:
            return haar_batch(self.descriptor, rng, size)
        return _rejection_fill(rng, size, 1.0 + abs(self.strength),
                               lambda draw: haar_batch(self.descriptor, rng, draw),
                               self.density)


@dataclass(frozen=True)
class MixtureU2Law:
    """U = X D1 + (1 - X) a D2 a*, X fair; D1, D2 torus draws made only for their own rows."""

    d1: FourierDensity = field(default_factory=default_mixture_marginal)
    d2: FourierDensity = field(default_factory=default_mixture_marginal)
    descriptor: GroupDescriptor = field(default_factory=lambda: unitary(2))

    def __post_init__(self):
        if self.d1.rank != 2 or self.d2.rank != 2:
            raise ValueError("mixture marginals must be rank-2 densities")
        if self.descriptor.family is not Family.UNITARY or self.descriptor.matrix_size != 2:
            raise ValueError("the mixture law lives on U(2)")

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        x = rng.integers(0, 2, size=size).astype(bool)
        n1 = int(x.sum())
        return _mixture_rows(x, self.d1.sample(rng, n1).rows, self.d2.sample(rng, size - n1).rows)

    def sample_limit_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        x = rng.integers(0, 2, size=size).astype(bool)
        y = rng.uniform(0.0, TAU, size=(size, 2))
        return _mixture_rows(x, y[x], y[~x])


def _mixture_rows(x: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """embed(t1) in the rows where ``x`` holds, a embed(t2) a* in the others."""
    out = np.empty((x.size, 4), dtype=np.complex128)
    out[x] = np.exp(1j * t1) @ _BRANCH_OUTER[0]
    out[~x] = np.exp(1j * t2) @ _BRANCH_OUTER[1]
    return out.reshape(-1, 2, 2)


@dataclass(frozen=True)
class TorusLaw:
    """embed(t) with t drawn from a fixed torus density."""

    descriptor: GroupDescriptor
    density: FourierDensity

    def __post_init__(self):
        if self.density.rank != self.descriptor.torus_rank:
            raise ValueError("density rank must equal the torus rank")

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        t = self.density.sample(rng, size).rows
        return embed_batch(self.descriptor, t)


@dataclass(frozen=True)
class PointMassLaw:
    """A point mass at a fixed element (negative control: powers of an
    atom stay atoms, so no convergence can occur)."""

    element: GroupElement

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.broadcast_to(self.element.matrix,
                               (size,) + self.element.matrix.shape).copy()


# ---------------------------------------------------------------------------
# eigenangle laws
# ---------------------------------------------------------------------------

# Largest U(N) whose eigenangles are drawn from the Weyl density, and whose
# symbolic eigenvalue density is expanded (it grows as 3^(N(N-1)/2)).  The acceptance
# rate N!/(N^N (1 + |a|)) falls fast with N: against haar_batch + eigenangles_batch
# (a = 0.5, S = 20000, 2-core x86-64) the direct draw ran 2.0x, 5.1x and 3.2x faster
# at N = 2, 3, 4, only 1.4x at N = 5, and 0.62x as fast at N = 6.
WEYL_MAX_N = 4
_WEYL_CHUNK = 4096   # accepted rows per rejection fill, so proposal memory stays flat in S


def _weyl_density(theta: np.ndarray, strength: float) -> np.ndarray:
    """|Delta(e^{i theta})|^2 / N! * (1 + (a/N) sum_j cos theta_j) of each row of a
    (S, N) angle array: the eigenangle density of the perturbed-Haar law on U(N)
    against uniform angles (Weyl integration formula).  |e^{i x} - e^{i y}|^2 is
    2 - 2 (cos x cos y + sin x sin y), a product over the columns of cos and sin."""
    n = theta.shape[1]
    c, s = np.cos(theta), np.sin(theta)
    out = np.full(theta.shape[0], 1.0 / math.factorial(n))
    for j in range(n):
        for k in range(j + 1, n):
            out *= 2.0 - 2.0 * (c[:, j] * c[:, k] + s[:, j] * s[:, k])
    if strength:
        out *= 1.0 + (strength / n) * c.sum(axis=1)
    return out


@dataclass(frozen=True)
class EigenangleLaw:
    """The law of the eigenangle rows of a draw of ``law``.

    Perturbed-Haar laws (Haar at strength 0) on U(N), N <= ``WEYL_MAX_N``, are sampled
    by exact rejection from iid uniform angles against :func:`_weyl_density`,
    bounded by N^N/N! (1 + |a|): |Delta|^2 <= N^N, with equality at the N-th
    roots of unity.  Rows come in exchangeable order.  Every other law takes
    the eigenangles of its matrix draws, on the same stream as
    ``eigenangles_batch(law.sample_batch(rng, size))``.
    """

    law: object

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, N) eigenangle rows in [0, 2 pi)."""
        law = self.law
        if (not isinstance(law, PerturbedHaarLaw) or law.descriptor.family is not Family.UNITARY
                or law.descriptor.matrix_size > WEYL_MAX_N):
            return eigenangles_batch(law.sample_batch(rng, size))
        n, strength = law.descriptor.matrix_size, law.strength
        bound = n ** n / math.factorial(n) * (1.0 + abs(strength))
        # uniforms drawn (N, draw) and transposed: each angle column stays contiguous
        propose = lambda draw: rng.uniform(0.0, TAU, size=(n, draw)).T
        density = lambda theta: _weyl_density(theta, strength)
        parts = [_rejection_fill(rng, min(_WEYL_CHUNK, size - start), bound, propose, density)
                 for start in range(0, size, _WEYL_CHUNK)]
        return np.concatenate(parts)


# ---------------------------------------------------------------------------
# exact symbolic eigenvalue densities
# ---------------------------------------------------------------------------


def _convolve(a: dict, b: dict) -> dict:
    out: dict[tuple, complex] = {}
    for p, ca in a.items():
        for q, cb in b.items():
            key = tuple(x + y for x, y in zip(p, q))
            out[key] = out.get(key, 0.0) + ca * cb
    return {p: c for p, c in out.items() if abs(c) > 1e-15}


def symbolic_eigen_density(law) -> FourierDensity:
    """Exact Fourier coefficients of the uniform-preimage torus marginal.

    Supported for perturbed-Haar laws (Haar at strength 0) on U(N),
    N <= ``WEYL_MAX_N``, and for torus laws, whose marginal
    is the symmetrization of the defining density.  The U(N) eigenvalue
    density of Haar is the squared Vandermonde prod_{j<k} |z_j - z_k|^2,
    whose factors contribute {0: 2, e_j - e_k: -1, e_k - e_j: -1}; the
    perturbation multiplies by 1 + (a/N) sum cos(theta_j).  The constant
    term of the bare product is exactly N!, which normalizes a_0 to 1.
    """
    if isinstance(law, TorusLaw):
        if law.descriptor.family is not Family.UNITARY:
            raise ValueError("symbolic marginals for torus laws are U(N)-only")
        return _symmetrize(law.density)
    if not isinstance(law, PerturbedHaarLaw):
        raise ValueError(f"no symbolic eigenvalue density for {type(law).__name__}")
    if law.descriptor.family is not Family.UNITARY:
        raise ValueError("symbolic eigenvalue densities are implemented for U(N) only")
    n, strength = law.descriptor.matrix_size, law.strength
    if n > WEYL_MAX_N:
        raise ValueError(f"symbolic expansion kept to N <= {WEYL_MAX_N}")
    zero = (0,) * n
    weyl = {zero: 1.0 + 0.0j}
    for j in range(n):
        for k in range(j + 1, n):
            plus = tuple(1 if i == j else (-1 if i == k else 0) for i in range(n))
            minus = tuple(-x for x in plus)
            weyl = _convolve(weyl, {zero: 2.0, plus: -1.0, minus: -1.0})
    assert abs(weyl[zero] - math.factorial(n)) < 1e-9
    if strength != 0.0:
        pert = {zero: 1.0 + 0.0j}
        half = strength / (2.0 * n)
        for j in range(n):
            e = tuple(1 if i == j else 0 for i in range(n))
            pert[e] = half
            pert[tuple(-x for x in e)] = half
        weyl = _convolve(weyl, pert)
    norm = weyl[zero].real
    return FourierDensity(n, {p: c / norm for p, c in weyl.items()})


def _symmetrize(d: FourierDensity) -> FourierDensity:
    n = d.rank
    perms = list(itertools.permutations(range(n)))
    out: dict[tuple, complex] = {}
    for p, a in d.coefficients.items():
        share = a / len(perms)
        for sigma in perms:
            key = tuple(p[sigma[i]] for i in range(n))
            out[key] = out.get(key, 0.0) + share
    return FourierDensity(n, out)
