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
eigensolver), proposing a uniform first angle and Dirichlet(3) spacings;
every other law draws matrices and takes their eigenangles.

``symbolic_eigen_density`` expands the exact torus-marginal density of the
uniform random preimage of a perturbed-Haar law on U(N), SU(N) or SO(2k+1)
with at most as many positive roots as U(``WEYL_MAX_N``): the Weyl density read
from the descriptor's root pairs times 1 + (a/N) ReTr, multiplied out on a dense
box of lattice coefficients.  The Weyl sampler reads the same root pairs.  For a
torus law on any family the density is the mean of its own over the Weyl group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import TAU, unit_phases
from .groups import (
    Family,
    GroupDescriptor,
    eigenangles_batch,
    embed_batch,
    haar_batch,
    unitary,
)
from .stats import _keys, _torus_points, _weyl_images
from .torus import _COEFF_PRUNE, FourierDensity, _rejection_fill

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
    points = np.array(list(itertools.product((-1, 0, 1), repeat=2)))
    return FourierDensity(2, points, 0.5 ** np.abs(points).sum(axis=1))


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
        if not abs(self.strength) <= 1.0:   # NaN fails here too
            raise ValueError("strength must be a number in [-1, 1]")

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
    out[x] = unit_phases(t1) @ _BRANCH_OUTER[0]
    out[~x] = unit_phases(t2) @ _BRANCH_OUTER[1]
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
    """A point mass at a fixed (N, N) matrix (negative control: powers of an
    atom stay atoms, so no convergence can occur)."""

    matrix: np.ndarray

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.broadcast_to(self.matrix, (size,) + self.matrix.shape).copy()


# ---------------------------------------------------------------------------
# eigenangle laws
# ---------------------------------------------------------------------------

# Largest U(N) whose eigenangles are drawn from the Weyl density; its N(N-1)/2
# positive roots also cap the root count of any family whose symbolic eigenvalue
# density is expanded.  The expansion costs roots x box size, so the cap guards the
# density's validation grid and, above all, the sampler: it rests on the proved
# envelope of the spacing proposal (see _spacing_bound), which covers N <= 4 only.
# On U(5) and U(6) the largest ratio found is the one at the roots of unity, 2.24
# and 3.05 (acceptance 0.45 and 0.33 at a = 0), but no proof bounds it there, and
# raising the cap needs one first.
WEYL_MAX_N = 4
_WEYL_CHUNK = 4096   # accepted rows per rejection fill, so proposal memory stays flat in S


def _weyl_density(desc: GroupDescriptor, theta: np.ndarray, strength: float) -> np.ndarray:
    """prod over root pairs (j, k) of |e^{i theta_j} - e^{i theta_k}|^2 / |W| * (1 + (a/N)
    sum_j cos theta_j) per row of (S, N) eigenangles in monomial order: the perturbed-Haar
    eigenangle density against uniform torus angles (Weyl integration formula), with
    |e^{i x} - e^{i y}|^2 = 2 - 2 (cos x cos y + sin x sin y) over columns of cos and sin."""
    c, s = np.cos(theta), np.sin(theta)
    out = np.full(theta.shape[0], 1.0 / desc.weyl_order)
    for j, k in desc.root_pairs:
        out *= 2.0 - 2.0 * (c[:, j] * c[:, k] + s[:, j] * s[:, k])
    if strength:
        out *= 1.0 + (strength / theta.shape[1]) * c.sum(axis=1)
    return out


def _spacing_proposal(rng: np.random.Generator, n: int, draw: int) -> np.ndarray:
    """(draw, n) unwrapped angle rows x_1 = phi ~ U[0, 2 pi), x_{j+1} = x_j + 2 pi u_j with
    u ~ Dirichlet(3, ..., 3): n points counterclockwise from a uniform first one, gaps 2 pi u.
    Each Gamma(3) is a sum of three standard exponentials (cheaper than standard_gamma)."""
    gam = rng.standard_exponential((3, n, draw)).sum(axis=0)
    x = np.empty((n, draw))
    x[0] = rng.uniform(0.0, TAU, size=draw)
    np.cumsum(gam[:-1], axis=0, out=x[1:])
    x[1:] *= TAU / gam.sum(axis=0)
    x[1:] += x[0]
    return x.T   # built (n, draw) and transposed: each angle column stays contiguous


def _spacing_ratio(desc: GroupDescriptor, x: np.ndarray, strength: float) -> np.ndarray:
    """r = _weyl_density / q per unwrapped row of :func:`_spacing_proposal`, where
    q = (N/N!) Gamma(3N)/2^N prod_j u_j^2 is the proposal's density against uniform angles
    once its rows are symmetrized (each unordered set is reached from its N cyclic starts).
    The gaps 2 pi u_j are read back from x: its column differences, then x_1 + 2 pi - x_N."""
    n = x.shape[1]
    gap_prod = x[:, 0] + TAU - x[:, -1]
    for j in range(n - 1):
        gap_prod = gap_prod * (x[:, j + 1] - x[:, j])
    scale = desc.weyl_order * 2.0 ** n * TAU ** (2 * n) / (n * math.gamma(3 * n))
    return _weyl_density(desc, x, strength) * (scale / gap_prod ** 2)


# Why r at the N-th roots of unity bounds r everywhere (a = 0; the perturbation adds at
# most a factor 1 + |a|).  Up to constants r is |Delta|^2 / prod_j g_j^2 over the N gaps
# g_j = 2 pi u_j, which sum to 2 pi.  N = 1: r = 1.  N = 2: |Delta|^2 = 4 sin^2(g_1/2), and
# with t = g_1/2 - pi/2, sqrt(r) is 4 cos t / (1 - (2t/pi)^2) up to constants, at most 4 at
# t = 0 since cos t <= 1 - (2t/pi)^2 on |t| <= pi/2.  N >= 3: each adjacent pair gives
# 4 sin^2(g_j/2) / g_j^2 = sinc^2(g_j/2), whose product is largest at equal gaps (log sinc
# is concave on (0, pi) and the g_j/2 sum to pi); each non-adjacent pair is a factor
# 4 sin^2 <= 4, and on U(4) the two diagonals of the square are pi apart, so they are 4 there
# too.  Both maxima meet at equal spacing, so the roots of unity attain the bound.
def _spacing_bound(desc: GroupDescriptor, strength: float) -> float:
    """Envelope of :func:`_spacing_ratio` on U(N <= 4): its value at the N-th roots of unity
    times 1 + |a|."""
    roots = TAU * np.arange(desc.matrix_size)[None] / desc.matrix_size
    return float(_spacing_ratio(desc, roots, 0.0)[0]) * (1.0 + abs(strength))


@dataclass(frozen=True)
class EigenangleLaw:
    """The law of the eigenangle rows of a draw of ``law``.

    Perturbed-Haar laws (Haar at strength 0) on U(N), N <= ``WEYL_MAX_N``, are sampled
    by exact rejection against :func:`_weyl_density` from the spacing proposal: a
    uniform first angle, then gaps 2 pi u with u ~ Dirichlet(3, ..., 3), a law shaped
    like the Weyl density's |Delta|^2, which vanishes like gap^2 at a collision.  The
    envelope is :func:`_spacing_bound`: 1.07, 1.30 and 1.68 (1 + |a|) at N = 2, 3, 4.
    Rows run counterclockwise from their first angle, so their order is not
    exchangeable; every consumer is symmetric in the row or permutes it.  Every other
    law takes the eigenangles of its matrix draws, on the same stream as
    ``eigenangles_batch(law.sample_batch(rng, size))``.
    """

    law: object

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, N) eigenangle rows in [0, 2 pi)."""
        law = self.law
        if (not isinstance(law, PerturbedHaarLaw) or law.descriptor.family is not Family.UNITARY
                or law.descriptor.matrix_size > WEYL_MAX_N):
            return eigenangles_batch(law.sample_batch(rng, size))
        desc, strength = law.descriptor, law.strength
        n = desc.matrix_size
        bound = _spacing_bound(desc, strength)
        propose = lambda draw: _spacing_proposal(rng, n, draw)
        density = lambda x: _spacing_ratio(desc, x, strength)
        x = np.concatenate([_rejection_fill(rng, min(_WEYL_CHUNK, size - start), bound,
                                            propose, density)
                            for start in range(0, max(size, 1), _WEYL_CHUNK)])
        return x - TAU * (x >= TAU)   # exact on [0, 4 pi), 10x cheaper than wrap_angles


# ---------------------------------------------------------------------------
# exact symbolic eigenvalue densities
# ---------------------------------------------------------------------------


def _shift_sum(box: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Sum over the vectors v of the box moved by v (p to p + v), by slices: no wrap-around."""
    out = np.zeros_like(box)
    for v in vectors.tolist():
        out[tuple(slice(max(x, 0), w + min(x, 0)) for x, w in zip(v, box.shape))] += (
            box[tuple(slice(max(-x, 0), w + min(-x, 0)) for x, w in zip(v, box.shape))])
    return out


def check_symbolic_density(law) -> None:
    """Raise ValueError unless :func:`symbolic_eigen_density` expands ``law``: a torus law,
    or a perturbed-Haar law (Haar at strength 0) with no more positive roots than
    U(``WEYL_MAX_N``).  A type test and a root count: nothing is expanded."""
    if not isinstance(law, (TorusLaw, PerturbedHaarLaw)):
        raise ValueError(f"no symbolic eigenvalue density for {type(law).__name__}")
    if isinstance(law, PerturbedHaarLaw) and (
            len(law.descriptor.root_pairs) > WEYL_MAX_N * (WEYL_MAX_N - 1) // 2):
        raise ValueError(f"symbolic expansion kept to as many roots as U({WEYL_MAX_N})")


def symbolic_eigen_density(law) -> FourierDensity:
    """Exact Fourier coefficients of the uniform-preimage torus marginal.

    For the laws :func:`check_symbolic_density` accepts, which it calls first.  A torus
    law's marginal is the Weyl symmetrization of its density.  The Haar density is the
    Weyl product over the descriptor's positive roots a of
    |1 - e^{i a.t}|^2, whose factors contribute {0: 2, a: -1, -a: -1}; the
    perturbation multiplies by 1 + (a/N) sum_j cos(M_j.t) over the monomial
    rows M_j.  The constant term of the bare product is exactly |W|, which
    normalizes a_0 to 1.  The product is multiplied out on a dense coefficient box
    centred at 0, one :func:`_shift_sum` per factor: roots x box size in all.
    """
    check_symbolic_density(law)
    if isinstance(law, TorusLaw):
        return _symmetrize(law.descriptor, law.density)
    desc, strength = law.descriptor, law.strength
    roots = desc.monomials[desc.root_pairs[:, 0]] - desc.monomials[desc.root_pairs[:, 1]]
    reach = int(np.max(np.abs(roots).sum(axis=0) + np.abs(desc.monomials).max(axis=0)))
    box = np.zeros((2 * reach + 1,) * desc.torus_rank)
    centre = (reach,) * desc.torus_rank
    box[centre] = 1.0
    for root in roots:
        box = 2.0 * box - _shift_sum(box, np.stack([root, -root]))
    assert abs(box[centre] - desc.weyl_order) < 1e-9
    if strength != 0.0:
        monomials = np.concatenate([desc.monomials, -desc.monomials])
        box += strength / (2.0 * desc.matrix_size) * _shift_sum(box, monomials)
    kept = np.abs(box) > _COEFF_PRUNE
    return FourierDensity(desc.torus_rank, np.argwhere(kept) - reach, box[kept] / box[centre])


def _symmetrize(desc: GroupDescriptor, d: FourierDensity) -> FourierDensity:
    """The mean over the Weyl group W of ``desc`` of the density: each a_p / |W| goes to
    the torus point of w(k) for every w, k the key of p's orbit (``stats._keys``), itself
    an image of p's Weyl vector, so the w(k) are the w(p) in another order.  The shares
    are added in lattice order (``bincount`` keeps it), so the sums do not depend on the
    order the density was given in."""
    images = _weyl_images(desc.family, _keys(desc.family, d.lattice))
    order = images.shape[1]
    points, where = np.unique(_torus_points(desc.family, images.reshape(-1, images.shape[2])),
                              axis=0, return_inverse=True)
    share = np.repeat(d.coeffs, order)
    return FourierDensity(d.rank, points, np.bincount(where, share.real / order)
                          + 1j * np.bincount(where, share.imag / order))
