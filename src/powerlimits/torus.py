"""Densities on the n-torus and their dynamics under theta -> m*theta.

Two representations are kept deliberately independent of each other so
that each can serve as an oracle for the other:

* :class:`FourierDensity`: a finite lattice of series coefficients a_p,
  normalized against the uniform probability measure (a_0 = 1).  Pushing
  forward under multiplication by m keeps exactly the coefficients whose
  index is divisible by m in every component and divides the index by m.
* :class:`GridDensity`: nonnegative values on a uniform grid (Lebesgue
  density scale).  Pushing forward averages the m**n grid branches that
  map onto each point of the G/m output grid; no Fourier logic, no
  interpolation.

:func:`to_grid` synthesizes the grid directly from the coefficient box
(no FFT); its grid_size > 2 * max_degree precondition is a resolution one.

Conventions: the density series is rho(theta) = sum_p a_p exp(+i p.theta);
the transform hat(nu)(p) = E exp(-i p.theta) then equals a_p, which makes
the coefficient identity hat(nu^(m))(p) = hat(nu)(m p) literal for the
stored coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._kernels import TAU, fold_grid, trig_poly_grid, trig_poly_values, wrap_angles
from .stats import lattice_ball

TAU_NEG = 1e-9          # validation slack for "nonnegative" trig polynomials
_RIEMANN_TOL = 1e-9     # grid normalization tolerance
_HERMITIAN_TOL = 1e-12
_COEFF_PRUNE = 1e-15    # treat smaller moduli as structural zeros
_REJECTION_ROUNDS = 64  # cap on rejection-sampling rounds per batch


class DensityError(ValueError):
    """Input does not describe a probability density."""


def _as_lattice_key(p) -> tuple[int, ...]:
    return tuple(int(x) for x in np.atleast_1d(p))


@dataclass(frozen=True)
class FourierDensity:
    """Probability density on the n-torus with finite Fourier support.

    ``coefficients`` maps integer lattice tuples to complex values.
    Invariants enforced at construction: a_0 = 1, Hermitian symmetry
    a_{-p} = conj(a_p), and values >= -1e-9 on a validation grid.
    """

    rank: int
    coefficients: dict = field(repr=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        clean: dict[tuple[int, ...], complex] = {}
        for p, a in self.coefficients.items():
            key = _as_lattice_key(p)
            if len(key) != self.rank:
                raise ValueError(f"lattice point {key} has wrong rank")
            a = complex(a)
            if abs(a) > _COEFF_PRUNE or key == (0,) * self.rank:
                clean[key] = a
        zero = (0,) * self.rank
        if zero not in clean or abs(clean[zero] - 1.0) > _HERMITIAN_TOL:
            raise DensityError("constant coefficient a_0 must equal 1")
        clean[zero] = 1.0 + 0.0j
        for p, a in clean.items():
            neg = tuple(-x for x in p)
            if neg not in clean or abs(clean[neg] - a.conjugate()) > _HERMITIAN_TOL:
                raise DensityError(f"Hermitian symmetry fails at {p}")
        object.__setattr__(self, "coefficients", clean)
        lattice = np.array(sorted(clean.keys()), dtype=np.int64).reshape(len(clean), self.rank)
        coeffs = np.array([clean[tuple(p)] for p in lattice], dtype=np.complex128)
        lattice.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "_lattice", lattice)
        object.__setattr__(self, "_coeffs", coeffs)
        low = self._validation_minimum()
        if low < -TAU_NEG:
            raise DensityError(f"density reaches {low:.3e} < -{TAU_NEG:.0e} on the validation grid")

    @property
    def max_degree(self) -> int:
        """Largest |p_j| over the nonzero support."""
        lat = self._lattice
        if lat.shape[0] <= 1:
            return 0
        return int(np.max(np.abs(lat)))

    def _validation_minimum(self) -> float:
        deg = self.max_degree
        if deg == 0:
            return 1.0
        g = max(4 * deg, 8)
        return float(self.grid_values(g).min())

    def grid_values(self, grid_size: int) -> np.ndarray:
        """Series values on the (grid_size,)*rank grid, synthesized directly
        from the coefficients (:func:`trig_poly_grid`).

        Synthesis is exact at any grid size; grid_size > 2 * max_degree is
        still required as a resolution condition: a coarser grid cannot tell
        the support's frequencies apart (p and p - grid_size agree on it), so
        its values do not determine the density.
        """
        g = int(grid_size)
        if g <= 2 * self.max_degree:
            raise ValueError(f"grid size {g} must exceed twice the degree {self.max_degree}")
        return trig_poly_grid(self._lattice, self._coeffs, g)

    # -- config input -------------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "FourierDensity":
        """A config's density, JSON text or parsed: {"rank": n, "coeffs": [{"p", "re", "im"}]}."""
        data = json.loads(text) if isinstance(text, str) else text
        coeffs = {tuple(row["p"]): complex(row["re"], row.get("im", 0.0))
                  for row in data["coeffs"]}
        return cls(int(data["rank"]), coeffs)

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> "AngleSample":
        """Exact draws by rejection against the uniform proposal.

        The proposal bound is 1 + sum_{p != 0} |a_p| >= max(rho), so the
        accepted law is exactly the density (no grid discretization).
        """
        bound = max(float(np.sum(np.abs(self._coeffs))), 1.0)  # >= max(rho)
        rows = _rejection_fill(
            rng, size, bound,
            lambda draw: rng.uniform(0.0, TAU, size=(draw, self.rank)),
            lambda theta: trig_poly_values(self._lattice, self._coeffs, theta))
        return AngleSample(self.rank, rows)


def _rejection_fill(rng: np.random.Generator, size: int, bound: float, propose, density):
    """``size`` exact draws by rejection, keeping x with probability density(x)/bound: each of
    at most ``_REJECTION_ROUNDS`` rounds proposes the mean count still needed + 4 sd + 64."""
    parts, got = [], 0
    for _ in range(_REJECTION_ROUNDS):
        need = (size - got) * bound   # mean proposals for the rest; variance need (bound - 1)
        draw = int(need + 4.0 * np.sqrt(need * (bound - 1.0))) + 64
        props = propose(draw)
        values = density(props)   # before the uniforms: one fewer array at its peak
        keep = rng.uniform(0.0, bound, size=draw) < values
        parts.append(props[keep][:size - got])
        got += parts[-1].shape[0]
        if got >= size:
            return np.concatenate(parts)
    raise RuntimeError("rejection sampler failed to fill the batch")


def fourier_coefficient(d: FourierDensity, p) -> complex:
    """Stored coefficient a_p (= the transform at p), 0 outside support."""
    return complex(d.coefficients.get(_as_lattice_key(p), 0.0))


def fourier_pushforward(d: FourierDensity, m: int) -> FourierDensity:
    """Density of m*X from the density of X, exactly.

    Keeps the coefficients a_p with m | p_j for every component and
    reindexes them to p/m; everything else is annihilated.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if m == 1:
        return d
    kept = {}
    for p, a in d.coefficients.items():
        if all(x % m == 0 for x in p):
            kept[tuple(x // m for x in p)] = a
    return FourierDensity(d.rank, kept)


def stationarity_threshold(d: FourierDensity) -> int:
    """1 + the highest degree in any coordinate over the nonzero support.

    For every m at or above the returned value the pushforward is the
    uniform density (smaller m may happen to be uniform as well; this is
    the guaranteed threshold, not necessarily the sharp one).
    """
    return d.max_degree + 1


@dataclass(frozen=True)
class GridDensity:
    """Density values on the uniform (grid_size,)*rank lattice.

    Value at index k is the Lebesgue density at theta = 2*pi*k/G, so the
    Riemann sum (2*pi/G)**rank * sum(values) must equal 1.
    """

    rank: int
    grid_size: int
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        expected = (self.grid_size,) * self.rank
        if v.shape != expected:
            raise ValueError(f"values must have shape {expected}")
        if np.any(v < 0.0):
            raise DensityError("grid density values must be nonnegative")
        riemann = float(v.sum()) * (TAU / self.grid_size) ** self.rank
        if abs(riemann - 1.0) > _RIEMANN_TOL:
            raise DensityError(f"Riemann sum {riemann!r} is not 1")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def to_grid(d: FourierDensity, grid_size: int) -> GridDensity:
    """Pointwise evaluation of the density on a grid (Lebesgue scale).

    Rounding can leave values a hair below zero where the polynomial
    touches 0; those are clipped.  Anything below -1e-9 means the series
    is not a density and raises.
    """
    vals = d.grid_values(grid_size)
    low = float(vals.min())
    if low < -TAU_NEG:
        raise DensityError(f"density reaches {low:.3e}; not a probability density")
    np.maximum(vals, 0.0, out=vals)
    vals /= TAU ** d.rank
    return GridDensity(d.rank, int(grid_size), vals)


def grid_pushforward(d: GridDensity, m: int) -> GridDensity:
    """Density of m*X on the coarse G/m grid, by exact branch averaging.

    Output index q collects the m**n input grid points {q + l*(G/m)} per
    axis, which are precisely the grid preimages of the output point under
    theta -> m*theta; their average is the branch-sum operator applied at
    that point.  Requires m | G; the Riemann sum is preserved exactly.
    """
    return GridDensity(d.rank, d.grid_size // m, fold_grid(d.values, m))


@dataclass(frozen=True)
class AngleSample:
    """S observed torus points: an (S, rank) array of angles in [0, 2*pi)."""

    rank: int
    rows: np.ndarray

    def __post_init__(self):
        r = np.ascontiguousarray(self.rows, dtype=np.float64)
        if r.ndim != 2 or r.shape[1] != self.rank:
            raise ValueError(f"rows must be (S, {self.rank})")
        if r.size and (r.min() < 0.0 or r.max() >= TAU):
            raise ValueError("angles must lie in [0, 2*pi)")
        r.setflags(write=False)
        object.__setattr__(self, "rows", r)

    @property
    def size(self) -> int:
        return self.rows.shape[0]


def sample_grid(d: GridDensity, rng: np.random.Generator, size: int) -> AngleSample:
    """Draws from the grid density: cell-weighted choice plus uniform
    jitter inside the chosen cell."""
    flat = d.values.ravel()
    total = flat.sum()
    idx = rng.choice(flat.size, size=size, p=flat / total)
    coords = np.stack(np.unravel_index(idx, d.values.shape), axis=1).astype(np.float64)
    coords += rng.uniform(0.0, 1.0, size=coords.shape)
    return AngleSample(d.rank, wrap_angles(coords * (TAU / d.grid_size)))


def power_angles(a: AngleSample, m: int) -> AngleSample:
    """Entrywise m * theta mod 2*pi."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if m == 1:
        return a
    return AngleSample(a.rank, wrap_angles(m * a.rows))


def random_fourier_density(rng: np.random.Generator, rank: int, max_degree: int,
                           mass: float | None = None) -> FourierDensity:
    """A random strictly positive density of the requested degree.

    Coefficients are complex Gaussians on a random sub-lattice, scaled so
    the off-constant total variation is ``mass`` < 1, which guarantees
    pointwise positivity (rho >= 1 - mass).  At least one coefficient sits
    at the maximal degree so the degree is attained exactly.
    """
    if mass is None:
        mass = float(rng.uniform(0.3, 0.9))
    if not 0.0 < mass < 1.0:
        raise ValueError("mass must lie in (0, 1)")
    half = [tuple(q) for q in lattice_ball(rank, max_degree).tolist()]
    keep = [q for q in half if rng.random() < 0.7]
    at_max = [q for q in half if max(abs(x) for x in q) == max_degree]
    forced = at_max[int(rng.integers(len(at_max)))]
    if forced not in keep:
        keep.append(forced)
    raw = {q: complex(rng.normal(), rng.normal()) for q in keep}
    scale = mass / (2.0 * sum(abs(a) for a in raw.values()))
    coeffs = {(0,) * rank: 1.0 + 0.0j}
    for q, a in raw.items():
        coeffs[q] = a * scale
        coeffs[tuple(-x for x in q)] = a.conjugate() * scale
    return FourierDensity(rank, coeffs)
