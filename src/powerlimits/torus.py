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
(no FFT), the last axis as one real matrix product, so no complex grid is
built; its grid_size > 2 * max_degree precondition is a resolution one.

:meth:`FourierDensity.sample` draws exactly by rejection from the uniform
proposal.  A piecewise-constant bound on a table of cells, built once per
density, is a squeeze: it turns most proposals away before the series is
evaluated, and keeps the same draws as rejection against the flat bound.
:func:`sample_grid` draws by the same rejection against its largest cell, in
chunks of ``CHUNK_ENTRIES`` proposals: one ``max``, no CDF, flat memory.

Conventions: the density series is rho(theta) = sum_p a_p exp(+i p.theta);
the transform hat(nu)(p) = E exp(-i p.theta) then equals a_p, which makes
the coefficient identity hat(nu^(m))(p) = hat(nu)(m p) literal for the
stored coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import (CHUNK_ENTRIES, TAU, _count, fold_grid, trig_poly_grid, trig_poly_values,
                       wrap_angles)
from .stats import lattice_ball

TAU_NEG = 1e-9          # validation slack for "nonnegative" trig polynomials
_RIEMANN_TOL = 1e-9     # grid normalization tolerance
_HERMITIAN_TOL = 1e-12
_COEFF_PRUNE = 1e-15    # treat smaller moduli as structural zeros
_REJECTION_ROUNDS = 64  # cap on rejection-sampling rounds per batch
_BOUND_RTOL = 1e-9      # a density value above bound * (1 + this) breaks the envelope
_CELLS = 4096           # cells of a density's squeeze table, at most: 64^2 at rank 2


class DensityError(ValueError):
    """Input does not describe a probability density."""


class RejectionError(RuntimeError):
    """A rejection fill that cannot give exact draws: its bound is below 1, a density
    value exceeds the bound or the squeeze (a wrong envelope), or its rounds ran out."""


@dataclass(frozen=True, eq=False)
class FourierDensity:
    """Probability density on the n-torus with finite Fourier support.

    One store: ``lattice`` (K, rank) int64 and ``coeffs`` (K,) complex128, read-only
    and sorted lexicographically by point whatever the input's row order; the
    ``coefficients`` dict {point: a_p} is a view of them.  Enforced at construction:
    integer points, each given once, finite coefficients, a_0 = 1, Hermitian symmetry
    a_{-p} = conj(a_p), and values >= -1e-9 on a validation grid.
    """

    rank: int
    lattice: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        points = np.asarray(self.lattice)
        values = np.asarray(self.coeffs, dtype=np.complex128)
        if values.ndim != 1 or points.shape != (values.shape[0], self.rank):
            raise ValueError(f"lattice and coeffs must be (K, {self.rank}) and (K,) arrays")
        if points.dtype.kind not in "iu":
            raise ValueError("lattice points must be integers")
        # every check below is written to fail on NaN
        modulus = np.hypot(values.real, values.imag)   # NaN or inf where a part is
        if not np.all(modulus < np.inf):
            raise DensityError("coefficients must be finite (no NaN or inf)")
        kept = (modulus > _COEFF_PRUNE) | ~points.any(axis=1)
        points, values = points[kept].astype(np.int64, copy=False), values[kept]
        order = np.lexsort(points.T[::-1])
        lattice, coeffs = points[order], values[order]
        zero = np.flatnonzero(~lattice.any(axis=1))
        if not (zero.shape[0] == 1 and abs(coeffs[zero[0]] - 1.0) <= _HERMITIAN_TOL):
            raise DensityError("constant coefficient a_0 must equal 1")
        coeffs[zero[0]] = 1.0 + 0.0j
        if np.any(np.all(lattice[1:] == lattice[:-1], axis=1)):
            raise ValueError("a lattice point is given twice")
        # sorted, the points of a symmetric support are their own negated mirror image
        gap = coeffs[::-1] - coeffs.conj()
        bad = ~(np.all(lattice == -lattice[::-1], axis=1)
                & (np.hypot(gap.real, gap.imag) <= _HERMITIAN_TOL))
        if bad.any():
            raise DensityError(f"Hermitian symmetry fails at {tuple(lattice[bad][0].tolist())}")
        lattice.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "coeffs", coeffs)
        low = self._validation_minimum()
        if not low >= -TAU_NEG:
            raise DensityError(f"density reaches {low:.3e} < -{TAU_NEG:.0e} on the validation grid")

    @property
    def coefficients(self) -> dict:
        """{lattice point tuple: a_p} in lattice order, a fresh dict built from the arrays."""
        return {tuple(p): a for p, a in zip(self.lattice.tolist(), self.coeffs.tolist())}

    @property
    def max_degree(self) -> int:
        """Largest |p_j| over the support (which holds 0)."""
        return int(np.max(np.abs(self.lattice)))

    def _validation_minimum(self) -> float:
        deg = self.max_degree
        return float(self.grid_values(max(4 * deg, 8)).min()) if deg else 1.0

    def grid_values(self, grid_size: int) -> np.ndarray:
        """Series values on the (grid_size,)*rank grid, synthesized directly
        from the coefficients (:func:`trig_poly_grid`).

        Synthesis is exact at any grid size; grid_size > 2 * max_degree is
        still required as a resolution condition: a coarser grid cannot tell
        the support's frequencies apart (p and p - grid_size agree on it), so
        its values do not determine the density.
        """
        g = _count(grid_size, "grid_size", 1)
        if g <= 2 * self.max_degree:
            raise ValueError(f"grid size {g} must exceed twice the degree {self.max_degree}")
        return trig_poly_grid(self.lattice, self.coeffs, g)

    # -- config input -------------------------------------------------------

    @classmethod
    def from_json(cls, data: dict) -> "FourierDensity":
        """A config's density from its parsed JSON object {"rank": n, "coeffs": [{"p", "re",
        "im"}]}, "im" optional.  Anything else (JSON text or any string, an empty object,
        null, a number), any other key, a rank or coordinate that is not a JSON integer, a
        boolean coefficient part and a point listed twice raise ValueError."""
        if not (isinstance(data, dict) and {"rank", "coeffs"} <= set(data)):
            raise ValueError("a density is a JSON object with a rank and coeffs")
        rows = data["coeffs"]
        for obj, known in [(data, {"rank", "coeffs"}), *((row, {"p", "re", "im"}) for row in rows)]:
            if set(obj) - known:
                raise ValueError(f"unknown density keys: {sorted(set(obj) - known)}")
        points = [row["p"] for row in rows]
        if type(data["rank"]) is not int or not all(type(x) is int for p in points for x in p):
            raise ValueError("a density's rank and lattice coordinates must be integers")
        if any(type(row.get(key, 0.0)) is bool for row in rows for key in ("re", "im")):
            raise ValueError("a density's coefficient parts must be numbers, not booleans")
        return cls(data["rank"], np.array(points, dtype=np.int64),
                   [complex(row["re"], row.get("im", 0.0)) for row in rows])

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> "AngleSample":
        """Exact draws by rejection from the uniform proposal.

        The envelope is 1 + sum_{p != 0} |a_p| >= max(rho), so the accepted law
        is exactly the density (no grid discretization).  The cell bound of
        :meth:`_cell_table` is the squeeze: a proposal whose uniform lies above
        its cell's bound is turned away without evaluating the series, so each
        draw costs about (mean cell bound) series evaluations rather than the
        envelope's, with the same draws.
        """
        bound, g, table = self._cell_table()
        rows = _rejection_fill(
            rng, size, bound,
            lambda draw: rng.uniform(0.0, TAU, size=(draw, self.rank)),
            lambda theta: trig_poly_values(self.lattice, self.coeffs, theta),
            lambda theta: _cell_values(g, table, theta))
        return AngleSample(self.rank, rows)

    def _cell_table(self):
        """(bound, G, flat C-order table): the envelope max(sum_p |a_p|, 1) >= max(rho),
        and an upper bound on rho over each of the G**rank cells
        [2 pi k_j / G, 2 pi (k_j + 1) / G) of the torus, at most the envelope.

        Built on first use and kept on the density.  G is the
        largest grid with at most ``_CELLS`` cells.  Two threads sampling one density
        (concurrent stages of an experiment) may both build it, with no lock: the table
        is a pure function of the density's read-only arrays, so either copy serves.
        """
        cached = self.__dict__.get("_cells")
        if cached is not None:
            return cached
        lattice, coeffs = self.lattice, self.coeffs
        bound = max(float(np.sum(np.abs(coeffs))), 1.0)
        g = round(_CELLS ** (1.0 / self.rank))
        while g ** self.rank > _CELLS:
            g -= 1
        h = math.pi / g   # half-width of a cell
        # Within the cell of centre c, |p.(theta - c)| <= |p|_1 h, and
        # |e^{i phi} - 1| = 2 |sin(phi / 2)|, so
        #   rho(theta) = rho(c) + Re sum_p a_p e^{i p.c} (e^{i p.(theta - c)} - 1)
        #             <= rho(c) + sum_p |a_p| 2 sin(min(|p|_1 h, pi) / 2).
        # rho at the centres 2 pi k / G + h is one grid synthesis with every a_p
        # shifted by e^{i h sum_j p_j}.  The _BOUND_RTOL * bound term covers
        # rounding there and in the cell lookup of a point on a cell edge.
        centres = trig_poly_grid(lattice, coeffs * np.exp(1j * h * lattice.sum(axis=1)), g)
        reach = np.minimum(np.abs(lattice).sum(axis=1) * h, math.pi)
        slack = float(np.sum(np.abs(coeffs) * 2.0 * np.sin(0.5 * reach)))
        table = np.minimum(centres.ravel() + (slack + _BOUND_RTOL * bound), bound)
        table.setflags(write=False)
        cached = (bound, g, table)
        object.__setattr__(self, "_cells", cached)
        return cached


def _cell_values(g: int, table: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The entry of a flat C-order (G,)*n cell table at the cell of each (S, n) row."""
    flat = np.zeros(theta.shape[0], dtype=np.intp)
    for column in theta.T:   # a uniform can round up to 2 pi: clip to the last cell
        flat *= g
        flat += np.minimum((column * (g / TAU)).astype(np.intp), g - 1)
    return table[flat]


def _rejection_fill(rng: np.random.Generator, size: int, bound: float, propose, density,
                    upper=None):
    """``size`` exact draws by rejection, keeping x with probability density(x)/bound: each of
    at most ``_REJECTION_ROUNDS`` rounds proposes the mean count still needed + 4 sd + 64,
    in chunks of ``CHUNK_ENTRIES`` (memory stays flat at any bound) up to the one that fills.

    ``upper``, if given, is a cheap squeeze with density <= upper: a proposal whose uniform
    u ~ U(0, bound) is not below upper(x) is turned away unevaluated, and ``density`` is
    evaluated only at the rest.  Neither callback draws randomness, so the uniforms, and
    the accepted draws, are the same with or without it.  Raises :class:`RejectionError`
    on a bound below 1 (no density against a probability proposal stays under it), on a
    density value above the bound or above ``upper`` where evaluated, and when the rounds
    run out."""
    size = _count(size, "size", 0)
    if not bound >= 1.0:
        raise RejectionError(f"rejection bound {bound} is below 1, so it bounds no density")
    if size == 0:
        return propose(0)   # a size-0 numpy draw consumes nothing: the shape, no state change
    parts, got = [], 0
    for _ in range(_REJECTION_ROUNDS):
        need = (size - got) * bound   # mean proposals for the rest; variance need (bound - 1)
        draw = int(need + 4.0 * np.sqrt(need * (bound - 1.0))) + 64
        for start in range(0, draw, CHUNK_ENTRIES):
            chunk = min(CHUNK_ENTRIES, draw - start)
            props = propose(chunk)
            u = rng.uniform(0.0, bound, size=chunk)
            cap = bound
            if upper is not None:
                cap = np.minimum(upper(props), bound)
                live = np.flatnonzero(u < cap)
                props, u, cap = props.take(live, axis=0), u[live], cap[live]
            values = density(props)
            fits = values <= cap * (1.0 + _BOUND_RTOL)
            if not fits.all():
                bad = np.argmin(fits)
                raise RejectionError(f"density value {values[bad]} exceeds the rejection bound "
                                     f"{np.broadcast_to(cap, values.shape)[bad]}")
            parts.append(props[u < values][:size - got])
            got += parts[-1].shape[0]
            if got >= size:
                return np.concatenate(parts)
    raise RejectionError(f"rejection sampler failed to fill the batch in "
                         f"{_REJECTION_ROUNDS} rounds ({got} of {size} draws)")


def fourier_pushforward(d: FourierDensity, m: int) -> FourierDensity:
    """Density of m*X from the density of X, exactly.

    Keeps the coefficients a_p with m | p_j for every component and
    reindexes them to p/m; everything else is annihilated.
    """
    if _count(m, "m", 1) == 1:
        return d
    kept = ~(d.lattice % m).any(axis=1)
    return FourierDensity(d.rank, d.lattice[kept] // m, d.coeffs[kept])


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
        if not v.min() >= 0.0:   # written to fail on NaN, as v.min() < 0 would not
            raise DensityError("grid density values must be nonnegative")
        riemann = float(v.sum()) * (TAU / self.grid_size) ** self.rank
        if not abs(riemann - 1.0) <= _RIEMANN_TOL:
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
    return GridDensity(d.rank, vals.shape[0], vals)


def grid_pushforward(d: GridDensity, m: int) -> GridDensity:
    """Density of m*X on the coarse G/m grid, by exact branch averaging.

    Output index q collects the m**n input grid points {q + l*(G/m)} per
    axis, which are precisely the grid preimages of the output point under
    theta -> m*theta; their average is the branch-sum operator applied at
    that point.  Requires m | G; the Riemann sum is preserved exactly.
    """
    return GridDensity(d.rank, d.grid_size // _count(m, "m", 1), fold_grid(d.values, m))


@dataclass(frozen=True)
class AngleSample:
    """S observed torus points: an (S, rank) array of angles in [0, 2*pi)."""

    rank: int
    rows: np.ndarray

    def __post_init__(self):
        r = np.ascontiguousarray(self.rows, dtype=np.float64)
        if r.ndim != 2 or r.shape[1] != self.rank:
            raise ValueError(f"rows must be (S, {self.rank})")
        if r.size and not (r.min() >= 0.0 and r.max() < TAU):   # fails on NaN too
            raise ValueError("angles must lie in [0, 2*pi)")
        r.setflags(write=False)
        object.__setattr__(self, "rows", r)

    @property
    def size(self) -> int:
        return self.rows.shape[0]


def sample_grid(d: GridDensity, rng: np.random.Generator, size: int) -> AngleSample:
    """Exact draws from the grid density, constant on each cell [2 pi k / G, 2 pi (k + 1) / G):
    uniform proposals kept with probability value/max(values), about max/mean per draw.
    The bound max(values) (2 pi)**n is raised to 1 where rounding leaves a flat grid's a
    hair below it (its Riemann sum is 1 only to 1e-9)."""
    flat = d.values.ravel()
    scale = TAU ** d.rank
    return AngleSample(d.rank, _rejection_fill(
        rng, size, max(float(flat.max()) * scale, 1.0),
        lambda draw: rng.uniform(0.0, TAU, size=(draw, d.rank)),
        lambda theta: _cell_values(d.grid_size, flat, theta) * scale))


def power_angles(a: AngleSample, m: int) -> AngleSample:
    """Entrywise m * theta mod 2*pi, for an integer m >= 1 (the maps of the torus)."""
    if _count(m, "m", 1) == 1:
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
    max_degree = _count(max_degree, "max_degree", 1)
    if mass is None:
        mass = float(rng.uniform(0.3, 0.9))
    if not 0.0 < mass < 1.0:
        raise ValueError("mass must lie in (0, 1)")
    half = lattice_ball(rank, max_degree)
    keep = np.flatnonzero(rng.random(half.shape[0]) < 0.7)
    at_max = np.flatnonzero(np.abs(half).max(axis=1) == max_degree)
    forced = at_max[int(rng.integers(at_max.shape[0]))]
    if forced not in keep:
        keep = np.append(keep, forced)
    raw = rng.normal(size=(keep.shape[0], 2)).view(np.complex128).ravel()
    # abs(complex) is np.hypot's bits, not np.abs's; summed in order, as a Python loop
    scale = mass / (2.0 * sum(np.hypot(raw.real, raw.imag).tolist()))
    points = half[keep]
    return FourierDensity(rank, np.concatenate([np.zeros((1, rank), np.int64), points, -points]),
                          np.concatenate([[1.0 + 0.0j], raw * scale, raw.conj() * scale]))
