"""Hot numeric kernels, one numpy implementation each.

The three lattice kernels, :func:`fourier_sums`, :func:`trig_poly_values`
and :func:`trig_poly_grid`, never loop over lattice points.  Over the
bounding box of the lattice, ``exp(-i p.theta)`` factors into
per-coordinate power tables ``exp(-i k theta_j)``; the Khatri-Rao products
(Kronecker per sample) of the tables for the first and the second half of
the coordinates turn the sum over samples into one matrix product per
chunk of sample rows.  This is a type-1 non-uniform DFT evaluated exactly
on the box (Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1993, give the
gridding route should a much larger degree ever need it).  The cost
follows the box, not the number of lattice points: callers pass dense
coefficient balls or single points.  On a uniform grid,
:func:`trig_poly_grid` instead contracts the box with one power table per
grid axis: an inverse DFT pruned to the box.

numpy runs a stacked matrix product, a QR or eigendecomposition or a
determinant as one BLAS or LAPACK call per matrix, and at the small N of
U(2), SU(2), U(3) and SO(3) that per-call cost dominates.  The matrix
kernels replace those calls with closed forms evaluated over the whole
stack, selected by matrix size alone.  Up to N = SMALL_N they hold a stack
as *entry planes*, the array in Fortran order: each entry ``a[..., i, j]``
is then one contiguous array over the stack, and each term of a closed
form one ufunc call over it.

* :func:`_plane_matmul`: out[i, j] = a[i, 0] b[0, j] + a[i, 1] b[1, j] + ...
  on planes, k in order.  Conversions included, it beats ``@`` in a power
  loop up to N = 3 and in a single complex product, not in a single real
  one (README.md has the measured crossover).  So up to SMALL_N the power
  loop, the unitarity check and the trace moments convert a stack once,
  :func:`stack_matmul` runs a complex product straight on the stacks in
  blocks of rows, and the rest stays on ``@``.
* :func:`positive_qr_q`: Gram-Schmidt on column planes, two passes per
  column, at every N.  Against ``np.linalg.qr`` plus a phase fix it is
  faster up to N = 7 and 0.83x at complex N = 8; the shipped configs and
  benchmark workloads all draw N <= 4.
* :func:`det`: cofactor expansion for N = 2 and 3, ``np.linalg.det``
  otherwise.
* :func:`eig_normal_2x2` and :func:`so3_axis_angle` solve one size each
  (callers take ``np.linalg.eig`` at any other): the 2x2 eigenproblem in
  ``np.linalg.eigvals`` order, and the angle and axis of a 3D rotation.
"""

from __future__ import annotations

import importlib.util
import math
import numbers

import numpy as np

TAU = 2.0 * math.pi

# No kernel uses numba.  The flag only records, for the benchmark's
# environment line, whether the interpreter could import it.
NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None

# Largest N held as entry planes: the measured crossover.
SMALL_N = 3

# Rows per block of a product taken straight on C stacks.  An entry of a C stack
# is a strided array; over a block it stays in cache, over a whole (1e5, 3, 3)
# complex stack it does not, and the product runs 2x slower than the blocks.
STACK_ROWS = 2048

# Complex entries per Khatri-Rao factor of one row chunk (4 MB each), which
# bounds the kernels' working memory independently of the sample count.
CHUNK_ENTRIES = 1 << 18

# OpenBLAS runs a product of fewer multiply-adds on the calling thread; a larger
# one wakes a second thread, which then spins on the other core for a while.
SERIAL_MACS = 1 << 19


def _count(value, name: str, low: int) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is an integer >= low."""
    if not (isinstance(value, numbers.Integral) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")
    return int(value)


def wrap_angles(x):
    """Reduce angles to [0, 2*pi).

    ``np.mod`` alone can round a tiny negative input up to exactly 2*pi,
    which would violate the half-open range, hence the second pass.
    """
    w = np.mod(np.asarray(x, dtype=np.float64), TAU)
    return np.where(w >= TAU, 0.0, w)


def unit_phases(x):
    """exp(i x) of a real array: cos and sin written into the real and imaginary parts
    of one complex array, which skips the complex exp of ``np.exp(1j * x)`` (0.6 against
    0.8 ms at (8192, 2), x86-64).  The two agree bit for bit unless numpy takes a SIMD
    cos or sin, which may round differently by an ulp."""
    out = np.empty(np.shape(x), dtype=np.complex128)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _plane_matmul(a, b, out=None):
    """``a @ b`` for (..., N, N) stacks with broadcast lead shapes, one ufunc per
    term of out[i, j] = a[i, 0] b[0, j] + a[i, 1] b[1, j] + ...  Best on entry
    planes, which it returns unless given ``out``."""
    n = a.shape[-1]
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b), order="F")
    for i in range(n):
        for j in range(n):
            entry = out[..., i, j]
            np.multiply(a[..., i, 0], b[..., 0, j], out=entry)
            for k in range(1, n):
                entry += a[..., i, k] * b[..., k, j]
    return out


def stack_matmul(a, b):
    """``a @ b`` for matrix stacks: up to N = SMALL_N a complex product runs
    :func:`_plane_matmul` straight on the C stacks, STACK_ROWS rows at a time;
    ``@`` otherwise."""
    if a.shape[-1] > SMALL_N or not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return a @ b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    n = out.shape[-1]
    flat = out.reshape(-1, n, n)
    a, b = (np.broadcast_to(x, out.shape).reshape(-1, n, n) for x in (a, b))
    for start in range(0, flat.shape[0], STACK_ROWS):
        rows = slice(start, start + STACK_ROWS)
        _plane_matmul(a[rows], b[rows], out=flat[rows])
    return out


def positive_qr_q(z):
    """Q of z = QR for a (S, N, N) stack, gauged so R has a real positive
    diagonal (with Gaussian z, exactly Haar on U(N) or O(N)), or None if a
    matrix of the stack is singular.  Q comes as entry planes.

    Classical Gram-Schmidt over the whole stack, with every column
    orthogonalized twice: one pass leaves defects near 1e-11, two reach
    rounding level.  Columns are held as (N, S) arrays so each step is an
    elementwise operation over S.
    """
    n = z.shape[-1]
    cols = np.ascontiguousarray(z.transpose(2, 1, 0))  # cols[j, i] = z[:, i, j]
    if np.iscomplexobj(z):
        conj, abs2 = np.conj, lambda x: x.real ** 2 + x.imag ** 2
    else:
        conj, abs2 = (lambda x: x), np.square
    for j in range(n):
        v = cols[j]
        for _ in range(2):
            for k in range(j):
                qk = conj(cols[k])
                c = qk[0] * v[0]
                for i in range(1, n):
                    c += qk[i] * v[i]
                v -= c * cols[k]
        norm2 = abs2(v[0])
        for i in range(1, n):
            norm2 += abs2(v[i])
        if np.any(norm2 == 0.0):
            return None
        v /= np.sqrt(norm2)
    return cols.transpose(2, 1, 0)


def det(a):
    """Determinants of a (..., N, N) stack: the cofactor expansion for
    N = 2 and 3, ``np.linalg.det`` otherwise."""
    n = a.shape[-1]
    if n not in (2, 3):
        return np.linalg.det(a)
    if n == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return (a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]))


def _eig_2x2(mats):
    """Eigenvalues (S, 2) of a complex 2x2 stack [[a, b], [c, d]] in ``np.linalg.eigvals``
    order, and the h and s they are built from: mu +- s with mu = (a + d)/2 and
    s**2 = h**2 + bc, h = (a - d)/2.  Near a double eigenvalue h, b and c are all small, so
    this keeps the relative accuracy that tr**2/4 - det (terms of size 1) loses.  s takes
    the sign with Re(s conj(h)) >= 0, so h + s has no cancellation and mu - s is the
    eigenvalue nearer d, which LAPACK returns second (when a == d exactly the order is the
    square root's, not necessarily LAPACK's)."""
    a, b, c, d = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]
    h = 0.5 * (a - d)
    s = np.sqrt(h * h + b * c)
    s = np.where(s.real * h.real + s.imag * h.imag < 0.0, -s, s)
    mu = 0.5 * (a + d)
    return np.stack([mu + s, mu - s], axis=-1), h, s


def eig_normal_2x2(mats):
    """The eigenvalues (S, 2) of :func:`_eig_2x2` and unitary eigenvectors (S, 2, 2) of a
    stack of normal complex 2x2 matrices [[a, b], [c, d]]: (h + s, c) is one of mu + s,
    and for a normal matrix its orthogonal complement (-conj(c), conj(h + s)) one of
    mu - s.  A row where both entries vanish is a multiple of the identity, for which e_1
    serves; non-normal rows get vectors that do not diagonalize them."""
    values, h, s = _eig_2x2(mats)
    x, y = h + s, mats[..., 1, 0].copy()
    norm = np.sqrt(x.real ** 2 + x.imag ** 2 + y.real ** 2 + y.imag ** 2)
    scalar = norm == 0.0
    x[scalar], norm[scalar] = 1.0, 1.0
    x /= norm
    y /= norm
    vecs = np.empty(mats.shape, dtype=np.complex128)
    vecs[..., 0, 0], vecs[..., 1, 0] = x, y
    vecs[..., 0, 1], vecs[..., 1, 1] = -y.conj(), x.conj()
    return values, vecs


def so3_axis_angle(mats):
    """Angle theta in [0, pi] and unit axis n (S, 3) of a rotation stack,
    with R the right-handed rotation by theta about n.

    The skew part of R is sin(theta) [n]_x and gives n where cos theta >= 0.
    Elsewhere the axis comes from R + R^T - (tr R - 1) I = 2 (1 - cos theta)
    n n^T, through its column of largest diagonal entry, signed by the skew
    part: near pi the skew part alone loses the axis to rounding.
    """
    w = 0.5 * np.stack([mats[:, 2, 1] - mats[:, 1, 2], mats[:, 0, 2] - mats[:, 2, 0],
                        mats[:, 1, 0] - mats[:, 0, 1]], axis=1)
    tr = mats[:, 0, 0] + mats[:, 1, 1] + mats[:, 2, 2]
    sin = np.sqrt(np.sum(w * w, axis=1))
    cos = 0.5 * (tr - 1.0)
    theta = np.arctan2(sin, cos)
    axis = np.empty_like(w)
    near = cos >= 0.0
    axis[near] = w[near] / np.where(sin[near] > 0.0, sin[near], 1.0)[:, None]
    far = ~near
    r = mats[far]
    sym = r + r.swapaxes(1, 2) - (tr[far] - 1.0)[:, None, None] * np.eye(3)
    j = np.argmax(np.einsum("sii->si", sym), axis=1)
    col = np.take_along_axis(sym, j[:, None, None], axis=2)[:, :, 0]
    sign = np.where(np.sum(col * w[far], axis=1) < 0.0, -1.0, 1.0)
    axis[far] = col * (sign / np.sqrt(np.sum(col * col, axis=1)))[:, None]
    return theta, axis


# ---------------------------------------------------------------------------
# power tables: the shared factorization of exp(+-i p.theta) over the
# bounding box of a lattice.
# ---------------------------------------------------------------------------


def _layout(lattice):
    """The lattice's bounding box: lowest corner, extent per coordinate, and
    the C-order flat index of every lattice row inside the box."""
    if lattice.shape[0] == 0:
        return (np.zeros(lattice.shape[1], dtype=np.int64), (1,) * lattice.shape[1],
                np.zeros(0, dtype=np.intp))
    lo = lattice.min(axis=0)
    shape = tuple(int(w) for w in lattice.max(axis=0) - lo + 1)
    return lo, shape, np.ravel_multi_index(tuple((lattice - lo).T), shape)


def _split(shape):
    """Column counts of the left and right factors: the first ceil(n/2)
    coordinates go left, the rest right."""
    h = (len(shape) + 1) // 2
    return math.prod(shape[:h]), math.prod(shape[h:])


def _power_table(theta, lo, width, sign):
    """exp(sign*i*k*theta) for k = lo .. lo+width-1, one row per power.

    One ``exp`` gives the step z = exp(sign*i*theta); the first row z**lo is a product of
    |lo| factors z, or conj(z) = 1/z if lo < 0, and each later row the one before times z.
    """
    z = np.exp(sign * 1j * theta)
    table = np.empty((width, theta.shape[0]), dtype=np.complex128)
    table[0], step = 1.0, (z if lo >= 0 else z.conj())
    for _ in range(abs(lo)):
        table[0] *= step
    for k in range(1, width):
        np.multiply(table[k - 1], z, out=table[k])
    return table


def _khatri_rao(angles, lo, shape, sign):
    """Column-wise Kronecker product of the power tables of the given
    coordinates, rows in C order over ``shape`` and one column per angle
    row; a single row of ones when there are no coordinates."""
    tables = [_power_table(angles[:, j], lo[j], w, sign) for j, w in enumerate(shape)]
    out = tables[0] if tables else np.ones((1, angles.shape[0]), dtype=np.complex128)
    for table in tables[1:]:
        out = (out[:, None, :] * table[None, :, :]).reshape(-1, angles.shape[0])
    return out


def _factors(angles, lo, shape, sign):
    """Yield (left, right) Khatri-Rao factors for consecutive row chunks.

    The box entry at flat index (l, r) is the chunk's sum over angle rows s
    of left[l, s] * right[r, s] = exp(sign*i*p.theta_s).
    """
    h = (len(shape) + 1) // 2
    rows = max(1, CHUNK_ENTRIES // max(_split(shape)))
    for start in range(0, angles.shape[0], rows):
        chunk = angles[start:start + rows]
        yield (_khatri_rao(chunk[:, :h], lo[:h], shape[:h], sign),
               _khatri_rao(chunk[:, h:], lo[h:], shape[h:], sign))


# ---------------------------------------------------------------------------
# empirical Fourier sums: sum_s exp(-i p . theta_s) for a batch of lattice
# points p; this is the workhorse of every statistical suite.
# ---------------------------------------------------------------------------


def fourier_sums(angles, lattice):
    """Sums of exp(-i p.theta) over sample rows, one per lattice row."""
    angles = np.ascontiguousarray(angles, dtype=np.float64)
    lattice = np.ascontiguousarray(lattice, dtype=np.int64)
    if angles.ndim != 2 or lattice.ndim != 2 or angles.shape[1] != lattice.shape[1]:
        raise ValueError("angles must be (S, n) and lattice (K, n)")
    lo, shape, flat = _layout(lattice)
    box = np.zeros(_split(shape), dtype=np.complex128)
    for left, right in _factors(angles, lo, shape, -1.0):
        box += left @ right.T
    return box.ravel()[flat]


# ---------------------------------------------------------------------------
# trigonometric polynomial evaluation at arbitrary points (rejection
# samplers evaluate densities at ~2S proposal points per draw batch) and
# on a uniform grid (density grids of the torus suite).
# ---------------------------------------------------------------------------


def trig_poly_values(lattice, coeffs, points):
    """Real part of sum_p a_p exp(+i p.theta) at each point row."""
    lattice = np.ascontiguousarray(lattice, dtype=np.int64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != lattice.shape[1]:
        raise ValueError("points must be (S, n) matching the lattice width")
    lo, shape, flat = _layout(lattice)
    box = np.zeros(_split(shape), dtype=np.complex128)
    np.add.at(box.reshape(-1), flat, coeffs)
    out = np.empty(points.shape[0], dtype=np.float64)
    start = 0
    for left, right in _factors(points, lo, shape, 1.0):
        stop = start + left.shape[1]
        out[start:stop] = np.sum((box.T @ left) * right, axis=0).real
        start = stop
    return out


def trig_poly_grid(lattice, coeffs, grid_size):
    """Real part of sum_p a_p exp(+i p.theta) on the uniform (G,)*n grid
    theta = 2*pi*k/G, as a C-contiguous (G,)*n array.

    Each box axis but the last is contracted with its power table in turn, and
    the last by one real product, Re(X @ T) = [Re X, -Im X] @ [Re T; Im T]: no
    complex (G,)*n grid.  It runs in row blocks of under ``SERIAL_MACS``
    multiply-adds each, about G**n * width in all, exact at any G.
    """
    lattice = np.ascontiguousarray(lattice, dtype=np.int64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    lo, shape, flat = _layout(lattice)
    box = np.zeros(shape, dtype=np.complex128)
    np.add.at(box.reshape(-1), flat, coeffs)
    theta = np.arange(grid_size) * (TAU / grid_size)
    for j, width in enumerate(shape[:-1]):
        # Contracting the leading box axis appends this axis's grid axis last.
        box = np.tensordot(box, _power_table(theta, lo[j], width, 1.0), axes=(0, 0))
    x = np.moveaxis(box, 0, -1).reshape(-1, shape[-1])
    x = np.concatenate([x.real, -x.imag], axis=1)
    table = _power_table(theta, lo[-1], shape[-1], 1.0)
    table = np.concatenate([table.real, table.imag])
    out = np.empty((x.shape[0], grid_size))
    rows = max(1, (SERIAL_MACS - 1) // table.size)
    for start in range(0, x.shape[0], rows):
        np.matmul(x[start:start + rows], table, out=out[start:start + rows])
    return out.reshape((grid_size,) * len(shape))


# ---------------------------------------------------------------------------
# grid fold: the m-fold branch average that pushes a density grid forward
# under theta -> m*theta (mod 2*pi).  Output grid has G/m points per axis;
# entry q averages the m**n input entries {q + l*(G/m)} per axis.
# ---------------------------------------------------------------------------


def fold_grid(values, m):
    """Branch-average a (G,)*n value grid down to (G/m,)*n.

    Requires m | G on every axis.  Works on arbitrary signed grids (the
    contraction property is tested on signed inputs, not just densities).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    m = _count(m, "m", 1)
    g = values.shape[0]
    if any(s != g for s in values.shape):
        raise ValueError("grid must have equal extent on every axis")
    if g % m != 0:
        raise ValueError(f"m={m} must divide the grid size {g}")
    n = values.ndim
    shaped = values.reshape(tuple(x for _ in range(n) for x in (m, g // m)))
    return shaped.mean(axis=tuple(range(0, 2 * n, 2)))

