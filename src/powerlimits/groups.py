"""Compact matrix group families and their basic random-matrix operations.

Three families are implemented, each through the defining matrix
representation:

* ``U(N)``: all N x N unitaries; maximal torus = diagonal matrices.
* ``SU(N)``: determinant-1 unitaries; torus = diagonals with product 1.
* ``SO(2k+1)``: odd special orthogonals; torus = k plane rotations
  acting on coordinate pairs (2j-1, 2j), last coordinate fixed.

A :class:`GroupDescriptor` carries, besides sizes, the integer exponent
matrix of the N Laurent monomials that map torus coordinates to
eigenvalues, the power ``D`` at which Haar eigenvalue laws freeze, and the
order of the Weyl group.  Everything downstream (torus embeddings, the
fixed high-power eigenvalue law, preimages) is driven by this table.

All sampling takes an explicit ``numpy.random.Generator``; values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ._kernels import TAU, det, eigvals_2x2, positive_qr_q, stack_matmul, wrap_angles

TAU_UNIT = 1e-10   # construction tolerance for M M* = I and det checks
TAU_DRIFT = 1e-8   # allowed unitarity defect after repeated squaring
_HAAR_RETRIES = 3


class UnitarityError(ValueError):
    """Matrix failed a unitarity / determinant / realness invariant."""


class PowerDriftError(UnitarityError):
    """Repeated squaring drifted past the allowed unitarity defect."""

    def __init__(self, defect: float):
        super().__init__(f"power map drifted off the group: defect {defect:.3e} > {TAU_DRIFT:.0e}")
        self.defect = defect


class Family(enum.Enum):
    UNITARY = "U"
    SPECIAL_UNITARY = "SU"
    SPECIAL_ORTHOGONAL_ODD = "SO"


@dataclass(frozen=True)
class GroupDescriptor:
    """Static data for one group family at a fixed matrix size.

    ``monomials`` has shape (N, n); row j holds the exponent vector of the
    Laurent monomial giving the j-th eigenvalue of a torus element.
    """

    family: Family
    matrix_size: int
    torus_rank: int
    monomials: np.ndarray
    stationarity_exponent: int

    def __post_init__(self):
        mono = np.asarray(self.monomials, dtype=np.int64)
        if mono.shape != (self.matrix_size, self.torus_rank):
            raise ValueError("monomial matrix must be (matrix_size, torus_rank)")
        mono.setflags(write=False)
        object.__setattr__(self, "monomials", mono)

    @property
    def is_real(self) -> bool:
        return self.family is Family.SPECIAL_ORTHOGONAL_ODD

    def __repr__(self):
        return f"{self.family.value}({self.matrix_size})"


def unitary(n: int) -> GroupDescriptor:
    """Descriptor for U(n)."""
    if n < 1:
        raise ValueError("U(n) requires n >= 1")
    return GroupDescriptor(Family.UNITARY, n, n, np.eye(n, dtype=np.int64),
                           stationarity_exponent=n)


def special_unitary(n: int) -> GroupDescriptor:
    """Descriptor for SU(n); torus coordinates are the first n-1 phases.
    Haar eigenvalues freeze at D = n + 1: E Tr(g^n) = (-1)^(n+1) for Haar g."""
    if n < 2:
        raise ValueError("SU(n) requires n >= 2")
    mono = np.vstack([np.eye(n - 1, dtype=np.int64), -np.ones((1, n - 1), dtype=np.int64)])
    return GroupDescriptor(Family.SPECIAL_UNITARY, n, n - 1, mono,
                           stationarity_exponent=n + 1)


def special_orthogonal_odd(n: int) -> GroupDescriptor:
    """Descriptor for SO(n) with n = 2k+1; torus coordinates are the k block angles."""
    if n < 3 or n % 2 == 0:
        raise ValueError("SO(n) requires odd n >= 3")
    k = (n - 1) // 2
    mono = np.vstack([np.eye(k, dtype=np.int64), -np.eye(k, dtype=np.int64),
                      np.zeros((1, k), dtype=np.int64)])
    return GroupDescriptor(Family.SPECIAL_ORTHOGONAL_ODD, n, k, mono,
                           stationarity_exponent=n)


def descriptor(family: str | Family, n: int) -> GroupDescriptor:
    """Descriptor from a family tag ("U" | "SU" | "SO") and matrix size."""
    fam = Family(family) if not isinstance(family, Family) else family
    if fam is Family.UNITARY:
        return unitary(n)
    if fam is Family.SPECIAL_UNITARY:
        return special_unitary(n)
    return special_orthogonal_odd(n)


@dataclass(frozen=True)
class TorusPoint:
    """A point of the maximal torus: ``torus_rank`` angles in [0, 2*pi)."""

    angles: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(a)):
            raise ValueError("angles must be finite")
        if np.any(a < 0.0) or np.any(a >= TAU):
            raise ValueError("angles must lie in [0, 2*pi)")
        a.setflags(write=False)
        object.__setattr__(self, "angles", a)


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm of M M* - I over one matrix or a stack."""
    m = np.asarray(matrix)
    n = m.shape[-1]
    return float(np.max(np.abs(stack_matmul(m, m.conj().swapaxes(-1, -2)) - np.eye(n))))


@dataclass(frozen=True)
class GroupElement:
    """A validated element of one of the three families.

    Construction enforces ``|M M* - I|_max <= tolerance``, realness for the
    SO family, and ``|det M - 1| <= tolerance`` for SU and SO.  The default
    budget is the construction tolerance; :func:`power` re-validates its
    results under the looser drift budget instead.
    """

    matrix: np.ndarray
    descriptor: GroupDescriptor
    tolerance: float = field(default=TAU_UNIT, repr=False, compare=False)

    def __post_init__(self):
        n = self.descriptor.matrix_size
        tol = self.tolerance
        m = np.asarray(self.matrix)
        if m.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}")
        if self.descriptor.is_real:
            if np.iscomplexobj(m) and np.max(np.abs(m.imag)) > tol:
                raise UnitarityError("SO elements must be real matrices")
            m = np.ascontiguousarray(m.real, dtype=np.float64)
        else:
            m = np.ascontiguousarray(m, dtype=np.complex128)
        defect = unitarity_defect(m)
        if defect > tol:
            raise UnitarityError(f"unitarity defect {defect:.3e} exceeds {tol:.0e}")
        if self.descriptor.family is not Family.UNITARY:
            det_err = abs(np.linalg.det(m) - 1.0)
            if det_err > tol:
                raise UnitarityError(f"determinant defect {det_err:.3e} exceeds {tol:.0e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def identity(desc: GroupDescriptor) -> GroupElement:
    eye = np.eye(desc.matrix_size)
    return GroupElement(eye if desc.is_real else eye.astype(np.complex128), desc)


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def haar_batch(desc: GroupDescriptor, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, N, N) stack of independent Haar draws.

    Gaussian matrix -> the Q of its QR factorization with R's diagonal
    real positive (``_kernels.positive_qr_q``), which removes the QR gauge
    freedom and makes the law exactly Haar.  SU projects U(N) draws by
    dividing the first column by det; SO negates the last column of O(N)
    draws with det -1.
    """
    n = desc.matrix_size
    for _ in range(_HAAR_RETRIES):
        if desc.is_real:
            z = rng.normal(size=(size, n, n))
        else:
            z = (rng.normal(size=(size, n, n)) + 1j * rng.normal(size=(size, n, n))) / np.sqrt(2.0)
        q = positive_qr_q(z)
        del z  # frees room for the unitarity check's temporaries
        if q is None:
            continue  # a singular Gaussian draw; resample the whole batch
        if desc.family is Family.SPECIAL_UNITARY:
            q[:, :, 0] /= det(q)[:, None]
        elif desc.family is Family.SPECIAL_ORTHOGONAL_ODD:
            flip = det(q) < 0
            q[flip, :, -1] *= -1.0
        if unitarity_defect(q) <= TAU_UNIT:
            return q
    raise UnitarityError("Haar sampling failed to produce a unitary batch")


# ---------------------------------------------------------------------------
# torus embedding and monomial maps
# ---------------------------------------------------------------------------


def _torus_rows(desc: GroupDescriptor, rows: np.ndarray) -> np.ndarray:
    """Angle rows as a float (S, n) array, n checked against the torus rank."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != desc.torus_rank:
        raise ValueError(f"expected {desc.torus_rank} angles per row")
    return rows


def embed_phases(desc: GroupDescriptor, rows: np.ndarray) -> np.ndarray:
    """Diagonals (S, N) of the U or SU torus elements of angle rows (S, n):
    the monomial values exp(i m.t)."""
    if desc.is_real:
        raise ValueError("the SO torus embedding is not diagonal")
    return np.exp(1j * (_torus_rows(desc, rows) @ desc.monomials.T.astype(np.float64)))


def embed_batch(desc: GroupDescriptor, rows: np.ndarray) -> np.ndarray:
    """Torus points (S, n) -> torus elements (S, N, N).

    U/SU give the diagonal of monomial values; SO gives the block-rotation
    matrix.  Each 2x2 rotation block R(theta) has eigenvalue exp(+i*theta)
    on the eigenvector (1, -i)/sqrt(2), which pins the sign of theta.
    """
    rows = _torus_rows(desc, rows)
    s, N = rows.shape[0], desc.matrix_size
    if desc.is_real:
        out = np.zeros((s, N, N))
        c, sn = np.cos(rows), np.sin(rows)
        for j in range(desc.torus_rank):
            out[:, 2 * j, 2 * j] = c[:, j]
            out[:, 2 * j, 2 * j + 1] = -sn[:, j]
            out[:, 2 * j + 1, 2 * j] = sn[:, j]
            out[:, 2 * j + 1, 2 * j + 1] = c[:, j]
        out[:, N - 1, N - 1] = 1.0
        return out
    out = np.zeros((s, N, N), dtype=np.complex128)
    idx = np.arange(N)
    out[:, idx, idx] = embed_phases(desc, rows)
    return out


# ---------------------------------------------------------------------------
# power map and eigenangles
# ---------------------------------------------------------------------------


def power_batch(mats: np.ndarray, m: int) -> np.ndarray:
    """Repeated-squaring m-th power of a (S, N, N) stack.

    Raises :class:`PowerDriftError` with the worst row's defect when any
    result leaves the group by more than ``TAU_DRIFT``.
    """
    if m < 1:
        raise ValueError("power requires m >= 1")
    n = mats.shape[-1]
    result = np.broadcast_to(np.eye(n, dtype=mats.dtype), mats.shape).copy()
    base = mats.copy()
    e = int(m)
    while e:
        if e & 1:
            result = stack_matmul(result, base)
        e >>= 1
        if e:
            base = stack_matmul(base, base)
    defect = unitarity_defect(result)
    if defect > TAU_DRIFT:
        raise PowerDriftError(defect)
    return result


def power(g: GroupElement, m: int) -> GroupElement:
    """g**m by repeated squaring, checked against the drift budget.

    Squaring is used (rather than an eigendecomposition) so the operation
    stays independent of the spectral code it is later used to test.
    """
    return GroupElement(power_batch(g.matrix[None, :, :], m)[0], g.descriptor,
                        tolerance=TAU_DRIFT)


def eigenangles_batch(mats: np.ndarray) -> np.ndarray:
    """Eigenvalue angles in [0, 2*pi) for a (S, N, N) stack; rows unsorted,
    in ``np.linalg.eigvals`` order (closed form for complex 2x2 stacks)."""
    if mats.shape[-1] == 2 and np.iscomplexobj(mats):
        return wrap_angles(np.angle(eigvals_2x2(mats)))
    return wrap_angles(np.angle(np.linalg.eigvals(mats)))


# ---------------------------------------------------------------------------
# the fixed high-power eigenvalue law
# ---------------------------------------------------------------------------


def rains_limit_batch(desc: GroupDescriptor, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, N) eigenangle rows of the fixed law of high Haar powers:
    the monomial table evaluated at iid uniform torus angles."""
    y = rng.uniform(0.0, TAU, size=(size, desc.torus_rank))
    return wrap_angles(y @ desc.monomials.T.astype(np.float64))


def fixed_law_trace_moments(desc: GroupDescriptor) -> tuple[int, int]:
    """Exact E Tr(g^k) and E|Tr(g^k)|^2 (any k >= 1) under the fixed law.
    Tr(g^k) = sum_j exp(i k M_j.y), y iid uniform, and E exp(i k q.y) = [q = 0],
    so the mean counts zero monomial rows and the second moment equal row pairs."""
    mono = desc.monomials
    return int(np.sum(~mono.any(axis=1))), int(np.sum((mono[:, None] == mono[None]).all(axis=2)))
