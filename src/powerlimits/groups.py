"""Compact matrix group families and their basic random-matrix operations.

Three families are implemented, each through the defining matrix
representation:

* ``U(N)``: all N x N unitaries; maximal torus = diagonal matrices.
* ``SU(N)``: determinant-1 unitaries; torus = diagonals with product 1.
* ``SO(2k+1)``: odd special orthogonals; torus = k plane rotations
  acting on coordinate pairs (2j-1, 2j), last coordinate fixed.

A :class:`GroupDescriptor` carries, besides sizes, the integer exponent
matrix of the N Laurent monomials that map torus coordinates to eigenvalues,
the positive roots as pairs of monomial rows, the Weyl group order |W| and
the stationarity exponent ``D``: the power from which on the eigenvalues of
H^m, H Haar, follow the fixed high-power law.  Everything downstream (torus
embeddings, Weyl densities, the fixed law, preimages) is driven by this table.

Every operation works on stacks: (S, N, N) matrices and (S, n) angle rows.
All sampling takes an explicit ``numpy.random.Generator``; descriptors are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (SMALL_N, _count, _eig_2x2, _plane_matmul, det, positive_qr_q, unit_phases,
                       wrap_angles)

TAU_UNIT = 1e-10   # construction tolerance for M M* = I and det checks
TAU_DRIFT = 1e-8   # allowed unitarity defect after repeated squaring


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
    Row (j, k) of ``root_pairs`` (R, 2) is the positive root monomials[j] - monomials[k];
    ``weyl_order`` = |W| is the constant term of prod over roots a of |1 - e^{i a.t}|^2.
    """

    family: Family
    matrix_size: int
    torus_rank: int
    monomials: np.ndarray
    root_pairs: np.ndarray
    weyl_order: int
    stationarity_exponent: int

    def __post_init__(self):
        for name in ("monomials", "root_pairs"):
            table = np.asarray(getattr(self, name), dtype=np.int64)
            table.setflags(write=False)
            object.__setattr__(self, name, table)
        if self.monomials.shape != (self.matrix_size, self.torus_rank):
            raise ValueError("monomial matrix must be (matrix_size, torus_rank)")

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
                           np.transpose(np.triu_indices(n, 1)), math.factorial(n),
                           stationarity_exponent=n)


def special_unitary(n: int) -> GroupDescriptor:
    """Descriptor for SU(n); torus coordinates are the first n-1 phases.
    Haar eigenvalues freeze at D = n + 1: E Tr(g^n) = (-1)^(n+1) for Haar g."""
    if n < 2:
        raise ValueError("SU(n) requires n >= 2")
    mono = np.vstack([np.eye(n - 1, dtype=np.int64), -np.ones((1, n - 1), dtype=np.int64)])
    return GroupDescriptor(Family.SPECIAL_UNITARY, n, n - 1, mono,
                           np.transpose(np.triu_indices(n, 1)), math.factorial(n),
                           stationarity_exponent=n + 1)


def special_orthogonal_odd(n: int) -> GroupDescriptor:
    """Descriptor for SO(n) with n = 2k+1; torus coordinates are the k block angles.
    Positive roots e_j - e_l, e_j + e_l (j < l), e_j: rows (j, l), (j, k + l), (j, 2k).
    Haar eigenvalues freeze at D = n - 1 = 2k: E Tr(g^(2k-1)) = 0 for Haar g,
    against 1 under the fixed law."""
    if n < 3 or n % 2 == 0:
        raise ValueError("SO(n) requires odd n >= 3")
    k = (n - 1) // 2
    mono = np.vstack([np.eye(k, dtype=np.int64), -np.eye(k, dtype=np.int64),
                      np.zeros((1, k), dtype=np.int64)])
    pairs = [(j, l) for j in range(k) for l in range(j + 1, k)]
    pairs += [(j, k + l) for j, l in pairs] + [(j, 2 * k) for j in range(k)]
    return GroupDescriptor(Family.SPECIAL_ORTHOGONAL_ODD, n, k, mono, pairs,
                           2 ** k * math.factorial(k), stationarity_exponent=n - 1)


def descriptor(family: str | Family, n: int) -> GroupDescriptor:
    """Descriptor from a family tag ("U" | "SU" | "SO") and matrix size."""
    fam = Family(family)
    if fam is Family.UNITARY:
        return unitary(n)
    if fam is Family.SPECIAL_UNITARY:
        return special_unitary(n)
    return special_orthogonal_odd(n)


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm of M M* - I over one matrix or a stack, NaN if any entry is NaN: up to
    N = SMALL_N the max over the N(N+1)/2 Gram entries |sum_k M_ik conj(M_jk) - delta_ij|
    on planes."""
    m = np.asarray(matrix)
    n = m.shape[-1]
    if n > SMALL_N:
        return float(np.max(np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(n)), initial=0.0))
    m, worst = np.asfortranarray(m), []
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        gram = m[..., i, 0] * m[..., j, 0].conj()
        for k in range(1, n):
            gram += m[..., i, k] * m[..., j, k].conj()
        worst.append(np.max(np.abs(gram - float(i == j)), initial=0.0))
    return float(np.max(worst))


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def haar_batch(desc: GroupDescriptor, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, N, N) stack of independent Haar draws.

    Gaussian matrix -> the Q of its QR factorization with R's diagonal
    real positive (``_kernels.positive_qr_q``), which removes the QR gauge
    freedom and makes the law exactly Haar.  SU projects U(N) draws by
    dividing the first column by det; SO negates the last column of O(N)
    draws with det -1: both, and the check, on Q's planes, transposed once.
    A singular Gaussian draw, or a batch off the group by more than TAU_UNIT,
    raises :class:`UnitarityError` at once, with no redraw.
    """
    n = desc.matrix_size
    if desc.is_real:
        z = rng.normal(size=(size, n, n))
    else:
        z = (rng.normal(size=(size, n, n)) + 1j * rng.normal(size=(size, n, n))) / np.sqrt(2.0)
    q = positive_qr_q(z)
    del z  # frees room for the unitarity check's temporaries
    if q is None:
        raise UnitarityError("Haar sampling drew a singular Gaussian matrix")
    if desc.family is Family.SPECIAL_UNITARY:
        q[:, :, 0] /= det(q)[:, None]
    elif desc.family is Family.SPECIAL_ORTHOGONAL_ODD:
        np.negative(q[:, :, -1], out=q[:, :, -1], where=det(q)[:, None] < 0)
    if not unitarity_defect(q) <= TAU_UNIT:   # NaN fails here too
        raise UnitarityError("Haar sampling produced a batch off the group")
    return np.ascontiguousarray(q)


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
    return unit_phases(_torus_rows(desc, rows) @ desc.monomials.T.astype(np.float64))


def rotate_pairs(desc: GroupDescriptor, mats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``mats`` (S, M, N) times the SO torus elements of angle rows (S, n), with no dense
    product: block R(theta) = [[cos, -sin], [sin, cos]] multiplies column pair (2j, 2j+1),
    read as mats[..., 2j] + i mats[..., 2j+1], by exp(-i theta_j).  R(theta) has
    eigenvalue exp(+i theta) on the eigenvector (1, -i)/sqrt(2): the sign of theta."""
    rows = _torus_rows(desc, rows)
    out = np.array(mats, dtype=np.float64, order="C")
    pairs, phase = out[..., :-1].view(np.complex128), np.cos(rows) - 1j * np.sin(rows)
    for j in range(desc.torus_rank):   # a pass per pair beats one broadcast pass
        pairs[..., j] *= phase[:, j, None]
    return out


def embed_batch(desc: GroupDescriptor, rows: np.ndarray) -> np.ndarray:
    """Torus points (S, n) -> torus elements (S, N, N).

    U/SU give the diagonal of monomial values; SO gives the block-rotation
    matrix, :func:`rotate_pairs` of the identity.
    """
    rows = _torus_rows(desc, rows)
    s, N = rows.shape[0], desc.matrix_size
    if desc.is_real:
        return rotate_pairs(desc, np.broadcast_to(np.eye(N), (s, N, N)), rows)
    out = np.zeros((s, N, N), dtype=np.complex128)
    idx = np.arange(N)
    out[:, idx, idx] = embed_phases(desc, rows)
    return out


# ---------------------------------------------------------------------------
# power map and eigenangles
# ---------------------------------------------------------------------------


def power_batch(mats: np.ndarray, m: int) -> np.ndarray:
    """Repeated-squaring m-th power of a (S, N, N) stack.

    Squaring is used (rather than an eigendecomposition) so the operation
    stays independent of the spectral code it is later used to test; up to
    N = SMALL_N it runs on entry planes, converted to and from once.  Raises
    :class:`PowerDriftError` with the worst row's defect when any result
    leaves the group by more than ``TAU_DRIFT`` or holds a NaN.
    """
    e = _count(m, "m", 1)
    small = mats.shape[-1] <= SMALL_N
    matmul = _plane_matmul if small else np.matmul
    result, base = None, np.array(mats, order="F" if small else "C")
    del mats  # the caller's temporary stack goes once it is copied
    while e:
        if e & 1:
            # the first set bit starts the product: no multiplication by the identity
            result = base if result is None else matmul(result, base)
        e >>= 1
        if e:
            base = matmul(base, base)
    del base
    defect = unitarity_defect(result)
    if not defect <= TAU_DRIFT:   # NaN fails here too
        raise PowerDriftError(defect)
    return np.ascontiguousarray(result)


def eigenangles_batch(mats: np.ndarray) -> np.ndarray:
    """Eigenvalue angles in [0, 2*pi) for a (S, N, N) stack; rows unsorted,
    in ``np.linalg.eigvals`` order (the closed-form eigenvalues of ``_kernels._eig_2x2``,
    with no eigenvector, for complex 2x2 stacks)."""
    if mats.shape[-1] == 2 and np.iscomplexobj(mats):
        return wrap_angles(np.angle(_eig_2x2(mats)[0]))
    return wrap_angles(np.angle(np.linalg.eigvals(mats)))


# ---------------------------------------------------------------------------
# the fixed high-power eigenvalue law
# ---------------------------------------------------------------------------


def fixed_law_trace_moments(desc: GroupDescriptor) -> tuple[int, int]:
    """Exact E Tr(g^k) and E|Tr(g^k)|^2 (any k >= 1) under the fixed law.
    Tr(g^k) = sum_j exp(i k M_j.y), y iid uniform, and E exp(i k q.y) = [q = 0],
    so the mean counts zero monomial rows and the second moment equal row pairs."""
    mono = desc.monomials
    return int(np.sum(~mono.any(axis=1))), int(np.sum((mono[:, None] == mono[None]).all(axis=2)))
