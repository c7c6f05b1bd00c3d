"""Conjugacy decompositions over stacks: psi, random preimages, the Weyl action.

Every regular group element u factors as u = V t V^{-1} with t a torus
element and V a flag representative; the pair (V, t) is a *preimage* of u
under psi(V, t) = V t V^{-1}.  The finite Weyl group acts freely on the
preimages of a regular element:

    w . (V, t) = (V W^{-1}, W t W^{-1}),    W a representative of w,

so a preimage is canonical only after a chamber convention.  Two
constructions are provided: the deterministic *sorted* preimage (angles
strictly increasing; for SO, all angles in (0, pi)) and the *uniform*
preimage (a uniformly random Weyl translate, drawn independently of u).

The API is batched only: elements and flags are (S, N, N) stacks, torus
points (S, n) angle rows, and Weyl elements (S, n) arrays of gather
permutations (plus +/-1 signs for SO), one per row.

Determinism of the sorted preimage is pinned by scaling each eigenvector
so that its largest-modulus entry is real positive; SO(3) flags are pinned
by their construction from the rotation axis instead.
"""

from __future__ import annotations

import numpy as np

from ._kernels import TAU, det, eig_normal_2x2, so3_axis_angle, stack_matmul, wrap_angles
from .groups import Family, GroupDescriptor, embed_batch, embed_phases

TAU_GAP = 1e-8       # minimum eigenangle separation for a regular element
_RECON_TOL = 1e-8    # psi(V, t) must reproduce u within this max-norm


class DegenerateSpectrumError(ValueError):
    """Eigenvalues too close for a well-defined preimage; caller may resample."""


# ---------------------------------------------------------------------------
# the Weyl action
# ---------------------------------------------------------------------------


def _weyl_size(desc: GroupDescriptor) -> int:
    return desc.torus_rank if desc.family is Family.SPECIAL_ORTHOGONAL_ODD else desc.matrix_size


def _weyl_draw(desc: GroupDescriptor, s: int, rng: np.random.Generator):
    """``s`` independent uniform Weyl elements as (perms (s, n), signs (s, n)
    or None): gather permutations, plus +/-1 signs for SO."""
    n = _weyl_size(desc)
    perms = rng.permuted(np.tile(np.arange(n), (s, 1)), axis=1)
    if desc.family is Family.SPECIAL_ORTHOGONAL_ODD:
        return perms, rng.choice((1.0, -1.0), size=(s, n))
    return perms, None


def _full_angles(desc: GroupDescriptor, torus: np.ndarray) -> np.ndarray:
    """The angle rows the Weyl group permutes: for SU(N), the n = N-1 torus
    coordinates completed by the dependent angle; otherwise ``torus``."""
    if desc.family is not Family.SPECIAL_UNITARY:
        return torus
    return np.concatenate([torus, wrap_angles(-torus.sum(axis=1))[:, None]], axis=1)


def weyl_rows(desc: GroupDescriptor, eigenangle_rows: np.ndarray) -> np.ndarray:
    """The angle rows the Weyl group permutes, read from eigenangle rows with no
    Weyl draw and no row dropped: on U and SU the N angles (those of SU sum to 0,
    as :func:`_full_angles` completes them); on SO(2k+1) the k rotation angles in
    [0, pi], one per conjugate pair.  Folded to [0, pi] and sorted, an SO row is
    0, then each angle twice, so the odd places hold the k angles; a pair near 0
    or pi folds to nearly equal values and is kept, where a signed Weyl draw on
    the angles in (0, pi) would have to drop it."""
    rows = np.asarray(eigenangle_rows, dtype=np.float64)
    if desc.family is not Family.SPECIAL_ORTHOGONAL_ODD:
        return rows
    return np.sort(np.minimum(rows, TAU - rows), axis=1)[:, 1::2]


def _act_angles(desc: GroupDescriptor, full: np.ndarray, perms: np.ndarray,
                signs: np.ndarray | None) -> np.ndarray:
    """Torus coordinates of w . t for angle rows ``full`` (see
    :func:`_full_angles`): gather by ``perms``, flip by ``signs``, wrap."""
    moved = np.take_along_axis(full, perms, axis=1)
    if signs is not None:
        moved = moved * signs
    return wrap_angles(moved[:, :desc.torus_rank])


def _permutation_signs(perms: np.ndarray) -> np.ndarray:
    """Vectorized parity (+1/-1) of each permutation row."""
    s, n = perms.shape
    inversions = np.zeros(s, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            inversions += perms[:, i] > perms[:, j]
    return np.where(inversions % 2 == 0, 1.0, -1.0)


def _act_flags(desc: GroupDescriptor, flags: np.ndarray, perms: np.ndarray,
               signs: np.ndarray | None) -> np.ndarray:
    """V -> V W^{-1} for a stack of flags: a column gather plus sign fixes."""
    if desc.family is Family.SPECIAL_ORTHOGONAL_ODD:
        # block j of V W^{-1} is block perms[j] of V; a sign flip reflects
        # its second column, and the trailing column keeps det = 1
        s, k = perms.shape
        cols = np.stack([2 * perms, 2 * perms + 1], axis=2).reshape(s, 2 * k)
        cols = np.concatenate([cols, np.full((s, 1), 2 * k)], axis=1)
        colsigns = np.stack([np.ones_like(signs), signs], axis=2).reshape(s, 2 * k)
        colsigns = np.concatenate([colsigns, np.prod(signs, axis=1, keepdims=True)], axis=1)
        return np.take_along_axis(flags, cols[:, None, :], axis=2) * colsigns[:, None, :]
    if desc.family is Family.SPECIAL_UNITARY:
        # the SU representative carries one sign-adjusted column (det fix)
        scale = np.ones(perms.shape)
        scale[np.arange(perms.shape[0]), perms[:, 0]] = _permutation_signs(perms)
        flags = flags * scale[:, None, :]
    return np.ascontiguousarray(np.take_along_axis(flags, perms[:, None, :], axis=2))


# ---------------------------------------------------------------------------
# psi and preimages
# ---------------------------------------------------------------------------


def psi_batch(flags: np.ndarray, rows: np.ndarray, desc: GroupDescriptor) -> np.ndarray:
    """V embed(t) V^{-1} for stacked flags (S, N, N) and angle rows (S, n).

    The U and SU embeddings are diagonal, so V embed(t) is V with its
    columns scaled by the eigenvalue phases; SO multiplies by its blocks.
    """
    if desc.is_real:
        # a contiguous V^T: on the transposed view ``@`` leaves its fast path
        left = stack_matmul(flags, embed_batch(desc, rows))
        return stack_matmul(left, np.ascontiguousarray(flags.swapaxes(-1, -2)))
    left = flags * embed_phases(desc, rows)[:, None, :]
    return stack_matmul(left, flags.conj().swapaxes(-1, -2))


def _polish_unitary(vecs: np.ndarray) -> np.ndarray:
    """One Newton step toward the polar factor; assumes vecs is already
    unitary to ~sqrt(eps), which batched eigendecompositions of normal
    matrices with separated spectra deliver."""
    gram = stack_matmul(vecs.conj().swapaxes(-1, -2), vecs)
    n = gram.shape[-1]
    return stack_matmul(vecs, 1.5 * np.eye(n, dtype=vecs.dtype) - 0.5 * gram)


def _canonical_phases(vecs: np.ndarray) -> np.ndarray:
    """Scale each column so its largest-modulus entry is real positive."""
    idx = np.argmax(np.abs(vecs), axis=-2)
    cols = np.take_along_axis(vecs, idx[:, None, :], axis=-2)[:, 0, :]
    phase = cols / np.abs(cols)
    return vecs * phase.conjugate()[:, None, :]


def _min_circular_gap(sorted_angles: np.ndarray) -> np.ndarray:
    gaps = np.diff(sorted_angles, axis=-1)
    wrap = TAU - (sorted_angles[..., -1] - sorted_angles[..., 0])
    return np.minimum(gaps.min(axis=-1), wrap)


def _reject_degenerate(bad: np.ndarray, why: str):
    if np.any(bad):
        raise DegenerateSpectrumError(f"{int(bad.sum())} element(s) {why}")


def _unitary_preimages(mats: np.ndarray, desc: GroupDescriptor):
    """Sorted-chamber flags and torus rows for a (S, N, N) unitary stack.

    2x2 stacks take the closed form, whose vectors are unitary by
    construction; larger ones one batched ``np.linalg.eig``, normalized and
    polished.
    """
    closed = mats.shape[-1] == 2
    vals, vecs = eig_normal_2x2(mats) if closed else np.linalg.eig(mats)
    angles = wrap_angles(np.angle(vals))
    order = np.argsort(angles, axis=-1)
    angles = np.take_along_axis(angles, order, axis=-1)
    _reject_degenerate(_min_circular_gap(angles) < TAU_GAP,
                       f"have eigenangle gaps below {TAU_GAP:.0e}")
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1)
    if not closed:
        vecs /= np.linalg.norm(vecs, axis=-2, keepdims=True)
        vecs = _polish_unitary(vecs)
    vecs = _canonical_phases(vecs)
    if desc.family is Family.SPECIAL_UNITARY:
        # rescale by a determinant root to stay inside SU(N); this moves
        # the representative within its coset only
        vecs = vecs * np.exp(-1j * np.angle(det(vecs)) / desc.matrix_size)[:, None, None]
        torus = angles[:, :-1]
    else:
        torus = angles
    return vecs, torus


def _so3_preimages(mats: np.ndarray):
    """Sorted-chamber flags (e0, e1, n) and angles for a (S, 3, 3) rotation
    stack from its axis n and angle theta: the blocks of ``embed_batch``
    rotate e0 toward e1 = n x e0, so R is psi at theta in (0, pi).  e0 is the
    coordinate axis on which n is smallest, made orthogonal to n."""
    theta, axis = so3_axis_angle(mats)
    proper = det(mats) > 0.0
    # the circular gaps of [-theta, 0, theta] are theta, theta and 2 (pi - theta)
    _reject_degenerate(proper & ((theta < TAU_GAP) | (2.0 * (np.pi - theta) < TAU_GAP)),
                       f"have eigenangle gaps below {TAU_GAP:.0e}")
    split = proper & (theta > TAU_GAP) & (theta < np.pi - TAU_GAP)
    _reject_degenerate(~split, "do not split into k rotations in (0, pi) plus +1")
    j = np.argmin(np.abs(axis), axis=1)
    e0 = -np.take_along_axis(axis, j[:, None], axis=1) * axis
    e0[np.arange(len(j)), j] += 1.0
    e0 /= np.sqrt(np.sum(e0 * e0, axis=1))[:, None]
    flags = np.stack([e0, np.cross(axis, e0), axis], axis=2)
    return flags, theta[:, None]


def _so_preimages(mats: np.ndarray, desc: GroupDescriptor):
    """Sorted-chamber flags and angles for a (S, 2k+1, 2k+1) rotation stack.

    SO(3) takes the closed form of :func:`_so3_preimages`.  Otherwise the
    signed eigenangles of a regular element sort to
    [-theta_k..-theta_1, 0, theta_1..theta_k].  An eigenvector v of
    exp(+i theta) spans the rotation plane by sqrt(2) Re v and
    -sqrt(2) Im v, in the orientation of ``embed_batch`` (whose blocks have
    eigenvector (1, -i)/sqrt(2) for exp(+i theta)); the eigenvalue-1
    vector is the fixed axis, and its sign sets det(V) = 1.
    """
    k = desc.torus_rank
    if k == 1:
        return _so3_preimages(mats)
    vals, vecs = np.linalg.eig(mats)
    angles = np.angle(vals)
    order = np.argsort(angles, axis=-1)
    angles = np.take_along_axis(angles, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1)
    _reject_degenerate(_min_circular_gap(angles) < TAU_GAP,
                       f"have eigenangle gaps below {TAU_GAP:.0e}")
    # eig pairs each non-real eigenvalue of a real matrix with its exact
    # conjugate, so k angles in (0, pi) leave one real positive eigenvalue
    theta = angles[:, k + 1:]
    split = np.all((theta > TAU_GAP) & (theta < np.pi - TAU_GAP), axis=1)
    _reject_degenerate(~split, "do not split into k rotations in (0, pi) plus +1")
    planes = _canonical_phases(vecs[:, :, k + 1:])
    axis = _canonical_phases(vecs[:, :, k:k + 1]).real
    flags = np.empty(mats.shape)
    flags[:, :, 0:2 * k:2] = np.sqrt(2.0) * planes.real
    flags[:, :, 1:2 * k:2] = -np.sqrt(2.0) * planes.imag
    flags[:, :, -1:] = axis / np.linalg.norm(axis, axis=-2, keepdims=True)
    flags = _polish_unitary(flags)
    flags[det(flags) < 0.0, :, -1] *= -1.0
    return flags, theta


def preimages_batch(mats: np.ndarray, desc: GroupDescriptor,
                    rng: np.random.Generator | None = None):
    """Flags (S, N, N) and torus rows (S, n) for a stack of regular elements.

    With ``rng`` the preimage is the uniform one (an independent uniformly
    random Weyl translate per row, moved in bulk); without it, the sorted one.
    Every row must reproduce its element, psi(V, t) = u within
    ``_RECON_TOL``, or the batch raises with the count of rows that do not.
    """
    if desc.family is Family.SPECIAL_ORTHOGONAL_ODD:
        flags, torus = _so_preimages(mats, desc)
    else:
        flags, torus = _unitary_preimages(mats, desc)
    err = np.max(np.abs(psi_batch(flags, torus, desc) - mats), axis=(1, 2))
    _reject_degenerate(~(err <= _RECON_TOL),
                       f"have preimage reconstruction errors above {_RECON_TOL:.0e}")
    if rng is None:
        return flags, torus
    perms, signs = _weyl_draw(desc, mats.shape[0], rng)
    return (_act_flags(desc, flags, perms, signs),
            _act_angles(desc, _full_angles(desc, torus), perms, signs))


def limit_law_batch(flags: np.ndarray, desc: GroupDescriptor,
                    rng: np.random.Generator) -> np.ndarray:
    """psi(flag, Y) per flag, Y fresh uniform on the torus: draws from the
    limiting law of high powers of the decomposed elements."""
    y = rng.uniform(0.0, TAU, size=(flags.shape[0], desc.torus_rank))
    return psi_batch(flags, y, desc)


def uniform_torus_rows(desc: GroupDescriptor, eigenangle_rows: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Uniform-preimage torus coordinates from eigenangle rows alone.

    This is the eigenvalue-level marginal of :func:`preimages_batch` with a
    uniform Weyl draw: no eigenvectors needed.  U(N): a uniformly permuted
    copy of the N angles; SU(N): same, dropping the last; SO(2k+1): the k
    angles in (0, pi) under a random signed permutation.  SO rows whose
    spectrum sits too close to the degenerate set (an angle within 1e-8 of
    0 or pi) are dropped rather than poisoning a statistical batch.
    """
    rows = np.asarray(eigenangle_rows, dtype=np.float64)
    if desc.family is Family.SPECIAL_ORTHOGONAL_ODD:
        k = desc.torus_rank
        mask = (rows > TAU_GAP) & (rows < np.pi - TAU_GAP)
        good = mask.sum(axis=1) == k
        if not np.any(good):
            raise DegenerateSpectrumError("no rows carry k angles strictly inside (0, pi)")
        rows = rows[good][mask[good]].reshape(-1, k)
    return _act_angles(desc, rows, *_weyl_draw(desc, rows.shape[0], rng))
