"""The lattice kernels against direct exp-sum oracles, the stacked matrix
product against ``@``, plus grid and angle helpers."""

import itertools

import numpy as np
import pytest

from powerlimits import _kernels as K
from powerlimits import groups as G
from powerlimits.samplers import PerturbedHaarLaw
from oracles import ones_first_khatri_rao


rng = np.random.default_rng(2024)


def oracle_sums(angles, lattice):
    """sum_s exp(-i p.theta_s), one lattice point at a time."""
    return np.array([np.exp(-1j * angles @ p).sum() for p in np.asarray(lattice, float)])


def oracle_trig_poly(lattice, coeffs, points):
    return np.real(np.exp(1j * points @ np.asarray(lattice, float).T) @ coeffs)


def oracle_fft_grid(lattice, coeffs, g):
    """FFT synthesis: scatter the coefficients into a (g,)*n spectrum mod g
    and take its inverse DFT (exact when g > 2 * degree)."""
    lattice = np.asarray(lattice)
    spectrum = np.zeros((g,) * lattice.shape[1], dtype=np.complex128)
    for p, a in zip(lattice, coeffs):
        spectrum[tuple(int(x) % g for x in p)] += a
    return np.real(np.fft.ifftn(spectrum) * g ** lattice.shape[1])


def grid_points(rank, g):
    """The (g,)*rank grid angles 2*pi*k/g as rows, in C order."""
    axes = np.meshgrid(*[np.arange(g) * (2 * np.pi / g)] * rank, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def full_box(rank, degree):
    """Every lattice point with |p_j| <= degree, both of each +-p pair and 0."""
    return np.array(list(itertools.product(range(-degree, degree + 1), repeat=rank)))


def test_wrap_angles_half_open_range():
    x = np.array([-1e-17, 0.0, np.pi, 2 * np.pi, 2 * np.pi - 1e-16, 7 * np.pi])
    w = K.wrap_angles(x)
    assert np.all(w >= 0.0)
    assert np.all(w < 2 * np.pi)
    assert w[1] == 0.0
    assert np.isclose(w[2], np.pi)


def test_unit_phases_equal_the_complex_exp():
    # bit-equal where numpy's float64 cos and sin are scalar; a SIMD cos or sin may round
    # by an ulp, hence the tolerance
    x = np.random.default_rng(2).uniform(-50.0, 50.0, size=(8192, 2))
    phases = K.unit_phases(x)
    assert phases.shape == x.shape and phases.dtype == np.complex128
    np.testing.assert_allclose(phases, np.exp(1j * x), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("rank,degree", [(1, 6), (2, 3), (3, 3), (4, 2)])
def test_fourier_sums_full_ball(rank, degree):
    angles = rng.uniform(0, 2 * np.pi, size=(700, rank))
    lattice = full_box(rank, degree)
    np.testing.assert_allclose(K.fourier_sums(angles, lattice),
                               oracle_sums(angles, lattice), rtol=0, atol=1e-9)


@pytest.mark.parametrize("lattice", [
    [[7, -5]],
    [[3, -1], [-2, 4], [0, -3], [3, -1]],
    [[-4, 0, 2], [1, -1, 1], [0, 0, -5]],
    [[-2], [9]],
])
def test_fourier_sums_sparse_lattice(lattice):
    angles = rng.uniform(0, 2 * np.pi, size=(500, len(lattice[0])))
    np.testing.assert_allclose(K.fourier_sums(angles, lattice),
                               oracle_sums(angles, lattice), rtol=0, atol=1e-9)


def test_kernels_across_row_chunks():
    """An 81 x 81 box makes the row chunk small enough that S spans two
    full chunks and a partial third."""
    lattice = np.array([[-40, 40], [40, -40], [3, 1]])
    rows = K.CHUNK_ENTRIES // 81
    s = 2 * rows + 17
    assert s % rows
    angles = rng.uniform(0, 2 * np.pi, size=(s, 2))
    np.testing.assert_allclose(K.fourier_sums(angles, lattice),
                               oracle_sums(angles, lattice), rtol=0, atol=1e-8)
    coeffs = np.array([0.3 - 0.1j, 0.3 + 0.1j, 0.2j])
    np.testing.assert_allclose(K.trig_poly_values(lattice, coeffs, angles),
                               oracle_trig_poly(lattice, coeffs, angles), rtol=0, atol=1e-12)


def test_fourier_sums_empty_lattice():
    angles = rng.uniform(0, 2 * np.pi, size=(50, 2))
    assert K.fourier_sums(angles, np.zeros((0, 2), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("rank,at", [(3, 0), (3, 1), (3, 3), (2, 1), (2, 2), (1, 1)])
def test_fourier_sums_zero_columns_are_factors_of_one(rank, at):
    # a coordinate that is 0 at every lattice point has a power table of exact ones:
    # the sums are those without it, bit for bit where it is the last of an even count,
    # so that the split of the other coordinates into the two factors is unchanged
    lattice = full_box(rank, 2)
    angles = rng.uniform(0, 2 * np.pi, size=(600, rank + 1))
    got = K.fourier_sums(angles, np.insert(lattice, at, 0, axis=1))
    ref = K.fourier_sums(np.delete(angles, at, axis=1), lattice)
    if at == rank and rank % 2:
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_fourier_sums_all_zero_lattice(rank):
    lattice = np.zeros((3, rank), dtype=np.int64)
    angles = rng.uniform(0, 2 * np.pi, size=(70, rank))
    got = K.fourier_sums(angles, lattice)
    np.testing.assert_array_equal(got, np.full(3, 70.0 + 0.0j))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("lo,width", [(-40, 81), (-3, 7), (0, 4), (2, 1), (7, 1), (-5, 1)])
def test_power_table_against_the_complex_exp(lo, width, sign):
    """Row k - lo is exp(sign i k theta): the first row from products of z or conj(z)
    keeps every row at rounding level, 40 products deep included."""
    theta = rng.uniform(0, 2 * np.pi, size=500)
    k = np.arange(lo, lo + width)[:, None]
    np.testing.assert_allclose(K._power_table(theta, lo, width, sign),
                               np.exp(sign * 1j * k * theta), rtol=0, atol=1e-13)


def test_khatri_rao_of_one_coordinate_is_its_power_table():
    angles = rng.uniform(0, 2 * np.pi, size=(90, 1))
    for lo, width, sign in [(-3, 7, -1.0), (2, 1, 1.0), (0, 4, 1.0)]:
        got = K._khatri_rao(angles, [lo], (width,), sign)
        np.testing.assert_array_equal(got, K._power_table(angles[:, 0], lo, width, sign))
    np.testing.assert_array_equal(K._khatri_rao(np.zeros((90, 0)), [], (), -1.0),
                                  np.ones((1, 90), dtype=np.complex128))


@pytest.mark.parametrize("rank,degree", [(1, 5), (2, 3), (3, 2), (4, 2)])
def test_kernels_equal_a_ones_row_first_khatri_rao(monkeypatch, rank, degree):
    """Starting from the first table instead of a row of ones times it changes no bit."""
    lattice = full_box(rank, degree)
    coeffs = rng.normal(size=len(lattice)) + 1j * rng.normal(size=len(lattice))
    angles = rng.uniform(0, 2 * np.pi, size=(300, rank))
    got = K.fourier_sums(angles, lattice), K.trig_poly_values(lattice, coeffs, angles)
    monkeypatch.setattr(K, "_khatri_rao", ones_first_khatri_rao)
    ref = K.fourier_sums(angles, lattice), K.trig_poly_values(lattice, coeffs, angles)
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a, b)


def test_fourier_sums_rejects_width_mismatch():
    with pytest.raises(ValueError):
        K.fourier_sums(np.zeros((5, 2)), [[1, 0, 0]])


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_trig_poly_values(rank):
    lattice = full_box(rank, 2)
    coeffs = rng.normal(size=len(lattice)) + 1j * rng.normal(size=len(lattice))
    pts = rng.uniform(0, 2 * np.pi, size=(400, rank))
    np.testing.assert_allclose(K.trig_poly_values(lattice, coeffs, pts),
                               oracle_trig_poly(lattice, coeffs, pts), rtol=0, atol=1e-11)


def test_trig_poly_values_sums_repeated_points():
    lattice = np.array([[1, -2], [0, 3], [1, -2]])
    coeffs = np.array([0.5, 0.25j, -0.125])
    pts = rng.uniform(0, 2 * np.pi, size=(300, 2))
    np.testing.assert_allclose(K.trig_poly_values(lattice, coeffs, pts),
                               oracle_trig_poly(lattice, coeffs, pts), rtol=0, atol=1e-12)


@pytest.mark.parametrize("lattice,g", [
    (full_box(1, 3), 7),
    (full_box(2, 3), 7),
    (full_box(2, 3), 60),
    (full_box(2, 3), 360),
    (full_box(3, 2), 12),
    (full_box(4, 2), 8),
    (full_box(4, 2), 16),   # the size of the U(4) symbolic density's validation grid
    ([[1, 4], [2, 5], [3, 6], [1, 4]], 16),   # one-sided: the box is not centred on 0
    ([[-2, 0, 3]], 9),
    ([[0]], 5),
])
def test_trig_poly_grid(lattice, g):
    lattice = np.asarray(lattice)
    coeffs = rng.normal(size=len(lattice)) + 1j * rng.normal(size=len(lattice))
    out = K.trig_poly_grid(lattice, coeffs, g)
    assert out.shape == (g,) * lattice.shape[1]
    assert out.dtype == np.float64 and out.flags.c_contiguous
    np.testing.assert_allclose(out, oracle_fft_grid(lattice, coeffs, g), rtol=0, atol=1e-12)
    # the direct oracle at up to 4000 grid points keeps the 360**2 case fast
    at = rng.permutation(out.size)[:4000]
    np.testing.assert_allclose(out.ravel()[at],
                               oracle_trig_poly(lattice, coeffs, grid_points(lattice.shape[1], g)[at]),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("rank, degree, g", [(2, 3, 360), (4, 2, 16)])
def test_trig_poly_grid_products_stay_on_one_thread(monkeypatch, rank, degree, g):
    # one (360, 14) @ (14, 360) product woke a second OpenBLAS thread, which then spun
    sizes, matmul = [], np.matmul

    def counted(a, b, out=None):
        sizes.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, out=out)

    monkeypatch.setattr(K.np, "matmul", counted)
    lattice = full_box(rank, degree)
    K.trig_poly_grid(lattice, rng.normal(size=len(lattice)) + 0j, g)
    assert len(sizes) > 1 and max(sizes) < K.SERIAL_MACS and sum(sizes) == g ** rank * 2 * (
        2 * degree + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("complex_a, complex_b", [(True, True), (True, False), (False, True),
                                                  (False, False)])
@pytest.mark.parametrize("lead_a, lead_b", [((7,), (7,)), ((), (7,)), ((7,), ()), ((), ())])
def test_stack_matmul(n, complex_a, complex_b, lead_a, lead_b):
    def draw(lead, is_complex):
        x = rng.normal(size=lead + (n, n))
        return x + 1j * rng.normal(size=x.shape) if is_complex else x

    a, b = draw(lead_a, complex_a), draw(lead_b, complex_b)
    out, expect = K.stack_matmul(a, b), a @ b
    assert out.shape == expect.shape and out.dtype == expect.dtype and out.flags.c_contiguous
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-13)
    if n > K.SMALL_N or not (complex_a or complex_b):
        np.testing.assert_array_equal(out, expect)  # the @ path itself


def _stack(lead, n, is_complex, seed=0):
    r = np.random.default_rng(seed)
    x = r.normal(size=lead + (n, n))
    return x + 1j * r.normal(size=x.shape) if is_complex else x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("complex_a, complex_b", [(True, True), (True, False), (False, True),
                                                  (False, False)])
@pytest.mark.parametrize("lead_a, lead_b", [((7,), (7,)), ((), (7,)), ((7,), ()), ((), ()),
                                            ((2, 1, 5), (3, 5))])
@pytest.mark.parametrize("order", ["C", "F"])
def test_plane_matmul(n, complex_a, complex_b, lead_a, lead_b, order):
    """Any operand layout in, entry planes (Fortran order) out, equal to @."""
    a, b = _stack(lead_a, n, complex_a, 1), _stack(lead_b, n, complex_b, 2)
    expect = a @ b
    out = K._plane_matmul(np.asarray(a, order=order), np.asarray(b, order=order))
    assert out.shape == expect.shape and out.dtype == expect.dtype and out.flags.f_contiguous
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-13)
    into = np.empty(expect.shape, expect.dtype)
    assert K._plane_matmul(a, b, out=into) is into
    np.testing.assert_allclose(into, expect, rtol=0, atol=1e-13)


@pytest.mark.parametrize("rows", [1, 2 * K.STACK_ROWS, 2 * K.STACK_ROWS + 5])
@pytest.mark.parametrize("n", [2, 3])
def test_stack_matmul_across_row_blocks(rows, n):
    a, b = _stack((rows,), n, True, 5), _stack((rows,), n, True, 6)
    for right in (b, b.conj().swapaxes(-1, -2), b[0]):
        out = K.stack_matmul(a, right)
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, a @ right, rtol=0, atol=1e-13)


def _squared_power(mats, m):
    """mats ** m by repeated squaring with @."""
    result, base = None, mats
    while m:
        if m & 1:
            result = base if result is None else result @ base
        m >>= 1
        base = base @ base
    return result


@pytest.mark.parametrize("family, n", [("U", 1), ("U", 2), ("SU", 2), ("U", 3), ("SO", 3),
                                       ("U", 4), ("SO", 5)])
@pytest.mark.parametrize("m", [1, 2, 3, 64, 77])
def test_power_batch_against_squaring_with_matmul(family, n, m):
    # planes stay inside the kernels: Haar draws and powers leave as C-ordered stacks
    assert G.haar_batch(G.descriptor(family, n), np.random.default_rng(0), 5).flags.c_contiguous
    mats = _draws(family, n, 200, 16)
    kept = mats.copy()
    out = G.power_batch(mats, m)
    assert out.shape == mats.shape and out.dtype == mats.dtype and out.flags.c_contiguous
    assert out is not mats and not np.shares_memory(out, mats)
    np.testing.assert_array_equal(mats, kept)
    np.testing.assert_allclose(out, _squared_power(mats, m), rtol=0, atol=1e-13)


@pytest.mark.parametrize("family, n", [("U", 1), ("U", 2), ("SU", 2), ("U", 3), ("SO", 3),
                                       ("U", 4), ("SO", 5)])
def test_unitarity_defect_is_the_max_of_m_mstar_minus_i(family, n):
    mats = _draws(family, n, 300, 17)
    # off the group by about 1e-3, 1e-6 and 1e-9, so each defect is visible
    for scale in (1e-3, 1e-6, 1e-9):
        bent = mats + scale * _stack((600,), n, np.iscomplexobj(mats), 18)
        for m in (bent, bent[123], np.asfortranarray(bent)):
            expect = np.max(np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(n)))
            assert abs(G.unitarity_defect(m) - expect) <= 1e-15
    assert G.unitarity_defect(mats) <= 1e-14


@pytest.mark.parametrize("m", [2.5, 4.0, 0])
def test_powers_must_be_positive_integers(m):
    # int(2.5) would square silently; numpy would refuse 4.0 with a TypeError
    mats = _draws("U", 2, 10, 19)
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        G.power_batch(mats, m)
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        K.fold_grid(np.ones((8, 8)), m)


def test_numpy_integer_powers_pass():
    mats = _draws("U", 2, 10, 19)
    np.testing.assert_array_equal(G.power_batch(mats, np.int64(64)), G.power_batch(mats, 64))
    v = rng.normal(size=(8, 8))
    np.testing.assert_array_equal(K.fold_grid(v, np.int64(4)), K.fold_grid(v, 4))


def test_fold_grid_requires_divisor():
    with pytest.raises(ValueError):
        K.fold_grid(np.ones(10), 3)


def test_fold_grid_identity_for_m1():
    v = rng.normal(size=12)
    np.testing.assert_array_equal(K.fold_grid(v, 1), v)


# ---------------------------------------------------------------------------
# small-N matrix kernels against numpy's LAPACK routes
# ---------------------------------------------------------------------------


def _draws(family, n, s, seed):
    """Haar and perturbed-Haar (strength 0.5) draws on one group, stacked."""
    desc = G.descriptor(family, n)
    r = np.random.default_rng(seed)
    return np.concatenate([PerturbedHaarLaw(desc, 0.0).sample_batch(r, s),
                           PerturbedHaarLaw(desc, 0.5).sample_batch(r, s)])


def _lapack_positive_q(z):
    q, r = np.linalg.qr(z)
    d = np.einsum("sii->si", r)
    return q * (d / np.abs(d))[:, None, :]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8])
@pytest.mark.parametrize("is_complex", [True, False])
def test_positive_qr_q_is_the_gauged_lapack_q(n, is_complex):
    z = rng.normal(size=(500, n, n))
    if is_complex:
        z = z + 1j * rng.normal(size=z.shape)
    q = K.positive_qr_q(z)
    np.testing.assert_allclose(q, _lapack_positive_q(z), rtol=0, atol=1e-12)
    assert np.max(np.abs(q @ q.conj().swapaxes(-1, -2) - np.eye(n))) <= 1e-14
    r = q.conj().swapaxes(-1, -2) @ z  # upper triangular, real positive diagonal
    np.testing.assert_allclose(np.tril(r, -1), 0.0, rtol=0, atol=1e-12)
    d = np.einsum("sii->si", r)
    assert np.all(d.real > 0) and np.max(np.abs(d.imag)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 8])
def test_positive_qr_q_refuses_a_singular_draw(n):
    z = rng.normal(size=(20, n, n))
    z[13, :, 0] = 0.0
    assert K.positive_qr_q(z) is None


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("is_complex", [True, False])
def test_det(n, is_complex):
    a = rng.normal(size=(300, n, n))
    if is_complex:
        a = a + 1j * rng.normal(size=a.shape)
    out = K.det(a)
    assert out.shape == (300,)
    np.testing.assert_allclose(out, np.linalg.det(a), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("family", ["U", "SU"])
def test_eig_normal_2x2_against_lapack(family):
    # the cubed draws too: powered stacks must keep LAPACK's eigenvalue order
    mats = _draws(family, 2, 3000, 12)
    mats = np.concatenate([mats, mats @ mats @ mats])
    assert np.all(mats[:, 0, 0] != mats[:, 1, 1])
    vals, vecs = K.eig_normal_2x2(mats)
    ref_vals, ref_vecs = np.linalg.eig(mats)
    np.testing.assert_allclose(vals, ref_vals, rtol=0, atol=1e-13)
    # eigenvectors agree up to a phase per column: |<v, v_ref>| = 1
    overlap = np.abs(np.einsum("sij,sij->sj", vecs.conj(), ref_vecs))
    overlap /= np.linalg.norm(ref_vecs, axis=1)
    np.testing.assert_allclose(overlap, 1.0, rtol=0, atol=1e-12)
    assert np.max(np.abs(vecs @ vecs.conj().swapaxes(-1, -2) - np.eye(2))) <= 1e-15
    rec = (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    assert np.max(np.abs(rec - mats)) <= 1e-14


@pytest.mark.parametrize("family", ["U", "SU"])
def test_eigenangles_batch_reads_the_closed_form_eigenvalues(family):
    # on complex 2x2 stacks, bit for bit the angles of eig_normal_2x2's eigenvalues,
    # so they come in LAPACK order too
    mats = _draws(family, 2, 3000, 12)
    mats = np.concatenate([mats, mats @ mats @ mats, np.eye(2, dtype=np.complex128)[None]])
    angles = G.eigenangles_batch(mats)
    assert np.array_equal(angles, K.wrap_angles(np.angle(K.eig_normal_2x2(mats)[0])))
    delta = np.abs(angles - K.wrap_angles(np.angle(np.linalg.eigvals(mats))))
    assert np.max(np.minimum(delta, 2 * np.pi - delta)) <= 1e-13


@pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6])
def test_eig_normal_2x2_near_double_eigenvalue(gap):
    """u = Q diag(e^{i phi}, e^{i (phi + gap)}) Q*: the closed form keeps the
    eigenvalues to rounding (tr**2/4 - det would lose eps/gap) and the
    vectors to what the gap conditions."""
    s = 2000
    q = G.haar_batch(G.unitary(2), np.random.default_rng(13), s)
    phi = rng.uniform(0, 2 * np.pi, size=s)
    lam = np.exp(1j * np.stack([phi, phi + gap], axis=1))
    mats = (q * lam[:, None, :]) @ q.conj().swapaxes(-1, -2)
    vals, vecs = K.eig_normal_2x2(mats)
    np.testing.assert_allclose(np.sort_complex(vals), np.sort_complex(np.linalg.eigvals(mats)),
                               rtol=0, atol=1e-14)
    measured = np.abs(np.angle(vals[:, 0] / vals[:, 1]))
    np.testing.assert_allclose(measured, gap, rtol=1e-8, atol=0)
    rec = (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    assert np.max(np.abs(rec - mats)) <= 1e-14


def test_eig_normal_2x2_scalar_and_diagonal_rows():
    mats = np.array([np.eye(2), np.diag([1j, -1.0]), [[0, 1], [1, 0]]], dtype=np.complex128)
    vals, vecs = K.eig_normal_2x2(mats)
    np.testing.assert_allclose(vals, np.linalg.eigvals(mats), rtol=0, atol=1e-15)
    np.testing.assert_allclose(vecs[0], np.eye(2))
    np.testing.assert_allclose(np.abs(vecs[1]), np.eye(2))


@pytest.mark.parametrize("theta", [1e-7, 1e-5, 0.5, 2.0, np.pi - 1e-7])
def test_so3_axis_angle(theta):
    """Rotations by theta about Haar-random axes: the angle to rounding, and
    the axis well enough that Rodrigues' formula rebuilds R to 1e-14."""
    s = 500
    q = G.haar_batch(G.special_orthogonal_odd(3), np.random.default_rng(14), s)
    c, sn = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
    mats = q @ rot @ q.swapaxes(-1, -2)
    got, axis = K.so3_axis_angle(mats)
    np.testing.assert_allclose(got, theta, rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(np.abs(np.sum(axis * q[:, :, 2], axis=1)), 1.0, rtol=0, atol=1e-13)
    kx = np.zeros((s, 3, 3))
    kx[:, 0, 1], kx[:, 0, 2], kx[:, 1, 2] = -axis[:, 2], axis[:, 1], -axis[:, 0]
    kx -= kx.swapaxes(1, 2)
    rebuilt = np.eye(3) + np.sin(got)[:, None, None] * kx \
        + (1.0 - np.cos(got))[:, None, None] * (kx @ kx)
    assert np.max(np.abs(rebuilt - mats)) <= 1e-14


def test_so3_axis_angle_against_lapack():
    mats = _draws("SO", 3, 3000, 15)
    theta, _ = K.so3_axis_angle(mats)
    np.testing.assert_allclose(theta, np.max(np.angle(np.linalg.eigvals(mats)), axis=1),
                               rtol=0, atol=1e-12)
