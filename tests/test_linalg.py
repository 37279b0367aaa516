import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_psd
from jmbeam.errors import NotPsd, RankDeficient, ZeroChannel
from jmbeam.linalg import (
    cholesky_psd,
    dominant_left_singular_vector,
    mf_directions,
    phase_normalize,
    zf_directions,
)


# ---------------------------------------------------------------------------
# phase_normalize


def test_phase_normalize_first_nonzero_real_nonneg():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = phase_normalize(v)
        assert w[0].imag == pytest.approx(0.0, abs=1e-14)
        assert w[0].real >= 0
        # a pure rotation: norms and inner-product magnitudes survive
        assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v), rel=1e-14)


def test_phase_normalize_leading_zeros_and_idempotence():
    v = np.array([0.0, 0.0, -1j, 2.0])
    w = phase_normalize(v)
    assert w[2].real == pytest.approx(1.0)
    assert np.allclose(phase_normalize(w), w)
    z = np.zeros(3, dtype=complex)
    assert np.array_equal(phase_normalize(z), z)


@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_phase_normalize_property(entries):
    v = np.array(entries, dtype=complex)
    w = phase_normalize(v)
    nz = np.flatnonzero(np.abs(w) > 0)
    if nz.size:
        assert abs(w[nz[0]].imag) <= 1e-9 * abs(w[nz[0]])
        assert w[nz[0]].real >= 0
    assert np.allclose(np.abs(w), np.abs(v))


# ---------------------------------------------------------------------------
# cholesky_psd


def test_cholesky_reconstruction_sweep():
    # 1000 random PSD matrices, dims up to 8: relative Frobenius error <= 1e-12
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 9))
        a = random_psd(rng, n)
        L = cholesky_psd(a)
        assert np.allclose(L, np.tril(L))
        err = np.linalg.norm(L @ L.conj().T - a) / max(np.linalg.norm(a), 1e-300)
        worst = max(worst, err)
    assert worst <= 1e-12


def test_cholesky_singular_psd_gives_zero_column():
    rng = np.random.default_rng(3)
    a = random_psd(rng, 4, rank=2)
    L = cholesky_psd(a)
    err = np.linalg.norm(L @ L.conj().T - a) / np.linalg.norm(a)
    assert err <= 1e-10
    # rank deficiency shows up as (at least) two numerically zero columns
    colnorm = np.linalg.norm(L, axis=0)
    assert np.sum(colnorm <= 1e-8 * colnorm.max()) >= 2


def test_cholesky_rejects_indefinite():
    a = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(NotPsd):
        cholesky_psd(a)


def test_cholesky_zero_matrix():
    L = cholesky_psd(np.zeros((3, 3), dtype=complex))
    assert np.array_equal(L, np.zeros((3, 3)))


def test_cholesky_stack_applies_the_rules_per_matrix():
    # a stack is factored in one call; a singular member still gets its
    # zero columns and an indefinite member raises wherever it sits
    rng = np.random.default_rng(5)
    pd, rank_one = random_psd(rng, 3), random_psd(rng, 3, rank=1)
    stack = np.stack([pd, rank_one, 2.0 * pd])
    L = cholesky_psd(stack)
    assert L.shape == stack.shape
    for a, l in zip(stack, L):
        assert np.array_equal(l, np.tril(l))
        assert np.linalg.norm(l @ l.conj().T - a) <= 1e-12 * np.linalg.norm(a)
    assert np.array_equal(L[1], cholesky_psd(rank_one))
    assert np.sum(np.all(L[1] == 0.0, axis=0)) == 2
    for i in range(3):
        bad = stack.copy()
        bad[i] = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(NotPsd):
            cholesky_psd(bad)


def test_cholesky_stack_with_a_pivot_inside_the_tolerance():
    # LAPACK factors both matrices, but the second's pivot 1e-6 squares
    # to within EPS_PSD: that matrix alone goes through the pivot loop,
    # which zeroes its column, and the first keeps LAPACK's bits
    eye = np.eye(2, dtype=complex)
    L = cholesky_psd(np.array([eye, np.diag([1.0, 1e-12])], dtype=complex))
    assert np.array_equal(L[0], np.linalg.cholesky(eye))
    assert np.array_equal(L[1], np.diag([1.0, 0.0]))


# ---------------------------------------------------------------------------
# dominant_left_singular_vector


def test_dominant_singular_vector_matches_svd():
    rng = np.random.default_rng(4)
    for _ in range(30):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        v = dominant_left_singular_vector(a)
        u = np.linalg.svd(a)[0][:, 0]
        # phase-invariant comparison
        assert abs(v.conj() @ u) == pytest.approx(1.0, abs=1e-6)
        s_max = np.linalg.svd(a, compute_uv=False)[0]
        assert np.linalg.norm(a.conj().T @ v) == pytest.approx(s_max, rel=1e-8)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)


def test_dominant_singular_vector_deterministic_and_phase_fixed():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    v1 = dominant_left_singular_vector(a)
    v2 = dominant_left_singular_vector(a)
    assert np.array_equal(v1, v2)
    # right-multiplying by per-column phases leaves a a^H unchanged
    v3 = dominant_left_singular_vector(a * np.exp(1j * np.array([0.3, -1.2])))
    assert np.allclose(v1, v3, atol=1e-8)


def test_dominant_singular_vector_rank_one_exact():
    u = np.array([0.0, 0.0, 1.0], dtype=complex)
    a = np.outer(u, np.array([1.0 + 1j, 2.0]))
    v = dominant_left_singular_vector(a)
    assert np.allclose(v, u, atol=1e-10)


def test_dominant_singular_vector_zero_matrix_raises():
    with pytest.raises(ValueError):
        dominant_left_singular_vector(np.zeros((2, 2)))


def test_kernels_reject_what_is_not_a_matrix():
    # the messages name the check: LinAlgError is a ValueError too
    for a in (np.ones((2, 3)), np.ones(2)):
        with pytest.raises(ValueError, match="square"):
            cholesky_psd(a)
    with pytest.raises(ValueError, match="expected a matrix"):
        dominant_left_singular_vector(np.ones(2))


def test_dominant_singular_vector_tied_singular_values():
    # a degenerate spectrum has no unique dominant direction: any unit
    # vector of the top eigenspace will do, but always the same one
    rng = np.random.default_rng(6)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    unitary = np.linalg.qr(g)[0]
    for a, s_max in ((np.eye(3), 1.0), (2.5 * unitary, 2.5)):
        v = dominant_left_singular_vector(a)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(a.conj().T @ v) == pytest.approx(s_max, rel=1e-12)
        assert np.array_equal(v, dominant_left_singular_vector(a))


# ---------------------------------------------------------------------------
# zf_directions


def test_zf_identity_channel():
    d = zf_directions(np.eye(2, dtype=complex))
    assert np.allclose(d, np.eye(2), atol=1e-12)


def test_zf_orthogonal_channels_give_own_direction():
    h = np.array([[2.0, 0.0], [0.0, 1.0 + 1j]])
    d = zf_directions(h)
    for k in range(2):
        own = phase_normalize(h[:, k] / np.linalg.norm(h[:, k]))
        assert np.allclose(d[:, k], own, atol=1e-12)


def test_zf_orthogonality_and_norms_sweep():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n_t = int(rng.integers(2, 5))
        k = int(rng.integers(2, n_t + 1))
        h = rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k))
        d = zf_directions(h)
        for kk in range(k):
            assert abs(np.linalg.norm(d[:, kk]) - 1.0) <= 1e-12
            for i in range(k):
                if i != kk:
                    assert abs(h[:, i].conj() @ d[:, kk]) <= 1e-10


def test_zf_against_orthogonal_complement_2x2():
    # for n_t = k = 2 the ZF direction of user 0 is the unit vector
    # orthogonal to user 1's channel, constructible in closed form
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        d = zf_directions(h)
        for k, other in ((0, 1), (1, 0)):
            a, b = h[0, other], h[1, other]
            w = np.array([-b.conjugate(), a.conjugate()])
            w /= np.linalg.norm(w)
            assert abs(w.conj() @ d[:, k]) == pytest.approx(1.0, abs=1e-10)


def test_zf_rank_deficient_raises():
    h = np.array([[1.0, 2.0], [1j, 2j]])  # rank 1
    with pytest.raises(RankDeficient):
        zf_directions(h)
    with pytest.raises(RankDeficient):
        zf_directions(np.ones((1, 2), dtype=complex))  # k > n_t


# ---------------------------------------------------------------------------
# mf_directions


def test_mf_directions_basic():
    h = np.array([[3.0], [4.0j]])
    d = mf_directions(h)
    assert np.allclose(d[:, 0], [0.6, 0.8j], atol=1e-14)
    assert mf_directions(np.eye(3, dtype=complex))[0, 0] == 1.0


def test_mf_unit_norm_and_phase():
    rng = np.random.default_rng(8)
    for _ in range(100):
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        d = mf_directions(h)
        for k in range(2):
            assert abs(np.linalg.norm(d[:, k]) - 1.0) <= 1e-14
            nz = np.flatnonzero(np.abs(d[:, k]) > 0)[0]
            assert d[nz, k].imag == pytest.approx(0.0, abs=1e-14)


def test_mf_zero_channel_raises():
    h = np.array([[1.0, 0.0], [0.5, 0.0]], dtype=complex)
    with pytest.raises(ZeroChannel):
        mf_directions(h)
