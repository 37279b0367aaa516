import os

import numpy as np
import pytest

from _oracles import load_fixture, save_fixture
from jmbeam.channel import (
    CsitConfig,
    MonteCarloSample,
    complex_gaussian,
    draw_channel,
    draw_sample,
    error_variance,
    make_draw,
    substream,
)

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")


# ---------------------------------------------------------------------------
# error_variance


def test_error_variance_power_law():
    assert error_variance(100.0, 0.6) == pytest.approx(100.0 ** -0.6, rel=1e-14)
    assert error_variance(100.0, 0.6) == pytest.approx(0.0631, abs=5e-5)
    assert error_variance(7.3, 0.0) == 1.0


def test_error_variance_cap():
    # below 0 dB the raw law (here 10**0.6, about 3.98) exceeds the unit
    # channel variance, so the variance is capped at 1
    assert error_variance(0.1, 0.6) == 1.0
    assert error_variance(1.0, 0.6) == 1.0
    assert error_variance(1.01, 0.6) < 1.0
    # the raw law overflows here, but the cap holds
    assert error_variance(1e-320, 1.0) == 1.0
    assert error_variance(1e-200, 2.0) == 1.0


def test_error_variance_validation():
    with pytest.raises(ValueError):
        error_variance(0.0, 0.6)
    with pytest.raises(ValueError):
        error_variance(1.0, -0.1)
    # NaN fails every comparison, so the checks must be written to fail it
    for p_t, alpha in ((np.nan, 0.6), (np.inf, 0.6), (100.0, np.nan)):
        with pytest.raises(ValueError):
            error_variance(p_t, alpha)


# ---------------------------------------------------------------------------
# csit config


def test_csit_config_validation():
    CsitConfig(n_t=2, k=2, alpha=0.6, p_t=10.0)
    with pytest.raises(ValueError):
        CsitConfig(n_t=2, k=3, alpha=0.6, p_t=10.0)  # k > n_t
    with pytest.raises(ValueError):
        CsitConfig(n_t=2, k=2, alpha=0.6, p_t=0.0)
    with pytest.raises(ValueError):
        CsitConfig(n_t=2, k=2, alpha=-0.1, p_t=10.0)
    for n_t, k in ((2, 0), (0, 0)):  # no user, or no antenna
        with pytest.raises(ValueError):
            CsitConfig(n_t=n_t, k=k, alpha=0.6, p_t=10.0)
    for alpha, p_t in ((np.nan, 100.0), (0.6, np.nan), (0.6, np.inf)):
        with pytest.raises(ValueError):
            CsitConfig(n_t=2, k=2, alpha=alpha, p_t=p_t)


def test_sizes_must_be_integers():
    # numpy takes neither a float nor a bool as an array size, so either
    # is rejected where it comes in, naming the field, not in make_draw or
    # in the sample's draw; numpy's own integers are sizes
    for n_t, k, name in ((2.0, 2, "n_t"), (2, 1.5, "k"), (True, True, "n_t"), (2, True, "k")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            CsitConfig(n_t=n_t, k=k, alpha=0.6, p_t=10.0)
    with pytest.raises(ValueError, match="^m must be an integer"):
        draw_sample(substream(1, 1), np.ones((2, 2)), 0.1, True)
    cfg = CsitConfig(n_t=np.int64(3), k=np.int64(2), alpha=0.6, p_t=10.0)
    draw = make_draw(substream(1, 0), cfg)
    assert draw_sample(substream(1, 1), draw.h_est, 0.1, np.int64(4)).realizations.shape == (4, 3, 2)


# ---------------------------------------------------------------------------
# substreams


def test_substream_deterministic_and_disjoint():
    a = substream(7, 0).standard_normal(8)
    b = substream(7, 0).standard_normal(8)
    assert np.array_equal(a, b)
    c = substream(7, 1).standard_normal(8)
    assert not np.array_equal(a, c)
    d = substream(8, 0).standard_normal(8)
    assert not np.array_equal(a, d)


def test_substream_nested_ids():
    a = substream(3, 1, 2).standard_normal(4)
    b = substream(3, 1, 2).standard_normal(4)
    c = substream(3, 2, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# complex_gaussian / draw_channel moments


def test_complex_gaussian_moments():
    rng = np.random.default_rng(11)
    z = complex_gaussian(rng, (100_000,), var=1.0)
    assert abs(z.mean()) <= 0.02  # 3/sqrt(1e5) CLT bound, both parts
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)
    # circular symmetry: each part carries half the variance
    assert z.real.var() == pytest.approx(0.5, rel=0.03)
    assert z.imag.var() == pytest.approx(0.5, rel=0.03)
    # pseudo-variance E[z^2] of a circular variable vanishes
    assert abs(np.mean(z ** 2)) <= 0.02


def test_complex_gaussian_scaled_variance():
    rng = np.random.default_rng(12)
    z = complex_gaussian(rng, (100_000,), var=0.25)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(0.25, rel=0.02)


def test_draw_channel_shape_and_moments():
    cfg = CsitConfig(n_t=5, k=4, alpha=0.6, p_t=10.0)
    rng = substream(13, 0)
    pool = np.concatenate(
        [draw_channel(rng, cfg).ravel() for _ in range(5000)]
    )
    assert pool.size == 100_000
    assert abs(pool.mean()) <= 0.02
    assert np.mean(np.abs(pool) ** 2) == pytest.approx(1.0, rel=0.02)


# ---------------------------------------------------------------------------
# make_draw


def test_make_draw_exact_decomposition():
    cfg = CsitConfig(n_t=3, k=2, alpha=0.6, p_t=100.0)
    draw = make_draw(substream(5, 0), cfg)
    assert draw.h_true.shape == (3, 2)
    # stored-sum contract: no floating error allowed in the identity
    assert np.array_equal(draw.h_true, draw.h_est + draw.h_err)
    assert draw.sigma_e2 == pytest.approx(100.0 ** -0.6, rel=1e-14)


def test_make_draw_vanishing_error():
    cfg = CsitConfig(n_t=2, k=2, alpha=10.0, p_t=100.0)
    draw = make_draw(substream(6, 0), cfg)
    assert np.linalg.norm(draw.h_err) <= 1e-4
    # p_t**-alpha underflows to zero: the error is drawn as signed zeros,
    # so the estimate is the true channel and the identity still holds
    cfg = CsitConfig(n_t=2, k=2, alpha=2.0, p_t=1e300)
    assert cfg.sigma_e2 == 0.0
    draw = make_draw(substream(7, 0), cfg)
    assert np.all(draw.h_err == 0)
    assert np.array_equal(draw.h_true, draw.h_est)
    assert np.array_equal(draw.h_true, draw.h_est + draw.h_err)


def test_make_draw_error_variance_empirical():
    cfg = CsitConfig(n_t=5, k=5, alpha=0.6, p_t=100.0)
    rng = substream(14, 0)
    pool = np.concatenate([make_draw(rng, cfg).h_err.ravel() for _ in range(4000)])
    sig2 = 100.0 ** -0.6
    assert np.mean(np.abs(pool) ** 2) == pytest.approx(sig2, rel=0.02)


# ---------------------------------------------------------------------------
# draw_sample


def test_draw_sample_zero_error_copies():
    h_est = substream(1, 0).standard_normal((2, 2)) + 0j
    s = draw_sample(substream(1, 1), h_est, 0.0, 5)
    assert s.realizations.shape == (5, 2, 2)
    for m in range(5):
        assert np.array_equal(s.realizations[m], h_est)


def test_draw_sample_rejects_a_variance_that_is_not_one():
    # a negative or NaN variance drew an all-NaN sample and an infinite
    # one an infinite sample; each is rejected naming the field, as
    # error_variance rejects its inputs (zero: the test above)
    for bad in (-0.1, float("nan"), float("inf"), -np.inf):
        with pytest.raises(ValueError, match="^sigma_e2 must be nonnegative and finite"):
            draw_sample(substream(1, 1), np.ones((2, 2)), bad, 2)


def test_a_bool_is_not_a_number_in_the_channel_model():
    # True compares as 1: alpha=True gave sigma_e2 0.01 at 20 dB and
    # p_t=True a unit budget; each is rejected naming the field, as n_t,
    # k and m are. numpy floats are numbers
    for field, kw in (("alpha", dict(alpha=True, p_t=100.0)),
                      ("p_t", dict(alpha=0.6, p_t=True))):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            CsitConfig(n_t=2, k=2, **kw)
    with pytest.raises(ValueError, match="^sigma_e2 must be"):
        draw_sample(substream(1, 1), np.ones((2, 2)), True, 3)
    cfg = CsitConfig(n_t=2, k=2, alpha=np.float64(0.5), p_t=np.float32(100.0))
    assert cfg.sigma_e2 == 0.1
    assert draw_sample(substream(1, 1), np.ones((2, 2)), np.float64(0.1), 3).m == 3


def test_draw_sample_conditional_mean():
    # average over m recovers the estimate; 4 standard errors at M = 1e4
    cfg = CsitConfig(n_t=2, k=2, alpha=0.6, p_t=10.0)
    draw = make_draw(substream(21, 0), cfg)
    m = 10_000
    s = draw_sample(substream(21, 1), draw.h_est, draw.sigma_e2, m)
    avg = s.realizations.mean(axis=0)
    tol = 4.0 * np.sqrt(draw.sigma_e2 / m)
    assert np.all(np.abs(avg - draw.h_est) <= tol)


def test_draw_sample_deterministic_ordering():
    h_est = np.ones((2, 2), dtype=complex)
    a = draw_sample(substream(9, 3), h_est, 0.3, 7).realizations
    b = draw_sample(substream(9, 3), h_est, 0.3, 7).realizations
    assert np.array_equal(a, b)
    # realizations are distinct draws, not repeats
    assert not np.array_equal(a[0], a[1])


def test_draw_sample_variance():
    h_est = np.zeros((1, 1), dtype=complex)
    s = draw_sample(substream(10, 0), h_est, 0.09, 100_000)
    assert np.mean(np.abs(s.realizations) ** 2) == pytest.approx(0.09, rel=0.02)


def test_draw_sample_holds_one_read_only_copy():
    # realizations (m, n_t, k) is a view of the user-major (k, m, n_t)
    # channels, the one copy the sample keeps, and neither is writable
    h_est = substream(5, 0).standard_normal((3, 2)) + 0j
    s = draw_sample(substream(5, 1), h_est, 0.2, 4)
    users = s.user_channels
    assert users.shape == (2, 4, 3) and users.flags.c_contiguous
    assert np.shares_memory(s.realizations, users)
    assert np.array_equal(s.realizations, users.transpose(1, 2, 0))
    for x in (s.realizations, users):
        with pytest.raises(ValueError):
            x.flat[0] = 0.0
    assert not hasattr(s, "by_user")
    # writing an input array afterwards does not reach a sample
    kept = s.realizations.copy()
    h_est[:] = 0.0
    h = kept.copy()
    t = MonteCarloSample(realizations=h)
    h[:] = 0.0
    assert np.array_equal(s.realizations, kept)
    assert np.array_equal(t.realizations, kept)


def test_sample_validation():
    # a sample holds at least one (n_t, k) realization, and a draw asks
    # for one; the messages name the check, since numpy's own errors on
    # such shapes are ValueErrors too
    for shape in ((2, 2), (1, 2, 2, 1), (0, 2, 2)):
        with pytest.raises(ValueError, match="nonempty"):
            MonteCarloSample(realizations=np.ones(shape, dtype=complex))
    for m in (0, -1, 2.5, np.nan):
        with pytest.raises(ValueError, match="m must be"):
            draw_sample(substream(1, 1), np.ones((2, 2)), 0.1, m)


def test_channel_and_sample_streams_independent():
    # same master seed, different stream ids: draws must not correlate
    cfg = CsitConfig(n_t=2, k=2, alpha=0.6, p_t=10.0)
    draw = make_draw(substream(33, 0), cfg)
    s = draw_sample(substream(33, 1), draw.h_est, draw.sigma_e2, 1)
    err = s.realizations[0] - draw.h_est
    assert not np.allclose(err, draw.h_err)
    assert not np.allclose(err, -draw.h_err)


# ---------------------------------------------------------------------------
# fixtures


def test_fixture_round_trip(tmp_path):
    cfg = CsitConfig(n_t=3, k=2, alpha=0.6, p_t=10.0)
    h = draw_channel(substream(77, 0), cfg)
    path = tmp_path / "chan.txt"
    save_fixture(path, h, seed=77)
    h2, seed = load_fixture(path)
    assert seed == 77
    assert np.array_equal(h, h2)


def test_fixture_header_format(tmp_path):
    h = np.array([[1.5 - 0.5j]])
    path = tmp_path / "one.txt"
    save_fixture(path, h, seed=4)
    first = open(path).readline().split()
    assert first == ["1", "1", "4"]


def test_frozen_regression_channel():
    # generated once by the seeded generator and committed; guards against
    # silent RNG or layout drift
    path = os.path.join(FIXDIR, "channel_2x2_seed42.txt")
    h_stored, seed = load_fixture(path)
    assert seed == 42
    cfg = CsitConfig(n_t=2, k=2, alpha=0.6, p_t=10.0)
    h_now = draw_channel(substream(42, 0), cfg)
    assert np.array_equal(h_stored, h_now)
