import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import waterfill_bisection
from jmbeam.ao import _zf_gains, initialize, jmb_zf_svd_wf, water_fill, zf_wf
from jmbeam.channel import CsitConfig, MonteCarloSample, make_draw, substream
from jmbeam.errors import RankDeficient
from jmbeam.linalg import zf_directions
from jmbeam.receivers import _batch_powers, precoder_power, sum_rate


# ---------------------------------------------------------------------------
# water_fill


def test_waterfill_equal_gains():
    powers = water_fill(np.array([2.0, 2.0, 2.0]), 6.0)
    assert np.allclose(powers, 2.0, rtol=1e-12)


def test_waterfill_low_budget_picks_best_channel():
    powers = water_fill(np.array([1.0, 100.0]), 0.01)
    assert powers[0] == 0.0
    assert powers[1] == pytest.approx(0.01, rel=1e-12)


def test_waterfill_matches_bisection_oracle():
    powers = water_fill(np.array([1.0, 4.0]), 2.0)
    want = waterfill_bisection(np.array([1.0, 4.0]), 2.0)
    assert np.allclose(powers, want, atol=1e-10)


def test_waterfill_oracle_sweep():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        gains = rng.uniform(0.01, 50.0, size=k)
        budget = float(rng.uniform(0.0, 20.0))
        powers = water_fill(gains, budget)
        want = waterfill_bisection(gains, budget)
        assert np.allclose(powers, want, atol=1e-9)


def test_waterfill_kkt_exact():
    rng = np.random.default_rng(1)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        gains = rng.uniform(1e-3, 100.0, size=k)
        budget = float(rng.uniform(1e-6, 100.0))
        powers = water_fill(gains, budget)
        assert np.all(powers >= 0)
        assert np.sum(powers) == pytest.approx(budget, abs=1e-10 * max(1, budget))
        # the active entries share one water level; the inactive ones sit above it
        active = powers > 0
        levels = 1.0 / gains[active] + powers[active]
        level = levels.max()
        assert levels.max() - levels.min() <= 1e-10 * level
        assert np.all(1.0 / gains[~active] >= level - 1e-10 * level)


@given(
    st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6),
    st.floats(0.0, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_waterfill_kkt_property(gains, budget):
    gains = np.array(gains)
    powers = water_fill(gains, budget)
    assert np.all(powers >= 0)
    assert abs(np.sum(powers) - budget) <= 1e-9 * max(1.0, budget)
    active = powers > 0
    if active.any():
        levels = 1.0 / gains[active] + powers[active]
        lvl = levels.max()
        assert levels.max() - levels.min() <= 1e-10 * lvl
        assert np.all(1.0 / gains[~active] >= lvl - 1e-10 * lvl)


def test_waterfill_zero_budget():
    powers = water_fill(np.array([1.0, 2.0]), 0.0)
    assert np.all(powers == 0)


def test_waterfill_validation():
    with pytest.raises(ValueError):
        water_fill(np.array([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError):
        water_fill(np.array([1.0]), -0.5)
    for budget in (np.nan, np.inf):
        with pytest.raises(ValueError, match="budget"):
            water_fill(np.array([1.0, 2.0]), budget)
    for gains in (np.ones((1, 2)), np.array([])):  # not a nonempty 1-d array
        with pytest.raises(ValueError, match="1-d"):
            water_fill(gains, 1.0)


def test_waterfill_beats_alternatives():
    # optimality spot check: no feasible reallocation does better
    rng = np.random.default_rng(2)
    gains = np.array([0.3, 2.0, 9.0])
    budget = 4.0
    powers = water_fill(gains, budget)
    best = np.sum(np.log2(1 + gains * powers))
    for _ in range(500):
        q = rng.dirichlet(np.ones(3)) * budget
        assert np.sum(np.log2(1 + gains * q)) <= best + 1e-9


# ---------------------------------------------------------------------------
# zf_wf


def test_zf_wf_identity_channel():
    p = zf_wf(np.eye(2, dtype=complex), 8.0)
    assert np.all(p[:, 0] == 0)
    assert np.allclose(np.abs(p[:, 1]), [2.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(p[:, 2]), [0.0, 2.0], atol=1e-12)


def test_zf_wf_single_user_matched():
    rng = np.random.default_rng(3)
    h = (rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))
    p = zf_wf(h, 5.0)
    # zero forcing with one user is matched filtering at full power
    d = p[:, 1] / np.linalg.norm(p[:, 1])
    hd = h[:, 0] / np.linalg.norm(h[:, 0])
    assert abs(d.conj() @ hd) == pytest.approx(1.0, abs=1e-10)
    assert precoder_power(p) == pytest.approx(5.0, rel=1e-12)


def test_zf_wf_nominal_rate_identity():
    # evaluated on the estimate itself there is no interference, so the
    # sum rate is exactly the water-filled nominal value
    rng = np.random.default_rng(4)
    for _ in range(20):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        p = zf_wf(h, 10.0)
        dirs = zf_directions(h)
        gains = np.array(
            [abs(h[:, k].conj() @ dirs[:, k]) ** 2 for k in range(2)]
        )
        q = water_fill(gains, 10.0)
        want = float(np.sum(np.log2(1 + gains * q)))
        assert sum_rate(h, p) == pytest.approx(want, abs=1e-10)


def test_zf_wf_residual_interference_on_true_channel():
    cfg = CsitConfig(n_t=2, k=2, alpha=0.6, p_t=100.0)
    hits = 0
    for seed in range(20):
        draw = make_draw(substream(seed, 0), cfg)
        p = zf_wf(draw.h_est, cfg.p_t)
        i_p = _batch_powers(MonteCarloSample(realizations=draw.h_true[None]), p)[3]
        # i_p is cross interference plus noise; strictly above the noise
        # floor whenever the estimate is imperfect
        hits += int(np.sum(i_p > 1.0 + 1e-12))
    assert hits == 40  # almost surely positive, every draw here


def test_zf_wf_rank_deficient():
    with pytest.raises(RankDeficient):
        zf_wf(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex), 4.0)


# ---------------------------------------------------------------------------
# jmb_zf_svd_wf


def test_jmb_zf_svd_alpha_one_equals_zf_wf():
    # alpha = 1 gives the common column no power: bit for bit zf_wf
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_t = int(rng.integers(2, 5))
        k = int(rng.integers(1, n_t + 1))
        h = rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k))
        p_t = 10.0 ** rng.uniform(-2.0, 5.0)
        a = jmb_zf_svd_wf(h, p_t, 1.0)
        assert np.all(a[:, 0] == 0)
        assert np.array_equal(a, zf_wf(h, p_t)), (n_t, k, p_t)
        # so does any alpha at p_t <= 1, where the DoF split clamps the
        # common power at zero: the sweep designs JMB-ZF-SVD at alpha = 1 there
        for snr_db in (-20.0, -5.0, 0.0):
            p_lo = 10.0 ** (snr_db / 10.0)
            for alpha in (0.0, 0.3, 0.6, 1.0):
                b = jmb_zf_svd_wf(h, p_lo, alpha)
                assert np.array_equal(b, zf_wf(h, p_lo)), (n_t, k, snr_db, alpha)


def test_jmb_zf_svd_alpha_zero_split():
    rng = np.random.default_rng(6)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p = jmb_zf_svd_wf(h, 10.0, 0.0)
    # private budget p_t**0 = 1, the rest rides the common column
    assert np.linalg.norm(p[:, 0]) ** 2 == pytest.approx(9.0, rel=1e-10)
    assert np.linalg.norm(p[:, 1:]) ** 2 == pytest.approx(1.0, rel=1e-10)


def test_jmb_zf_svd_power_accounting():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        p_t = float(rng.uniform(0.5, 300.0))
        alpha = float(rng.uniform(0.0, 1.0))
        p = jmb_zf_svd_wf(h, p_t, alpha)
        assert precoder_power(p) == pytest.approx(p_t, rel=1e-10)


def test_jmb_zf_svd_common_direction():
    rng = np.random.default_rng(8)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    p = jmb_zf_svd_wf(h, 100.0, 0.6)
    u0 = np.linalg.svd(h)[0][:, 0]
    d = p[:, 0] / np.linalg.norm(p[:, 0])
    assert abs(d.conj() @ u0) == pytest.approx(1.0, abs=1e-8)


def test_jmb_zf_svd_private_waterfill():
    rng = np.random.default_rng(9)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p_t, alpha = 50.0, 0.6
    p = jmb_zf_svd_wf(h, p_t, alpha)
    dirs = zf_directions(h)
    gains = np.array([abs(h[:, k].conj() @ dirs[:, k]) ** 2 for k in range(2)])
    q = water_fill(gains, p_t ** alpha)
    got = np.array([np.linalg.norm(p[:, k + 1]) ** 2 for k in range(2)])
    assert np.allclose(got, q, rtol=1e-10)


def test_jmb_zf_svd_is_the_zf_svd_start_water_filled():
    # the common column is the AO's 'zf-svd' start bit for bit; the
    # private columns carry the water-filled private total p_t**alpha
    # (capped at p_t) along the zero-forcing directions
    rng = np.random.default_rng(10)
    cases = [(2, 2, 100.0, 0.6), (3, 2, 50.0, 1.0), (3, 3, 0.5, 0.4),
             (4, 2, 0.05, 1.0), (2, 1, 1e4, 0.0), (4, 3, 1.0, 0.7)]
    for n_t, k, p_t, alpha in cases:
        h = rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k))
        p = jmb_zf_svd_wf(h, p_t, alpha)
        start = initialize("zf-svd", h, p_t, alpha)
        assert np.array_equal(p[:, 0], start[:, 0]), (n_t, k, p_t, alpha)
        dirs = zf_directions(h)
        q = water_fill(_zf_gains(h, dirs), min(p_t**alpha, p_t))
        assert np.array_equal(p[:, 1:], dirs * np.sqrt(q)), (n_t, k, p_t, alpha)
