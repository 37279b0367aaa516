import numpy as np
import pytest

from _oracles import einsum_powers, loop_mse, loop_powers, loop_rates, symbol_level_mse
from conftest import random_precoder, random_system
from jmbeam import receivers
from jmbeam.channel import MonteCarloSample, draw_sample, substream
from jmbeam.errors import NumericalBreakdown
from jmbeam.receivers import _batch_powers, average_rates, precoder_power, sum_rate, update_blocks


def _rand(seed, n_t=3, k=2, p_t=10.0):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k))
    p = random_precoder(rng, n_t, k, p_t)
    return h, p


def _one(h):
    """A sample of the single realization h."""
    return MonteCarloSample(realizations=np.asarray(h, dtype=complex)[None])


def _powers(h, p):
    """(s_c, s_p, i_p, t_p, t_c) on one channel matrix, each (k,): the
    batch kernel on a sample of one realization, whose (k, m) outputs
    are user major."""
    return tuple(x[:, 0] for x in _batch_powers(_one(h), p)[1:])


def _rates(h, p):
    """Per-user rates on one channel matrix."""
    return average_rates(_one(h), p)


# ---------------------------------------------------------------------------
# precoder_power


def test_precoder_power():
    p = np.array([[3.0, 0.0], [0.0, 4.0j]])
    assert precoder_power(p) == pytest.approx(25.0, rel=1e-14)


# ---------------------------------------------------------------------------
# receive powers (link terms) on one channel matrix


def test_link_terms_zero_precoder():
    h = np.array([[1.0 + 1j], [0.5]])
    s_c, s_p, i_p, t_p, t_c = _powers(h, np.zeros((2, 2), dtype=complex))
    assert s_c[0] == 0.0 and s_p[0] == 0.0
    assert i_p[0] == 1.0 and t_p[0] == 1.0 and t_c[0] == 1.0


def test_link_terms_scalar_case():
    # single antenna, single user, matched private precoder
    power = 7.0
    p = np.array([[0.0, np.sqrt(power)]], dtype=complex)
    s_c, s_p, i_p, t_p, t_c = _powers(np.array([[1.0 + 0j]]), p)
    assert t_p[0] == pytest.approx(power + 1.0, rel=1e-14)
    assert i_p[0] == pytest.approx(1.0, rel=1e-14)
    assert t_c[0] == pytest.approx(power + 1.0, rel=1e-14)


def test_link_terms_against_loop_oracle():
    for seed in range(40):
        h, p = _rand(seed)
        got = _powers(h, p)
        for user in range(2):
            want = loop_powers(h[:, user], p, 1.0, user)
            for g, w in zip(got, want):
                assert g[user] == pytest.approx(w, rel=1e-12)


def test_link_terms_structure():
    h, p = _rand(99)
    s_c, s_p, i_p, t_p, t_c = _powers(h, p)
    for user in range(2):
        own = abs(p[:, user + 1].conj() @ h[:, user]) ** 2
        com = abs(p[:, 0].conj() @ h[:, user]) ** 2
        assert t_c[user] == pytest.approx(t_p[user] + com, rel=1e-12)
        assert i_p[user] == pytest.approx(t_p[user] - own, rel=1e-12)
        assert i_p[user] > 0 and t_p[user] > 0


# ---------------------------------------------------------------------------
# MMSE equalizers and weights (update_blocks on one realization)


def test_equalizer_scalar_case():
    power = 9.0
    p = np.array([[0.0, 3.0]], dtype=complex)
    gw = update_blocks(_one(np.array([[1.0 + 0j]])), p)
    assert gw.g_c[0, 0] == 0.0
    assert gw.g_p[0, 0] == pytest.approx(np.sqrt(power) / (power + 1.0), rel=1e-14)


def test_equalizer_grid_optimality():
    # the closed form must beat a 401-point complex grid around itself
    h, p = _rand(5)
    gw = update_blocks(_one(h), p)
    for user in range(2):
        g_c, g_p = gw.g_c[user, 0], gw.g_p[user, 0]
        base_c, base_p = loop_mse(h[:, user], p, g_c, g_p, 1.0, user)
        offs = np.linspace(-0.2, 0.2, 401)
        for d in offs:
            for gg in (g_p + d, g_p + 1j * d):
                e = loop_mse(h[:, user], p, g_c, gg, 1.0, user)[1]
                assert e >= base_p - 1e-12
            for gg in (g_c + d, g_c + 1j * d):
                e = loop_mse(h[:, user], p, gg, g_p, 1.0, user)[0]
                assert e >= base_c - 1e-12


def test_mse_at_mmse_equals_ratio_form():
    # substituting g^MMSE into the quadratic MSE gives e/t, the inverse of
    # the weight update_blocks sets
    for seed in range(30):
        h, p = _rand(seed)
        gw = update_blocks(_one(h), p)
        for user in range(2):
            eps_c, eps_p = loop_mse(
                h[:, user], p, gw.g_c[user, 0], gw.g_p[user, 0], 1.0, user
            )
            assert eps_c == pytest.approx(1.0 / gw.u_c[user, 0], rel=1e-12)
            assert eps_p == pytest.approx(1.0 / gw.u_p[user, 0], rel=1e-12)


def test_mse_matches_symbol_level_simulation():
    # E|g y - s|^2 estimated by explicit symbol/noise draws at the MMSE
    # equalizers lands on the MMSEs 1/u, 3 std errors
    h, p = _rand(9, n_t=2, k=2, p_t=4.0)
    user = 0
    gw = update_blocks(_one(h), p)
    est_c, est_p, se_c, se_p = symbol_level_mse(
        h[:, user], p, gw.g_c[user, 0], gw.g_p[user, 0], 1.0, user,
        n_draws=1_000_000, rng=substream(123, 0),
    )
    assert abs(est_c - 1.0 / gw.u_c[user, 0]) <= 3 * se_c
    assert abs(est_p - 1.0 / gw.u_p[user, 0]) <= 3 * se_p


# ---------------------------------------------------------------------------
# rates


def test_rates_scalar_awgn_capacity():
    power = 15.0
    p = np.zeros((1, 2), dtype=complex)
    p[0, 1] = np.sqrt(power)
    ur = _rates(np.array([[1.0 + 0j]]), p)
    assert ur.r_p[0] == pytest.approx(np.log2(1.0 + power), rel=1e-14)
    assert ur.r_c[0] == 0.0


def test_rates_zero_precoder():
    h = np.array([[1.0, 0.3], [1j, 2.0]])
    ur = _rates(h, np.zeros((2, 3), dtype=complex))
    assert np.all(ur.r_c == 0.0)
    assert np.all(ur.r_p == 0.0)
    assert ur.asr == 0.0


def test_rates_two_routes_agree():
    # -log2(mmse) and log2(1+sinr) are the same number
    for seed in range(30):
        h, p = _rand(seed)
        ur = _rates(h, p)
        gw = update_blocks(_one(h), p)
        for user in range(2):
            assert ur.r_c[user] == pytest.approx(np.log2(gw.u_c[user, 0]), rel=1e-12)
            assert ur.r_p[user] == pytest.approx(np.log2(gw.u_p[user, 0]), rel=1e-12)
            oc, op = loop_rates(h[:, user], p, 1.0, user)
            assert ur.r_c[user] == pytest.approx(oc, rel=1e-12)
            assert ur.r_p[user] == pytest.approx(op, rel=1e-12)


def test_rates_sinr_oracle():
    h, p = _rand(11)
    ur = _rates(h, p)
    for user in range(2):
        hk = h[:, user]
        own = abs(p[:, user + 1].conj() @ hk) ** 2
        interf = sum(
            abs(p[:, i + 1].conj() @ hk) ** 2 for i in range(2) if i != user
        )
        want = np.log2(1.0 + own / (interf + 1.0))
        assert ur.r_p[user] == pytest.approx(want, rel=1e-12)


def test_mmse_sinr_identity():
    h, p = _rand(12)
    _, s_p, i_p, t_p, _ = _powers(h, p)
    for user in range(2):
        eps = i_p[user] / t_p[user]
        hk = h[:, user]
        own = abs(p[:, user + 1].conj() @ hk) ** 2
        gamma = own / i_p[user]  # i_p includes the unit noise
        assert gamma == pytest.approx((1.0 - eps) / eps, rel=1e-12)


def test_mmse_in_unit_interval():
    rng = np.random.default_rng(13)
    for seed in range(200):
        h, p = _rand(seed, p_t=float(rng.uniform(0.01, 1000.0)))
        gw = update_blocks(_one(h), p)
        for eps in (1.0 / gw.u_c, 1.0 / gw.u_p):
            assert np.all((0.0 < eps) & (eps <= 1.0))


def test_rates_noise_monotonicity():
    # the rates at noise power s2 are the unit-noise rates of p/sqrt(s2),
    # so they fall as the noise grows, that is as the precoder shrinks
    h, p = _rand(14)
    prev = None
    for s2 in (0.25, 0.5, 1.0, 2.0, 4.0):
        cur = _rates(h, p / np.sqrt(s2))
        for u in range(2):
            oc, op = loop_rates(h[:, u], p, s2, u)
            assert cur.r_c[u] == pytest.approx(oc, rel=1e-12)
            assert cur.r_p[u] == pytest.approx(op, rel=1e-12)
        if prev is not None:
            assert np.all(cur.r_c <= prev.r_c + 1e-14)
            assert np.all(cur.r_p <= prev.r_p + 1e-14)
        prev = cur


# ---------------------------------------------------------------------------
# sum_rate


def _loop_rates(h, p):
    return [loop_rates(h[:, u], p, 1.0, u) for u in range(h.shape[1])]


def test_sum_rate_no_common():
    h, p = _rand(15)
    p[:, 0] = 0.0
    want = sum(r_p for _, r_p in _loop_rates(h, p))
    assert sum_rate(h, p) == pytest.approx(want, rel=1e-12)


def test_sum_rate_single_user():
    h, p = _rand(16, n_t=2, k=1)
    ((r_c, r_p),) = _loop_rates(h, p)
    assert sum_rate(h, p) == pytest.approx(r_c + r_p, rel=1e-12)


def test_sum_rate_symmetric_channel():
    rng = np.random.default_rng(17)
    hcol = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = np.stack([hcol, hcol], axis=1)
    p = random_precoder(rng, 3, 2, 10.0)
    (rc0, rp0), (rc1, rp1) = _loop_rates(h, p)
    assert rc0 == pytest.approx(rc1, rel=1e-12)
    ur = _rates(h, p)
    assert ur.r_c[0] == pytest.approx(ur.r_c[1], rel=1e-12)
    want = min(rc0, rc1) + rp0 + rp1
    assert sum_rate(h, p) == pytest.approx(want, rel=1e-12)


def test_sum_rate_matches_per_user_assembly():
    for seed in range(20):
        h, p = _rand(seed)
        urs = _loop_rates(h, p)
        want = min(r_c for r_c, _ in urs) + sum(r_p for _, r_p in urs)
        assert sum_rate(h, p) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# average_rates


def test_average_rates_single_realization():
    h, p = _rand(18)
    s = MonteCarloSample(realizations=h[None, :, :])
    ar = average_rates(s, p)
    assert ar.asr == sum_rate(h, p)
    for u, (r_c, r_p) in enumerate(_loop_rates(h, p)):
        assert ar.r_c[u] == pytest.approx(r_c, rel=1e-12)
        assert ar.r_p[u] == pytest.approx(r_p, rel=1e-12)


def test_average_rates_degenerate_sample():
    # all realizations equal: any M behaves like M=1
    h, p = _rand(19)
    s = MonteCarloSample(realizations=np.broadcast_to(h, (6,) + h.shape).copy())
    ar = average_rates(s, p)
    assert ar.asr == pytest.approx(sum_rate(h, p), rel=1e-12)


def test_average_rates_doubling_and_permutation():
    rng = np.random.default_rng(20)
    hs = rng.standard_normal((8, 3, 2)) + 1j * rng.standard_normal((8, 3, 2))
    p = random_precoder(rng, 3, 2, 10.0)
    base = average_rates(MonteCarloSample(realizations=hs), p)
    doubled = average_rates(
        MonteCarloSample(realizations=np.concatenate([hs, hs])), p
    )
    assert doubled.asr == pytest.approx(base.asr, rel=1e-12)
    perm = rng.permutation(8)
    shuffled = average_rates(MonteCarloSample(realizations=hs[perm]), p)
    assert shuffled.asr == pytest.approx(base.asr, rel=1e-12)
    assert np.allclose(shuffled.r_c, base.r_c, rtol=1e-12)


def test_average_rates_is_mean_of_per_realization():
    rng = np.random.default_rng(21)
    hs = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    p = random_precoder(rng, 2, 2, 10.0)
    ar = average_rates(MonteCarloSample(realizations=hs), p)
    for u in range(2):
        per = [loop_rates(hs[m, :, u], p, 1.0, u) for m in range(5)]
        rc = np.mean([r_c for r_c, _ in per])
        rp = np.mean([r_p for _, r_p in per])
        assert ar.r_c[u] == pytest.approx(rc, rel=1e-12)
        assert ar.r_p[u] == pytest.approx(rp, rel=1e-12)


# ---------------------------------------------------------------------------
# the GEMM batch path against the einsum route

ULP = 2.0**-53


def _assert_near(got, want, mag, n_t, what):
    # The two routes round each dot product p_i^H h_u differently (GEMM
    # kernels fuse multiply-adds). Their gap is a few ulps of |p|^T |h|,
    # the magnitude of the terms; it is relative to the value itself only
    # where nothing cancels, and zero forcing makes cancellation common.
    assert np.all(np.abs(got - want) <= 4 * (n_t + 1) * ULP * mag), what


def _check_against_einsum(sample, p, what):
    """_batch_powers and update_blocks on a sample against einsum_powers,
    with magnitudes from the same route on |h| and |p|."""
    h = sample.realizations
    _, n_t, k = h.shape
    want = einsum_powers(h, p, 1.0)
    mag = einsum_powers(np.abs(h), np.abs(p), 1.0)
    got = _batch_powers(sample, p)  # user major: (k, m, k+1) and (k, m)
    _assert_near(got[0].transpose(1, 2, 0), want[0], mag[0], n_t, what)
    for g, w, s in zip(got[1:], want[1:], mag[1:]):
        _assert_near(g.T, w, s, n_t, what)
    # update_blocks divides them: first-order propagation of both gaps
    gw = update_blocks(sample, p)
    idx = np.arange(k)
    y, _, _, i_p, t_p, t_c = want
    y_m, _, _, i_m, tp_m, tc_m = mag
    for got_x, num, den, num_m, den_m in (
        (gw.g_c, y[:, 0, :], t_c, y_m[:, 0, :], tc_m),
        (gw.g_p, y[:, 1:, :][:, idx, idx], t_p, y_m[:, 1:, :][:, idx, idx], tp_m),
        (gw.u_c, t_c, t_p, tc_m, tp_m),
        (gw.u_p, t_p, i_p, tp_m, i_m),
    ):
        ratio = num / den
        _assert_near(got_x.T, ratio, (num_m + np.abs(ratio) * den_m) / den, n_t, what)


def test_batch_powers_match_einsum_oracle(monkeypatch):
    calls = []

    def recording(sample, *args, **kwargs):
        calls.append(sample)
        return _batch_powers(sample, *args, **kwargs)

    monkeypatch.setattr(receivers, "_batch_powers", recording)
    seed = 0
    for n_t in (2, 3, 4):
        for k in range(1, min(n_t, 3) + 1):
            for snr_db in (0.0, 20.0, 40.0):
                for m in (1, 2, 200, 1000):
                    seed += 1
                    cfg, draw, sample = random_system(
                        seed, n_t=n_t, k=k, snr_db=snr_db, m=m
                    )
                    p = random_precoder(np.random.default_rng(seed), n_t, k, cfg.p_t)
                    what = (n_t, k, snr_db, m)
                    _check_against_einsum(sample, p, what)
                    # sum_rate's single-realization call on the true channel
                    sum_rate(draw.h_true, p)
                    assert calls[-1].m == 1
                    assert np.array_equal(calls[-1].realizations[0], draw.h_true)
                    _check_against_einsum(calls[-1], p, what + ("sum_rate",))
                # no CSIT error: m copies of the estimate
                copies = draw_sample(substream(seed, 2), draw.h_est, 0.0, 200)
                _check_against_einsum(copies, p, what + ("copies",))


def test_overflowing_powers_raise_numerical_breakdown():
    # a precoder of 1e155 overflows |p^H h|^2 to inf, whose rates would be
    # NaN: an overflowing common, own or interfering power each raises
    h = np.array([[1.0, 0.5], [0.25, 1.0]], dtype=complex)
    sample = MonteCarloSample(realizations=h[None])
    big = 1e155
    for col in range(3):
        p = np.zeros((2, 3), dtype=complex)
        p[0, col] = big
        with pytest.raises(NumericalBreakdown):
            _batch_powers(sample, p)
        with pytest.raises(NumericalBreakdown):
            sum_rate(h, p)
    p = np.full((2, 3), np.nan, dtype=complex)
    with pytest.raises(NumericalBreakdown):
        average_rates(sample, p)
    # a stack of runs raises when any run overflows
    ok = np.ones((2, 3), dtype=complex)
    with pytest.raises(NumericalBreakdown):
        _batch_powers([sample, sample], np.array([ok, big * ok]))
    # finite powers near the top of the range pass
    assert np.isfinite(sum_rate(h, 1e150 * ok))
