import math

import numpy as np
import pytest

from _oracles import fsum_components, loop_mse, loop_powers, loop_wmse
from conftest import random_precoder, random_system
from jmbeam.channel import MonteCarloSample
from jmbeam.errors import DegenerateMmse
from jmbeam.receivers import (
    EqualizerWeightSet,
    _batch_powers,
    accumulate_components,
    average_rates,
    awmse_values,
    awsmse_objective,
    update_blocks,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# the augmented WMSE and the MMSE weights on one scalar link


SCALAR = MonteCarloSample(realizations=np.ones((1, 1, 1), dtype=complex))


def _scalar_xi(p, u_c=None, u_p=None):
    """(xi_c, xi_p) of the one user of SCALAR at precoder p, with the
    MMSE equalizers and the given weights (the MMSE ones where None)."""
    gw = update_blocks(SCALAR, p)
    gw = EqualizerWeightSet(
        g_c=gw.g_c, g_p=gw.g_p,
        u_c=gw.u_c if u_c is None else np.full((1, 1), u_c),
        u_p=gw.u_p if u_p is None else np.full((1, 1), u_p),
    )
    xi_c, xi_p = awmse_values(accumulate_components(SCALAR, gw), p)
    return float(xi_c[0]), float(xi_p[0])


def _private_only(eps_p):
    """Precoder of SCALAR whose private MMSE is eps_p: power 1/eps_p - 1."""
    return np.array([[0.0, np.sqrt(1.0 / eps_p - 1.0)]], dtype=complex)


def test_wmse_unit_weight():
    # at unit weight the augmented WMSE is the MSE itself
    cfg, draw, sample = random_system(15, m=1)
    p = random_precoder(np.random.default_rng(16), 2, 2, cfg.p_t)
    gw = update_blocks(sample, p)
    ones = np.ones_like(gw.u_c)
    gw1 = EqualizerWeightSet(g_c=gw.g_c, g_p=gw.g_p, u_c=ones, u_p=ones)
    xi_c, xi_p = awmse_values(accumulate_components(sample, gw1), p)
    for u in range(2):
        e_c, e_p = loop_mse(
            sample.realizations[0, :, u], p, gw.g_c[0, u], gw.g_p[0, u], 1.0, u
        )
        assert xi_c[u] == pytest.approx(e_c, rel=1e-10)
        assert xi_p[u] == pytest.approx(e_p, rel=1e-10)


def test_wmse_identity_point():
    # at u = 1/eps the value is 1 - rate; eps=1/2 gives rate 1 bit, and
    # the common layer without power has eps = 1, rate 0
    for eps, want in ((0.5, 0.0), (0.25, 1.0 - 2.0)):
        xi_c, xi_p = _scalar_xi(_private_only(eps))
        assert xi_p == pytest.approx(want, abs=1e-14)
        assert xi_c == 1.0


def test_wmse_identity_general():
    # the terms of xi_p grow like 1/eps and cancel, hence the tolerance
    rng = np.random.default_rng(0)
    for _ in range(100):
        eps = float(rng.uniform(1e-4, 1.0))
        r = -math.log2(eps)
        assert _scalar_xi(_private_only(eps))[1] == pytest.approx(1.0 - r, abs=1e-13 / eps)


def test_wmse_grid_minimum():
    # the exact stationary point of u*eps - log2(u) sits at 1/(eps ln2),
    # a factor 1/ln2 above the inverse-MMSE weight the updates use; the
    # inverse-MMSE choice is what makes the value-identity above exact
    eps = 0.3
    p = _private_only(eps)
    grid = np.linspace(3.0, 6.0, 3001)
    vals = np.array([_scalar_xi(p, u_p=u)[1] for u in grid])
    u_star = grid[np.argmin(vals)]
    assert u_star == pytest.approx(1.0 / (eps * LN2), abs=2e-3)
    # and the identity point sits a fixed constant above the true minimum
    gap = 1.0 - 1.0 / LN2 - math.log2(LN2)
    assert _scalar_xi(p)[1] - vals.min() == pytest.approx(gap, abs=1e-6)


def test_mmse_weights_values():
    # the weights update_blocks sets are the inverse MMSEs: a zero
    # precoder leaves both MMSEs at 1; private power 1 gives eps_p = 1/2,
    # and common power 6 on top eps_c = t_p/t_c = 2/8
    gw = update_blocks(SCALAR, np.zeros((1, 2), dtype=complex))
    assert (gw.u_c[0, 0], gw.u_p[0, 0]) == (1.0, 1.0)
    p = np.array([[np.sqrt(6.0), 1.0]], dtype=complex)
    gw = update_blocks(SCALAR, p)
    assert gw.u_c[0, 0] == pytest.approx(4.0, rel=1e-14)
    assert gw.u_p[0, 0] == 2.0
    assert _scalar_xi(p)[0] == pytest.approx(1.0 - 2.0, rel=1e-14)


def test_mmse_weights_degenerate():
    # an MMSE at or below EPS_FLOOR of its denominator raises: the common
    # one under an overwhelming common power, the private one under an
    # own power 1e304 times the unit noise, with no interference
    with pytest.raises(DegenerateMmse):
        update_blocks(SCALAR, np.array([[1e152, 1.0]], dtype=complex))
    update_blocks(SCALAR, np.array([[1e140, 1.0]], dtype=complex))
    with pytest.raises(DegenerateMmse):
        update_blocks(SCALAR, np.array([[0.0, 1e152]], dtype=complex))
    update_blocks(SCALAR, np.array([[0.0, 1e140]], dtype=complex))


# ---------------------------------------------------------------------------
# update_blocks


def test_update_blocks_scalar_case():
    power = 9.0
    h = np.array([[[2.0 + 0j]]])  # m=1, n_t=1, k=1
    p = np.array([[1.0, 3.0]], dtype=complex)
    gw = update_blocks(MonteCarloSample(realizations=h), p)
    # hand arithmetic: s_c=4, s_p=36, i_p=1, t_p=37, t_c=41
    assert gw.g_p[0, 0] == pytest.approx(6.0 / 37.0, rel=1e-14)
    assert gw.g_c[0, 0] == pytest.approx(2.0 / 41.0, rel=1e-14)
    assert gw.u_p[0, 0] == pytest.approx(37.0 / 1.0, rel=1e-14)
    assert gw.u_c[0, 0] == pytest.approx(41.0 / 37.0, rel=1e-14)
    del power


def test_update_blocks_matches_per_user_closed_forms():
    cfg, draw, sample = random_system(3, n_t=3, k=3, m=8)
    rng = np.random.default_rng(4)
    p = random_precoder(rng, 3, 3, cfg.p_t)
    gw = update_blocks(sample, p)
    for m in range(8):
        for u in range(3):
            h_k = sample.realizations[m, :, u]
            _, _, i_p, t_p, t_c = loop_powers(h_k, p, 1.0, u)
            # g_c = p_c^H h_k / t_c, g_p = p_k^H h_k / t_p
            g_c = complex(p[:, 0].conj() @ h_k) / t_c
            g_p = complex(p[:, u + 1].conj() @ h_k) / t_p
            assert gw.g_c[m, u] == pytest.approx(g_c, rel=1e-12)
            assert gw.g_p[m, u] == pytest.approx(g_p, rel=1e-12)
            assert gw.u_c[m, u] == pytest.approx(t_c / t_p, rel=1e-12)
            assert gw.u_p[m, u] == pytest.approx(t_p / i_p, rel=1e-12)


def test_update_blocks_zero_error_sample_constant_over_m():
    cfg, draw, sample = random_system(5, m=1)
    s = MonteCarloSample(
        realizations=np.broadcast_to(
            draw.h_est, (6,) + draw.h_est.shape
        ).copy()
    )
    rng = np.random.default_rng(6)
    p = random_precoder(rng, 2, 2, cfg.p_t)
    gw = update_blocks(s, p)
    for arr in (gw.g_c, gw.g_p, gw.u_c, gw.u_p):
        assert np.allclose(arr, arr[0][None, :], rtol=1e-14)


def test_update_blocks_weights_positive():
    for seed in range(20):
        cfg, draw, sample = random_system(seed, m=10)
        rng = np.random.default_rng(seed + 1000)
        p = random_precoder(rng, 2, 2, cfg.p_t)
        gw = update_blocks(sample, p)
        assert np.all(gw.u_c > 0)
        assert np.all(gw.u_p > 0)


def test_equalizer_update_descends_at_fixed_weight():
    # replacing any prior equalizer with the MMSE one cannot raise the
    # weighted MSE at a fixed positive weight (exact minimization in g)
    cfg, draw, sample = random_system(7, m=4)
    rng = np.random.default_rng(8)
    p = random_precoder(rng, 2, 2, cfg.p_t)
    gw = update_blocks(sample, p)
    for trial in range(100):
        m = int(rng.integers(4))
        u = int(rng.integers(2))
        h_k = sample.realizations[m, :, u]
        g_c0 = complex(rng.standard_normal() + 1j * rng.standard_normal())
        g_p0 = complex(rng.standard_normal() + 1j * rng.standard_normal())
        w_c = float(rng.uniform(0.1, 10.0))
        w_p = float(rng.uniform(0.1, 10.0))
        e0 = loop_mse(h_k, p, g_c0, g_p0, 1.0, u)
        e1 = loop_mse(h_k, p, gw.g_c[m, u], gw.g_p[m, u], 1.0, u)
        assert loop_wmse(e1[0], w_c) <= loop_wmse(e0[0], w_c) + 1e-12
        assert loop_wmse(e1[1], w_p) <= loop_wmse(e0[1], w_p) + 1e-12


def test_update_blocks_degenerate_noise():
    # the unit noise is negligible against an own power of 1e304
    h = np.ones((1, 1, 1), dtype=complex)
    p = np.array([[1.0, 1e152]], dtype=complex)
    with pytest.raises(DegenerateMmse):
        update_blocks(MonteCarloSample(realizations=h), p)


# ---------------------------------------------------------------------------
# accumulate_components


def test_components_single_realization():
    cfg, draw, sample = random_system(9, m=1)
    rng = np.random.default_rng(10)
    p = random_precoder(rng, 2, 2, cfg.p_t)
    gw = update_blocks(sample, p)
    c = accumulate_components(sample, gw)
    h = sample.realizations[0]
    for u in range(2):
        t_c = gw.u_c[0, u] * abs(gw.g_c[0, u]) ** 2
        hh = np.outer(h[:, u], h[:, u].conj())
        assert np.allclose(c.psi_c[u], t_c * hh, rtol=1e-12, atol=1e-14)
        assert c.t_c[u] == pytest.approx(t_c, rel=1e-12)
        f_c = gw.u_c[0, u] * np.conj(gw.g_c[0, u]) * h[:, u]
        assert np.allclose(c.f_c[u], f_c, rtol=1e-12, atol=1e-14)
        assert c.u_c[u] == pytest.approx(gw.u_c[0, u], rel=1e-14)
        assert c.v_c[u] == pytest.approx(np.log2(gw.u_c[0, u]), rel=1e-12)


def test_components_inert_blocks():
    # unit weights and zero equalizers: everything collapses
    cfg, draw, sample = random_system(11, m=5)
    k = 2
    m = 5
    gw_shape = (m, k)
    gw = EqualizerWeightSet(
        g_c=np.zeros(gw_shape, dtype=complex),
        g_p=np.zeros(gw_shape, dtype=complex),
        u_c=np.ones(gw_shape),
        u_p=np.ones(gw_shape),
    )
    c = accumulate_components(sample, gw)
    assert np.all(c.psi_c == 0) and np.all(c.psi_p == 0)
    assert np.all(c.f_c == 0) and np.all(c.f_p == 0)
    assert np.all(c.t_c == 0) and np.all(c.t_p == 0)
    assert np.all(c.u_c == 1) and np.all(c.u_p == 1)
    assert np.all(c.v_c == 0) and np.all(c.v_p == 0)
    # so the MSE at a zero equalizer is 1 whatever the precoder
    p = random_precoder(np.random.default_rng(12), 2, 2, cfg.p_t)
    for xi in awmse_values(c, p):
        assert np.all(xi == 1.0)


def test_components_against_fsum_oracle():
    # the plain matrix-product sums stay within 1e-12 normwise of the
    # fsum averages over the operating range the AO loop feeds them
    seed = 0
    for n_t in (2, 3, 4):
        for k in range(1, min(n_t, 3) + 1):
            for m in (1, 2, 200, 1000):
                for snr_db in (0.0, 20.0, 40.0, 50.0):
                    seed += 1
                    cfg, draw, sample = random_system(
                        seed, n_t=n_t, k=k, snr_db=snr_db, m=m
                    )
                    rng = np.random.default_rng(seed)
                    p = random_precoder(rng, n_t, k, cfg.p_t)
                    gw = update_blocks(sample, p)
                    c = accumulate_components(sample, gw)
                    want = fsum_components(sample, gw)
                    for name in ("psi_c", "psi_p", "f_c", "f_p", "t_c", "t_p",
                                 "u_c", "u_p", "v_c", "v_p"):
                        got = getattr(c, name)
                        ref = want[name]
                        scale = max(np.max(np.abs(ref)), 1e-30)
                        assert np.max(np.abs(got - ref)) <= 1e-12 * scale, (
                            name, n_t, k, m, snr_db)


def test_components_psd():
    for seed in range(15):
        cfg, draw, sample = random_system(seed + 50, n_t=4, k=3, m=20)
        rng = np.random.default_rng(seed)
        p = random_precoder(rng, 4, 3, cfg.p_t)
        gw = update_blocks(sample, p)
        c = accumulate_components(sample, gw)
        for psi in (c.psi_c, c.psi_p):
            for u in range(3):
                w = np.linalg.eigvalsh(psi[u])
                assert w.min() >= -1e-10
                assert np.array_equal(psi[u], psi[u].conj().T)


def test_components_reject_equalizers_of_another_sample():
    # equalizers of an m = 3 sample do not fit an m = 5 one; the message
    # names the check, since the reshape would fail with a ValueError too
    cfg, _, small = random_system(3, m=3)
    _, _, large = random_system(4, m=5)
    gw = update_blocks(small, random_precoder(np.random.default_rng(3), 2, 2, cfg.p_t))
    with pytest.raises(ValueError, match="does not match"):
        accumulate_components(large, gw)


def _fresh(sample):
    """The same realizations with an empty cache."""
    return MonteCarloSample(realizations=sample.realizations)


def _bytes(components):
    return {name: x.tobytes() for name, x in vars(components).items()}


def _accumulate(sample, p):
    return accumulate_components(sample, update_blocks(sample, p))


def test_read_only_sample_caches():
    cfg, _, a = random_system(81, n_t=3, k=2, snr_db=30.0, m=201)
    _, _, b = random_system(82, n_t=3, k=2, snr_db=30.0, m=201)
    rng = np.random.default_rng(83)
    ps = [random_precoder(rng, 3, 2, cfg.p_t) for _ in range(3)]

    # returned components are not overwritten by the next call
    first = _accumulate(a, ps[0])
    kept = _bytes(first)
    _accumulate(a, ps[1])
    assert _bytes(first) == kept

    # alternating two samples gives the bits of fresh samples
    for p in ps:
        for s in (a, b, a):
            assert _bytes(_accumulate(s, p)) == _bytes(_accumulate(_fresh(s), p))
            assert average_rates(s, p).asr == average_rates(_fresh(s), p).asr

    # a precoder changed in place, or precoders in turn, give the bits
    # of a fresh sample
    p = ps[0].copy()
    assert average_rates(a, p).asr == average_rates(_fresh(a), p).asr
    p[1, 2] *= 1.5
    assert average_rates(a, p).asr == average_rates(_fresh(a), p).asr
    for q in ps + ps[::-1]:
        got = update_blocks(a, q)
        want = update_blocks(_fresh(a), q)
        assert all(getattr(got, f).tobytes() == getattr(want, f).tobytes()
                   for f in ("g_c", "g_p", "u_c", "u_p"))

    # nothing cached can be written through
    for x in (a.realizations, a.stacked, *_batch_powers(a, p)):
        with pytest.raises(ValueError):
            x.flat[0] = 0.0
    # and the sample owns its data: the caller's array stays writable
    # and writing it does not reach the sample
    h = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    s = MonteCarloSample(realizations=h)
    h[0] = 0.0
    assert not np.array_equal(s.realizations[0], h[0])


def test_stacked_runs_keep_their_component_bits():
    # a reduction's blocking can depend on strides: every field of run i
    # of one stacked call has the bits of run i alone
    for r in (2, 5, 10):
        for m in (200, 201, 1000):
            samples, ps = [], []
            for i in range(r):
                cfg, _, sample = random_system(r * m + i, n_t=3, k=2, snr_db=30.0, m=m)
                samples.append(sample)
                ps.append(random_precoder(np.random.default_rng(i), 3, 2, cfg.p_t))
            c = accumulate_components(samples, update_blocks(samples, np.array(ps)))
            for i, (sample, p) in enumerate(zip(samples, ps)):
                alone = _accumulate(sample, p)
                for name, x in vars(alone).items():
                    assert getattr(c, name)[i].tobytes() == x.tobytes(), (r, m, i, name)


# ---------------------------------------------------------------------------
# awmse_values / awsmse_objective


def test_awmse_values_single_realization_exact():
    cfg, draw, sample = random_system(13, m=1)
    rng = np.random.default_rng(14)
    p = random_precoder(rng, 2, 2, cfg.p_t)
    gw = update_blocks(sample, p)
    c = accumulate_components(sample, gw)
    xi_c, xi_p = awmse_values(c, p)
    for u in range(2):
        e_c, e_p = loop_mse(
            sample.realizations[0, :, u], p,
            gw.g_c[0, u], gw.g_p[0, u], 1.0, u,
        )
        assert xi_c[u] == pytest.approx(loop_wmse(e_c, gw.u_c[0, u]), rel=1e-10)
        assert xi_p[u] == pytest.approx(loop_wmse(e_p, gw.u_p[0, u]), rel=1e-10)


def test_awmse_values_equal_mean_of_per_realization():
    for seed in range(8):
        cfg, draw, sample = random_system(seed + 30, n_t=3, k=2, m=25)
        rng = np.random.default_rng(seed)
        p = random_precoder(rng, 3, 2, cfg.p_t)
        gw = update_blocks(sample, p)
        # perturb blocks so the check covers non-MMSE values too
        gw2 = type(gw)(
            g_c=gw.g_c * (1 + 0.1j),
            g_p=gw.g_p * 0.9,
            u_c=gw.u_c * 1.3,
            u_p=gw.u_p * 0.7,
        )
        c = accumulate_components(sample, gw2)
        xi_c, xi_p = awmse_values(c, p)
        for u in range(2):
            want_c = np.mean([
                loop_wmse(
                    loop_mse(sample.realizations[m, :, u], p,
                        gw2.g_c[m, u], gw2.g_p[m, u], 1.0, u)[0],
                    gw2.u_c[m, u],
                )
                for m in range(25)
            ])
            want_p = np.mean([
                loop_wmse(
                    loop_mse(sample.realizations[m, :, u], p,
                        gw2.g_c[m, u], gw2.g_p[m, u], 1.0, u)[1],
                    gw2.u_p[m, u],
                )
                for m in range(25)
            ])
            assert xi_c[u] == pytest.approx(want_c, abs=1e-10)
            assert xi_p[u] == pytest.approx(want_p, abs=1e-10)


def test_rate_wmse_identity_at_updated_blocks():
    # for any precoder, after the block update: xi_c = 1 - mean r_c and
    # xi_p = 1 - mean r_p per user
    for seed in range(10):
        cfg, draw, sample = random_system(seed + 60, n_t=3, k=3, m=40)
        rng = np.random.default_rng(seed)
        p = random_precoder(rng, 3, 3, cfg.p_t)
        gw = update_blocks(sample, p)
        c = accumulate_components(sample, gw)
        xi_c, xi_p = awmse_values(c, p)
        ar = average_rates(sample, p)
        assert np.max(np.abs(xi_c - (1.0 - ar.r_c))) <= 1e-10
        assert np.max(np.abs(xi_p - (1.0 - ar.r_p))) <= 1e-10


def test_objective_shapes():
    assert awsmse_objective(np.array([0.3]), np.array([0.5])) == pytest.approx(0.8)
    assert awsmse_objective(np.array([0.3, 0.7]), np.array([0.1, 0.2])) == (
        pytest.approx(1.0)
    )


def test_objective_equals_kplus1_minus_asr():
    for seed in range(10):
        cfg, draw, sample = random_system(seed + 90, n_t=2, k=2, m=30)
        rng = np.random.default_rng(seed)
        p = random_precoder(rng, 2, 2, cfg.p_t)
        gw = update_blocks(sample, p)
        c = accumulate_components(sample, gw)
        obj = awsmse_objective(*awmse_values(c, p))
        asr = average_rates(sample, p).asr
        assert obj == pytest.approx(3.0 - asr, abs=1e-8)


def test_loop_powers_consistency_with_update():
    # the batch kernel behind update_blocks agrees with the scalar loop
    cfg, draw, sample = random_system(70, m=3)
    rng = np.random.default_rng(71)
    p = random_precoder(rng, 2, 2, cfg.p_t)
    gw = update_blocks(sample, p)
    for m in range(3):
        for u in range(2):
            s_c, s_p, i_p, t_p, t_c = loop_powers(
                sample.realizations[m, :, u], p, 1.0, u
            )
            assert gw.u_p[m, u] == pytest.approx(t_p / i_p, rel=1e-12)
            assert gw.u_c[m, u] == pytest.approx(t_c / t_p, rel=1e-12)
