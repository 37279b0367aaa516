from dataclasses import fields

import numpy as np
import pytest

from conftest import random_system, tiny_cfg
from jmbeam import ao, qcqp
from jmbeam.ao import AoParams, dof_power_split, initialize, run_ao
from jmbeam.channel import CsitConfig, MonteCarloSample
from jmbeam.errors import ConfigError, RankDeficient
from jmbeam.harness import ExperimentConfig, cell_seed, run_convergence, run_single
from jmbeam.linalg import zf_directions
from jmbeam.qcqp import OPTIMAL_TOL, build, solve
from jmbeam.receivers import (
    AwmmseComponents,
    accumulate_components,
    average_rates,
    awmse_values,
    awsmse_objective,
    precoder_power,
    update_blocks,
)


# ---------------------------------------------------------------------------
# dof_power_split


def test_power_split_alpha_one():
    pc, pp = dof_power_split(10.0, 1.0)
    assert pc == 0.0
    assert pp == pytest.approx(10.0, rel=1e-14)


def test_power_split_paper_point():
    pc, pp = dof_power_split(100.0, 0.6)
    assert pc == pytest.approx(100.0 - 100.0 ** 0.6, rel=1e-12)
    assert pc == pytest.approx(84.15, abs=0.01)
    assert pp == pytest.approx(100.0 ** 0.6, rel=1e-12)
    assert pp == pytest.approx(15.85, abs=0.01)


def test_power_split_unit_budget():
    for alpha in (0.0, 0.3, 0.6, 1.0):
        pc, pp = dof_power_split(1.0, alpha)
        assert pc == 0.0
        assert pp == pytest.approx(1.0, rel=1e-14)


def test_power_split_sub_unit_budget_clamped():
    # p_t**alpha would exceed p_t below one; the private pool is capped
    # so the total stays exactly p_t
    pc, pp = dof_power_split(0.5, 0.5)
    assert pc == 0.0
    assert pp == pytest.approx(0.5, rel=1e-14)


def test_power_split_total_conserved():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p_t = float(rng.uniform(0.05, 500.0))
        alpha = float(rng.uniform(0.0, 1.0))
        pc, pp = dof_power_split(p_t, alpha)
        assert pc >= 0.0 and pp > 0.0
        assert pc + pp == pytest.approx(p_t, rel=1e-12)


def test_power_split_validation():
    with pytest.raises(ValueError):
        dof_power_split(0.0, 0.5)
    with pytest.raises(ValueError):
        dof_power_split(1.0, 1.5)
    for p_t, alpha in ((np.inf, 0.6), (np.nan, 0.6), (100.0, np.nan)):
        with pytest.raises(ValueError):
            dof_power_split(p_t, alpha)


# ---------------------------------------------------------------------------
# initialize


def test_initialize_identity_channel_zf_e():
    p = initialize("zf-e", np.eye(2, dtype=complex), 4.0, 0.5)
    assert np.allclose(p[:, 0], [np.sqrt(2.0), 0.0], atol=1e-12)
    assert np.allclose(p[:, 1], [1.0, 0.0], atol=1e-12)
    assert np.allclose(p[:, 2], [0.0, 1.0], atol=1e-12)


def test_initialize_mf_svd_rank_one():
    # both users on e_2: the dominant singular direction is e_2 itself
    h = np.zeros((2, 2), dtype=complex)
    h[1, :] = [1.0, 1.0]
    p = initialize("mf-svd", h, 16.0, 0.5)
    d = p[:, 0] / np.linalg.norm(p[:, 0])
    assert np.allclose(d, [0.0, 1.0], atol=1e-8)


def test_initialize_power_accounting():
    rng = np.random.default_rng(1)
    for scheme in ("zf-svd", "zf-e", "mf-svd", "mf-e"):
        for _ in range(25):
            h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            p_t = float(rng.uniform(0.5, 200.0))
            p = initialize(scheme, h, p_t, 0.6)
            assert precoder_power(p) <= p_t + 1e-10
            assert precoder_power(p) == pytest.approx(p_t, rel=1e-10)


def test_initialize_no_common():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    # the broadcast start is the alpha = 1 split: p_t over the private
    # columns along the zero-forcing directions, none for the common one
    p = initialize("zf-svd", h, 8.0, 1.0)
    assert np.all(p[:, 0] == 0)
    assert precoder_power(p) == pytest.approx(8.0, rel=1e-12)
    assert np.array_equal(p[:, 1:], 2.0 * zf_directions(h))


def test_initialize_case_insensitive():
    h = np.eye(2, dtype=complex)
    a = initialize("ZF-SVD", h, 4.0, 0.5)
    b = initialize("zf-svd", h, 4.0, 0.5)
    assert np.array_equal(a, b)


def test_initialize_zf_rank_deficient():
    h = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)  # rank 1
    with pytest.raises(RankDeficient):
        initialize("zf-svd", h, 4.0, 0.5)
    # matched filtering has no rank requirement
    initialize("mf-e", h, 4.0, 0.5)


def test_initialize_unknown_scheme():
    with pytest.raises(ValueError):
        initialize("svd-zf", np.eye(2, dtype=complex), 4.0, 0.5)


# ---------------------------------------------------------------------------
# AoParams / AoTrace


def test_params_defaults_and_validation():
    p = AoParams()
    assert p.epsilon_r == 1e-3
    assert p.n_max == 200
    with pytest.raises(ValueError):
        AoParams(epsilon_r=0.0)
    with pytest.raises(ValueError):
        AoParams(n_max=0)
    # the start is the caller's (`initialize`), not a loop control
    assert [f.name for f in fields(AoParams)] == ["epsilon_r", "n_max"]
    with pytest.raises(TypeError):
        AoParams(init_scheme="zf-svd")


@pytest.mark.parametrize("field,value", [
    ("epsilon_r", float("inf")),  # every run would stop after one update
    ("epsilon_r", float("nan")),
    ("epsilon_r", True),
    ("epsilon_r", "0.1"),  # a string is not a number, as in the JSON config
    ("epsilon_r", None),
    ("n_max", 2.5),  # the loop would raise TypeError
    ("n_max", True),  # one update, as n_max = 1
    ("n_max", 200.0),
])
def test_params_reject_what_the_experiment_config_rejects(field, value):
    with pytest.raises(ValueError):
        AoParams(**{field: value})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{field: value})


def test_params_take_a_numpy_integer_n_max_that_the_config_rejects():
    # any integer but a bool caps the iterations, as CsitConfig and
    # draw_sample take numpy integers as sizes; the experiment config
    # still rejects one, since meta.json must serialize it
    assert AoParams(n_max=np.int64(5)).n_max == 5
    with pytest.raises(ConfigError, match="^n_max must be a positive integer"):
        ExperimentConfig(n_max=np.int64(5))


def test_trace_csv_round_trip(tmp_path):
    # the trace files run_convergence writes: one row per iteration,
    # numbered from 1, whose floats parse back to the trace's exactly
    traces = run_convergence(tiny_cfg(m=6, n_max=3), out_dir=str(tmp_path))
    for (snr_db, init), tr in traces.items():
        lines = (tmp_path / f"trace_{snr_db:g}_{init}.csv").read_text().splitlines()
        assert lines[0] == "iter,rbar,awsmse_obj,power,solver_status,solver_iters"
        assert len(lines) == 1 + len(tr) >= 2
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == i + 1
            # repr round-trip, no loss
            assert float(cells[1]) == tr.rbar[i]
            assert float(cells[2]) == tr.awsmse_obj[i]
            assert float(cells[3]) == tr.power[i]
            assert cells[4] == tr.solver_status[i] == "Optimal"
            assert int(cells[5]) == tr.solver_iters[i]


# ---------------------------------------------------------------------------
# run_ao


def _zf_svd(h_est, csit, alpha=None):
    """The 'zf-svd' start at csit's budget and at csit's alpha unless given."""
    return initialize("zf-svd", h_est, csit.p_t, csit.alpha if alpha is None else alpha)


def _scalar_setup(p_t=10.0):
    cfg = CsitConfig(n_t=1, k=1, alpha=1.0, p_t=p_t)
    h_est = np.array([[1.0 + 0j]])
    sample = MonteCarloSample(realizations=h_est[None, :, :].copy())
    return cfg, h_est, sample


def test_scalar_capacity():
    # perfect CSIT, one antenna, one user: the optimum is full-power
    # transmission at rate log2(1 + p_t)
    cfg, h_est, sample = _scalar_setup(10.0)
    p, trace = run_ao(_zf_svd(h_est, cfg), sample, cfg.p_t, AoParams(epsilon_r=1e-6))
    asr = average_rates(sample, p).asr
    assert asr == pytest.approx(np.log2(11.0), abs=1e-4)
    assert precoder_power(p) == pytest.approx(10.0, abs=1e-6)
    assert trace.stop_reason == "converged"


def test_huge_epsilon_runs_one_iteration():
    cfg, h_est, sample = _scalar_setup()
    p, trace = run_ao(_zf_svd(h_est, cfg), sample, cfg.p_t, AoParams(epsilon_r=1e3))
    assert len(trace) == 1
    assert trace.stop_reason == "converged"


def test_n_max_one():
    cfg, h_est, sample = _scalar_setup()
    p, trace = run_ao(_zf_svd(h_est, cfg), sample, cfg.p_t,
                      AoParams(epsilon_r=1e-12, n_max=1))
    assert len(trace) == 1
    assert trace.stop_reason == "n_max"


def test_an_n_max_run_keeps_the_better_of_its_last_update_and_extrapolation(monkeypatch):
    # the desk BC-AWSMSE run at 30 dB on channel 0, cut at n_max = 30: its
    # last update is extrapolated, no further update settles the
    # extrapolation, and that point rates higher, so it is the result
    def recording_solve(q, **kw):
        sol = yield from solve_steps(q, **kw)
        stars.append(sol.p_star)
        return sol

    seed = cell_seed(12345, 0.6, 30.0, 0)
    cfg, draw, sample = random_system(seed, snr_db=30.0, m=200)
    stars, solve_steps = [], qcqp.solve_steps
    monkeypatch.setattr(qcqp, "solve_steps", recording_solve)
    p, trace = run_ao(_zf_svd(draw.h_est, cfg, 1.0), sample, cfg.p_t, AoParams(n_max=30))
    assert trace.stop_reason == "n_max"
    assert len(stars) == len(trace) == 30
    assert not np.array_equal(p, stars[-1])
    asr, asr_last = average_rates(sample, p).asr, average_rates(sample, stars[-1]).asr
    assert asr > asr_last  # 7.782 against 7.159


def test_descent_and_audit_identity(monkeypatch):
    def audited(items):
        # at every block update, the rbar read off the averaged log-weights
        # is the sample-average sum rate at the precoder it started from:
        # the extrapolated one if it was kept
        out = updates(items)
        for (sample, p, p_try, _), (_, rbar, tried) in zip(items, out):
            asr = average_rates(sample, p_try if tried else p).asr
            assert abs(rbar - asr) <= 1e-12 * max(1.0, asr)
        audits.append(len(out))
        return out

    updates = ao._updates
    audited.rank = updates.rank
    monkeypatch.setattr(ao, "_updates", audited)
    for seed in (0, 1, 2):
        cfg, draw, sample = random_system(seed, snr_db=20.0, m=20)
        audits = []
        p, trace = run_ao(_zf_svd(draw.h_est, cfg), sample, cfg.p_t, AoParams())
        assert sum(audits) == len(trace)
        obj = np.array(trace.awsmse_obj)
        assert np.all(np.diff(obj) <= 1e-7)
        assert all(s == "Optimal" for s in trace.solver_status)
        assert all(pw <= cfg.p_t + 1e-9 for pw in trace.power)
        assert trace.stop_reason == "converged"


def test_bc_mode_common_column_stays_zero():
    cfg, draw, sample = random_system(5, snr_db=20.0, m=15)
    p, trace = run_ao(_zf_svd(draw.h_est, cfg, 1.0), sample, cfg.p_t, AoParams())
    assert np.all(p[:, 0] == 0)
    obj = np.array(trace.awsmse_obj)
    assert np.all(np.diff(obj) <= 1e-7)


def test_bc_run_is_the_alpha_one_joint_run(monkeypatch):
    # the broadcast run is the joint machinery at alpha = 1: at every
    # update the common column is exactly zero and build poses the
    # broadcast form, and the traced objective is the true averaged
    # WSMSE, the silent common layer's constant included, as for a joint
    # run. The 20 dB run takes 37 updates, so extrapolated precoders are
    # checked too
    for seed, snr_db in ((5, 20.0), (6, 30.0), (7, 40.0)):
        cfg, draw, sample = random_system(seed, snr_db=snr_db, m=15)
        steps = []

        def blocks(items):
            # the block update server, one item (sample, p, p_try, p_t) per
            # run
            assert all(np.all(x[:, 0] == 0) for it in items for x in it[1:3] if x is not None)
            return updates(items)

        def recording_build(comps, *args, **kw):
            (q,) = build(comps, *args, **kw)  # the one run of the batch
            steps.append((_run_of(comps, 0), q))
            return [q]

        def recording_solve(q, **kw):
            sol = yield from solve_steps(q, **kw)
            steps[-1] += (sol,)
            return sol

        updates, solve_steps = ao._updates, qcqp.solve_steps
        with monkeypatch.context() as m:
            m.setattr(ao, "_updates", blocks)
            m.setattr(qcqp, "build", recording_build)
            m.setattr(qcqp, "solve_steps", recording_solve)
            p, trace = run_ao(_zf_svd(draw.h_est, cfg, 1.0), sample, cfg.p_t, AoParams())
        assert len(steps) == len(trace) > 1
        assert np.all(p[:, 0] == 0)
        for (comps, q, sol), obj in zip(steps, trace.awsmse_obj):
            assert not q.include_common
            assert np.all(sol.p_star[:, 0] == 0)
            want = awsmse_objective(*awmse_values(comps, sol.p_star))
            assert obj == pytest.approx(want, rel=1e-12)
        # and it is the harness's BC-AWSMSE run on this channel, bit for bit
        p_1, _, trace_1 = run_single(
            tiny_cfg(m=15, epsilon_r=1e-3, n_max=200), "BC-AWSMSE", snr_db, cfg.alpha, seed
        )
        assert np.array_equal(p, p_1)
        assert trace_1.awsmse_obj == trace.awsmse_obj
        assert trace_1.rbar == trace.rbar


def _run_of(comps, r):
    """Run r's components from components with a leading run axis."""
    return AwmmseComponents(**{f: getattr(comps, f)[r] for f in vars(comps)})


def test_stationarity_at_convergence():
    # one extra block update + solve moves the objective by at most the
    # stopping threshold (geometric tail of the descent)
    cfg, draw, sample = random_system(8, snr_db=15.0, m=15)
    params = AoParams()
    p, trace = run_ao(_zf_svd(draw.h_est, cfg), sample, cfg.p_t, params)
    assert trace.stop_reason == "converged"
    gw = update_blocks(sample, p)
    comps = accumulate_components(sample, gw)
    q = build(comps, cfg.p_t)
    sol = solve(q, warm=p)
    extra = sol.objective + q.omitted_constant
    last = trace.awsmse_obj[-1]
    assert extra <= last + 1e-9
    assert last - extra <= max(params.epsilon_r, 10 * OPTIMAL_TOL) + 1e-9


def test_higher_snr_needs_more_iterations():
    cfg_lo, draw_lo, sample_lo = random_system(9, snr_db=5.0, m=15)
    cfg_hi, draw_hi, sample_hi = random_system(9, snr_db=30.0, m=15)
    _, tr_lo = run_ao(_zf_svd(draw_lo.h_est, cfg_lo), sample_lo, cfg_lo.p_t, AoParams())
    _, tr_hi = run_ao(_zf_svd(draw_hi.h_est, cfg_hi), sample_hi, cfg_hi.p_t, AoParams())
    assert len(tr_hi) > len(tr_lo)


def test_extrapolation_converges_where_plain_loop_crawls(monkeypatch):
    # desk cell BC-AWSMSE at 30 dB, channel 0: the plain loop stops at
    # n_max still gaining about 0.4 bit per 50 iterations; it converges
    # to 10.843 only after 933 iterations
    seed = cell_seed(12345, 0.6, 30.0, 0)
    cfg, draw, sample = random_system(seed, snr_db=30.0, m=200)
    with monkeypatch.context() as m:
        m.setattr(ao, "EXTRAPOLATE_FROM", 201)
        p, trace = run_ao(_zf_svd(draw.h_est, cfg, 1.0), sample, cfg.p_t, AoParams())
    assert trace.stop_reason == "n_max"
    assert trace.rbar[-1] - trace.rbar[-51] > 0.3
    assert average_rates(sample, p).asr < 8.8

    p, trace = run_ao(_zf_svd(draw.h_est, cfg, 1.0), sample, cfg.p_t, AoParams())
    assert trace.stop_reason == "converged" and len(trace) < 100
    assert average_rates(sample, p).asr > 10.8
    assert np.all(np.diff(trace.awsmse_obj) <= 1e-7)
