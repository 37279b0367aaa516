import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from _oracles import oracle_primal_value, qcqp_cone_oracle, qcqp_dual_oracle
from conftest import random_precoder, random_system, tiny_cfg
from jmbeam import qcqp
from jmbeam.errors import NotPsd, NumericalBreakdown
from jmbeam.harness import cell_seed, run_single
from jmbeam.qcqp import (
    QcqpProblem,
    QcqpSolution,
    build,
    constraint_values,
    kkt_residual,
    solve,
)
from jmbeam.receivers import (
    AwmmseComponents,
    accumulate_components,
    awmse_values,
    awsmse_objective,
    precoder_power,
    update_blocks,
)


def problem_from_seed(seed, n_t=2, k=2, snr_db=20.0, m=20, common=True):
    """(problem, sample, precoder) at a random precoder; common = False
    zeroes its common column, so build poses the broadcast form."""
    cfg, draw, sample = random_system(seed, n_t=n_t, k=k, snr_db=snr_db, m=m)
    rng = np.random.default_rng(seed + 5000)
    p = random_precoder(rng, n_t, k, cfg.p_t)
    if not common:
        p[:, 0] = 0.0
    gw = update_blocks(sample, p)
    c = accumulate_components(sample, gw)
    return build(c, cfg.p_t), sample, p


def _trivial_components(k, n_t, psi_scale=1.0, f_c=None, common=True):
    """Identity quadratics, selectable linear terms, zero constants;
    common = False zeroes psi_c, which with the default zero f_c is the
    broadcast form."""
    eye = np.broadcast_to(psi_scale * np.eye(n_t), (k, n_t, n_t)).copy()
    z = np.zeros((k, n_t), dtype=complex)
    return AwmmseComponents(
        psi_c=eye.astype(complex) if common else np.zeros_like(eye, dtype=complex),
        psi_p=eye.astype(complex),
        t_c=np.zeros(k),
        t_p=np.zeros(k),
        f_c=z if f_c is None else f_c,
        f_p=z.copy(),
        u_c=np.ones(k),
        u_p=np.ones(k),
        v_c=np.zeros(k),
        v_p=np.zeros(k),
    )


# ---------------------------------------------------------------------------
# build


def test_build_shapes_and_constants():
    q, sample, p = problem_from_seed(0)
    assert q.psi_obj.shape == (2, 2)
    assert q.f_obj.shape == (2, 2)
    assert q.psi_con.shape == (2, 2, 2)
    assert q.con_const.shape == (2,)
    assert np.isfinite(q.omitted_constant)
    gw = update_blocks(sample, p)
    c = accumulate_components(sample, gw)
    assert np.allclose(q.psi_obj, c.psi_p.sum(axis=0))
    want_const = 1.0 * c.t_c + c.u_c - c.v_c
    assert np.allclose(q.con_const, want_const)
    assert q.omitted_constant == pytest.approx(
        float(np.sum(1.0 * c.t_p + c.u_p - c.v_p)), rel=1e-12
    )


def test_build_trivial_ridge_minimizer_is_zero():
    # identity quadratics, no linear pull: P = 0 is optimal and xi_c sits
    # at the constraint constant (here 1.0 from u_c)
    c = _trivial_components(1, 2)
    q = build(c, 4.0)
    sol = solve(q)
    assert sol.status == "Optimal"
    assert np.linalg.norm(sol.p_star) <= 1e-4
    assert sol.xi_c_star == pytest.approx(1.0, abs=1e-6)
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


def test_build_objective_cross_module_identity():
    # for any feasible P: problem objective + omitted constant equals the
    # AWSMSE assembled from the same components
    for seed in range(12):
        q, sample, p0 = problem_from_seed(seed, n_t=3, k=2, m=15)
        gw = update_blocks(sample, p0)
        c = accumulate_components(sample, gw)
        rng = np.random.default_rng(seed + 9000)
        p = random_precoder(rng, 3, 2, q.p_t, power_fraction=0.8)
        xi_c, xi_p = awmse_values(c, p)
        want = awsmse_objective(xi_c, xi_p)
        got = oracle_primal_value(q, p) + q.omitted_constant
        assert got == pytest.approx(want, abs=1e-10)
        # and the constraint lhs values are exactly the common AWMSEs
        assert np.allclose(constraint_values(q, p), xi_c, atol=1e-10)


def test_build_no_common_variant():
    # the private components do not read the common column, so zeroing
    # it leaves the objective's data bit for bit and only drops the
    # common column and its constraints
    q, _, _ = problem_from_seed(3, common=False)
    full, _, _ = problem_from_seed(3)
    assert not q.include_common and full.include_common
    assert np.array_equal(q.psi_obj, full.psi_obj)
    assert np.array_equal(q.f_obj, full.f_obj)
    sol = solve(q)
    assert np.all(sol.p_star[:, 0] == 0)
    assert sol.mu.size == 0


def test_broadcast_form_is_data():
    # without common power the problem is the joint one with no common
    # constraints: zero-length common arrays, and no stored form flag
    q, _, _ = problem_from_seed(3, n_t=3, k=2, common=False)
    assert q.psi_con.shape == (0, 3, 3)
    assert q.f_con.shape == (0, 3)
    assert q.con_const.shape == (0,)
    assert not q.include_common
    names = {f.name for f in fields(QcqpProblem)}
    assert "include_common" not in names and "sigma_n2" not in names
    sol = solve(q)
    cons = constraint_values(q, sol.p_star)
    assert isinstance(cons, np.ndarray) and cons.shape == (0,)
    assert sol.xi_c_star == 0.0
    assert kkt_residual(q, sol) == sol.kkt_residual <= qcqp.WARM_TOL


# ---------------------------------------------------------------------------
# solve: analytic cases


def test_solve_pure_power_min():
    # min ||p||^2 with no linear term and slack power: p = 0
    c = _trivial_components(2, 2, common=False)
    q = build(c, 10.0)
    assert not q.include_common
    sol = solve(q)
    assert sol.status == "Optimal"
    assert np.linalg.norm(sol.p_star) <= 1e-4
    assert abs(sol.objective) <= 1e-6


def test_solve_unconstrained_stationarity():
    # huge budget: private columns satisfy psi_obj p_k = f_obj[k]
    rng = np.random.default_rng(10)
    k, n_t = 2, 3
    c = _trivial_components(k, n_t, psi_scale=2.0, common=False)
    f_p = rng.standard_normal((k, n_t)) + 1j * rng.standard_normal((k, n_t))
    c = AwmmseComponents(
        psi_c=c.psi_c, psi_p=c.psi_p, t_c=c.t_c, t_p=c.t_p,
        f_c=c.f_c, f_p=f_p, u_c=c.u_c, u_p=c.u_p, v_c=c.v_c, v_p=c.v_p,
    )
    q = build(c, 1e6)
    assert not q.include_common
    sol = solve(q)
    assert sol.status == "Optimal"
    psi_sum = 2.0 * k * np.eye(n_t)  # build sums the per-user psi_p
    for j in range(k):
        resid = psi_sum @ sol.p_star[:, j + 1] - f_p[j]
        assert np.linalg.norm(resid) <= 1e-6 * (1 + np.linalg.norm(f_p[j]))


def test_solve_power_cap_scaling():
    # same pull, tight budget: solution saturates the ball
    rng = np.random.default_rng(11)
    k, n_t = 2, 2
    f_p = 5.0 * (rng.standard_normal((k, n_t)) + 1j * rng.standard_normal((k, n_t)))
    base = _trivial_components(k, n_t, common=False)
    c = AwmmseComponents(
        psi_c=base.psi_c, psi_p=base.psi_p, t_c=base.t_c, t_p=base.t_p,
        f_c=base.f_c, f_p=f_p, u_c=base.u_c, u_p=base.u_p,
        v_c=base.v_c, v_p=base.v_p,
    )
    q = build(c, 0.5)
    assert not q.include_common
    sol = solve(q)
    assert sol.status == "Optimal"
    assert precoder_power(sol.p_star) == pytest.approx(0.5, abs=1e-6)
    assert sol.mu_pow > 1e-3


# ---------------------------------------------------------------------------
# solve: feasibility and KKT invariants


def test_solutions_feasible_and_certified():
    for seed in range(25):
        snr = [0.0, 10.0, 20.0, 30.0][seed % 4]
        q, _, warm = problem_from_seed(seed, snr_db=snr)
        sol = solve(q)
        assert sol.status == "Optimal"
        assert sol.kkt_residual <= 1e-8
        assert precoder_power(sol.p_star) <= q.p_t + 1e-9
        cons = constraint_values(q, sol.p_star)
        assert np.max(cons) <= sol.xi_c_star + 1e-8 * (1 + abs(sol.xi_c_star))
        # multipliers: simplex over constraints, nonneg power price
        assert np.sum(sol.mu) == pytest.approx(1.0, abs=1e-7)
        assert np.min(sol.mu) >= -1e-10
        assert sol.mu_pow >= -1e-10


def test_polish_reaches_round_off():
    # the checks above allow 1e-8; the face Newton must reach round-off
    for seed in range(25):
        snr = [0.0, 10.0, 20.0, 30.0][seed % 4]
        for common in (True, False):
            q, _, _ = problem_from_seed(seed, snr_db=snr, common=common)
            assert q.include_common == common
            assert solve(q).kkt_residual <= 1e-13, (seed, snr, common)
    # 0 dB without common power: the common components vanish and every
    # common constraint is a constant, so build drops them and solves the
    # broadcast problem
    cfg, draw, sample = random_system(3, snr_db=0.0, m=20)
    p = random_precoder(np.random.default_rng(3), 2, 2, cfg.p_t)
    p[:, 0] = 0.0
    c = accumulate_components(sample, update_blocks(sample, p))
    q = build(c, cfg.p_t)
    sol = solve(q, warm=p)
    assert not q.include_common
    assert np.all(sol.p_star[:, 0] == 0) and sol.mu.size == 0
    assert sol.kkt_residual <= 1e-13
    # the largest constant, the optimal xi_c, moved into the omitted
    # constant: objective plus omitted constant is still the AWSMSE
    want = awsmse_objective(*awmse_values(c, sol.p_star))
    assert sol.objective + q.omitted_constant == pytest.approx(want, rel=1e-13)
    # a warm start of the full problem's size does not fit and is ignored
    assert np.array_equal(solve(q, warm_dual=(np.full(2, 0.5), 1.0)).p_star, sol.p_star)


def _ao_solves(monkeypatch, scheme, snr_db, alpha=0.6, **over):
    """(problem, solution) of every precoder update of one AO run:
    tiny_cfg at m=200, channel 0, with `over` overriding its fields."""
    cfg = tiny_cfg(schemes=(scheme,), snr_db=(snr_db,), m=200, **over)
    out = []

    def recording_solve(q, **kw):
        sol = yield from solve_steps(q, **kw)
        out.append((q, sol))
        return sol

    solve_steps = qcqp.solve_steps
    monkeypatch.setattr(qcqp, "solve_steps", recording_solve)
    run_single(cfg, scheme, snr_db, alpha, cell_seed(cfg.master_seed, alpha, snr_db, 0))
    monkeypatch.undo()
    return out


def test_no_common_power_solves_as_broadcast(monkeypatch):
    # at alpha = 1 the DoF start gives the common column no power, so its
    # components vanish and the JMB run is the broadcast run: every solve
    # certifies in a few Newton steps instead of running into the cap
    solves = _ao_solves(monkeypatch, "JMB-AWSMSE", 50.0, alpha=1.0, n_t=3, k=3)
    assert solves
    for q, sol in solves:
        assert not q.include_common
        assert sol.status == "Optimal" and sol.kkt_residual <= qcqp.WARM_TOL
        assert sol.iterations <= 3
    cfg = tiny_cfg(n_t=3, k=3, m=200)
    for snr_db, alpha in ((50.0, 1.0), (0.0, 0.6)):
        seed = cell_seed(cfg.master_seed, alpha, snr_db, 0)
        p_jmb, sr_jmb, _ = run_single(cfg, "JMB-AWSMSE", snr_db, alpha, seed)
        p_bc, sr_bc, _ = run_single(cfg, "BC-AWSMSE", snr_db, alpha, seed)
        assert np.array_equal(p_jmb, p_bc) and sr_jmb == sr_bc


def _count_restarts(monkeypatch):
    """The starts of every face Newton run from here on; a solve that
    needs more than its first start restarts."""
    starts = []

    def counted(q, z):
        starts.append(z.copy())
        return face_newton(q, z)

    face_newton = qcqp._face_newton
    monkeypatch.setattr(qcqp, "_face_newton", counted)
    return starts


def test_weakly_active_budget_reaches_round_off(monkeypatch):
    # AO iteration 16: the budget binds with a multiplier of a few 1e-7,
    # so a start near it does not tell whether it is active; a face
    # Newton that does not add the budget back stops near 1e-6
    q, _ = _ao_solves(monkeypatch, "BC-AWSMSE", 20.0)[15]
    sol = solve(q)
    assert 0.0 < sol.mu_pow < 1e-5
    assert sol.kkt_residual <= 1e-13
    # started with the budget pinned, the face Newton must add it back
    # without a restart
    starts = _count_restarts(monkeypatch)
    sol = solve(q, warm_dual=(np.empty(0), 0.0))
    assert len(starts) == 1
    assert 0.0 < sol.mu_pow < 1e-5
    assert sol.kkt_residual <= 1e-13


@pytest.mark.parametrize("scheme", ["JMB-AWSMSE", "BC-AWSMSE"])
@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
def test_warm_dual_start_matches_cold_solve(monkeypatch, scheme, snr_db):
    # each update started from the previous update's multipliers: no
    # restart, and the cold solve's point
    solves = _ao_solves(monkeypatch, scheme, snr_db)
    assert len(solves) >= 2
    starts = _count_restarts(monkeypatch)
    for (_, prev), (q, _) in zip(solves, solves[1:]):
        warm = solve(q, warm_dual=(prev.mu, prev.mu_pow))
        assert len(starts) == 1
        cold = solve(q)
        assert warm.status == "Optimal" and warm.kkt_residual <= 1e-13
        assert cold.status == "Optimal" and cold.kkt_residual <= qcqp.WARM_TOL
        scale = 1.0 + np.abs(cold.p_star).max()
        assert np.abs(warm.p_star - cold.p_star).max() <= 1e-12 * scale
        assert abs(warm.objective - cold.objective) <= 1e-12 * (1.0 + abs(cold.objective))
        # the constraint values round at about 1e-12 at 40 dB (terms near
        # p_t cancel), and the multipliers inherit that
        assert np.allclose(warm.mu, cold.mu, rtol=0.0, atol=1e-10)
        assert abs(warm.mu_pow - cold.mu_pow) <= 1e-10 * (1.0 + cold.mu_pow)
        starts.clear()


@pytest.mark.parametrize(
    "mu, mu_pow",
    [
        ([np.nan, 0.5], 0.0),
        ([0.5, 0.5], -1.0),
        ([0.5, 0.5], 1e307),  # mu_pow * p_t overflows
        ([0.5, 0.5], 1e200),  # P underflows and the face Newton cannot move
    ],
    ids=["nan", "negative", "overflow", "flat"],
)
def test_bad_warm_dual_start_falls_back(monkeypatch, mu, mu_pow):
    # the kept result comes from the cold start, z = (1/K, ..., 1/K, 1)
    q, _, _ = problem_from_seed(4, snr_db=20.0)
    cold = solve(q)
    starts = _count_restarts(monkeypatch)
    sol = solve(q, warm_dual=(np.array(mu), mu_pow))
    assert np.array_equal(starts[-1], [0.5, 0.5, 1.0])
    assert sol.status == "Optimal" and sol.kkt_residual <= 1e-13
    assert np.array_equal(sol.p_star, cold.p_star)
    assert np.array_equal(sol.mu, cold.mu) and sol.mu_pow == cold.mu_pow


def test_uncertified_solve_returns_best_start(monkeypatch):
    # with no start certified (WARM_TOL = 0) every start runs, their
    # steps add up, and the best result is returned within the budget,
    # Optimal at OPTIMAL_TOL and MaxIter with OPTIMAL_TOL below its
    # residual
    q, _, _ = problem_from_seed(4, snr_db=20.0)
    monkeypatch.setattr(qcqp, "WARM_TOL", 0.0)
    steps = []
    face_newton = qcqp._face_newton

    def counted(q, z):
        fin = yield from face_newton(q, z)
        steps.append(fin[-1])
        return fin

    monkeypatch.setattr(qcqp, "_face_newton", counted)
    sol = solve(q)
    assert len(steps) == 2 and sol.iterations == sum(steps)
    assert sol.status == "Optimal" and 0.0 < sol.kkt_residual <= 1e-13
    assert precoder_power(sol.p_star) <= q.p_t
    monkeypatch.setattr(qcqp, "OPTIMAL_TOL", 0.5 * sol.kkt_residual)
    assert solve(q).status == "MaxIter"


def test_dual_not_finite_at_any_start_raises():
    # the private columns M^-1 f_obj of every start overflow the power
    # sum, so no start yields a face result to fall back on
    q = QcqpProblem(
        n_t=2,
        k=2,
        p_t=1.0,
        psi_obj=np.eye(2, dtype=complex),
        f_obj=np.full((2, 2), 1e200, dtype=complex),
        psi_con=np.zeros((0, 2, 2), dtype=complex),
        f_con=np.zeros((0, 2), dtype=complex),
        con_const=np.zeros(0),
        omitted_constant=0.0,
    )
    with pytest.raises(NumericalBreakdown):
        solve(q)


def test_duals_decides_a_non_finite_item_in_the_stacked_pass():
    # the overflowing problem above, stacked with a normal one of either
    # form: it gets None, the other the bits it gets alone, and no
    # warning escapes the stacked arithmetic on the overflowing item
    bad = QcqpProblem(
        n_t=2, k=2, p_t=1.0, psi_obj=np.eye(2, dtype=complex),
        f_obj=np.full((2, 2), 1e200, dtype=complex),
        psi_con=np.zeros((0, 2, 2), dtype=complex), f_con=np.zeros((0, 2), dtype=complex),
        con_const=np.zeros(0), omitted_constant=0.0,
    )
    for common in (True, False):
        q, _, _ = problem_from_seed(3, common=common)
        z = np.full(q.con_const.size + 1, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev, none = qcqp._duals([(q, z), (bad, np.ones(1))])
            (alone,) = qcqp._duals([(q, z)])
        assert none is None
        assert ev[0] == alone[0]
        for got, want in zip(ev[1:], alone[1:]):
            assert np.array_equal(got, want)


def test_model_step_ends_with_none_on_a_step_that_is_not_finite():
    # driven by hand: the first face system goes to `_eqps`, and its
    # answer, a step with an inf, ends the active-set loop with no point
    steps = qcqp._model_step(np.array([0.5, 0.5, 1.0]), np.zeros(3), np.eye(3))
    server, _ = next(steps)
    assert server is qcqp._eqps
    with pytest.raises(StopIteration) as end:
        steps.send(([0.0, float("inf"), 0.0], 0.0))
    assert end.value.value is None


def test_incumbent_fallback_returns_the_warm_point():
    # solved cold, no start certifies this one-realization problem (its
    # residual is 2.0e-3, 1.3e-3 above the cone oracle's objective); the
    # oracle's point has the lower objective, so a solve started there
    # returns it as it is, with the residual kkt_residual gives
    q, _, _ = problem_from_seed(14, n_t=3, k=2, snr_db=30.0, m=1)
    cold = solve(q)
    assert cold.status == "MaxIter"
    assert cold.kkt_residual > 1e-3
    warm = qcqp_cone_oracle(q)["p"]
    sol = solve(q, warm=warm)
    assert np.array_equal(sol.p_star, warm) and sol.p_star is not warm
    assert sol.objective < cold.objective
    assert sol.objective == pytest.approx(oracle_primal_value(q, warm), abs=1e-9)
    assert sol.objective == pytest.approx(-224.3312, abs=1e-3)
    assert sol.status == "MaxIter"
    assert sol.kkt_residual == kkt_residual(q, sol)


def test_kkt_residual_increases_under_perturbation():
    q, _, _ = problem_from_seed(7)
    sol = solve(q)
    base = kkt_residual(q, sol)
    rng = np.random.default_rng(70)
    bumped = 0
    for _ in range(10):
        d = rng.standard_normal(sol.p_star.shape) + 1j * rng.standard_normal(
            sol.p_star.shape
        )
        p2 = sol.p_star + 1e-3 * d / np.linalg.norm(d)
        if precoder_power(p2) > q.p_t:
            p2 *= np.sqrt(q.p_t / precoder_power(p2))
        s2 = QcqpSolution(
            p_star=p2,
            xi_c_star=float(np.max(constraint_values(q, p2))),
            objective=0.0, kkt_residual=np.inf, iterations=0,
            status="Optimal", mu=sol.mu, mu_pow=sol.mu_pow,
        )
        if kkt_residual(q, s2) > 10 * max(base, 1e-12):
            bumped += 1
    assert bumped >= 8


def test_monotone_embedding():
    # warm-started solves never return worse than the incumbent
    for seed in range(10):
        q, _, warm = problem_from_seed(seed + 40, snr_db=25.0)
        warm = warm * np.sqrt(0.9)  # strictly feasible incumbent
        obj_w = oracle_primal_value(q, warm)
        sol = solve(q, warm=warm)
        assert sol.objective <= obj_w + 1e-12 * (1 + abs(obj_w))


def test_solve_oracle_cross_check():
    # projected-ascent dual oracle with a duality-gap certificate
    for seed in range(12):
        snr = [5.0, 15.0, 25.0][seed % 3]
        q, _, _ = problem_from_seed(seed + 100, snr_db=snr)
        sol = solve(q)
        ora = qcqp_dual_oracle(q, n_starts=8, seed=seed)
        ref = ora["objective"]
        assert ora["gap"] <= 1e-6 * (1 + abs(ref))
        assert sol.objective <= ref + 1e-5 * (1 + abs(ref))
        assert sol.objective >= ora["dual"] - 1e-6 * (1 + abs(ref))
        # oracle's primal evaluator agrees with the module's
        assert oracle_primal_value(q, sol.p_star) == pytest.approx(sol.objective, abs=1e-9)


def test_solve_bc_mode_oracle_cross_check():
    for seed in range(6):
        q, _, _ = problem_from_seed(seed + 200, snr_db=15.0, common=False)
        assert not q.include_common
        sol = solve(q)
        ora = qcqp_dual_oracle(q, n_starts=6, seed=seed)
        ref = ora["objective"]
        assert ora["gap"] <= 1e-6 * (1 + abs(ref))
        assert abs(sol.objective - ref) <= 1e-5 * (1 + abs(ref))


def test_solve_matches_cone_oracle():
    # the cold-started cone interior-point route on the oracle seeds
    cases = [(seed + 100, [5.0, 15.0, 25.0][seed % 3], True) for seed in range(12)]
    cases += [(seed + 200, 15.0, False) for seed in range(6)]
    for seed, snr, common in cases:
        q, _, _ = problem_from_seed(seed, snr_db=snr, common=common)
        assert q.include_common == common
        sol = solve(q)
        ora = qcqp_cone_oracle(q)
        assert ora["status"] == "optimal"
        ref = ora["objective"]
        assert abs(sol.objective - ref) <= 1e-7 * (1 + abs(ref))
        assert sol.kkt_residual <= 1e-8


@pytest.mark.parametrize("field", ["psi_obj", "psi_con"])
def test_solve_rejects_indefinite_component(field):
    # convexity guard: a component with eigenvalue -1 raises, not solves,
    # at every place of the stack the guard factors in one call
    q, _, _ = problem_from_seed(2)
    bad = np.diag([1.0, -1.0]).astype(complex)
    if field == "psi_obj":
        cases = [bad]
    else:
        cases = []
        for u in range(q.k):
            psi = q.psi_con.copy()
            psi[u] = bad
            cases.append(psi)
    for value in cases:
        with pytest.raises(NotPsd):
            solve(replace(q, **{field: value}))


def test_solve_rejects_non_finite_component():
    # a NaN entry or an inf diagonal fails the guard instead of passing it
    q, _, _ = problem_from_seed(2)
    nan_entry = q.psi_obj.copy()
    nan_entry[1, 0] = nan_entry[0, 1] = np.nan
    for bad in (nan_entry, q.psi_obj + np.diag([np.inf, 0.0])):
        with pytest.raises(NotPsd):
            solve(replace(q, psi_obj=bad))


def test_build_guards_every_problem_in_one_stacked_call(monkeypatch):
    # the convexity guard runs in build: one cholesky_psd call over the
    # psi_obj of every run and the psi_con of the joint runs only, since
    # a broadcast psi_c is exactly zero and cannot fail the guard
    forms = (True, False, True, False)
    runs = []
    for seed, common in enumerate(forms):
        cfg, _, sample = random_system(seed)
        p = random_precoder(np.random.default_rng(seed), 2, 2, cfg.p_t)
        if not common:
            p[:, 0] = 0.0
        runs.append(vars(accumulate_components(sample, update_blocks(sample, p))))
    comps = {x: np.stack([c[x] for c in runs]) for x in runs[0]}
    seen = []
    with monkeypatch.context() as m:
        m.setattr(qcqp, "cholesky_psd", lambda a: seen.append(a.copy()))
        problems = build(AwmmseComponents(**comps), 100.0)
    assert tuple(q.include_common for q in problems) == forms
    (stack,) = seen
    assert len(stack) == len(forms) + problems[0].k * sum(forms)
    want = [q.psi_obj for q in problems] + [psi for q in problems for psi in q.psi_con]
    assert all(any(np.array_equal(a, w) for a in stack) for w in want)
    assert all(a.any() for a in stack)
    # an indefinite psi_p matrix, seen through psi_obj, or an indefinite
    # psi_c matrix of a joint run raises
    bad = np.diag([1.0, -1.0]).astype(complex)
    for field, run, u in (("psi_p", 1, 0), ("psi_p", 2, 1), ("psi_c", 2, 1)):
        c = {x: v.copy() for x, v in comps.items()}
        if field == "psi_p":
            c[field][run] = 0.0
        c[field][run, u] = bad
        with pytest.raises(NotPsd):
            build(AwmmseComponents(**c), 100.0)


def test_solve_accepts_rank_deficient_component():
    # one realization at n_t = 3: each psi_con[u] is a rank-one outer
    # product and psi_obj has rank 2, exactly PSD and singular. The
    # guard's pivot loop accepts them and zeroes their singular columns.
    # Where the budget binds (0 and 10 dB) every solve is certified.
    # Above that the budget price can fall to zero, where the
    # common column's system is singular and the face Newton can only
    # halve mu_pow; 5 of those solves end 'MaxIter' (ROADMAP direction 10
    # tables how far each ends from the cone oracle), so they are only
    # checked to return a feasible point. Dual values above the
    # tangent, from a singular system that rounds invertible, are rejected
    # by the line search, which keeps the 0/10 dB rows certified whatever
    # the last bits of the components (the test below)
    for seed in range(20):
        for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            q, _, _ = problem_from_seed(seed, n_t=3, k=2, snr_db=snr_db, m=1)
            assert np.linalg.matrix_rank(q.psi_obj) == 2
            assert all(np.linalg.matrix_rank(psi) == 1 for psi in q.psi_con)
            sol = solve(q)
            assert precoder_power(sol.p_star) <= q.p_t * (1.0 + 1e-9)
            assert (sol.status == "Optimal") == (sol.kkt_residual <= qcqp.OPTIMAL_TOL)
            if snr_db <= 10.0:
                assert sol.status == "Optimal", (seed, snr_db)
                assert sol.kkt_residual <= qcqp.WARM_TOL, (seed, snr_db)


def _ulps_away(a, rng, ulps):
    """`a` with every float moved `ulps` ulps up or down at random."""
    a = np.array(a)
    x = a.view(float) if np.iscomplexobj(a) else a
    toward = rng.choice([-np.inf, np.inf], x.shape)
    for _ in range(ulps):
        x[...] = np.nextafter(x, toward)
    return a


def test_rank_deficient_solves_survive_ulp_perturbations():
    # the rows of test_solve_accepts_rank_deficient_component where the
    # budget binds, with psi_obj (kept exactly Hermitian) and f_con moved
    # by 1-3 ulp: a common system that is singular but rounds invertible
    # gives a garbage dual value above the tangent, which the line search
    # must reject, whatever the last bits of the components
    for seed in range(20):
        for snr_db in (0.0, 10.0):
            q, _, _ = problem_from_seed(seed, n_t=3, k=2, snr_db=snr_db, m=1)
            for ulps in (1, 2, 3):
                rng = np.random.default_rng([seed, int(snr_db), ulps])
                upper = np.triu(_ulps_away(q.psi_obj, rng, ulps))
                psi_obj = upper + np.triu(upper, 1).conj().T
                psi_obj[np.diag_indices(3)] = psi_obj.diagonal().real
                f_con = _ulps_away(q.f_con, rng, ulps)
                sol = solve(replace(q, psi_obj=psi_obj, f_con=f_con))
                assert sol.status == "Optimal", (seed, snr_db, ulps)
                assert sol.kkt_residual <= qcqp.WARM_TOL, (seed, snr_db, ulps)


@pytest.mark.parametrize("include_common", [True, False])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
def test_dual_derivatives_match_differences(include_common, n, snr_db):
    # the gradient _duals returns is the central difference of its value
    # and the Hessian the central difference of its gradient, at an
    # interior z (every mu and mu_pow positive)
    q, _, _ = problem_from_seed(11 * n, n_t=n, k=n, snr_db=snr_db, common=include_common)
    assert q.include_common == include_common
    rng = np.random.default_rng(n)
    mu = rng.uniform(0.5, 1.5, q.k if include_common else 0)
    z = np.append(mu / mu.sum(), rng.uniform(0.5, 1.5))
    _, grad, hess, _ = qcqp._duals([(q, z)])[0]
    assert hess.shape == (z.size, z.size)
    assert np.allclose(hess, hess.T, rtol=1e-9, atol=1e-12 * np.abs(hess).max())
    assert np.linalg.eigvalsh(hess).max() <= 1e-9 * np.abs(hess).max()  # concave
    for v in range(z.size):
        h = 1e-4 * z[v]
        up, down = z.copy(), z.copy()
        up[v] += h
        down[v] -= h
        ev_up, ev_down = qcqp._duals([(q, up)])[0], qcqp._duals([(q, down)])[0]
        d_value = (ev_up[0] - ev_down[0]) / (2 * h)
        assert d_value == pytest.approx(grad[v], rel=1e-6, abs=1e-6), v
        d_grad = (ev_up[1] - ev_down[1]) / (2 * h)
        scale = np.abs(hess[:, v]).max()
        assert np.allclose(d_grad, hess[:, v], rtol=1e-5, atol=1e-6 * scale), v


@pytest.mark.parametrize("scheme", ["JMB-AWSMSE", "BC-AWSMSE"])
@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
def test_positive_budget_multiplier_closes_the_budget(monkeypatch, scheme, snr_db):
    # the slackness term weights the budget gap by mu_pow, so at a small
    # mu_pow the KKT residual cannot see a gap. At 40 dB both a mu_pow of
    # 3e-14 with the power 29 below p_t = 1e4 and a mu_pow of 5e-5 with a
    # gap of 2e-6 have passed the 1e-13 residual. The face Newton must
    # close the gap or pin mu_pow at zero, cold and warm.
    solves = _ao_solves(monkeypatch, scheme, snr_db)
    for (_, prev), (q, _) in zip(solves, solves[1:]):
        for sol in (solve(q), solve(q, warm_dual=(prev.mu, prev.mu_pow))):
            if sol.mu_pow > 0.0:
                gap = abs(precoder_power(sol.p_star) - q.p_t)
                assert gap <= 1e-13 * max(1.0, q.p_t), (gap, sol.mu_pow)
