"""Convex precoder-update QCQP: construction, dual Newton solution,
and independent KKT verification.

The precoder update minimizes, over the precoder matrix P and the common
worst-case variable xi_c,

    xi_c + sum_k ( sum_i p_i^H psi_p[k] p_i - 2 Re{f_p[k]^H p_k} )

subject to, for every user k,

    p_c^H psi_c[k] p_c + sum_i p_i^H psi_c[k] p_i - 2 Re{f_c[k]^H p_c}
        + const[k] <= xi_c,
    ||P||_F^2 <= p_t,

with const[k] = sigma_n2*t_c[k] + u_c[k] - v_c[k]. The additive constant
sum_k (sigma_n2*t_p[k] + u_p[k] - v_p[k]) is dropped from the objective
and recorded so reported values can be rebased to the true average
weighted sum-MSE. Without common power every common constraint is a
constant, and the problem is the broadcast form: the same problem with
no common constraints, held in zero-length common arrays.

For fixed multipliers (mu on the simplex for the common-MSE constraints,
mu_pow >= 0 for the budget) the Lagrangian has a closed-form minimizer
in P, so the dual is a smooth concave problem in K+1 numbers, or in
mu_pow alone (the WMMSE device of Christensen et al., IEEE TWC 2008, and
Shi et al., IEEE TSP 2011). Every solve is Newton's method on the dual
face: the free multipliers with the simplex row, with a multiplier that
would turn negative pinned at zero and a pinned one freed when its
constraint is violated. P comes from the closed form, so stationarity in
P holds at every iterate, and the face Newton runs until the other KKT
terms reach round-off. It starts from the previous outer iteration's
multipliers (`warm_dual`) when there are any, else from the centre
mu = 1/K with a positive budget price; the centre, then the centre with
the budget price at zero, are the starts it falls back on when a result
is not certified to WARM_TOL. A recomputed KKT residual certifies every
returned point. P = 0 with a large enough xi_c is strictly feasible, so
the problems are never infeasible by construction.

The matrices are small (n_t x n_t, K+1 multipliers), so the cost is the
number of numpy calls, not arithmetic. A dual evaluation inverts its two
distinct matrices in one stacked call; the Hessian is formed only where
a Newton step is taken; the active-set bookkeeping of a step runs on
Python floats; and the convexity guard factors every component of a
problem in one stacked Cholesky call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import cholesky_psd
from .receivers import precoder_power

__all__ = [
    "QcqpProblem",
    "QcqpSolution",
    "build",
    "solve",
    "kkt_residual",
    "objective_value",
    "constraint_values",
]

# the face Newton stops once the KKT terms it leaves open are this small
FACE_TOL = 1e-14
# a warm-started result is kept only at this recomputed KKT residual
WARM_TOL = 1e-13
# a result no start certified to WARM_TOL still counts as optimal at this
# recomputed KKT residual
OPTIMAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class QcqpProblem:
    """Data of one precoder-update problem.

    psi_obj is the summed private quadratic form sum_k psi_p[k] (each
    private column sees the same total matrix); f_obj[k] is the linear
    term of user k's private column. psi_con/f_con/con_const hold the
    common-MSE constraints: K of them, or none in the broadcast form,
    which has no common column.
    """

    n_t: int
    k: int
    p_t: float
    psi_obj: np.ndarray
    f_obj: np.ndarray
    psi_con: np.ndarray
    f_con: np.ndarray
    con_const: np.ndarray
    omitted_constant: float

    @property
    def include_common(self):
        """False in the broadcast form, which has no common constraints."""
        return self.con_const.size > 0


@dataclass(eq=False)
class QcqpSolution:
    """Solver output: optimizer, objective (constant term excluded),
    worst-case common value, recovered multipliers, and diagnostics."""

    p_star: np.ndarray
    xi_c_star: float
    objective: float
    kkt_residual: float
    iterations: int
    status: str
    mu: np.ndarray
    mu_pow: float


def build(components, sigma_n2, p_t):
    """Assemble the precoder-update problem from averaged components.

    Common components that are exactly zero, as at a common column
    without power, make every common constraint a constant. The problem
    then keeps none of them (the broadcast form: zero-length psi_con,
    f_con and con_const), and the largest constant, which is the optimal
    xi_c, goes into the omitted constant, so the objective plus the
    omitted constant is unchanged.
    """
    c = components
    k, n_t = c.f_p.shape
    con_const = sigma_n2 * c.t_c + c.u_c - c.v_c
    omitted = float(np.sum(sigma_n2 * c.t_p + c.u_p - c.v_p))
    n_con = k
    if not (c.psi_c.any() or c.f_c.any()):
        omitted += float(np.max(con_const))
        n_con = 0
    return QcqpProblem(
        n_t=n_t,
        k=k,
        p_t=float(p_t),
        psi_obj=c.psi_p.sum(axis=0),
        f_obj=c.f_p.copy(),
        psi_con=c.psi_c[:n_con].copy(),
        f_con=c.f_c[:n_con].copy(),
        con_const=np.asarray(con_const[:n_con], dtype=float),
        omitted_constant=omitted,
    )


def objective_value(q, p, xi_c):
    """Objective of the problem at (P, xi_c), constant term excluded."""
    priv = p[:, 1:]
    quad = np.vdot(priv, q.psi_obj @ priv).real
    lin = 2.0 * np.vdot(q.f_obj.T, priv).real
    return xi_c + float(quad - lin)


def constraint_values(q, p):
    """Left-hand sides of the common-MSE constraints at P (their value
    must be <= xi_c), including the constant terms; empty in the
    broadcast form. sum_i p_i^H psi_con[u] p_i is the sum of the
    entrywise product of psi_con[u] and sum_i conj(p_i) p_i^T."""
    pt = p.T
    gram = pt.conj().T @ pt
    quad = q.psi_con.reshape(-1, gram.size) @ gram.reshape(-1)
    return quad.real + q.con_const - 2.0 * (q.f_con.conj() @ pt[0]).real


def _dual(q, z):
    """Lagrange dual function at z = (mu, mu_pow * p_t) with derivatives.

    For fixed multipliers the Lagrangian is minimized in closed form:
    column j of P solves M_j p_j = b_j, with M_0 = A + mu_pow I and
    b_0 = sum_u mu_u f_con[u] for the common column, M_j = psi_obj + M_0
    and b_j = f_obj[j] for the private ones, and A = sum_u mu_u
    psi_con[u]. The private columns share one matrix, so the two
    distinct matrices are inverted in one stacked call and the columns
    are matrix products. The gradient is the constraint values at that
    minimizer; the Hessian follows from differentiating the column
    systems and reuses the inverses. The broadcast form has no common
    system: its common column is zero and its Hessian the one entry
    -2 Re sum_j p_j^H M^-1 p_j / p_t^2. The power multiplier is scaled
    by p_t so that both coordinate groups have O(1) gradients whatever
    the budget.

    Returns (value, gradient, hessian, P), with `hessian` a function of
    no arguments that forms the Hessian, since only a Newton step needs
    it, and P a transposed view; or None where the minimizer is not
    finite (a singular system, or a power sum that is not finite).
    """
    n_t, k, p_t = q.n_t, q.k, q.p_t
    mu, mu_pow = z[:-1], float(z[-1]) / p_t
    common = q.include_common
    if common:
        mats = np.empty((2, n_t, n_t), dtype=complex)
        a = mats[0].reshape(-1)
        np.matmul(mu, q.psi_con.reshape(k, -1), out=a)
        a[:: n_t + 1] += mu_pow
        np.add(mats[0], q.psi_obj, out=mats[1])
    else:
        mats = q.psi_obj.copy()[None]
        mats.reshape(-1)[:: n_t + 1] += mu_pow
    try:
        inv = np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        return None
    # pt holds the columns of P as rows
    pt = np.zeros((k + 1, n_t), dtype=complex)
    np.matmul(q.f_obj, inv[-1].T, out=pt[1:])
    value = 0.0
    if common:
        b_c = mu @ q.f_con
        np.matmul(b_c, inv[0].T, out=pt[0])
        value = float(mu @ q.con_const) - np.vdot(b_c, pt[0]).real
    pw = precoder_power(pt)
    if not math.isfinite(pw):
        return None
    value -= np.vdot(q.f_obj, pt[1:]).real + mu_pow * p_t
    grad = np.empty(z.size)
    grad[-1] = (pw - p_t) / p_t
    if common:
        grad[:-1] = constraint_values(q, pt.T)

    def hessian():
        if not common:
            return np.full((1, 1), -2.0 * np.vdot(pt, pt @ inv[0].T).real / p_t**2)
        # r[v, j]: derivative of column j's stationarity residual in z_v
        r = np.empty((k + 1, k + 1, n_t), dtype=complex)
        np.matmul(pt, q.psi_con.transpose(0, 2, 1), out=r[:-1])
        r[:-1, 0] -= q.f_con
        np.divide(pt, p_t, out=r[-1])
        w = np.empty_like(r)
        np.matmul(r[:, 0], inv[0].T, out=w[:, 0])
        np.matmul(r[:, 1:], inv[1].T, out=w[:, 1:])
        return -2.0 * (r.reshape(k + 1, -1).conj() @ w.reshape(k + 1, -1).T).real

    return float(value), grad, hessian, pt.T


def _eqp(h, g, e):
    """Maximizer p of g.p + p.h.p / 2 subject to e.p = 0, and the
    multiplier lam of that row (0 without one, e all zero), as floats.
    e is a list. A singular system, as when f = 0 and the dual is linear
    in mu_pow, takes the least-squares step."""
    n = len(e)
    if any(e):
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = h
        kkt[n, :n] = kkt[:n, n] = e
        rhs = np.zeros(n + 1)
        np.negative(g, out=rhs[:n])
    else:
        kkt, rhs = h, -g
    try:
        x = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        x = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    x = x.tolist()
    return x[:n], (x[n] if len(x) > n else 0.0)


def _model_step(z, grad, hess):
    """Maximizer of the dual's quadratic model at z over the feasible set.

    A primal active-set loop on the model (Nocedal & Wright, Numerical
    Optimization, Alg. 16.3), started at z with its zero coordinates
    pinned. A free multiplier that the face's Newton step would take
    below zero is pinned at zero. A pinned one is freed when the model's
    value of its constraint is violated: above the common level of the
    face (the price of the simplex row) for mu_u, over the budget for
    mu_pow. Returns None if a step is not finite.

    The coordinates and the active set are Python lists; numpy only
    solves the face's system and forms the model's gradient.
    """
    n = z.size
    y = z.tolist()
    free = [v > 0.0 for v in y]
    eq = [1.0] * (n - 1) + [0.0]  # the simplex row
    gm = grad  # the model's gradient at y
    for _ in range(2 * n + 2):
        f = [i for i in range(n) if free[i]]
        if len(f) == n:
            step, lam = _eqp(hess, gm, eq)
        else:
            step, lam = _eqp(hess[f][:, f], gm[f], [eq[i] for i in f])
        if not all(map(math.isfinite, step)):
            return None
        ratio = {i: -y[i] / s for i, s in zip(f, step) if s < 0}
        r = min(ratio.values(), default=math.inf)
        if r <= 1.0:
            for i, s in zip(f, step):
                y[i] += r * s
            for i, ri in ratio.items():
                if ri == r:
                    y[i] = 0.0
            free = [fr and v > 0.0 for fr, v in zip(free, y)]
            gm = grad + hess @ (np.array(y) - z)
            continue
        for i, s in zip(f, step):
            y[i] += s
        if len(f) == n:
            break
        gm = grad + hess @ (np.array(y) - z)
        price = [g + lam * e for g, e in zip(gm.tolist(), eq)]
        i = max((j for j in range(n) if not free[j]), key=price.__getitem__)
        if not price[i] > FACE_TOL * (1.0 + abs(lam)):
            break
        free[i] = True
    return np.array(y)


def _face_newton(q, z):
    """Newton on the dual face of z, from z.

    The unknowns are the free multipliers, with the simplex row: at most
    K+1 of them (the dual active-set idea of Goldfarb & Idnani, Math.
    Programming 1983). The positive entries of z are free and the rest
    pinned at zero. Each step maximizes the dual's quadratic model over
    the feasible set (_model_step, which changes the face when a sign
    says it is wrong) and backtracks along it, so it costs one _dual
    evaluation; a face with no free coordinate is just evaluated. P
    comes from the closed form, so stationarity in P holds at every
    iterate, and the other KKT terms decide, with the budget gap
    counted in full while mu_pow is free: the loop stops when they are
    below FACE_TOL, or below WARM_TOL and no longer halving, since the
    rounding of the constraint values bounds them from below.
    Returns (z, P, constraint values, steps) at the iterate with the
    smallest terms, steps counting all the Newton steps taken; None if
    the dual cannot be evaluated at z.
    """
    p_t, max_steps = q.p_t, 20
    ev = _dual(q, z)
    best, res_best, res_prev = None, math.inf, math.inf
    for steps in range(max_steps + 1):
        if ev is None:
            break
        value, grad, hessian, p = ev
        cons = grad[:-1]
        *mu, z_pow = z.tolist()
        cons_l = cons.tolist()
        xi = max(cons_l, default=0.0)
        excess = float(grad[-1]) * p_t
        res = _slack_terms(q, xi, cons_l, excess, mu, z_pow / p_t)
        if z_pow > 0.0:
            # a free mu_pow makes the budget an equality of the face; the
            # slackness product hides its gap when mu_pow is small
            res = max(res, abs(excess) / max(1.0, p_t))
        if res < res_best:
            best, res_best = (z, p, cons), res
        if res <= FACE_TOL or (res_best <= WARM_TOL and res > 0.5 * res_prev):
            break
        y = None if steps == max_steps else _model_step(z, grad, hessian())
        if y is None or y.tolist() == z.tolist():
            break
        d = y - z
        dec = float(grad @ d)
        # below this predicted gain the rounding of the dual value hides
        # any gain, so the full step is taken as it stands
        small = dec <= 1e-10 * (1.0 + abs(value))
        s = 1.0
        for _ in range(30):
            zn = y if s == 1.0 else z + s * d
            ev = _dual(q, zn)
            if ev is not None and (small or ev[0] - value >= 0.01 * s * dec):
                break
            s *= 0.5
        else:
            break
        z, res_prev = zn, res
    return None if best is None else (*best, steps)


def _within_budget(q, p):
    return precoder_power(p) <= q.p_t * (1.0 + 1e-9)


def solve(q, warm=None, warm_dual=None):
    """Solve the precoder-update problem.

    Parameters
    ----------
    q : QcqpProblem
    warm : optional (n_t, k+1) complex ndarray
        Incumbent precoder. If it is feasible, the returned solution is
        never worse than the incumbent evaluated at its own best xi_c,
        which is what makes the outer loop's descent exact.
    warm_dual : optional (mu, mu_pow)
        Multipliers to start the face Newton from, such as those of the
        previous outer iteration; ignored unless finite, nonnegative and
        of the problem's size.

    The face Newton runs from warm_dual, then from the centre z = (1/K,
    ..., 1/K, 1) (mu_pow = 1/p_t > 0 makes every column system positive
    definite), then from the centre with mu_pow = 0 (a dual linear in
    mu_pow, as when f = 0, gives a zero model step from the first). The
    first result within the budget with a recomputed KKT residual of at
    most WARM_TOL is kept, with status 'Optimal'. If none is, the result
    with the smallest residual is scaled into the budget and returned,
    'Optimal' if its residual is at most OPTIMAL_TOL and 'MaxIter'
    otherwise.
    `iterations` counts the Newton steps of all starts. The returned
    point is always feasible to 1e-9.

    Returns
    -------
    QcqpSolution

    Raises
    ------
    NotPsd
        If a component matrix is not PSD within tolerance (convexity
        guard, via the Cholesky factorization).
    """
    cholesky_psd(np.concatenate((q.psi_obj[None], q.psi_con)))

    centre = np.full(len(q.con_const) + 1, 1.0 / q.k)
    centre[-1] = 1.0
    flat = centre.copy()
    flat[-1] = 0.0
    starts = [centre, flat]
    if warm_dual is not None:
        z = np.concatenate((np.ravel(warm_dual[0]), [float(warm_dual[1]) * q.p_t]))
        if z.size == centre.size and np.isfinite(z).all() and z.min() >= 0.0:
            starts.insert(0, z)
    best, steps = None, 0
    for z in starts:
        fin = _face_newton(q, z)
        if fin is None:
            continue
        steps += fin[3]
        sol = _solution(q, fin)
        if sol.kkt_residual <= WARM_TOL and _within_budget(q, sol.p_star):
            break
        if best is None or sol.kkt_residual < best[0]:
            best = sol.kkt_residual, fin
    else:
        # no start certified: the best result, scaled into the budget
        z, p, cons, _ = best[1]
        pw = precoder_power(p)
        if pw > q.p_t:
            p = p * np.sqrt(q.p_t / pw)
            cons = constraint_values(q, p)
        sol = _solution(q, (z, p, cons, 0))
        sol.status = "MaxIter"
    sol.iterations = steps

    # never return a point worse than the incumbent (descent guarantee)
    if warm is not None:
        warm = np.asarray(warm, dtype=complex)
        xi_w = float(max(constraint_values(q, warm), default=0.0))
        obj_w = objective_value(q, warm, xi_w)
        if _within_budget(q, warm) and (
            obj_w < sol.objective or not np.isfinite(sol.objective)
        ):
            sol.p_star, sol.xi_c_star, sol.objective = warm.copy(), xi_w, obj_w
            sol.kkt_residual = kkt_residual(q, sol)
    # a tiny recomputed residual certifies optimality of the returned
    # point for this convex problem even if no start reached WARM_TOL
    if sol.status == "MaxIter" and sol.kkt_residual <= OPTIMAL_TOL:
        sol.status = "Optimal"
    return sol


def _solution(q, fin):
    """QcqpSolution at a face result (z, P, constraint values, steps),
    with its recomputed KKT residual and status 'Optimal'."""
    z, p, cons, steps = fin
    xi = float(max(cons, default=0.0))
    sol = QcqpSolution(
        p_star=np.ascontiguousarray(p),  # _dual's P is a transposed view
        xi_c_star=xi,
        objective=objective_value(q, p, xi),
        kkt_residual=np.inf,
        iterations=steps,
        status="Optimal",
        mu=z[:-1],
        mu_pow=float(z[-1]) / q.p_t,
    )
    sol.kkt_residual = kkt_residual(q, sol)
    return sol


def kkt_residual(q, sol):
    """Recomputed-from-scratch optimality residual of a candidate solution.

    Maximum of normalized stationarity (in P and xi_c), primal
    feasibility, dual feasibility, and complementary slackness for the
    original quadratic problem, using the recovered multipliers. Small
    values certify the solve independently of the Newton iterates. The
    broadcast form's common column is zero, and so is its stationarity.
    """
    p, mu, mu_pow, n_t = sol.p_star, sol.mu, sol.mu_pow, q.n_t
    pw = precoder_power(p)
    scale = 1.0 + math.sqrt(np.vdot(q.f_obj, q.f_obj).real) + math.sqrt(pw)

    # stationarity in each column, M_j p_j - b_j with the M_j, b_j of _dual
    m_0 = (mu @ q.psi_con.reshape(-1, n_t * n_t)).reshape(n_t, n_t)
    m_0.reshape(-1)[:: n_t + 1] += mu_pow
    stat = m_0 @ p
    stat[:, 1:] += q.psi_obj @ p[:, 1:] - q.f_obj.T
    stat[:, 0] -= mu @ q.f_con
    res = math.sqrt(max((stat.conj() * stat).real.sum(axis=0).tolist())) / scale

    cons = constraint_values(q, p).tolist()
    slack = _slack_terms(q, sol.xi_c_star, cons, pw - q.p_t, mu.tolist(), mu_pow)
    return max(res, slack)


def _slack_terms(q, xi_c, cons, excess, mu, mu_pow):
    """The KKT terms besides stationarity in P: stationarity in xi_c (the
    simplex row), primal and dual feasibility, and complementary
    slackness, from the constraint values and the power excess
    ||P||_F^2 - p_t at P. cons and mu are lists of floats, empty in the
    broadcast form, which has no simplex row."""
    scale = max(1.0, q.p_t)
    res = max(max(0.0, excess) / scale, -mu_pow, abs(mu_pow * excess) / scale)
    if mu:
        res = max(
            res,
            abs(1.0 - sum(mu)),
            max(0.0, max(cons) - xi_c) / (1.0 + abs(xi_c)),
            -min(mu),
            max(abs(m * (xi_c - c)) / (1.0 + abs(c)) for m, c in zip(mu, cons)),
        )
    return res
