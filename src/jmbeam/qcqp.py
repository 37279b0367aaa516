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
weighted sum-MSE.

For fixed multipliers (mu on the simplex for the K common-MSE
constraints, mu_pow >= 0 for the budget) the Lagrangian has a closed-form
minimizer in P, so the dual is a smooth concave problem in K+1 numbers
(the WMMSE device of Christensen et al., IEEE TWC 2008, and Shi et al.,
IEEE TSP 2011). Every solve is Newton's method on the dual face: the
free multipliers with the simplex row, with a multiplier that would
turn negative pinned at zero and a pinned one freed when its constraint
is violated. P comes from the closed form, so stationarity in P holds
at every iterate, and the face Newton runs until the other KKT terms
reach round-off. It starts from the previous outer iteration's
multipliers (`warm_dual`) when there are any, else from the centre
mu = 1/K with a positive budget price; the centre, then the centre with
the budget price at zero, are the starts it falls back on when a result
is not certified to WARM_TOL. A recomputed KKT residual certifies every
returned point. P = 0 with a large enough xi_c is strictly feasible, so
the problems are never infeasible by construction.
"""

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
    term of user k's private column. psi_con/f_con/con_const hold the K
    common-MSE constraints. include_common = False drops the common
    column and its constraints (broadcast-only variant).
    """

    n_t: int
    k: int
    p_t: float
    sigma_n2: float
    psi_obj: np.ndarray
    f_obj: np.ndarray
    psi_con: np.ndarray
    f_con: np.ndarray
    con_const: np.ndarray
    omitted_constant: float
    include_common: bool = True


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


def build(components, sigma_n2, p_t, include_common=True):
    """Assemble the precoder-update problem from averaged components.

    Common components that are exactly zero, as at a common column
    without power, make every common constraint a constant. The problem
    is then built without the common column, and the largest constant,
    which is the optimal xi_c, goes into the omitted constant, so the
    objective plus the omitted constant is unchanged.
    """
    c = components
    k, n_t = c.f_p.shape
    psi_obj = c.psi_p.sum(axis=0)
    con_const = sigma_n2 * c.t_c + c.u_c - c.v_c
    omitted = float(np.sum(sigma_n2 * c.t_p + c.u_p - c.v_p))
    if include_common and not (c.psi_c.any() or c.f_c.any()):
        include_common = False
        omitted += float(np.max(con_const))
    return QcqpProblem(
        n_t=n_t,
        k=k,
        p_t=float(p_t),
        sigma_n2=float(sigma_n2),
        psi_obj=psi_obj,
        f_obj=c.f_p.copy(),
        psi_con=c.psi_c.copy(),
        f_con=c.f_c.copy(),
        con_const=np.asarray(con_const, dtype=float),
        omitted_constant=omitted,
        include_common=include_common,
    )


def objective_value(q, p, xi_c):
    """Objective of the problem at (P, xi_c), constant term excluded."""
    priv = p[:, 1:]
    quad = float(np.einsum("ni,nm,mi->", priv.conj(), q.psi_obj, priv).real)
    lin = 2.0 * float(np.einsum("kn,nk->", q.f_obj.conj(), priv).real)
    return (xi_c if q.include_common else 0.0) + quad - lin


def constraint_values(q, p):
    """Left-hand sides of the K common-MSE constraints at P (their value
    must be <= xi_c), including the constant terms."""
    p_c = p[:, 0]
    quad_all = np.einsum("ni,unm,mi->u", p.conj(), q.psi_con, p).real
    lin = 2.0 * np.einsum("un,n->u", q.f_con.conj(), p_c).real
    return quad_all + q.con_const - lin


def _dual(q, z):
    """Lagrange dual function at z = (mu, mu_pow * p_t) with derivatives.

    For fixed multipliers the Lagrangian is minimized in closed form:
    column j of P solves M_j p_j = b_j, with M_0 = A + mu_pow I and
    b_0 = sum_u mu_u f_con[u] for the common column, M_j = psi_obj + M_0
    and b_j = f_obj[j] for the private ones, and A = sum_u mu_u
    psi_con[u]; the columns are solved in one stacked call. The gradient
    is the constraint values at that minimizer; the Hessian follows from
    differentiating the column systems. The power multiplier is scaled
    by p_t so that both coordinate groups have O(1) gradients whatever
    the budget.

    Returns (value, gradient, Hessian, P), or None where the minimizer is
    not finite (a singular system).
    """
    n_t, p_t = q.n_t, q.p_t
    mu, mu_pow = z[:-1], z[-1] / p_t
    pow_eye = mu_pow * np.eye(n_t)
    if q.include_common:
        mats = np.empty((q.k + 1, n_t, n_t), dtype=complex)
        mats[0] = np.einsum("u,unm->nm", mu, q.psi_con) + pow_eye
        mats[1:] = q.psi_obj + mats[0]
        rhs = np.concatenate([(mu @ q.f_con)[None], q.f_obj])
    else:
        mats = (q.psi_obj + pow_eye)[None]
        rhs = q.f_obj
    try:
        cols = np.linalg.solve(mats, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(cols)):
        return None
    p = np.zeros((n_t, q.k + 1), dtype=complex)
    p[:, 0 if q.include_common else 1 :] = cols.T

    pw = precoder_power(p)
    value = -float(np.sum(rhs.conj() * cols).real) - mu_pow * p_t
    grad = np.empty(z.size)
    grad[-1] = (pw - p_t) / p_t
    if q.include_common:
        value += float(mu @ q.con_const)
        grad[:-1] = constraint_values(q, p)
        # r[j][:, v]: derivative of column j's stationarity residual in z_v
        r = np.concatenate(
            [np.einsum("unm,jm->jnu", q.psi_con, cols), cols[:, :, None]], axis=2
        )
        r[0, :, :-1] -= q.f_con.T
    else:
        r = cols[:, :, None]
    hess = -2.0 * np.einsum("jnu,jnv->uv", r.conj(), np.linalg.solve(mats, r)).real
    hess[-1, :] /= p_t
    hess[:, -1] /= p_t
    return value, grad, hess, p


def _eqp(h, g, e):
    """Maximizer p of g.p + p.h.p / 2 subject to e.p = 0, and the
    multiplier lam of that row (0 without one, e all zero). A singular
    system, as when f = 0 and the dual is linear in mu_pow, takes the
    least-squares step."""
    n = g.size
    if e.any():
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = h
        kkt[n, :n] = kkt[:n, n] = e
        rhs = np.append(-g, 0.0)
    else:
        kkt, rhs = h, -g
    try:
        x = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        x = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return x[:n], (float(x[n]) if e.any() else 0.0)


def _model_step(z, grad, hess, eq):
    """Maximizer of the dual's quadratic model at z over the feasible set.

    A primal active-set loop on the model (Nocedal & Wright, Numerical
    Optimization, Alg. 16.3), started at z with its zero coordinates
    pinned. A free multiplier that the face's Newton step would take
    below zero is pinned at zero. A pinned one is freed when the model's
    value of its constraint is violated: above the common level of the
    face (the price of the simplex row) for mu_u, over the budget for
    mu_pow. Returns None if a step is not finite.
    """
    y = z.copy()
    free = z > 0
    for _ in range(2 * z.size + 2):
        f = np.flatnonzero(free)
        gm = grad + hess @ (y - z)
        step, lam = _eqp(hess[np.ix_(f, f)], gm[f], eq[f])
        if not np.all(np.isfinite(step)):
            return None
        neg = step < 0
        ratio = -y[f[neg]] / step[neg]
        if ratio.size and ratio.min() <= 1.0:
            y[f] += ratio.min() * step
            y[f[neg][ratio == ratio.min()]] = 0.0
            free &= y > 0
            continue
        y[f] += step
        if free.all():
            return y
        price = grad + hess @ (y - z) + lam * eq
        price[free] = -np.inf
        i = int(np.argmax(price))
        if not price[i] > FACE_TOL * (1.0 + abs(lam)):
            return y
        free[i] = True
    return y


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
    eq = np.append(np.ones(z.size - 1), 0.0)
    ev = _dual(q, z)
    best, res_best, res_prev = None, np.inf, np.inf
    for steps in range(max_steps + 1):
        if ev is None:
            break
        value, grad, hess, p = ev
        cons = grad[:-1]
        xi = float(cons.max()) if q.include_common else 0.0
        excess = grad[-1] * p_t
        res = _slack_terms(q, xi, cons, excess, z[:-1], z[-1] / p_t)
        if z[-1] > 0.0:
            # a free mu_pow makes the budget an equality of the face; the
            # slackness product hides its gap when mu_pow is small
            res = max(res, abs(excess) / max(1.0, p_t))
        if res < res_best:
            best, res_best = (z, p, cons), res
        if res <= FACE_TOL or (res_best <= WARM_TOL and res > 0.5 * res_prev):
            break
        y = None if steps == max_steps else _model_step(z, grad, hess, eq)
        if y is None or np.array_equal(y, z):
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
    cholesky_psd(q.psi_obj)
    if q.include_common:
        for psi in q.psi_con:
            cholesky_psd(psi)

    centre = np.append(np.full(q.k if q.include_common else 0, 1.0 / q.k), 1.0)
    starts = [centre, np.append(centre[:-1], 0.0)]
    if warm_dual is not None:
        z = np.append(warm_dual[0], float(warm_dual[1]) * q.p_t)
        if z.size == centre.size and np.all(np.isfinite(z)) and z.min() >= 0.0:
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
        xi_w = float(np.max(constraint_values(q, warm))) if q.include_common else 0.0
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
    xi = float(np.max(cons)) if q.include_common else 0.0
    sol = QcqpSolution(
        p_star=p,
        xi_c_star=xi,
        objective=objective_value(q, p, xi),
        kkt_residual=np.inf,
        iterations=steps,
        status="Optimal",
        mu=z[:-1],
        mu_pow=z[-1] / q.p_t,
    )
    sol.kkt_residual = kkt_residual(q, sol)
    return sol


def kkt_residual(q, sol):
    """Recomputed-from-scratch optimality residual of a candidate solution.

    Maximum of normalized stationarity (in P and xi_c), primal
    feasibility, dual feasibility, and complementary slackness for the
    original quadratic problem, using the recovered multipliers. Small
    values certify the solve independently of the Newton iterates.
    """
    return _kkt_terms(q, sol.p_star, sol.xi_c_star, sol.mu, sol.mu_pow)


def _kkt_terms(q, p, xi_c_star, mu, mu_pow):
    k, n_t = q.k, q.n_t

    scale = 1.0 + float(np.linalg.norm(q.f_obj)) + float(np.linalg.norm(p))
    terms = []

    # stationarity in each private column
    if q.include_common:
        psi_mu = np.einsum("u,unm->nm", mu, q.psi_con)
    else:
        psi_mu = np.zeros((n_t, n_t))
    m_p = q.psi_obj + psi_mu + mu_pow * np.eye(n_t)
    terms.append(np.linalg.norm(m_p @ p[:, 1:] - q.f_obj.T, axis=0).max() / scale)

    cons = None
    if q.include_common:
        # stationarity in the common column
        g_c = psi_mu @ p[:, 0] - np.einsum("u,un->n", mu, q.f_con) + mu_pow * p[:, 0]
        terms.append(np.linalg.norm(g_c) / scale)
        cons = constraint_values(q, p)

    excess = precoder_power(p) - q.p_t
    terms.append(_slack_terms(q, xi_c_star, cons, excess, mu, mu_pow))
    return float(max(terms))


def _slack_terms(q, xi_c, cons, excess, mu, mu_pow):
    """The KKT terms besides stationarity in P: stationarity in xi_c (the
    simplex row), primal and dual feasibility, and complementary
    slackness, from the constraint values and the power excess
    ||P||_F^2 - p_t at P."""
    scale = max(1.0, q.p_t)
    terms = [max(0.0, excess) / scale, max(0.0, -mu_pow), abs(mu_pow * excess) / scale]
    if q.include_common:
        slack = xi_c - cons
        terms.append(abs(1.0 - float(mu.sum())))
        terms.append(max(0.0, -float(slack.min())) / (1.0 + abs(xi_c)))
        terms.append(max(0.0, -float(mu.min())))
        terms.append(float((np.abs(mu * slack) / (1.0 + np.abs(cons))).max()))
    return max(terms)
