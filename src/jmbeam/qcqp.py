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
number of numpy calls, not arithmetic. The solve is therefore written
once, as the generator `solve_steps`, whose array work the lockstep
driver (`lockstep.drive`) serves for many problems at once: the
convexity guard of every problem in one stacked Cholesky call
(`_guard`), the dual evaluations with their Hessians in one stacked
inverse over every problem's distinct matrices (`_duals`), the face
systems of one size in one stacked solve (`_eqps`), and the objective
and KKT terms of the returned and incumbent points (`_points`). The
active-set bookkeeping of a step runs on Python floats, per problem.
`solve` is the driver on one problem.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import cholesky_psd
from .lockstep import run_one
from .receivers import _stack, precoder_power

__all__ = [
    "QcqpProblem",
    "QcqpSolution",
    "build",
    "solve",
    "solve_steps",
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

    Components with a leading run axis (from `accumulate_components` on
    R runs) give a list of R problems, each in its own form; sigma_n2
    and p_t may then hold one value per run.
    """
    c = components
    *lead, k, n_t = c.f_p.shape
    r = math.prod(lead)
    sig = np.reshape(sigma_n2, (-1, 1))
    con_const = (sig * c.t_c + c.u_c - c.v_c).reshape(r, k)
    omitted = np.sum(sig * c.t_p + c.u_p - c.v_p, axis=-1).reshape(r).tolist()
    largest = con_const.max(axis=-1).tolist()
    silent = ~(c.psi_c.reshape(r, -1).any(axis=1) | c.f_c.reshape(r, -1).any(axis=1))
    psi_obj = c.psi_p.sum(axis=-3).reshape(r, n_t, n_t)
    psi_con = c.psi_c.reshape(r, k, n_t, n_t).copy()
    f_con = c.f_c.reshape(r, k, n_t).copy()
    f_obj = c.f_p.reshape(r, k, n_t).copy()
    p_t = np.broadcast_to(np.asarray(p_t, dtype=float).reshape(-1), (r,)).tolist()
    problems = []
    for i in range(r):
        n_con = 0 if silent[i] else k
        problems.append(QcqpProblem(
            n_t=n_t,
            k=k,
            p_t=p_t[i],
            psi_obj=psi_obj[i],
            f_obj=f_obj[i],
            psi_con=psi_con[i, :n_con],
            f_con=f_con[i, :n_con],
            con_const=con_const[i, :n_con],
            omitted_constant=omitted[i] + largest[i] if silent[i] else omitted[i],
        ))
    return problems if lead else problems[0]


def _joint_first(problems):
    """Indices of `problems`, those of the joint form first, in order."""
    return sorted(range(len(problems)), key=lambda i: not problems[i].include_common)


def _fields(problems):
    """The arrays of problems listed joint form first, stacked: psi_obj,
    f_obj and p_t over all of them, and psi_con, f_con and con_const
    over the first nc, the joint ones."""
    nc = sum(q.include_common for q in problems)
    out = {"nc": nc, "p_t": np.array([q.p_t for q in problems])}
    for name, n in (("psi_obj", None), ("f_obj", None), ("psi_con", nc),
                    ("f_con", nc), ("con_const", nc)):
        if problems[:n]:
            out[name] = _stack([getattr(q, name) for q in problems[:n]])
    return out


def _dots(x, y):
    """np.vdot of each run's pair: conj(x[r]) . y[r] over C-order entries."""
    r = len(x)
    return (x.reshape(r, 1, -1).conj() @ y.reshape(r, -1, 1))[:, 0, 0]


def _add_diag(mats, values):
    """Add values[r] to the diagonal of each contiguous mats[r] in place."""
    n = mats.shape[-1]
    mats.reshape(len(mats), -1)[:, :: n + 1] += values[:, None]


def _cons(psi_con, f_con, con_const, pt):
    """Constraint values of stacked problems at stacked points, the
    columns of each P as the rows of pt[r]. sum_i p_i^H psi_con[u] p_i
    is the sum of the entrywise product of psi_con[u] and
    sum_i conj(p_i) p_i^T."""
    r = len(pt)
    gram = pt.conj().transpose(0, 2, 1) @ pt
    quad = psi_con.reshape(r, -1, gram[0].size) @ gram.reshape(r, -1, 1)
    lin = f_con.conj() @ pt[:, 0, :, None]
    return quad[..., 0].real + con_const - 2.0 * lin[..., 0].real


def objective_value(q, p, xi_c):
    """Objective of the problem at (P, xi_c), constant term excluded."""
    return xi_c + _points([[(q, p, p, np.zeros(q.con_const.size), 0.0)]])[0][0][0]


def constraint_values(q, p):
    """Left-hand sides of the common-MSE constraints at P (their value
    must be <= xi_c), including the constant terms; empty in the
    broadcast form."""
    return _cons(q.psi_con[None], q.f_con[None], q.con_const[None], p.T[None])[0]


def _guard(problems):
    """The convexity guard of every problem: one stacked Cholesky call
    over all their component matrices."""
    cholesky_psd(np.concatenate([
        m for q in problems for m in (q.psi_obj[None], q.psi_con)
    ]))
    return [None] * len(problems)


def _dual(q, z):
    """Lagrange dual function at z = (mu, mu_pow * p_t) with derivatives;
    `_duals` on one item."""
    return _duals([(q, z)])[0]


def _duals(items):
    """Lagrange dual function with derivatives at each (problem, z) item,
    z = (mu, mu_pow * p_t), in stacked calls.

    For fixed multipliers the Lagrangian is minimized in closed form:
    column j of P solves M_j p_j = b_j, with M_0 = A + mu_pow I and
    b_0 = sum_u mu_u f_con[u] for the common column, M_j = psi_obj + M_0
    and b_j = f_obj[j] for the private ones, and A = sum_u mu_u
    psi_con[u]. The private columns share one matrix, so each problem
    has two distinct matrices to invert, and the broadcast form, whose
    common column is zero, one. One stacked inverse covers them all; the
    columns are matrix products. The gradient is the constraint values
    at that minimizer; the Hessian follows from differentiating the
    column systems and reuses the inverses. The broadcast form's Hessian
    is the one entry -2 Re sum_j p_j^H M^-1 p_j / p_t^2. The power
    multiplier is scaled by p_t so that both coordinate groups have O(1)
    gradients whatever the budget.

    Returns per item (value, gradient, Hessian, P), with P a transposed
    view; or None where the minimizer is not finite (a singular system,
    or a power sum that is not finite). The joint problems are stacked
    first, so what involves the common column acts on a leading slice
    and the rest on all problems of both forms at once.
    """
    order = _joint_first([q for q, _ in items])
    qs = [items[i][0] for i in order]
    zs = [items[i][1] for i in order]
    f = _fields(qs)
    nc, r, n_t, k, p_t = f["nc"], len(qs), qs[0].n_t, qs[0].k, f["p_t"]
    mu_pow = np.array([z[-1] for z in zs]) / p_t
    # the common matrices of the joint problems, then every private one
    mats = np.empty((nc + r, n_t, n_t), dtype=complex)
    m_c, priv = mats[:nc], mats[nc:]
    if nc:
        mu = np.array(zs[:nc])[:, None, :-1]
        np.matmul(mu, f["psi_con"].reshape(nc, k, -1), out=m_c.reshape(nc, 1, -1))
        _add_diag(m_c, mu_pow[:nc])
        np.add(m_c, f["psi_obj"][:nc], out=priv[:nc])
    if nc < r:
        priv[nc:] = f["psi_obj"][nc:]
        _add_diag(priv[nc:], mu_pow[nc:])
    try:
        inv = np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        return [None] if len(items) == 1 else [_duals([it])[0] for it in items]
    inv_c, inv_p = inv[:nc], inv[nc:]

    # pt holds the columns of P as rows
    pt = np.zeros((r, k + 1, n_t), dtype=complex)
    np.matmul(f["f_obj"], inv_p.transpose(0, 2, 1), out=pt[:, 1:])
    value = np.zeros(r)
    if nc:
        b_c = np.matmul(mu, f["f_con"])
        np.matmul(b_c, inv_c.transpose(0, 2, 1), out=pt[:nc, :1])
        value[:nc] = (mu @ f["con_const"][..., None])[:, 0, 0]
        value[:nc] -= _dots(b_c, pt[:nc, :1]).real
    pw = _dots(pt, pt).real
    finite = np.isfinite(pw)
    if not finite.all():
        # evaluate the rest alone, with no arithmetic on what is not finite
        keep = [i for i, ok in zip(order, finite) if ok]
        out = [None] * len(items)
        for i, ev in zip(keep, _duals([items[i] for i in keep]) if keep else []):
            out[i] = ev
        return out

    value -= _dots(f["f_obj"], pt[:, 1:]).real + mu_pow * p_t
    g_pow = (pw - p_t) / p_t
    grad, hess = [], []
    if nc:
        psi_con, f_con = f["psi_con"], f["f_con"]
        g = np.empty((nc, k + 1))
        g[:, :-1] = _cons(psi_con, f_con, f["con_const"], pt[:nc])
        g[:, -1] = g_pow[:nc]
        # rr[:, v, j]: derivative of column j's stationarity residual in z_v
        rr = np.empty((nc, k + 1, k + 1, n_t), dtype=complex)
        np.matmul(pt[:nc, None], psi_con.transpose(0, 1, 3, 2), out=rr[:, :-1])
        rr[:, :-1, 0] -= f_con
        np.divide(pt[:nc], p_t[:nc, None, None], out=rr[:, -1])
        w = np.empty_like(rr)
        np.matmul(rr[:, :, 0], inv_c.transpose(0, 2, 1), out=w[:, :, 0])
        np.matmul(rr[:, :, 1:], inv_p[:nc, None].transpose(0, 1, 3, 2), out=w[:, :, 1:])
        rr, w = rr.reshape(nc, k + 1, -1), w.reshape(nc, k + 1, -1)
        grad += list(g)
        hess += list(-2.0 * (rr.conj() @ w.transpose(0, 2, 1)).real)
    if nc < r:
        curv = _dots(pt[nc:], pt[nc:] @ inv_p[nc:].transpose(0, 2, 1)).real
        grad += list(g_pow[nc:, None])
        hess += list((-2.0 * curv / p_t[nc:] ** 2)[:, None, None])
    out = [None] * len(items)
    for j, i in enumerate(order):
        out[i] = (float(value[j]), grad[j], hess[j], pt[j].T)
    return out


def _eqps(items):
    """For each item (h, g, e): the maximizer p of g.p + p.h.p / 2
    subject to e.p = 0, and the multiplier lam of that row (0 without
    one, e all zero), as floats. e is a list. Systems of one size are
    solved in one stacked call. A singular system, as when f = 0 and the
    dual is linear in mu_pow, takes the least-squares step."""
    out = [None] * len(items)
    groups = {}
    for i, (_, _, e) in enumerate(items):
        groups.setdefault((len(e), any(e)), []).append(i)
    for (n, row), idx in groups.items():
        h = np.array([items[i][0] for i in idx])
        g = np.array([items[i][1] for i in idx])
        if row:
            kkt = np.zeros((len(idx), n + 1, n + 1))
            kkt[:, :n, :n] = h
            kkt[:, n, :n] = kkt[:, :n, n] = [items[i][2] for i in idx]
            rhs = np.zeros((len(idx), n + 1))
            np.negative(g, out=rhs[:, :n])
        else:
            kkt, rhs = h, -g
        try:
            x = np.linalg.solve(kkt, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            x = np.array([_solve_one(a, b) for a, b in zip(kkt, rhs)])
        for i, xi in zip(idx, x.tolist()):
            out[i] = xi[:n], (xi[n] if len(xi) > n else 0.0)
    return out


def _solve_one(kkt, rhs):
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(kkt, rhs, rcond=None)[0]


def _model_step(z, grad, hess):
    """Maximizer of the dual's quadratic model at z over the feasible set.

    A primal active-set loop on the model (Nocedal & Wright, Numerical
    Optimization, Alg. 16.3), started at z with its zero coordinates
    pinned. A free multiplier that the face's Newton step would take
    below zero is pinned at zero. A pinned one is freed when the model's
    value of its constraint is violated: above the common level of the
    face (the price of the simplex row) for mu_u, over the budget for
    mu_pow. Returns None if a step is not finite.

    A generator for the lockstep driver: each face's system is a request
    to `_eqps`. The coordinates and the active set are Python lists;
    numpy only solves the face's system and forms the model's gradient.
    """
    n = z.size
    y = z.tolist()
    free = [v > 0.0 for v in y]
    eq = [1.0] * (n - 1) + [0.0]  # the simplex row
    gm = grad  # the model's gradient at y
    for _ in range(2 * n + 2):
        f = [i for i in range(n) if free[i]]
        if len(f) == n:
            step, lam = yield _eqps, (hess, gm, eq)
        else:
            step, lam = yield _eqps, (hess[f][:, f], gm[f], [eq[i] for i in f])
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
    says it is wrong) and backtracks along it, so it costs one dual
    evaluation; a face with no free coordinate is just evaluated. P
    comes from the closed form, so stationarity in P holds at every
    iterate, and the other KKT terms decide, with the budget gap
    counted in full while mu_pow is free: the loop stops when they are
    below FACE_TOL, or below WARM_TOL and no longer halving, since the
    rounding of the constraint values bounds them from below.

    A generator for the lockstep driver. Returns (z, P, constraint
    values, steps) at the iterate with the smallest terms, steps
    counting all the Newton steps taken; None if the dual cannot be
    evaluated at z.
    """
    p_t, max_steps = q.p_t, 20
    ev = yield _duals, (q, z)
    best, res_best, res_prev = None, math.inf, math.inf
    for steps in range(max_steps + 1):
        if ev is None:
            break
        value, grad, hess, p = ev
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
        y = None if steps == max_steps else (yield from _model_step(z, grad, hess))
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
            ev = yield _duals, (q, zn)
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

    This is the lockstep driver on `solve_steps` alone.

    Returns
    -------
    QcqpSolution

    Raises
    ------
    NotPsd
        If a component matrix is not PSD within tolerance (convexity
        guard, via the Cholesky factorization).
    """
    return run_one(solve_steps(q, warm=warm, warm_dual=warm_dual))


def solve_steps(q, warm=None, warm_dual=None):
    """`solve` as a generator for the lockstep driver: its requests are
    the guard, dual evaluations, face systems and point checks, and it
    returns the QcqpSolution."""
    yield _guard, q

    centre = np.full(len(q.con_const) + 1, 1.0 / q.k)
    centre[-1] = 1.0
    flat = centre.copy()
    flat[-1] = 0.0
    starts = [centre, flat]
    if warm_dual is not None:
        z = np.concatenate((np.ravel(warm_dual[0]), [float(warm_dual[1]) * q.p_t]))
        if z.size == centre.size and np.isfinite(z).all() and z.min() >= 0.0:
            starts.insert(0, z)
    if warm is not None:
        warm = np.asarray(warm, dtype=complex)
    best, steps = None, 0
    for z in starts:
        fin = yield from _face_newton(q, z)
        if fin is None:
            continue
        steps += fin[3]
        sol, incumbent = yield from _solution(q, fin, warm)
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
        sol, incumbent = yield from _solution(q, (z, p, cons, 0), warm)
        sol.status = "MaxIter"
    sol.iterations = steps

    # never return a point worse than the incumbent (descent guarantee),
    # judged under the returned multipliers
    if warm is not None:
        obj, cons, pw, res = incumbent
        xi_w = float(max(cons, default=0.0))
        obj_w = xi_w + obj
        if pw <= q.p_t * (1.0 + 1e-9) and (
            obj_w < sol.objective or not np.isfinite(sol.objective)
        ):
            sol.p_star, sol.xi_c_star, sol.objective = warm.copy(), xi_w, obj_w
            sol.kkt_residual = _residual(q, xi_w, cons, pw, res, sol.mu, sol.mu_pow)
    # a tiny recomputed residual certifies optimality of the returned
    # point for this convex problem even if no start reached WARM_TOL
    if sol.status == "MaxIter" and sol.kkt_residual <= OPTIMAL_TOL:
        sol.status = "Optimal"
    return sol


def _solution(q, fin, warm):
    """QcqpSolution at a face result (z, P, constraint values, steps),
    with its recomputed KKT residual and status 'Optimal', and the
    `_points` result at the incumbent `warm` (None without one) under
    the same multipliers (a generator)."""
    z, p, cons, steps = fin
    xi = float(max(cons, default=0.0))
    mu, mu_pow = z[:-1], float(z[-1]) / q.p_t
    p_star = np.ascontiguousarray(p)  # _duals' P is a transposed view
    points = [(q, p, p_star, mu, mu_pow)]
    if warm is not None:
        points.append((q, warm, warm, mu, mu_pow))
    (obj, cons, pw, res), *incumbent = yield _points, points
    sol = QcqpSolution(
        p_star=p_star,
        xi_c_star=xi,
        objective=xi + obj,
        kkt_residual=_residual(q, xi, cons, pw, res, mu, mu_pow),
        iterations=steps,
        status="Optimal",
        mu=mu,
        mu_pow=mu_pow,
    )
    return sol, (incumbent[0] if incumbent else None)


def _points(payloads):
    """For each point (problem, p_obj, p, mu, mu_pow) of each payload, a
    sequence of points, in stacked calls: the objective at p_obj without
    xi_c, and at p the constraint values, the power and the normalized
    stationarity residual (in P and xi_c) of `kkt_residual` under the
    multipliers (mu, mu_pow). Returns one list of results per payload."""
    items = [it for points in payloads for it in points]
    order = _joint_first([it[0] for it in items])
    f = _fields([items[i][0] for i in order])
    nc, r = f["nc"], len(order)
    psi_obj, f_obj = f["psi_obj"], f["f_obj"]
    n_t = psi_obj.shape[-1]
    p_obj = np.array([items[i][1] for i in order])
    p = np.array([items[i][2] for i in order])
    mu_pow = np.array([items[i][4] for i in order], dtype=float)

    priv = p_obj[:, :, 1:]
    quad = _dots(priv, psi_obj @ priv).real
    obj = quad - 2.0 * _dots(f_obj.transpose(0, 2, 1), priv).real

    # stationarity in each column, M_j p_j - b_j with the M_j, b_j of _duals
    pw = _dots(p, p).real
    scale = 1.0 + np.sqrt(_dots(f_obj, f_obj).real) + np.sqrt(pw)
    m_0 = np.zeros((r, n_t, n_t), dtype=complex)
    cons = [[]] * r
    if nc:
        mu = np.array([items[i][3] for i in order[:nc]])[:, None]
        np.matmul(mu, f["psi_con"].reshape(nc, -1, n_t * n_t),
                  out=m_0[:nc].reshape(nc, 1, -1))
    _add_diag(m_0, mu_pow)
    stat = m_0 @ p
    stat[:, :, 1:] += psi_obj @ p[:, :, 1:] - f_obj.transpose(0, 2, 1)
    if nc:
        stat[:nc, :, 0] -= (mu @ f["f_con"])[:, 0]
        cons[:nc] = _cons(
            f["psi_con"], f["f_con"], f["con_const"], p[:nc].transpose(0, 2, 1)
        ).tolist()
    res = np.sqrt((stat.conj() * stat).real.sum(axis=1).max(axis=-1)) / scale
    out = [None] * r
    for j, i in enumerate(order):
        out[i] = (float(obj[j]), cons[j], float(pw[j]), float(res[j]))
    out = iter(out)
    return [[next(out) for _ in points] for points in payloads]


_points.rank = -1  # after every run's face Newton


def _residual(q, xi_c, cons, pw, res, mu, mu_pow):
    """The KKT residual from a `_points` result at P and the level xi_c."""
    return max(res, _slack_terms(q, xi_c, cons, pw - q.p_t, mu.tolist(), mu_pow))


def kkt_residual(q, sol):
    """Recomputed-from-scratch optimality residual of a candidate solution.

    Maximum of normalized stationarity (in P and xi_c), primal
    feasibility, dual feasibility, and complementary slackness for the
    original quadratic problem, using the recovered multipliers. Small
    values certify the solve independently of the Newton iterates. The
    broadcast form's common column is zero, and so is its stationarity.
    """
    p = sol.p_star
    ((_, cons, pw, res),) = _points([[(q, p, p, sol.mu, sol.mu_pow)]])[0]
    return _residual(q, sol.xi_c_star, cons, pw, res, sol.mu, sol.mu_pow)


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
