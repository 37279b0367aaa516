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
IEEE TSP 2011). The solver follows its log-barrier path with Newton
steps on analytic derivatives, then polishes the primal-dual point on
its active set and certifies it by a recomputed KKT residual. P = 0 with
a large enough xi_c is strictly feasible, so the problems are never
infeasible by construction.
"""

import itertools
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
    """Assemble the precoder-update problem from averaged components."""
    c = components
    k, n_t = c.f_p.shape
    psi_obj = c.psi_p.sum(axis=0)
    con_const = sigma_n2 * c.t_c + c.u_c - c.v_c
    omitted = float(np.sum(sigma_n2 * c.t_p + c.u_p - c.v_p))
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


def _lift(mat):
    """Real lifting of a complex matrix action: [Re; Im] stacking."""
    return np.block([[mat.real, -mat.imag], [mat.imag, mat.real]])


def _lift_vec(v):
    return np.concatenate([v.real, v.imag])


def _dual(q, z):
    """Lagrange dual function at z = (mu, mu_pow * p_t) with derivatives.

    For fixed multipliers the Lagrangian is minimized in closed form: the
    private columns solve (psi_obj + A + mu_pow I) p_j = f_obj[j] and the
    common column solves (A + mu_pow I) p_c = sum_u mu_u f_con[u], with
    A = sum_u mu_u psi_con[u]. The gradient is the constraint values at
    that minimizer; the Hessian follows from differentiating the two
    linear systems. The power multiplier is scaled by p_t so that both
    coordinate groups have O(1) gradients whatever the budget.

    Returns (value, gradient, Hessian, P), or None where the minimizer is
    not finite (a singular system).
    """
    n_t, p_t = q.n_t, q.p_t
    mu, mu_pow = z[:-1], z[-1] / p_t
    pow_eye = mu_pow * np.eye(n_t)
    p = np.zeros((n_t, q.k + 1), dtype=complex)
    if q.include_common:
        a_mu = np.einsum("u,unm->nm", mu, q.psi_con)
        b_c = q.f_con.T @ mu
        m_c = a_mu + pow_eye
        m_p = q.psi_obj + a_mu + pow_eye
    else:
        m_p = q.psi_obj + pow_eye
    try:
        p[:, 1:] = np.linalg.solve(m_p, q.f_obj.T)
        if q.include_common:
            p[:, 0] = np.linalg.solve(m_c, b_c)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(p)):
        return None

    pw = precoder_power(p)
    value = -float(np.sum(q.f_obj.conj() * p[:, 1:].T).real) - mu_pow * p_t
    grad = np.empty(z.size)
    grad[-1] = (pw - p_t) / p_t
    if q.include_common:
        value += float(mu @ q.con_const) - float((b_c.conj() @ p[:, 0]).real)
        grad[:-1] = constraint_values(q, p)
        # r[j][:, v]: derivative of column j's stationarity residual in z_v
        r = np.concatenate(
            [np.einsum("unm,mj->jnu", q.psi_con, p), p.T[:, :, None]], axis=2
        )
        r[0, :, :-1] -= q.f_con.T
    else:
        r = p.T[:, :, None]
    s = np.linalg.solve(m_p, r[1:])
    hess = -2.0 * np.einsum("jnu,jnv->uv", r[1:].conj(), s).real
    if q.include_common:
        hess -= 2.0 * (r[0].conj().T @ np.linalg.solve(m_c, r[0])).real
    hess[-1, :] /= p_t
    hess[:, -1] /= p_t
    return value, grad, hess, p


def _dual_newton(q, tol, max_iter):
    """Maximize the dual over mu in the simplex and mu_pow >= 0.

    Follows the central path of the log barrier t * sum(log z) with
    damped Newton steps, cutting t a hundredfold whenever the Newton
    decrement falls below t, until the barrier's duality gap (K+1)*t is
    far below tol. Returns (z, P, newton_steps, reached); `reached` is
    False if max_iter steps ran out or the line search failed first.
    """
    n_mu = q.k if q.include_common else 0
    z = np.append(np.full(n_mu, 1.0 / q.k), 1.0)
    eq = np.append(np.ones(n_mu), 0.0)  # simplex row, JMB only
    ev = _dual(q, z)
    t = 1.0
    steps = 0
    while steps < max_iter:
        value, grad, hess, _ = ev
        g = grad + t / z
        h = hess - np.diag(t / z**2)
        if n_mu:
            kkt = np.zeros((z.size + 1, z.size + 1))
            kkt[:-1, :-1] = h
            kkt[-1, :-1] = kkt[:-1, -1] = eq
            dz = np.linalg.solve(kkt, np.append(-g, 0.0))[:-1]
        else:
            dz = -g / h[0, 0]
        dec = float(g @ dz)
        phi = value + t * float(np.sum(np.log(z)))
        if dec <= t or dec <= 1e-15 * (1.0 + abs(phi)):
            if t * z.size <= 1e-3 * tol * (1.0 + abs(value)):
                return z, ev[3], steps, True
            t *= 0.01
            continue
        steps += 1
        neg = dz < 0
        s = min(1.0, 0.99 * float(np.min(-z[neg] / dz[neg]))) if neg.any() else 1.0
        for _ in range(50):
            zn = z + s * dz
            evn = _dual(q, zn)
            if evn is not None and (
                evn[0] + t * float(np.sum(np.log(zn))) >= phi + 0.01 * s * dec
            ):
                break
            s *= 0.5
        else:
            break
        z, ev = zn, evn
    return z, ev[3], steps, False


def _tight_xi(q, p):
    """Smallest feasible xi_c at P (0 without a common column)."""
    return float(np.max(constraint_values(q, p))) if q.include_common else 0.0


def _feasible(q, p, xi_c):
    """Within the budget and above every common-MSE value, to 1e-9."""
    if precoder_power(p) > q.p_t * (1.0 + 1e-9):
        return False
    if not q.include_common:
        return True
    return float(np.max(constraint_values(q, p))) <= xi_c + 1e-9 * (1.0 + abs(xi_c))


def solve(q, tol=1e-8, max_iter=100, warm=None):
    """Solve the precoder-update problem.

    Parameters
    ----------
    q : QcqpProblem
    tol : float
        Target recomputed KKT residual; the dual path stops far below it.
    max_iter : int
        Cap on the dual Newton steps.
    warm : optional (n_t, k+1) complex ndarray
        Incumbent precoder. If it is feasible, the returned solution is
        never worse than the incumbent evaluated at its own best xi_c,
        which is what makes the outer loop's descent exact.

    The returned point is always feasible to 1e-9.

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

    z, p_star, steps, reached = _dual_newton(q, tol, max_iter)
    mu, mu_pow = z[:-1], z[-1] / q.p_t
    pw = precoder_power(p_star)
    if pw > q.p_t:
        p_star = p_star * np.sqrt(q.p_t / pw)
    xi_c_star = _tight_xi(q, p_star)

    # Newton polish on the identified active set, kept only if it stays
    # feasible and verifiably lowers the recomputed optimality residual
    kkt0 = _kkt_terms(q, p_star, xi_c_star, mu, mu_pow)
    pol = _polish(q, p_star, xi_c_star, mu, mu_pow)
    if pol is not None and _feasible(q, pol[0], pol[1]):
        kkt1 = _kkt_terms(q, *pol)
        if np.isfinite(kkt1) and kkt1 < kkt0:
            p_star, xi_c_star, mu, mu_pow = pol

    obj = objective_value(q, p_star, xi_c_star)

    # never return a point worse than the incumbent (descent guarantee)
    if warm is not None:
        warm = np.asarray(warm, dtype=complex)
        xi_w = _tight_xi(q, warm)
        obj_w = objective_value(q, warm, xi_w)
        if _feasible(q, warm, xi_w) and (obj_w < obj or not np.isfinite(obj)):
            p_star, xi_c_star, obj = warm.copy(), xi_w, obj_w
    sol = QcqpSolution(
        p_star=p_star,
        xi_c_star=xi_c_star,
        objective=obj,
        kkt_residual=np.inf,
        iterations=steps,
        status="Optimal" if reached else "MaxIter",
        mu=mu,
        mu_pow=mu_pow,
    )
    sol.kkt_residual = kkt_residual(q, sol)
    # a tiny recomputed residual certifies optimality of the returned
    # point for this convex problem even if the dual path hit its cap
    if sol.status == "MaxIter" and sol.kkt_residual <= tol:
        sol.status = "Optimal"
    return sol


def _polish(q, p, xi_c, mu, mu_pow):
    """Newton refinement over candidate active sets.

    A barrier iterate stops at a residual set by its final centrality,
    but it narrows down which constraints bind. Freezing an
    active set turns the optimality conditions into a square smooth
    system that a few Newton steps solve to round-off. Weakly active
    constraints (multiplier and slack both tiny) are not reliably
    classified by the duals, so plausible active sets are enumerated and
    the one with the smallest recomputed residual wins. Returns
    (p, xi_c, mu, mu_pow) or None.
    """
    best = None
    best_kkt = np.inf
    for act, pow_act in _active_set_candidates(q, p, xi_c, mu, mu_pow):
        out = _newton_active(q, p, xi_c, mu, mu_pow, act, pow_act)
        if out is None:
            continue
        kk = _kkt_terms(q, *out)
        if np.isfinite(kk) and kk < best_kkt:
            best, best_kkt = out, kk
        if best_kkt < 1e-12:
            break
    return best


def _active_set_candidates(q, p, xi_c, mu, mu_pow):
    """Plausible (constraint set, power flag) pairs, best guess first.

    For small k every nonempty constraint subset is tried; beyond that
    only the dual-based guess and its power-flag flip (cheap insurance
    against the most common misclassification).
    """
    k = q.k
    pw = precoder_power(p)
    pow_guess = bool(mu_pow >= (q.p_t - pw) / max(1.0, q.p_t))
    if not q.include_common:
        return [((), pow_guess), ((), not pow_guess)]

    slack = (xi_c - constraint_values(q, p)) / (1.0 + np.abs(q.con_const))
    guess = tuple(np.flatnonzero(mu >= slack))
    if k <= 3:
        subsets = [
            s
            for r in range(k, 0, -1)
            for s in itertools.combinations(range(k), r)
        ]
    else:
        subsets = [guess] if guess else []
    cands = []
    for s in subsets:
        for pa in (pow_guess, not pow_guess):
            cands.append((s, pa))
    cands.sort(key=lambda c: (c[0] != guess, c[1] != pow_guess))
    return cands


def _newton_active(q, p, xi_c, mu, mu_pow, act, pow_act):
    """Newton on the fixed-active-set system, started at the given point."""
    k, n_t = q.k, q.n_t
    blk = 2 * n_t
    eye = np.eye(n_t)
    act = np.asarray(act, dtype=int)
    n_act = act.size
    if q.include_common and n_act == 0:
        return None

    ncols = k + 1 if q.include_common else k
    off = 0 if q.include_common else 1
    n_p = ncols * blk
    i_xi = n_p if q.include_common else None
    i_mu = n_p + (1 if q.include_common else 0)
    n = i_mu + n_act + (1 if pow_act else 0)
    i_pw = n - 1 if pow_act else None

    def split(x):
        pm = np.zeros((n_t, k + 1), dtype=complex)
        for j in range(ncols):
            b = x[j * blk : (j + 1) * blk]
            pm[:, j + off] = b[:n_t] + 1j * b[n_t:]
        xi = float(x[i_xi]) if i_xi is not None else 0.0
        mu_a = x[i_mu : i_mu + n_act]
        mp = float(x[i_pw]) if i_pw is not None else 0.0
        return pm, xi, mu_a, mp

    x = np.zeros(n)
    for j in range(ncols):
        x[j * blk : (j + 1) * blk] = _lift_vec(p[:, j + off])
    if i_xi is not None:
        x[i_xi] = xi_c
    if n_act:
        start = np.maximum(mu[act], 0.0)
        tot = start.sum()
        x[i_mu : i_mu + n_act] = start / tot if tot > 0 else 1.0 / n_act
    if i_pw is not None:
        x[i_pw] = max(mu_pow, 0.0)

    def residual_jacobian(x):
        pm, xi, mu_a, mp = split(x)
        psi_mu = (
            np.einsum("u,unm->nm", mu_a, q.psi_con[act])
            if n_act
            else np.zeros((n_t, n_t))
        )
        F = np.zeros(n)
        J = np.zeros((n, n))
        row = 0
        if q.include_common:
            g = (psi_mu + mp * eye) @ pm[:, 0]
            if n_act:
                g = g - np.einsum("u,un->n", mu_a, q.f_con[act])
            F[row : row + blk] = _lift_vec(g)
            J[row : row + blk, 0:blk] = _lift(psi_mu + mp * eye)
            for a, u in enumerate(act):
                J[row : row + blk, i_mu + a] = _lift_vec(
                    q.psi_con[u] @ pm[:, 0] - q.f_con[u]
                )
            if pow_act:
                J[row : row + blk, i_pw] = _lift_vec(pm[:, 0])
            row += blk
        for j in range(1, k + 1):
            cs = (j - off) * blk
            g = (q.psi_obj + psi_mu + mp * eye) @ pm[:, j] - q.f_obj[j - 1]
            F[row : row + blk] = _lift_vec(g)
            J[row : row + blk, cs : cs + blk] = _lift(q.psi_obj + psi_mu + mp * eye)
            for a, u in enumerate(act):
                J[row : row + blk, i_mu + a] = _lift_vec(q.psi_con[u] @ pm[:, j])
            if pow_act:
                J[row : row + blk, i_pw] = _lift_vec(pm[:, j])
            row += blk
        if q.include_common:
            F[row] = np.sum(mu_a) - 1.0
            J[row, i_mu : i_mu + n_act] = 1.0
            row += 1
            cons = constraint_values(q, pm)
            for a, u in enumerate(act):
                F[row] = cons[u] - xi
                J[row, 0:blk] = 2.0 * _lift_vec(q.psi_con[u] @ pm[:, 0] - q.f_con[u])
                for j in range(1, k + 1):
                    cs = (j - off) * blk
                    J[row, cs : cs + blk] = 2.0 * _lift_vec(q.psi_con[u] @ pm[:, j])
                J[row, i_xi] = -1.0
                row += 1
        if pow_act:
            F[row] = precoder_power(pm) - q.p_t
            for j in range(ncols):
                cs = j * blk
                J[row, cs : cs + blk] = 2.0 * _lift_vec(pm[:, j + off])
        return F, J

    for _ in range(5):
        F, J = residual_jacobian(x)
        if np.linalg.norm(F, np.inf) < 1e-14 * (1.0 + np.linalg.norm(x, np.inf)):
            break
        try:
            dx = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            dx, *_ = np.linalg.lstsq(J, -F, rcond=None)
        if not np.all(np.isfinite(dx)):
            return None
        x = x + dx

    pm, xi, mu_a, mp = split(x)
    mu_full = np.zeros(k) if q.include_common else np.zeros(0)
    if n_act:
        mu_full[act] = np.maximum(mu_a, 0.0)
    return pm, xi, mu_full, max(mp, 0.0)


def kkt_residual(q, sol):
    """Recomputed-from-scratch optimality residual of a candidate solution.

    Maximum of normalized stationarity (in P and xi_c), primal
    feasibility, dual feasibility, and complementary slackness for the
    original quadratic problem, using the recovered multipliers. Small
    values certify the solve independently of the dual path.
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
    for j in range(1, k + 1):
        g = (q.psi_obj + psi_mu + mu_pow * np.eye(n_t)) @ p[:, j] - q.f_obj[j - 1]
        terms.append(np.linalg.norm(g) / scale)

    if q.include_common:
        # stationarity in the common column and in xi_c
        g_c = psi_mu @ p[:, 0] - np.einsum("u,un->n", mu, q.f_con) + mu_pow * p[:, 0]
        terms.append(np.linalg.norm(g_c) / scale)
        terms.append(abs(1.0 - float(np.sum(mu))))

        cons = constraint_values(q, p)
        slack = xi_c_star - cons
        terms.append(max(0.0, float(np.max(-slack))) / (1.0 + abs(xi_c_star)))
        terms.append(max(0.0, -float(np.min(mu))))
        comp = np.abs(mu * slack) / (1.0 + np.abs(cons))
        terms.append(float(np.max(comp)))

    pw = precoder_power(p)
    terms.append(max(0.0, pw - q.p_t) / max(1.0, q.p_t))
    terms.append(max(0.0, -mu_pow))
    terms.append(abs(mu_pow * (pw - q.p_t)) / max(1.0, q.p_t))

    return float(max(terms))
