"""Independent re-computations used by the test suite.

Everything in this file recomputes a quantity the library also produces,
but by a deliberately different route: explicit Python loops instead of
einsum, einsum instead of a GEMM on cached sample data, fsum instead of
matrix products over the realizations, fresh temporaries in the earlier
array layout instead of a scratch arena and one-pass sums (which must
give the same bits), dual ascent, bisection and a cone
interior-point method instead of a dual Newton path, symbol-level
simulation instead of closed forms. Agreement between the two routes is
the evidence; nothing here imports the implementation path it is
checking. The last section reads and writes the committed channel
fixture.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# link terms / rates, loop route


def loop_powers(h_k, p, sigma_n2, user):
    """Receive powers for one user via explicit scalar loops.

    Returns (s_c, s_p, i_p, t_p, t_c) exactly as the library defines
    them, but summed term by term.
    """
    n_t = len(h_k)
    k1 = p.shape[1]

    def inner(col):
        acc = 0.0 + 0.0j
        for n in range(n_t):
            acc += complex(p[n, col]).conjugate() * complex(h_k[n])
        return abs(acc) ** 2

    s_c = inner(0)
    s_p = inner(user + 1)
    i_p = float(sigma_n2)
    for col in range(1, k1):
        if col != user + 1:
            i_p += inner(col)
    t_p = i_p + s_p
    t_c = s_c + t_p
    return s_c, s_p, i_p, t_p, t_c


def einsum_powers(h, p, sigma_n2):
    """Receive amplitudes and powers over a batch of channel matrices by
    one einsum, with no GEMM and no per-sample cache.

    h is (m, n_t, k). Returns (y, s_c, s_p, i_p, t_p, t_c): y[m, i, u] =
    p_i^H h_u, shape (m, k+1, k), and the (m, k) powers as the library
    defines them, the interference summed over the other private columns
    directly.
    """
    y = np.einsum("ij,mjk->mik", p.conj().T, h)
    a2 = y.real**2 + y.imag**2
    k = h.shape[2]
    idx = np.arange(k)
    priv = a2[:, 1:, :]  # priv[m, i, u] = |p_{i+1}^H h_u|^2
    cross = priv.copy()
    cross[:, idx, idx] = 0.0
    i_p = cross.sum(axis=1) + sigma_n2
    s_c, s_p = a2[:, 0, :], priv[:, idx, idx]
    t_p = i_p + s_p
    return y, s_c, s_p, i_p, t_p, s_c + t_p


def loop_rates(h_k, p, sigma_n2, user):
    """(r_c, r_p) from the SINR forms log2(1 + signal/interference)."""
    s_c, s_p, i_p, t_p, _ = loop_powers(h_k, p, sigma_n2, user)
    return math.log2(1.0 + s_c / t_p), math.log2(1.0 + s_p / i_p)


def loop_mse(h_k, p, g_c, g_p, sigma_n2, user):
    """MSEs at arbitrary equalizers, scalar arithmetic only."""
    _, _, _, t_p, t_c = loop_powers(h_k, p, sigma_n2, user)
    z_c = 0.0 + 0.0j
    z_p = 0.0 + 0.0j
    for n in range(len(h_k)):
        z_c += complex(h_k[n]).conjugate() * complex(p[n, 0])
        z_p += complex(h_k[n]).conjugate() * complex(p[n, user + 1])
    eps_c = abs(g_c) ** 2 * t_c - 2.0 * (g_c * z_c).real + 1.0
    eps_p = abs(g_p) ** 2 * t_p - 2.0 * (g_p * z_p).real + 1.0
    return eps_c, eps_p


def loop_wmse(eps, u):
    """Augmented weighted MSE u*eps - log2(u) of one layer at weight u."""
    return u * eps - math.log2(u)


def symbol_level_mse(h_k, p, g_c, g_p, sigma_n2, user, n_draws, rng):
    """Monte-Carlo estimate of the two MSEs from the transmit model.

    Simulates x = P s with unit-variance symbols, y = h^H x + noise,
    common-stage estimate g_c*y, private stage after exact cancellation
    of the common symbol. Returns (eps_c_hat, eps_p_hat, se_c, se_p)
    with the standard errors of the two means.
    """
    h_k = np.asarray(h_k, dtype=complex)
    k1 = p.shape[1]
    hp = h_k.conj() @ p  # (k+1,) effective gains h^H p_i

    def cn(size, var=1.0):
        return math.sqrt(var / 2.0) * (
            rng.standard_normal(size) + 1j * rng.standard_normal(size)
        )

    s = cn((n_draws, k1))
    noise = cn(n_draws, var=sigma_n2)
    y = s @ hp + noise
    err_c = np.abs(g_c * y - s[:, 0]) ** 2
    y_priv = y - hp[0] * s[:, 0]
    err_p = np.abs(g_p * y_priv - s[:, user + 1]) ** 2
    se = lambda e: float(np.std(e, ddof=1) / math.sqrt(n_draws))
    return float(err_c.mean()), float(err_p.mean()), se(err_c), se(err_p)


# ---------------------------------------------------------------------------
# component accumulation, fsum route


def fsum_components(sample, gw):
    """Two-pass fsum averages of the per-realization component forms.

    Returns a dict with the same keys/shapes as AwmmseComponents fields.
    Every scalar entry is reduced with math.fsum over the m per-
    realization values, real and imaginary parts separately.
    """
    h = sample.realizations
    m, n_t, k = h.shape

    def mean_over_m(values):
        # values: list of m complex scalars
        re = math.fsum(v.real for v in values) / m
        im = math.fsum(v.imag for v in values) / m
        return complex(re, im)

    out = {
        "psi_c": np.zeros((k, n_t, n_t), complex),
        "psi_p": np.zeros((k, n_t, n_t), complex),
        "f_c": np.zeros((k, n_t), complex),
        "f_p": np.zeros((k, n_t), complex),
        "t_c": np.zeros(k),
        "t_p": np.zeros(k),
        "u_c": np.zeros(k),
        "u_p": np.zeros(k),
        "v_c": np.zeros(k),
        "v_p": np.zeros(k),
    }
    for u in range(k):
        tc = [gw.u_c[i, u] * abs(gw.g_c[i, u]) ** 2 for i in range(m)]
        tp = [gw.u_p[i, u] * abs(gw.g_p[i, u]) ** 2 for i in range(m)]
        out["t_c"][u] = math.fsum(tc) / m
        out["t_p"][u] = math.fsum(tp) / m
        out["u_c"][u] = math.fsum(gw.u_c[i, u] for i in range(m)) / m
        out["u_p"][u] = math.fsum(gw.u_p[i, u] for i in range(m)) / m
        out["v_c"][u] = math.fsum(math.log2(gw.u_c[i, u]) for i in range(m)) / m
        out["v_p"][u] = math.fsum(math.log2(gw.u_p[i, u]) for i in range(m)) / m
        for a in range(n_t):
            fc = [gw.u_c[i, u] * gw.g_c[i, u].conjugate() * h[i, a, u] for i in range(m)]
            fp = [gw.u_p[i, u] * gw.g_p[i, u].conjugate() * h[i, a, u] for i in range(m)]
            out["f_c"][u, a] = mean_over_m(fc)
            out["f_p"][u, a] = mean_over_m(fp)
            for b in range(n_t):
                hh = [h[i, a, u] * h[i, b, u].conjugate() for i in range(m)]
                out["psi_c"][u, a, b] = mean_over_m([tc[i] * hh[i] for i in range(m)])
                out["psi_p"][u, a, b] = mean_over_m([tp[i] * hh[i] for i in range(m)])
    return out


# ---------------------------------------------------------------------------
# Monte-Carlo averages, fresh-temporaries route


def fresh_layout_powers(samples, p):
    """Receive powers of R runs (samples of one shape, (R, n_t, k+1)
    precoders) by the GEMM formulas of `receivers._batch_powers`, every
    intermediate a fresh numpy array: (y, s_c, s_p, i_p, t_p, t_c)."""
    chans = np.array([s.realizations.transpose(0, 2, 1) for s in samples])
    r, m, k, n_t = chans.shape
    y = (chans.reshape(r, m * k, n_t) @ p.conj()).reshape(r, m, k, k + 1)
    a2 = y.real**2 + y.imag**2
    flat = a2.reshape(r, m, k * (k + 1))
    s_c = flat[..., :: k + 1]
    s_p = flat[..., 1 :: k + 2]
    others = np.hstack([np.zeros((k, 1)), 1.0 - np.eye(k)])
    mask = (others[:, :, None] * np.eye(k)[:, None, :]).reshape(k * (k + 1), k)
    i_p = flat @ mask + 1.0
    t_p = i_p + s_p
    return y, s_c, s_p, i_p, t_p, s_c + t_p


def fresh_layout_equalizers(powers):
    """(g_c, g_p, u_c, u_p) from `fresh_layout_powers`."""
    y, _, _, i_p, t_p, t_c = powers
    r, m, k, _ = y.shape
    g_p = y.reshape(r, m, k * (k + 1))[..., 1 :: k + 2] / t_p
    return y[..., 0] / t_c, g_p, t_c / t_p, t_p / i_p


def fresh_layout_rates(powers):
    """(r_c, r_p, asr) of R runs: per-realization rates averaged by one
    `mean` per layer over an (R, m, k) array."""
    _, s_c, s_p, i_p, t_p, _ = powers
    r_c = (np.log1p(s_c / t_p) / math.log(2.0)).mean(axis=-2)
    r_p = (np.log1p(s_p / i_p) / math.log(2.0)).mean(axis=-2)
    return r_c, r_p, np.min(r_c, axis=-1) + np.sum(r_p, axis=-1)


def fresh_layout_components(samples, equalizers):
    """Components of R runs as dict of (R, ...) arrays, from per-run
    (R, m, k) equalizers and weights (g_c, g_p, u_c, u_p), on (R, k, 2, m)
    rows of both layers with realizations contiguous: per run and user,
    one real matrix product of the t rows with the draws' columns
    Re h_a conj(h_b) (a <= b), Im h_a conj(h_b) (a < b) and ones, whose
    sums give psi entry by entry and the t mean; one complex product of
    the u conj(g) rows with the channels for f; contiguous sums for the u
    and v means. The draws' columns are formed here, from the
    realizations, not read from the sample.
    """
    g_c, g_p, u_c, u_p = equalizers
    h = np.array([s.realizations.transpose(2, 0, 1) for s in samples])  # (r, k, m, n_t)
    r, k, m, n_t = h.shape
    a, b = np.triu_indices(n_t)
    up = a < b
    hr, hi = h.real, h.imag
    x = np.ascontiguousarray(np.concatenate([
        hr[..., a] * hr[..., b] + hi[..., a] * hi[..., b],
        hi[..., a[up]] * hr[..., b[up]] - hr[..., a[up]] * hi[..., b[up]],
        np.ones((r, k, m, 1)),
    ], axis=-1))
    g = np.ascontiguousarray(np.stack([g_c, g_p], axis=1).transpose(0, 3, 1, 2))
    u = np.ascontiguousarray(np.stack([u_c, u_p], axis=1).transpose(0, 3, 1, 2))
    t = u * (g.real**2 + g.imag**2)
    sums = (t @ x) / m
    psi = np.zeros((r, k, 2, n_t, n_t), complex)
    strict = iter(range(a.size, n_t * n_t))  # the imaginary parts' columns
    for j, (i, l) in enumerate(zip(a, b)):
        psi.real[..., i, l] = psi.real[..., l, i] = sums[..., j]
        if i < l:
            psi.imag[..., i, l] = sums[..., next(strict)]
            psi.imag[..., l, i] = -psi.imag[..., i, l]
    f = ((u * g.conj()) @ h) / m
    t = sums[..., -1]
    u, v = np.stack((u, np.log2(u))).sum(axis=-1) / m
    out = {}
    for name, x in (("psi", psi), ("f", f), ("t", t), ("u", u), ("v", v)):
        out[name + "_c"], out[name + "_p"] = x[:, :, 0], x[:, :, 1]
    return out


# ---------------------------------------------------------------------------
# water-filling, bisection route


def waterfill_bisection(gains, budget, iters=200):
    """Water levels by bisection on the monotone spent-power function.

    Solves sum_i max(0, level - 1/g_i) = budget for the level, then
    reads off the per-gain powers. Independent of any active-set logic.
    """
    inv = 1.0 / np.asarray(gains, dtype=float)
    if budget == 0.0:
        return np.zeros_like(inv)
    lo = float(inv.min())
    hi = float(inv.min() + budget)  # spends > budget on channel argmin alone

    def spent(level):
        return float(np.maximum(level - inv, 0.0).sum())

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if spent(mid) < budget:
            lo = mid
        else:
            hi = mid
    level = 0.5 * (lo + hi)
    return np.maximum(level - inv, 0.0)


# ---------------------------------------------------------------------------
# precoder-update problem, dual-ascent route


def simplex_project(v):
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _inner_minimizer(q, mu, mu_p):
    """Closed-form minimizer of the Lagrangian over P at fixed multipliers.

    Returns (p, ok). The private columns all see the same regularized
    matrix; the common column sees the constraint mix only.
    """
    n_t = q.n_t
    eye = np.eye(n_t)
    a_p = q.psi_obj + mu_p * eye
    b_c = np.zeros(n_t, dtype=complex)
    if q.include_common:
        a_p = a_p + np.einsum("u,unm->nm", mu, q.psi_con)
        a_c = np.einsum("u,unm->nm", mu, q.psi_con) + mu_p * eye
        b_c = q.f_con.T @ mu  # sum_u mu_u f_con[u]
    p = np.zeros((n_t, q.k + 1), dtype=complex)
    try:
        if q.include_common:
            p[:, 0] = np.linalg.solve(a_c, b_c)
        p[:, 1:] = np.linalg.solve(a_p, q.f_obj.T)
    except np.linalg.LinAlgError:
        return p, False
    return p, True


def _dual_value(q, mu, mu_p):
    """Dual function value and supergradient via the inner minimizer."""
    p, ok = _inner_minimizer(q, mu, mu_p)
    if not ok:
        return -np.inf, None, None, p
    priv = p[:, 1:]
    d = -mu_p * q.p_t
    d -= float(np.einsum("kn,nk->", q.f_obj.conj(), priv).real)
    g_mu = None
    if q.include_common:
        d += float(mu @ q.con_const)
        d -= float(((q.f_con.T @ mu).conj() @ p[:, 0]).real)
        quad_all = np.einsum("ni,unm,mi->u", p.conj(), q.psi_con, p).real
        lin = 2.0 * np.einsum("un,n->u", q.f_con.conj(), p[:, 0]).real
        g_mu = quad_all + q.con_const - lin
    pw = float(np.sum(p.real**2 + p.imag**2))
    return d, g_mu, pw - q.p_t, p


def oracle_primal_value(q, p):
    """Objective of the problem at P with xi_c at its tight value.

    Loop arithmetic; usable for either variant (common column ignored
    when absent from the problem).
    """
    priv = p[:, 1:]
    val = 0.0
    for i in range(q.k):
        val += float((priv[:, i].conj() @ q.psi_obj @ priv[:, i]).real)
        val -= 2.0 * float((q.f_obj[i].conj() @ priv[:, i]).real)
    if q.include_common:
        cons = []
        for u in range(q.k):
            g = float((p[:, 0].conj() @ q.psi_con[u] @ p[:, 0]).real)
            for i in range(q.k):
                g += float((priv[:, i].conj() @ q.psi_con[u] @ priv[:, i]).real)
            g -= 2.0 * float((q.f_con[u].conj() @ p[:, 0]).real)
            cons.append(g + float(q.con_const[u]))
        val += max(cons)
    return val


def _value_grad_z(q, z):
    """Dual value and gradient in normalized coordinates.

    z = (mu_1..mu_K, nu) with nu = mu_pow * p_t, so both coordinate
    groups have O(1) gradients regardless of the power budget.
    """
    k = q.k if q.include_common else 0
    mu = z[:k]
    d, g_mu, g_pw, _ = _dual_value(q, mu, z[-1] / q.p_t)
    if not np.isfinite(d):
        return d, None
    g = np.empty(k + 1)
    if k:
        g[:k] = g_mu
    g[-1] = g_pw / q.p_t
    return d, g


def _project_z(q, z):
    out = np.asarray(z, dtype=float).copy()
    if q.include_common:
        out[: q.k] = simplex_project(out[: q.k])
    out[-1] = max(0.0, out[-1])
    return out


def _ascend(q, z0, max_iter=400):
    """Projected gradient ascent with spectral (Barzilai-Borwein) steps."""
    z = _project_z(q, z0)
    d, g = _value_grad_z(q, z)
    if g is None:
        return z, d
    eta = 1.0
    for _ in range(max_iter):
        accepted = False
        for _ in range(60):
            zn = _project_z(q, z + eta * g)
            step = zn - z
            if float(step @ step) == 0.0:
                break
            dn, gn = _value_grad_z(q, zn)
            if gn is not None and dn > d:
                sy = -float(step @ (gn - g))  # > 0 where d is strongly concave
                ss = float(step @ step)
                eta = min(max(ss / sy, 1e-14), 1e14) if sy > 0 else eta * 2.0
                z, d, g = zn, dn, gn
                accepted = True
                break
            eta *= 0.25
        if not accepted:
            break
    return z, d


def _polish_dual(q, z, d, rounds=10):
    """Newton refinement of the dual max over its free coordinates.

    Works purely on dual values (finite-difference derivatives): the
    simplex support and the power multiplier activity are read off z,
    the reduced unconstrained problem is maximized, best point kept.
    """
    k = q.k if q.include_common else 0
    sup = [i for i in range(k) if z[i] > 1e-9]
    nu_on = z[-1] > 0.0
    idx = sup[:-1]
    dim = len(idx) + (1 if nu_on else 0)
    if dim == 0:
        return z, d

    def expand(x):
        zz = z.copy()
        if sup:
            t = x[: len(idx)]
            for i in range(k):
                zz[i] = 0.0
            for j, i in enumerate(idx):
                zz[i] = t[j]
            zz[sup[-1]] = 1.0 - float(np.sum(t))
        if nu_on:
            zz[-1] = x[-1]
        return zz

    def val(x):
        zz = expand(x)
        if (k and zz[:k].min() < -1e-15) or zz[-1] < 0.0:
            return -np.inf
        return _value_grad_z(q, zz)[0]

    x = np.array([z[i] for i in idx] + ([z[-1]] if nu_on else []))
    best_z, best_d = z, d
    for _ in range(rounds):
        h = 1e-6 * (1.0 + np.abs(x))
        grad = np.empty(dim)
        hess = np.empty((dim, dim))
        f0 = val(x)
        for i in range(dim):
            ei = np.zeros(dim)
            ei[i] = h[i]
            fp, fm = val(x + ei), val(x - ei)
            grad[i] = (fp - fm) / (2 * h[i])
            hess[i, i] = (fp - 2 * f0 + fm) / h[i] ** 2
        for i in range(dim):
            for j in range(i + 1, dim):
                ei = np.zeros(dim)
                ej = np.zeros(dim)
                ei[i] = h[i]
                ej[j] = h[j]
                hij = (val(x + ei + ej) - val(x + ei - ej)
                       - val(x - ei + ej) + val(x - ei - ej)) / (4 * h[i] * h[j])
                hess[i, j] = hess[j, i] = hij
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        moved = False
        t = 1.0
        for _ in range(30):
            fx = val(x + t * step)
            if fx > f0:
                x = x + t * step
                if fx > best_d:
                    best_d, best_z = fx, expand(x)
                moved = True
                break
            t *= 0.5
        if not moved or float(np.abs(step).max()) < 1e-15:
            break
    return best_z, best_d


def qcqp_dual_oracle(q, n_starts=20, seed=0, max_iter=400):
    """Certified solve of the precoder-update problem by dual ascent.

    Projected-gradient ascent (spectral steps) on the concave Lagrangian
    dual from n_starts random multiplier initializations, a derivative-
    free Newton polish of the best dual point, then primal recovery from
    the inner minimizer. The reported duality gap is the accuracy
    certificate: it bounds |objective - true optimum| from problem data
    alone.

    Returns dict(objective, dual, gap, p).
    """
    rng = np.random.default_rng(seed)
    k = q.k if q.include_common else 0
    best_d = -np.inf
    best_z = None
    for s in range(n_starts):
        z0 = np.empty(k + 1)
        if k:
            z0[:k] = rng.dirichlet(np.ones(k)) if s else 1.0 / k
        z0[-1] = q.p_t * (float(rng.exponential()) if s else 1.0)
        z, d = _ascend(q, z0, max_iter=max_iter)
        if np.isfinite(d) and d > best_d:
            best_d, best_z = d, z
    best_z, best_d = _polish_dual(q, best_z, best_d)

    best_primal = np.inf
    best_p = None
    # candidate primal points: polished dual point, then a tiny interior
    # nudge of the power multiplier (helps when nu sits exactly at 0)
    for nudge in (0.0, 1e-9):
        zz = best_z.copy()
        zz[-1] += nudge * q.p_t
        p, ok = _inner_minimizer(q, zz[:k], zz[-1] / q.p_t)
        if not ok:
            continue
        pw = float(np.sum(p.real**2 + p.imag**2))
        if pw > q.p_t:
            p = p * math.sqrt(q.p_t / pw)
        f = oracle_primal_value(q, p)
        if f < best_primal:
            best_primal = f
            best_p = p
    return {
        "objective": best_primal,
        "dual": best_d,
        "gap": best_primal - best_d,
        "p": best_p,
    }


# ---------------------------------------------------------------------------
# precoder-update problem, second-order cone route


def _lift(mat):
    """Real action of a complex matrix on [Re; Im] stacked vectors."""
    return np.block([[mat.real, -mat.imag], [mat.imag, mat.real]])


def _lift_vec(v):
    return np.concatenate([v.real, v.imag])


def qcqp_cone_oracle(q, tol=1e-8, max_iter=100):
    """Solve the precoder-update problem as a second-order cone program.

    Complex variables are lifted to reals. Each quadratic ||L^H x||^2 <= r
    becomes the cone ||(2 L^H x; 1 - r)|| <= 1 + r through its Cholesky
    factor, the objective gets an epigraph variable tau, and the power
    budget is the ball ||vec(P)|| <= sqrt(p_t). The cone interior-point
    kernel of jmbeam.socp then runs from a cold start.

    Variable layout: one 2*n_t block per precoder column present (common
    first in JMB mode), then xi_c (JMB only), then tau.

    Returns dict(objective, p, status, iterations), with the status of
    jmbeam.socp; P is scaled into the
    power ball and objective is its value at the tight xi_c, so it is a
    primal upper bound.
    """
    from jmbeam.linalg import cholesky_psd
    from jmbeam.socp import solve_socp

    k, n_t, blk = q.k, q.n_t, 2 * q.n_t
    cols = list(range(k + 1)) if q.include_common else list(range(1, k + 1))
    n_p = len(cols) * blk
    i_xi = n_p if q.include_common else None
    i_tau = n_p + (1 if q.include_common else 0)
    n = i_tau + 1

    def col(j):
        pos = cols.index(j)
        return slice(pos * blk, (pos + 1) * blk)

    c = np.zeros(n)
    c[i_tau] = 1.0
    if q.include_common:
        c[i_xi] = 1.0
    for j in range(1, k + 1):
        c[col(j)] = -2.0 * _lift_vec(q.f_obj[j - 1])

    blocks = []

    def rotated_cone(l_h, cols_in, r_coef, r_const):
        """||(2 L^H x_j for j in cols_in; 1 - r)|| <= 1 + r with
        r = r_coef . x + r_const."""
        d = 2 + len(cols_in) * blk
        g = np.zeros((d, n))
        h = np.zeros(d)
        g[0] = -r_coef
        h[0] = 1.0 + r_const
        for i, j in enumerate(cols_in):
            g[1 + i * blk : 1 + (i + 1) * blk, col(j)] = -2.0 * l_h
        g[d - 1] = r_coef
        h[d - 1] = 1.0 - r_const
        blocks.append((g, h))

    # objective epigraph: sum_j ||L^H p_j||^2 <= tau over the private columns
    tau = np.zeros(n)
    tau[i_tau] = 1.0
    rotated_cone(_lift(cholesky_psd(q.psi_obj).conj().T), range(1, k + 1), tau, 0.0)
    if q.include_common:
        # user u: quadratic over all columns <= xi_c - const + 2 Re f^H p_c
        for u in range(k):
            r = np.zeros(n)
            r[i_xi] = 1.0
            r[col(0)] = 2.0 * _lift_vec(q.f_con[u])
            l_h = _lift(cholesky_psd(q.psi_con[u]).conj().T)
            rotated_cone(l_h, range(k + 1), r, -float(q.con_const[u]))
    g = np.zeros((1 + n_p, n))
    g[1:, :n_p] = -np.eye(n_p)
    h = np.zeros(1 + n_p)
    h[0] = math.sqrt(q.p_t)
    blocks.append((g, h))

    res = solve_socp(
        c,
        np.vstack([b[0] for b in blocks]),
        np.concatenate([b[1] for b in blocks]),
        [b[1].size for b in blocks],
        tol=tol,
        max_iter=max_iter,
    )
    p = np.zeros((n_t, k + 1), dtype=complex)
    for j in cols:
        x = res.x[col(j)]
        p[:, j] = x[:n_t] + 1j * x[n_t:]
    pw = float(np.sum(p.real**2 + p.imag**2))
    if pw > q.p_t:
        p = p * math.sqrt(q.p_t / pw)
    return {
        "objective": oracle_primal_value(q, p),
        "p": p,
        "status": res.status,
        "iterations": res.iterations,
    }


# ---------------------------------------------------------------------------
# channel fixtures


def save_fixture(path, h, seed):
    """Write a channel matrix as a regression fixture.

    Format: header line "nt k seed", then one "re im" pair per line in
    row-major order, using round-trip float repr.
    """
    h = np.asarray(h, dtype=complex)
    n_t, k = h.shape
    with open(path, "w") as f:
        f.write(f"{n_t} {k} {seed}\n")
        for i in range(n_t):
            for j in range(k):
                f.write(f"{float(h[i, j].real)!r} {float(h[i, j].imag)!r}\n")


def load_fixture(path):
    """Read a fixture written by save_fixture; returns (h, seed)."""
    with open(path) as f:
        header = f.readline().split()
        n_t, k, seed = int(header[0]), int(header[1]), int(header[2])
        h = np.empty((n_t, k), dtype=complex)
        for i in range(n_t):
            for j in range(k):
                re, im = f.readline().split()
                h[i, j] = float(re) + 1j * float(im)
    return h, seed
