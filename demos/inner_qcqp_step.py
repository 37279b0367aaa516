"""One inner precoder update, inspected.

Freezes equalizers and weights at their optima for a random precoder,
assembles the convex quadratic subproblem, and solves it by Newton's
method on its (K+1)-multiplier dual, restricted to the face of the
multipliers not pinned at zero and started from the centre mu = 1/K.
Prints the objective drop, the recomputed KKT residual, how the power
budget is used, and which user's common-MSE epigraph constraint carries
the max (its simplex multiplier).
Then takes the next updates, as the alternating optimization does, and
solves each twice: started from the previous update's multipliers and
from the centre. The warm start saves more steps as the updates settle.
"""

import numpy as np

from jmbeam.channel import CsitConfig, draw_sample, make_draw, substream
from jmbeam.harness import snr_to_pt
from jmbeam.qcqp import build, constraint_values, kkt_residual, solve
from jmbeam.receivers import (
    accumulate_components,
    awmse_values,
    awsmse_objective,
    precoder_power,
    update_blocks,
)


def main(seed=3, snr_db=20.0, alpha=0.6, m=200):
    p_t = snr_to_pt(snr_db)
    csit = CsitConfig(n_t=2, k=2, alpha=alpha, p_t=p_t)
    draw = make_draw(substream(seed, 0), csit)
    sample = draw_sample(substream(seed, 1), draw.h_est, draw.sigma_e2, m)

    rng = np.random.default_rng(seed + 1)
    p0 = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    p0 *= np.sqrt(p_t) / np.linalg.norm(p0)

    gw = update_blocks(sample, p0)
    comps = accumulate_components(sample, gw)
    before = awsmse_objective(*awmse_values(comps, p0))

    q = build(comps, p_t)
    sol = solve(q, warm=p0)
    after = sol.objective + q.omitted_constant

    print(f"solver status      : {sol.status} in {sol.iterations} Newton steps"
          " on the dual face, from the centre")
    print(f"objective at start : {before:.8f}")
    print(f"objective at solve : {after:.8f}  (drop {before - after:.8f})")
    print(f"recomputed KKT res : {kkt_residual(q, sol):.2e}")
    print(f"power used         : {precoder_power(sol.p_star):.6f} of {p_t:g}"
          f"  (multiplier {sol.mu_pow:.4f})")
    cons = constraint_values(q, sol.p_star)
    for u in range(2):
        tag = "max, binds" if sol.mu[u] > 1e-6 else "slack"
        print(f"user {u} common xi  : {cons[u]:.8f}  mu={sol.mu[u]:.4f}  [{tag}]")

    print("update  steps warm  steps cold  KKT res warm  precoder gap")
    for n in range(2, 8):
        gw = update_blocks(sample, sol.p_star)
        q = build(accumulate_components(sample, gw), p_t)
        cold = solve(q, warm=sol.p_star)
        sol = solve(q, warm=sol.p_star, warm_dual=(sol.mu, sol.mu_pow))
        gap = np.abs(sol.p_star - cold.p_star).max() / np.abs(cold.p_star).max()
        print(f"{n:6d}  {sol.iterations:10d}  {cold.iterations:10d}"
              f"  {sol.kkt_residual:12.2e}  {gap:12.1e}")

if __name__ == "__main__":
    main()
