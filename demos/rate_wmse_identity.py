"""Augmented-WMSE / rate identity on a random operating point.

Draws one estimated channel with its conditional Monte-Carlo sample,
picks a random full-power precoder, updates equalizers and weights to
their per-realization optima, and tabulates the resulting per-stream
averages: the augmented WMSE of each stream equals one minus its average
rate, and the max-plus-sum objective equals (K+1) minus the average sum
rate. This is the identity that lets a rate maximizer run on MSEs.
"""

import numpy as np

from jmbeam.channel import CsitConfig, draw_sample, make_draw, substream
from jmbeam.harness import snr_to_pt
from jmbeam.receivers import (
    accumulate_components,
    average_rates,
    awmse_values,
    awsmse_objective,
    update_blocks,
)


def main(seed=7, n_t=2, k=2, snr_db=20.0, alpha=0.6, m=400):
    p_t = snr_to_pt(snr_db)
    csit = CsitConfig(n_t=n_t, k=k, alpha=alpha, p_t=p_t)
    draw = make_draw(substream(seed, 0), csit)
    sample = draw_sample(substream(seed, 1), draw.h_est, draw.sigma_e2, m)

    rng = np.random.default_rng(seed + 1)
    p = rng.normal(size=(n_t, k + 1)) + 1j * rng.normal(size=(n_t, k + 1))
    p *= np.sqrt(p_t) / np.linalg.norm(p)

    gw = update_blocks(sample, p)
    comps = accumulate_components(sample, gw)
    xi_c, xi_p = awmse_values(comps, p)
    ar = average_rates(sample, p)

    print(f"n_t={n_t} k={k} snr={snr_db:g} dB alpha={alpha:g} m={m}")
    print(f"{'user':>4} {'rbar_c':>10} {'xi_c':>10} {'1-xi_c':>10} "
          f"{'rbar_p':>10} {'xi_p':>10} {'1-xi_p':>10}")
    for u in range(k):
        print(f"{u:>4} {ar.r_c[u]:>10.6f} {xi_c[u]:>10.6f} "
              f"{1 - xi_c[u]:>10.6f} {ar.r_p[u]:>10.6f} {xi_p[u]:>10.6f} "
              f"{1 - xi_p[u]:>10.6f}")
    obj = awsmse_objective(xi_c, xi_p)
    print(f"objective max_k xi_c + sum xi_p = {obj:.10f}")
    print(f"(K+1) - ASR                    = {(k + 1) - ar.asr:.10f}")
    print(f"per-stream identity defect     = "
          f"{max(np.abs(xi_c - (1 - ar.r_c)).max(), np.abs(xi_p - (1 - ar.r_p)).max()):.2e}")


if __name__ == "__main__":
    main()
