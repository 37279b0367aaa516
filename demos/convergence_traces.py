"""Alternating-optimization traces on one fixed channel.

Runs the joint design from all four initializations at 5, 20 and 35 dB
on a single estimated channel and prints where each trace ends up. At
low SNR every start lands on essentially the same rate; at high SNR the
starts separate, which is why `jmbeam convergence` traces all four. The
final rbar is the sample-average sum rate at the last precoder the
blocks were updated on.
"""

import numpy as np

from jmbeam.ao import INIT_SCHEMES
from jmbeam.harness import ExperimentConfig, run_convergence


def main():
    cfg = ExperimentConfig(m=100, master_seed=12345, snr_db=(5.0, 20.0, 35.0))
    traces = run_convergence(cfg)

    print(f"{'snr_db':>6} {'init':>8} {'iters':>6} {'final rbar':>12} {'stop':>10}")
    for snr in cfg.snr_db:
        finals = []
        for init in INIT_SCHEMES:
            tr = traces[(snr, init)]
            finals.append(tr.rbar[-1])
            print(f"{snr:>6g} {init:>8} {len(tr):>6} {tr.rbar[-1]:>12.6f} "
                  f"{tr.stop_reason:>10}")
        print(f"{'':>6} spread across inits: "
              f"{max(finals) - min(finals):.4f} bits")


if __name__ == "__main__":
    main()
