"""Reduced ergodic sum-rate sweep (takes a few seconds).

All four schemes on paired channel draws, 5 channels x 50 conditional
realizations, SNR 0 to 40 dB in 10 dB steps, alpha = 0.6. Small enough
to run while reading the code, large enough that the ordering of the
curves (joint design on top, naive zero-forcing falling behind as the
estimate error scales with power) is already visible. The full desk
profile lives in config_desk.json for the command-line runner.
"""

from collections import defaultdict

from jmbeam.harness import ExperimentConfig, run_sweep


def main():
    cfg = ExperimentConfig(
        snr_db=(0.0, 10.0, 20.0, 30.0, 40.0), m=50, n_channels=5
    )
    records = run_sweep(cfg)

    table = defaultdict(dict)
    for r in records:
        table[r.scheme][r.snr_db] = (r.esr, r.std_err)

    snrs = cfg.snr_db
    print(f"ESR (bits/channel use) +- std err, alpha={cfg.alphas[0]:g}, "
          f"M={cfg.m}, {cfg.n_channels} channels")
    print(f"{'scheme':>12} " + " ".join(f"{s:>14g}dB" for s in snrs))
    for scheme in cfg.schemes:
        cells = [table[scheme][s] for s in snrs]
        print(f"{scheme:>12} "
              + " ".join(f"{e:>9.3f}+-{se:<5.3f}" for e, se in cells))


if __name__ == "__main__":
    main()
