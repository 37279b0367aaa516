"""Command-line front end for the experiment driver.

Three subcommands: `sweep` runs the ESR-vs-SNR grid and writes esr.csv
plus meta.json; `convergence` writes per-(SNR, init) optimization
traces on one fixed channel; `single` optimizes one channel draw and
prints the outcome. Exit codes: 0 success, 2 configuration error, 3
solver failure in `single` or `convergence`.
"""

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, JmbeamError
from .harness import (
    SCHEMES,
    ExperimentConfig,
    cell_seed,
    run_convergence,
    run_single,
    run_sweep,
)
from .receivers import precoder_power

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _build_parser():
    p = argparse.ArgumentParser(
        prog="jmbeam",
        description="Sum-rate optimization experiments for joint "
        "multicast/broadcast precoding under imperfect CSI.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="ESR vs SNR grid, written as esr.csv")
    sw.add_argument("--config", required=True, help="JSON experiment config")
    sw.add_argument("--out", required=True, help="output directory")
    sw.add_argument("--seed", type=int, default=None, help="override master seed")
    sw.add_argument("--threads", type=int, default=None, help="override worker count")
    sw.add_argument(
        "--paper-scale",
        action="store_true",
        help="full protocol: 1000 conditional draws, 100 channels",
    )

    cv = sub.add_parser("convergence", help="per-(SNR, init) traces on one channel")
    cv.add_argument("--config", required=True, help="JSON experiment config")
    cv.add_argument("--out", required=True, help="output directory")

    sg = sub.add_parser("single", help="one channel draw, printed summary")
    sg.add_argument("--config", required=True, help="JSON experiment config")
    sg.add_argument("--scheme", required=True, choices=list(SCHEMES))
    sg.add_argument("--snr-db", type=float, required=True)
    sg.add_argument("--alpha", type=float, required=True)
    sg.add_argument("--channel", type=int, default=0, help="channel index in the cell")
    return p


def _cmd_sweep(args):
    cfg = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    if args.paper_scale:
        cfg = cfg.paper_scale()
    records = run_sweep(cfg, out_dir=args.out)
    print(f"wrote {len(records)} records to {args.out}/esr.csv")
    return EXIT_OK


def _cmd_convergence(args):
    cfg = ExperimentConfig.from_json(args.config)
    traces = run_convergence(cfg, out_dir=args.out)
    print(f"wrote {len(traces)} traces to {args.out}")
    return EXIT_OK


def _cmd_single(args):
    # the config's own checks vet the cell and raise ConfigError
    cfg = ExperimentConfig.from_json(args.config)
    cfg = replace(cfg, snr_db=(args.snr_db,), alphas=(args.alpha,))
    if args.channel < 0:
        raise ConfigError(f"channel must be nonnegative, got {args.channel}")
    seed = cell_seed(cfg.master_seed, args.alpha, args.snr_db, args.channel)
    p, sr, trace = run_single(cfg, args.scheme, args.snr_db, args.alpha, seed)
    pw = precoder_power(p)
    pc = float((p[:, 0].conj() @ p[:, 0]).real)
    print(f"scheme={args.scheme}")
    print(f"snr_db={args.snr_db!r}")
    print(f"alpha={args.alpha!r}")
    print(f"seed={seed}")
    print(f"sum_rate={sr!r}")
    print(f"power={pw!r}")
    print(f"common_power_fraction={pc / pw if pw > 0 else 0.0!r}")
    if trace is not None:
        print(f"iterations={len(trace)}")
        print(f"stop_reason={trace.stop_reason}")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "convergence": _cmd_convergence,
        "single": _cmd_single,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except JmbeamError as e:
        print(f"solver failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
