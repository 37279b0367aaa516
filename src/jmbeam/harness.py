"""Experiment driver: deterministic seeding, sweep/convergence protocols,
and CSV/JSON outputs.

Noise power is fixed at one, so SNR in dB maps to the power budget as
p_t = 10**(snr_db/10). Each (alpha, snr, channel) cell owns an RNG
substream derived from the master seed; the scheme is deliberately not
part of the key, so all schemes see identical channel draws and Monte
Carlo samples (paired comparison). The true channel is only ever used
for evaluation, never inside an optimizer.

A sweep task is a block of up to BLOCK_CHANNELS consecutive channels of
the grid. It draws each channel and sample once for all schemes and
steps the block's AWSMSE runs in lockstep (`ao.run_block`); every run
has the bits `run_single` gives it, so outputs depend neither on the
blocks nor on the worker count.
"""

import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .ao import INIT_SCHEMES, AoParams, run_ao, run_block
from .baselines import jmb_zf_svd_wf, zf_wf
from .channel import CsitConfig, draw_sample, make_draw, substream
from .errors import ConfigError, JmbeamError
from .receivers import sum_rate

__all__ = [
    "SCHEMES",
    "SIGMA_N2",
    "ExperimentConfig",
    "EsrRecord",
    "cell_seed",
    "run_single",
    "run_sweep",
    "run_convergence",
    "write_esr_csv",
    "write_detail_csv",
]

SCHEMES = ("JMB-AWSMSE", "BC-AWSMSE", "JMB-ZF-SVD", "ZF-WF")

SIGMA_N2 = 1.0

# Channels per sweep task (`_block_task`), whose AWSMSE runs step in
# lockstep. A fixed constant, not a config key, so serial and pooled
# sweeps form the same blocks. Sized on the desk grid at 2 channels per
# cell: 10-channel blocks ran faster than 5-channel ones (0.6x against
# 0.8x of one run at a time) but raised the peak memory of repeated
# sweeps by 8% against 6%, since a block's runs hold their state at once.
BLOCK_CHANNELS = 5


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description, loadable from a single JSON object.

    Unknown keys are rejected rather than ignored; a silently dropped
    typo ("n_channel") would corrupt a long sweep. So are two alphas or
    two SNRs that key the same cell seed, which would repeat one cell's
    channel draws, and booleans where numbers belong.
    """

    n_t: int = 2
    k: int = 2
    alphas: tuple = (0.6,)
    snr_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    m: int = 200
    n_channels: int = 20
    schemes: tuple = SCHEMES
    init_scheme: str = "zf-svd"
    epsilon_r: float = 1e-3
    n_max: int = 200
    master_seed: int = 12345
    threads: int = 1

    def __post_init__(self):
        def bad(msg):
            raise ConfigError(msg)

        for name in ("n_t", "k", "m", "n_channels", "n_max", "threads"):
            v = getattr(self, name)
            if not _is_number(v, int) or v < 1:
                bad(f"{name} must be a positive integer, got {v!r}")
        if self.k > self.n_t:
            bad(f"k={self.k} exceeds n_t={self.n_t}")
        if not _is_number(self.master_seed, int) or self.master_seed < 0:
            bad(f"master_seed must be a nonnegative integer")
        if len(self.alphas) == 0 or any(
            not (_is_number(a) and 0.0 <= a <= 1.0) for a in self.alphas
        ):
            bad(f"alphas must be a nonempty list of values in [0, 1]")
        if len(self.snr_db) == 0 or not all(
            _is_number(s) and _usable_snr(s) for s in self.snr_db
        ):
            bad(
                "snr_db must be a nonempty list of values that key a cell "
                "seed and give a finite positive power budget"
            )
        seeds = ({cell_seed(0, a, 0.0, 0) for a in self.alphas},
                 {cell_seed(0, 0.0, s, 0) for s in self.snr_db})
        for name, keyed in zip(("alphas", "snr_db"), seeds):
            if len(keyed) < len(getattr(self, name)):
                bad(f"{name} holds two values that key the same cell seed")
        if len(self.schemes) == 0:
            bad("schemes must be nonempty")
        for s in self.schemes:
            if s not in SCHEMES:
                bad(f"unknown scheme {s!r}; valid: {', '.join(SCHEMES)}")
        if self.init_scheme not in INIT_SCHEMES:
            bad(f"unknown init_scheme {self.init_scheme!r}")
        if not (isinstance(self.epsilon_r, float) and self.epsilon_r > 0):
            bad(f"epsilon_r must be a positive float")

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        kw = dict(d)
        for name in ("alphas", "snr_db", "schemes"):
            if name in kw:
                if not isinstance(kw[name], (list, tuple)):
                    raise ConfigError(f"{name} must be a list")
                kw[name] = tuple(kw[name])
        eps = kw.get("epsilon_r")
        if isinstance(eps, int) and not isinstance(eps, bool):
            kw["epsilon_r"] = float(eps)
        for name in ("alphas", "snr_db"):
            try:
                if name in kw:
                    if not all(map(_is_number, kw[name])):
                        raise TypeError
                    kw[name] = tuple(float(x) for x in kw[name])
            except (TypeError, OverflowError):
                raise ConfigError(f"{name} must be a list of numbers")
        return cls(**kw)

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as f:
                doc = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}")
        return cls.from_dict(doc)

    def paper_scale(self):
        """Full-size protocol: M=1000 conditional draws, 100 channels."""
        return replace(self, m=1000, n_channels=100)

    def to_dict(self):
        d = asdict(self)
        for name in ("alphas", "snr_db", "schemes"):
            d[name] = list(d[name])
        return d

    def ao_params(self, init_scheme=None):
        return AoParams(
            epsilon_r=self.epsilon_r,
            n_max=self.n_max,
            init_scheme=init_scheme or self.init_scheme,
        )


@dataclass(frozen=True)
class EsrRecord:
    """One sweep cell: ergodic sum rate and its standard error over the
    channels that completed (std_err = sample std / sqrt(n))."""

    scheme: str
    alpha: float
    snr_db: float
    esr: float
    std_err: float
    n_channels: int
    m: int
    seed: int


def cell_seed(master_seed, alpha, snr_db, channel):
    """Derived seed for one (alpha, snr, channel) cell.

    Keys on the parameter values (alpha at 1e-6 resolution, snr at 0.01
    dB) rather than grid positions, so refining a grid never reshuffles
    existing cells. The leading 2 in the spawn key keeps these streams
    disjoint from the purpose streams 0 and 1 used under the same seed.
    """
    a = int(round(float(alpha) * 1_000_000))
    s = int(round((float(snr_db) + 1000.0) * 100))
    ch = int(channel)
    if a < 0 or s < 0 or ch < 0:
        raise ValueError("cell key components must be nonnegative")
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(2, a, s, ch))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _is_number(x, kind=(int, float)):
    return isinstance(x, kind) and not isinstance(x, bool)


def snr_to_pt(snr_db):
    return 10.0 ** (float(snr_db) / 10.0) * SIGMA_N2


def _usable_snr(snr_db):
    """Whether cell_seed can key snr_db and snr_to_pt maps it to a finite
    positive budget (roughly -1000 to 3082 dB)."""
    try:
        cell_seed(0, 0.0, snr_db, 0)
        return 0.0 < snr_to_pt(snr_db) < math.inf
    except (ValueError, OverflowError):
        return False


def _draw(cfg, snr_db, alpha, seed):
    """(CsitConfig, ChannelDraw, MonteCarloSample) of one operating point:
    the channel from substream (seed, 0), the sample from (seed, 1)."""
    csit = CsitConfig(
        n_t=cfg.n_t, k=cfg.k, alpha=float(alpha), p_t=snr_to_pt(snr_db),
        sigma_n2=SIGMA_N2,
    )
    draw = make_draw(substream(seed, 0), csit)
    sample = draw_sample(substream(seed, 1), draw.h_est, draw.sigma_e2, cfg.m)
    return csit, draw, sample


def run_single(cfg, scheme, snr_db, alpha, seed):
    """Draw one channel, optimize under partial CSI, evaluate on truth.

    Returns (precoder, sum_rate_on_true_channel, trace_or_None). The
    trace is only produced by the alternating-optimization schemes.
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")
    csit, draw, sample = _draw(cfg, snr_db, alpha, seed)

    # the broadcast schemes are the alpha = 1 cases: no common power
    if scheme.endswith("AWSMSE"):
        p, trace = run_ao(
            draw.h_est, sample, csit, cfg.ao_params(), common=scheme.startswith("JMB")
        )
    else:
        p, trace = _baseline(scheme, draw, csit), None

    sr = sum_rate(draw.h_true, p, SIGMA_N2)
    return p, float(sr), trace


def _baseline(scheme, draw, csit):
    """The precoder of a non-iterative scheme on the channel estimate."""
    if scheme.startswith("JMB"):
        return jmb_zf_svd_wf(draw.h_est, csit.p_t, csit.alpha, SIGMA_N2)
    return zf_wf(draw.h_est, csit.p_t, SIGMA_N2)


def _block_task(cfg, cells):
    """Every scheme on a block of channels; failures stay local to their
    (scheme, channel).

    `cells` holds (alpha, snr_db, channel) triples. Each channel and its
    sample are drawn once for all schemes. The AWSMSE runs of the whole
    block step in lockstep (`run_block`), and each run's result has the
    bits `run_single` gives it. Returns per channel the (scheme, sum
    rate, error) outcomes in scheme order.
    """
    draws = [
        _draw(cfg, snr_db, alpha, cell_seed(cfg.master_seed, alpha, snr_db, ch))
        for alpha, snr_db, ch in cells
    ]
    ao_schemes = [s for s in cfg.schemes if s.endswith("AWSMSE")]
    runs = [
        (draw.h_est, sample, csit, cfg.ao_params(), scheme.startswith("JMB"))
        for csit, draw, sample in draws
        for scheme in ao_schemes
    ]
    results = iter(run_block(runs))
    out = []
    for csit, draw, _ in draws:
        ao_results = {scheme: next(results) for scheme in ao_schemes}
        outcomes = []
        for scheme in cfg.schemes:
            try:
                if scheme in ao_results:
                    found = ao_results[scheme]
                    if isinstance(found, JmbeamError):
                        raise found
                    p = found[0]
                else:
                    p = _baseline(scheme, draw, csit)
                outcomes.append((scheme, float(sum_rate(draw.h_true, p, SIGMA_N2)), ""))
            except JmbeamError as e:
                outcomes.append((scheme, math.nan, f"{type(e).__name__}: {e}"))
        out.append(outcomes)
    return out


def _reduce(cfg, done):
    """Ordered aggregation of completed channels into records.

    `done` holds ((alpha, snr_db, channel), outcomes) pairs in task order.
    """
    srs = {}
    failures = []
    details = []
    for (alpha, snr_db, channel), outcomes in done:
        for scheme, sr, err in outcomes:
            if err:
                failures.append(
                    {"scheme": scheme, "alpha": alpha, "snr_db": snr_db,
                     "channel": channel, "error": err}
                )
            else:
                srs.setdefault((scheme, alpha, snr_db), []).append(sr)
                details.append((scheme, float(alpha), float(snr_db), channel, sr))

    records = []
    for scheme in cfg.schemes:
        for alpha in cfg.alphas:
            for snr_db in cfg.snr_db:
                vals = srs.get((scheme, alpha, snr_db), [])
                n = len(vals)
                if n == 0:
                    continue
                arr = np.asarray(vals)
                esr = float(arr.mean())
                se = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
                records.append(
                    EsrRecord(
                        scheme=scheme,
                        alpha=float(alpha),
                        snr_db=float(snr_db),
                        esr=esr,
                        std_err=se,
                        n_channels=n,
                        m=cfg.m,
                        seed=cfg.master_seed,
                    )
                )
    return records, failures, details


def write_esr_csv(path, records):
    """Fixed-column CSV; floats via repr for lossless round-trip."""
    with open(path, "w") as f:
        f.write("scheme,alpha,snr_db,esr,std_err,n_channels,m,seed\n")
        for r in records:
            f.write(
                f"{r.scheme},{r.alpha!r},{r.snr_db!r},{r.esr!r},"
                f"{r.std_err!r},{r.n_channels},{r.m},{r.seed}\n"
            )


def _write_meta(path, cfg, extra):
    from importlib.metadata import PackageNotFoundError, version

    try:
        pkg_version = version("jmbeam")
    except PackageNotFoundError:
        pkg_version = "unknown"
    meta = {
        "config": cfg.to_dict(),
        "sigma_n2": SIGMA_N2,
        "error_model": "variance p_t**-alpha, capped at 1",
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "jmbeam": pkg_version,
        },
    }
    meta.update(extra)
    with open(path, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def write_detail_csv(path, details):
    """Per-channel sum rates: one row per (scheme, cell, channel).

    Schemes share channels within a cell, so paired comparisons (e.g.
    the standard error of a per-channel scheme difference) can be read
    straight off this file.
    """
    with open(path, "w") as f:
        f.write("scheme,alpha,snr_db,channel,sr\n")
        for scheme, alpha, snr_db, ch, sr in details:
            f.write(f"{scheme},{alpha!r},{snr_db!r},{ch},{sr!r}\n")


def run_sweep(cfg, out_dir=None):
    """Evaluate every scheme on the (alpha, snr) grid over paired channels.

    A task is a block of up to BLOCK_CHANNELS consecutive channels of the
    grid, in (alpha, snr, channel) order (`_block_task`). The blocks
    depend on the grid alone, so the serial and pooled sweeps run the
    same blocks. Writes esr.csv, sr_detail.csv and meta.json into
    out_dir when given; meta.json counts completed and total tasks in
    channels. On interrupt or a dead pool worker, every block that
    already completed, in any order, is reduced and flushed, with the
    abort reason in meta.json, before the exception propagates.
    """
    cells = [
        (alpha, snr_db, ch)
        for alpha in cfg.alphas
        for snr_db in cfg.snr_db
        for ch in range(cfg.n_channels)
    ]
    tasks = [cells[i:i + BLOCK_CHANNELS] for i in range(0, len(cells), BLOCK_CHANNELS)]
    results = {}  # task index -> outcomes per channel
    futures = []
    abort = None
    t0 = time.perf_counter()
    try:
        if cfg.threads <= 1:
            for i, t in enumerate(tasks):
                results[i] = _block_task(cfg, t)
        else:
            with ProcessPoolExecutor(max_workers=cfg.threads) as ex:
                futures = [ex.submit(_block_task, cfg, t) for t in tasks]
                try:
                    for fut in as_completed(futures):
                        fut.result()  # a dead worker raises BrokenProcessPool
                except KeyboardInterrupt:
                    # leaving the block waits for the pool; run no queued task
                    ex.shutdown(cancel_futures=True)
                    raise
    except (KeyboardInterrupt, BrokenProcessPool) as e:
        abort = e
    # read every finished future, also one that finished as the pool broke
    for i, fut in enumerate(futures):
        if fut.done() and not fut.cancelled() and fut.exception() is None:
            results[i] = fut.result()
    wall = time.perf_counter() - t0

    done = [cell for i in sorted(results) for cell in zip(tasks[i], results[i])]
    records, failures, details = _reduce(cfg, done)
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        write_esr_csv(os.path.join(out_dir, "esr.csv"), records)
        write_detail_csv(os.path.join(out_dir, "sr_detail.csv"), details)
        _write_meta(
            os.path.join(out_dir, "meta.json"),
            cfg,
            {
                "kind": "sweep",
                "wall_time_s": wall,
                "interrupted": abort is not None,
                "abort_reason": None if abort is None
                else f"{type(abort).__name__}: {abort}",
                "failures": failures,
                "tasks_completed": len(done),
                "tasks_total": len(cells),
            },
        )
    if abort is not None:
        raise abort
    return records


def _fmt_snr(snr_db):
    return "%g" % float(snr_db)


def run_convergence(cfg, snrs=None, inits=None, out_dir=None):
    """Optimization traces on one channel across SNRs and starts.

    Every SNR draws its channel and sample as run_single does, from the
    same substreams (master_seed, 0) and (master_seed, 1), so only the
    error scale changes with the SNR and every trace sees the same
    underlying randomness. Returns
    {(snr_db, init): AoTrace} and writes one trace_<snr>_<init>.csv per
    pair when out_dir is given. All runs step in lockstep as one block
    (`run_block`), each with the bits `run_ao` gives it alone; the first
    run to fail, in (snr, init) order, raises its error.

    The traces are of the config's one alpha; a config with more than
    one raises ConfigError before anything runs or is written.
    """
    if len(cfg.alphas) != 1:
        raise ConfigError(
            f"convergence runs at one alpha, got {len(cfg.alphas)}: "
            f"{', '.join(map(repr, cfg.alphas))}"
        )
    snrs = list(cfg.snr_db) if snrs is None else [float(s) for s in snrs]
    inits = list(INIT_SCHEMES) if inits is None else list(inits)
    alpha = float(cfg.alphas[0])

    t0 = time.perf_counter()
    keys, runs = [], []
    for snr_db in snrs:
        csit, draw, sample = _draw(cfg, snr_db, alpha, cfg.master_seed)
        for init in inits:
            keys.append((snr_db, init))
            runs.append((draw.h_est, sample, csit, cfg.ao_params(init), True))
    traces = {}
    for key, result in zip(keys, run_block(runs)):
        if isinstance(result, JmbeamError):
            raise result
        traces[key] = result[1]

    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        for (snr_db, init), trace in traces.items():
            trace.to_csv(os.path.join(out_dir, f"trace_{_fmt_snr(snr_db)}_{init}.csv"))
        _write_meta(
            os.path.join(out_dir, "meta.json"),
            cfg,
            {
                "kind": "convergence",
                "snrs": snrs,
                "inits": inits,
                "alpha": alpha,
                "wall_time_s": time.perf_counter() - t0,
            },
        )
    return traces
