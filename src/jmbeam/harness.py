"""Experiment driver: deterministic seeding, sweep/convergence protocols,
and CSV/JSON outputs.

Noise power is fixed at one, so SNR in dB maps to the power budget as
p_t = 10**(snr_db/10). Each (alpha, snr, channel) cell owns an RNG
substream derived from the master seed; the scheme is deliberately not
part of the key, so all schemes see identical channel draws and Monte
Carlo samples (paired comparison). The true channel is only ever used
for evaluation, never inside an optimizer. BC-AWSMSE is the JMB-AWSMSE
run at alpha = 1 (`_ao_run`), on the cell's channel.

A sweep task is a block of consecutive channels of the grid, sized by
`_blocks` from the grid, m and the worker count. It draws a channel and
its sample, directions and starts once for all schemes, steps the
block's AWSMSE runs in lockstep (`ao.run_block`) and scores every row
in one stacked call; each row has the bits `run_single` gives it, so
outputs depend on neither the blocks nor the worker count. A task
returns its sr_detail.csv rows, which `_records` averages into esr.csv;
every CSV the package writes, traces too, goes through `_write_rows`.
"""

import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from .ao import (INIT_SCHEMES, AoParams, _precoders, dof_power_split, initialize,
                 jmb_zf_svd_wf, run_ao, run_block, zf_wf)
from .channel import CsitConfig, MonteCarloSample, draw_sample, make_draw, substream
from .errors import ConfigError, JmbeamError
from .lockstep import serve
from .receivers import average_rates, sum_rate

__all__ = [
    "SCHEMES",
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

# Monte-Carlo rows (channels x m) that one sweep task (`_block_task`)
# holds at most, unless it holds a single channel. Its AWSMSE runs step
# in lockstep, so fewer, larger blocks pay fewer rounds of stacked calls,
# but a block's runs hold their state at once. On the full desk grid
# (m = 200, serial) 45-channel blocks took 0.57x the time of 5-channel
# ones for +4.5% peak memory; one 180-channel block was no faster and
# took +19%.
BLOCK_ROWS = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description, loadable from a single JSON object.

    Unknown keys are rejected rather than ignored; a silently dropped
    typo ("n_channel") would corrupt a long sweep. So are two alphas or
    two SNRs that key the same cell seed, which would repeat one cell's
    channel draws, a repeated scheme, which would count each channel
    twice, and booleans where numbers belong. Keywords, JSON and
    replace() are normalized alike, here only: the lists become tuples
    and the numbers of alphas, snr_db and epsilon_r floats, so equal
    configs compare and hash equal.
    """

    n_t: int = 2
    k: int = 2
    alphas: tuple = (0.6,)
    snr_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    m: int = 200
    n_channels: int = 20
    schemes: tuple = SCHEMES
    epsilon_r: float = 1e-3
    n_max: int = 200
    master_seed: int = 12345
    threads: int = 1

    def __post_init__(self):
        def bad(msg):
            raise ConfigError(msg)

        for name in ("alphas", "snr_db", "schemes"):
            if not isinstance(getattr(self, name), (list, tuple)):
                bad(f"{name} must be a list")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("alphas", "snr_db"):
            object.__setattr__(self, name, _floats(name, getattr(self, name)))
        object.__setattr__(self, "epsilon_r", *_floats("epsilon_r", (self.epsilon_r,)))

        for name in ("n_t", "k", "m", "n_channels", "threads"):
            v = getattr(self, name)
            if not _is_number(v, int) or v < 1:
                bad(f"{name} must be a positive integer, got {v!r}")
        if self.k > self.n_t:
            bad(f"k={self.k} exceeds n_t={self.n_t}")
        if not _is_number(self.master_seed, int) or self.master_seed < 0:
            bad(f"master_seed must be a nonnegative integer")
        if not self.alphas or not all(0.0 <= a <= 1.0 for a in self.alphas):
            bad(f"alphas must be a nonempty list of values in [0, 1]")
        if not self.snr_db or not all(map(_usable_snr, self.snr_db)):
            bad(
                "snr_db must be a nonempty list of values that key a cell "
                "seed and give a finite positive power budget"
            )
        seeds = ({cell_seed(0, a, 0.0, 0) for a in self.alphas},
                 {cell_seed(0, 0.0, s, 0) for s in self.snr_db})
        for name, keyed in zip(("alphas", "snr_db"), seeds):
            if len(keyed) < len(getattr(self, name)):
                bad(f"{name} holds two values that key the same cell seed")
        if not self.schemes:
            bad("schemes must be nonempty")
        for s in self.schemes:
            if s not in SCHEMES:
                bad(f"unknown scheme {s!r}; valid: {', '.join(SCHEMES)}")
        if len(set(self.schemes)) < len(self.schemes):
            bad("schemes holds a scheme twice")
        try:
            self.ao_params()  # AoParams checks epsilon_r and n_max
        except ValueError as e:
            bad(str(e))

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**d)

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
        return asdict(self)

    def ao_params(self, init_scheme=AoParams.init_scheme):
        return AoParams(epsilon_r=self.epsilon_r, n_max=self.n_max, init_scheme=init_scheme)


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


def _floats(name, values):
    """`values` as a tuple of floats; a bool, a string or an int too
    large for a float among them is a ConfigError that names the field."""
    try:
        if all(map(_is_number, values)):
            return tuple(map(float, values))
    except OverflowError:
        pass
    raise ConfigError(f"{name} takes numbers only")


def snr_to_pt(snr_db):
    """The power budget p_t = 10**(snr_db/10) at unit noise power."""
    return 10.0 ** (float(snr_db) / 10.0)


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
        n_t=cfg.n_t, k=cfg.k, alpha=float(alpha), p_t=snr_to_pt(snr_db)
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
    if scheme.endswith("AWSMSE"):
        p, trace = run_ao(*_ao_run(cfg, scheme, csit, draw, sample))
    elif scheme.startswith("JMB"):
        p, trace = jmb_zf_svd_wf(draw.h_est, csit.p_t, csit.alpha), None
    else:
        p, trace = zf_wf(draw.h_est, csit.p_t), None
    return p, float(sum_rate(draw.h_true, p)), trace


def _ao_run(cfg, scheme, csit, draw, sample):
    """The `run_ao` arguments of an AWSMSE scheme on one drawn channel.

    BC-AWSMSE is the joint design at alpha = 1: its common column starts
    with no power and, being zero, stays so under every update. JMB-AWSMSE
    is that run, bit for bit, where its DoF split gives the common column
    no power (p_t <= 1). Only the optimizer sees that alpha, not the channel.
    """
    if scheme.startswith("BC") or dof_power_split(csit.p_t, csit.alpha)[0] == 0.0:
        csit = replace(csit, alpha=1.0)
    return draw.h_est, sample, csit, cfg.ao_params()


def _blocks(cells, m, threads):
    """`cells` cut into consecutive blocks whose sizes differ by at most
    one: the fewest blocks, in a multiple of `threads`, of at most
    BLOCK_ROWS // m cells each (one at least), and never an empty one."""
    per = max(1, BLOCK_ROWS // m)
    count = min(len(cells), threads * math.ceil(len(cells) / (threads * per)))
    size, extra = divmod(len(cells), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _block_task(cfg, cells):
    """Every scheme on a block of channels; failures stay local to their
    (scheme, channel).

    `cells` holds (alpha, snr_db, channel) triples. Each channel's draw,
    sample and `_precoders` call (its AWSMSE starts and one-shot designs)
    serve all schemes. The block's AWSMSE runs step in lockstep
    (`run_block`), each distinct run once, and one stacked call scores
    every precoder on its true channel (`_sum_rates`, row by row if it
    fails), with the bits `run_single` gives it. Returns the block's
    sr_detail.csv rows and meta.json failures, in cell and scheme order.
    """
    draws = [
        _draw(cfg, snr_db, alpha, cell_seed(cfg.master_seed, alpha, snr_db, ch))
        for alpha, snr_db, ch in cells
    ]
    found, keys, runs = {}, {}, {}  # (cell, scheme) -> precoder, then sum rate, or error
    for c, (csit, draw, sample) in enumerate(draws):
        opt = {s: _ao_run(cfg, s, csit, draw, sample) for s in cfg.schemes if s.endswith("AWSMSE")}
        wf = [s for s in cfg.schemes if s not in opt]
        try:
            ps = _precoders("zf-svd", draw.h_est, csit.p_t, [r[2].alpha for r in opt.values()],
                            [csit.alpha if s.startswith("JMB") else 1.0 for s in wf])
        except JmbeamError as e:
            found.update(dict.fromkeys([(c, s) for s in cfg.schemes], e))
            continue
        for (s, run), p in zip(opt.items(), ps):  # a run per (cell, optimizer alpha)
            keys[c, s] = c, run[2].alpha
            runs.setdefault(keys[c, s], (p, *run[1:]))
        found.update(zip([(c, s) for s in wf], ps[len(opt):]))
    results = dict(zip(runs, run_block(list(runs.values()))))
    for cs, key in keys.items():
        found[cs] = results[key] if isinstance(results[key], JmbeamError) else results[key][0]
    order = list(itertools.product(range(len(cells)), cfg.schemes))
    ok = [cs for cs in order if not isinstance(found[cs], JmbeamError)]
    truth = [MonteCarloSample(realizations=draw.h_true[None]) for _, draw, _ in draws]
    found.update(zip(ok, serve(_sum_rates, [(truth[c], found[c, s]) for c, s in ok])))
    rows, failures = [], []
    for c, scheme in order:
        (alpha, snr_db, ch), x = cells[c], found[c, scheme]
        if isinstance(x, JmbeamError):
            failures.append({"scheme": scheme, "alpha": alpha, "snr_db": snr_db,
                             "channel": ch, "error": f"{type(x).__name__}: {x}"})
        else:
            rows.append((scheme, alpha, snr_db, ch, x))
    return rows, failures


def _sum_rates(items):
    """Per (sample, p) item, `sum_rate` on the sample's one matrix, in one stacked call."""
    return average_rates(*zip(*items)).asr.tolist() if items else []


def _records(cfg, rows):
    """One EsrRecord per (scheme, alpha, snr_db) of the config, in that
    order, that has sr_detail.csv rows: the mean sum rate over them and
    its standard error."""
    srs = {}
    for scheme, alpha, snr_db, _, sr in rows:
        srs.setdefault((scheme, alpha, snr_db), []).append(sr)
    records = []
    for key in itertools.product(cfg.schemes, cfg.alphas, cfg.snr_db):
        if key in srs:
            arr = np.asarray(srs[key])
            n = len(arr)
            se = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            records.append(EsrRecord(*key, float(arr.mean()), se, n, cfg.m, cfg.master_seed))
    return records


def _write_rows(path, header, rows):
    """CSV of `header` and `rows`, unquoted; the str of a float is its
    repr, so floats round-trip losslessly."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_esr_csv(path, records):
    """One row per EsrRecord, its fields in order."""
    _write_rows(path, [f.name for f in fields(EsrRecord)], map(astuple, records))


def write_detail_csv(path, details):
    """Per-channel sum rates: one row per (scheme, cell, channel).

    Schemes share channels within a cell, so paired comparisons (e.g.
    the standard error of a per-channel scheme difference) can be read
    straight off this file.
    """
    _write_rows(path, ("scheme", "alpha", "snr_db", "channel", "sr"), details)


def _write_meta(out_dir, cfg, extra):
    """Create out_dir and write its meta.json: the config, the versions
    and `extra`."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        pkg_version = version("jmbeam")
    except PackageNotFoundError:
        pkg_version = "unknown"
    meta = {
        "config": cfg.to_dict(),
        "sigma_n2": 1.0,
        "error_model": "variance p_t**-alpha, capped at 1",
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "jmbeam": pkg_version,
        },
    }
    meta.update(extra)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def run_sweep(cfg, out_dir=None):
    """Evaluate every scheme on the (alpha, snr) grid over paired channels.

    A task is a block of consecutive channels of the grid, in (alpha,
    snr, channel) order (`_block_task`). `_blocks` cuts the grid into the
    fewest blocks of at most BLOCK_ROWS Monte-Carlo rows, in a multiple
    of cfg.threads, so a serial sweep runs as few lockstep blocks as
    memory allows and the pool gets one block per worker; it starts no
    more workers than there are blocks. The blocks depend on the grid,
    m and threads; a run's bits on none of them. The detail rows and
    failures of finished blocks are joined in block order, and the rows
    averaged into the returned records. Writes esr.csv, sr_detail.csv
    and meta.json into out_dir when given; meta.json counts completed
    and total tasks in channels. On interrupt or a dead pool worker,
    every block that already completed, in any order, is flushed, with
    the abort reason in meta.json, before the exception propagates.
    """
    cells = [
        (alpha, snr_db, ch)
        for alpha in cfg.alphas
        for snr_db in cfg.snr_db
        for ch in range(cfg.n_channels)
    ]
    tasks = _blocks(cells, cfg.m, cfg.threads)
    results = {}  # task index -> (detail rows, failures)
    futures = []
    abort = None
    t0 = time.perf_counter()
    try:
        if cfg.threads <= 1:
            for i, t in enumerate(tasks):
                results[i] = _block_task(cfg, t)
        else:
            with ProcessPoolExecutor(max_workers=min(cfg.threads, len(tasks))) as ex:
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

    done = [results[i] for i in sorted(results)]
    rows = [row for task_rows, _ in done for row in task_rows]
    failures = [f for _, task_failures in done for f in task_failures]
    records = _records(cfg, rows)
    if out_dir is not None:
        _write_meta(
            out_dir,
            cfg,
            {
                "kind": "sweep",
                "wall_time_s": wall,
                "interrupted": abort is not None,
                "abort_reason": None if abort is None
                else f"{type(abort).__name__}: {abort}",
                "failures": failures,
                "tasks_completed": sum(len(tasks[i]) for i in results),
                "tasks_total": len(cells),
            },
        )
        write_esr_csv(os.path.join(out_dir, "esr.csv"), records)
        write_detail_csv(os.path.join(out_dir, "sr_detail.csv"), rows)
    if abort is not None:
        raise abort
    return records


def run_convergence(cfg, out_dir=None):
    """Optimization traces on one channel for every SNR of the config
    and every start in INIT_SCHEMES.

    Every SNR draws its channel and sample as run_single does, from the
    same substreams (master_seed, 0) and (master_seed, 1), so only the
    error scale changes with the SNR and every trace sees the same
    underlying randomness. Returns
    {(snr_db, init): AoTrace} and writes one trace_<snr>_<init>.csv per
    pair when out_dir is given. All runs step in lockstep as one block
    (`run_block`), each with the bits `run_ao` gives it alone; the first
    run to fail, in (snr, init) order, raises its error.

    The traces are of the config's one alpha, and their file names hold
    the SNR to 6 digits (:g). A config with more than one alpha, or with
    two SNRs of one name, raises ConfigError before anything runs or is
    written.
    """
    if len(cfg.alphas) != 1:
        raise ConfigError(
            f"convergence runs at one alpha, got {len(cfg.alphas)}: "
            f"{', '.join(map(repr, cfg.alphas))}"
        )
    snrs = list(cfg.snr_db)
    if len({f"{snr_db:g}" for snr_db in snrs}) != len(snrs):
        raise ConfigError(f"two SNRs share a trace file name (6 digits): {snrs!r}")
    inits = list(INIT_SCHEMES)
    alpha = float(cfg.alphas[0])

    t0 = time.perf_counter()
    keys, runs = [], []
    for snr_db in snrs:
        csit, draw, sample = _draw(cfg, snr_db, alpha, cfg.master_seed)
        for init in inits:
            keys.append((snr_db, init))
            p = initialize(init, draw.h_est, csit.p_t, csit.alpha)
            runs.append((p, sample, csit, cfg.ao_params(init)))
    traces = {}
    for key, result in zip(keys, run_block(runs)):
        if isinstance(result, JmbeamError):
            raise result
        traces[key] = result[1]

    if out_dir is not None:
        _write_meta(
            out_dir,
            cfg,
            {
                "kind": "convergence",
                "snrs": snrs,
                "inits": inits,
                "alpha": alpha,
                "wall_time_s": time.perf_counter() - t0,
            },
        )
        for (snr_db, init), t in traces.items():
            _write_rows(
                os.path.join(out_dir, f"trace_{snr_db:g}_{init}.csv"),
                ("iter", "rbar", "awsmse_obj", "power", "solver_status", "solver_iters"),
                zip(itertools.count(1), t.rbar, t.awsmse_obj, t.power,
                    t.solver_status, t.solver_iters),
            )
    return traces
