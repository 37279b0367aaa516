"""The lockstep driver and the sweep's blocks of AWSMSE runs."""

import copy
import json
import math
import multiprocessing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_cfg
from jmbeam import ao, harness, qcqp
from jmbeam.ao import run_ao
from jmbeam.errors import DegenerateMmse, JmbeamError, NotPsd, NumericalBreakdown
from jmbeam.harness import ExperimentConfig, cell_seed, run_single, run_sweep
from jmbeam.lockstep import drive, run_one

DESK_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "config_desk.json"
AO_SCHEMES = ("JMB-AWSMSE", "BC-AWSMSE")


# ---------------------------------------------------------------------------
# the driver


def _double(payloads):
    if any(p < 0 for p in payloads):
        raise NotPsd("negative payload")
    return [2 * p for p in payloads]


def _late(payloads):
    return list(payloads)


_late.rank = -1


def test_drive_serves_stacked_and_isolates_errors():
    calls = []

    def server(payloads):
        calls.append(list(payloads))
        return _double(payloads)

    def run(values, tag):
        total = 0
        for v in values:
            total += yield server, v
        return tag, total + (yield _late, 0)

    out = drive([run([1, 2], "a"), run([3, -1, 5], "b"), run([4], "c")])
    assert out[0] == ("a", 6) and out[2] == ("c", 8)
    assert isinstance(out[1], NotPsd)
    # the first round serves all three runs in one call; the failing round
    # is served again item by item, and the runs at the lower-ranked
    # server wait until no run needs the other one
    assert calls[0] == [1, 3, 4]
    assert calls[1:4] == [[2, -1], [2], [-1]]
    with pytest.raises(NotPsd):
        run_one(run([-2], "d"))


# ---------------------------------------------------------------------------
# blocks of the sweep


# channels a block of the tests below holds at most (`small_blocks`)
BLOCK = 5


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of at most BLOCK channels at _block_cfg's m = 12."""
    monkeypatch.setattr(harness, "BLOCK_ROWS", BLOCK * 12)


def _block_cfg(**over):
    """Every scheme on two cells of more channels than one small block
    holds."""
    base = dict(schemes=harness.SCHEMES, snr_db=(5.0, 30.0), m=12,
                n_channels=BLOCK + 2, n_max=60, epsilon_r=1e-3)
    base.update(over)
    return tiny_cfg(**base)


def _recorded_sweep(monkeypatch, cfg, out_dir):
    """run_sweep with every block's runs and results recorded."""
    blocks = []

    def recording(runs):
        results = run_block(runs)
        blocks.append((runs, results))
        return results

    run_block = harness.run_block
    monkeypatch.setattr(harness, "run_block", recording)
    run_sweep(cfg, out_dir=None if out_dir is None else str(out_dir))
    monkeypatch.undo()
    return blocks


def _same_run(a, b):
    (p_a, t_a), (p_b, t_b) = a, b
    return p_a.tobytes() == p_b.tobytes() and vars(t_a) == vars(t_b)


def test_block_runs_match_runs_alone_and_single(tmp_path, monkeypatch, small_blocks):
    cfg = _block_cfg()
    blocks = _recorded_sweep(monkeypatch, cfg, tmp_path / "sweep")
    sizes = [len(runs) for runs, _ in blocks]
    assert sizes == [2 * BLOCK, 2 * BLOCK, 8]
    for runs, results in blocks:
        for run, got in zip(runs, results):
            assert _same_run(got, run_ao(*run))
    # every detail row is run_single's sum rate for its channel, to the bit
    rows = (tmp_path / "sweep" / "sr_detail.csv").read_text().splitlines()[1:]
    assert len(rows) == len(cfg.schemes) * 2 * cfg.n_channels
    for row in rows:
        scheme, alpha, snr_db, ch, sr = row.split(",")
        seed = cell_seed(cfg.master_seed, float(alpha), float(snr_db), int(ch))
        _, want, _ = run_single(cfg, scheme, float(snr_db), float(alpha), seed)
        assert sr == repr(want), row


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_blocks_cut_the_grid_by_rows_and_workers(threads):
    grid = [(0.6, 5.0, ch) for ch in range(901)]
    for n in (1, 2, 5, 7, 13, 18, 45, 180, 901):
        cells = grid[:n]
        for m in (1, 12, 200, 1000, 3000, harness.BLOCK_ROWS + 1):
            blocks = harness._blocks(cells, m, threads)
            sizes = [len(b) for b in blocks]
            what = (n, m, threads, sizes)
            # contiguous, in order, and never empty
            assert sum(blocks, []) == cells, what
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1, what
            assert len(blocks) % threads == 0 or len(blocks) == n, what
            assert all(s * m <= harness.BLOCK_ROWS or s == 1 for s in sizes), what
            # the fewest: the next smaller multiple of threads overflows
            fewer = (math.ceil(len(blocks) / threads) - 1) * threads
            assert fewer == 0 or math.ceil(n / fewer) * m > harness.BLOCK_ROWS, what
    if threads <= 2:
        # the desk grid in 4 blocks of 45 channels, the benchmark's desk
        # grid in one block per worker, and paper-m's 5 channels in one
        assert [len(b) for b in harness._blocks(grid[:180], 200, threads)] == [45] * 4
        assert [len(b) for b in harness._blocks(grid[:18], 200, threads)] == (
            [18 // threads] * threads)
        assert [len(b) for b in harness._blocks(grid[:5], 1000, threads)] == (
            [5] if threads == 1 else [3, 2])


def test_sweep_bytes_do_not_depend_on_the_blocks(tmp_path, monkeypatch):
    # one block, one channel per block, and the default cut (two blocks
    # of 6 channels at m = 1000) write the same bytes
    cfg = _block_cfg(m=1000, n_channels=6, n_max=20)
    assert len(harness._blocks(list(range(12)), cfg.m, cfg.threads)) == 2
    files = {}
    for name, rows in (("default", harness.BLOCK_ROWS), ("one", 10**9), ("each", 1)):
        monkeypatch.setattr(harness, "BLOCK_ROWS", rows)
        run_sweep(cfg, out_dir=str(tmp_path / name))
        files[name] = [(tmp_path / name / f).read_bytes()
                       for f in ("esr.csv", "sr_detail.csv")]
    assert files["one"] == files["default"] == files["each"]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers are forked",
)
def test_block_sweep_same_bytes_across_threads(tmp_path, small_blocks):
    # 3 blocks serial and 4 on the pool
    cfg = _block_cfg(snr_db=(20.0,), n_channels=2 * BLOCK + 3)
    run_sweep(cfg, out_dir=str(tmp_path / "t1"))
    run_sweep(replace(cfg, threads=2), out_dir=str(tmp_path / "t2"))
    for name in ("esr.csv", "sr_detail.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()


def _first_call_arg(monkeypatch, module, name, index, cfg, scheme, snr_db, channel):
    """A copy of positional argument `index` of the first call of
    module.name in one run made alone (the block update's arrays live in
    a scratch arena that the next call overwrites)."""
    seen = []
    original = getattr(module, name)

    def recording(*args):
        seen.append(copy.deepcopy(args[index]))
        return original(*args)

    with monkeypatch.context() as m:
        m.setattr(module, name, recording)
        run_single(cfg, scheme, snr_db, 0.6, cell_seed(cfg.master_seed, 0.6, snr_db, channel))
    return seen[0]


def _injected_failure(tmp_path, monkeypatch, module, name, index, poisoned, error):
    """A clean sweep and one in which module.name raises `error` whenever
    `poisoned` finds the target run's data in its positional argument
    `index`; returns the two sets of detail rows and the second sweep's
    failures."""
    cfg = _block_cfg(snr_db=(20.0,))
    run_sweep(cfg, out_dir=str(tmp_path / "clean"))
    original = getattr(module, name)

    def failing(*args):
        if poisoned(args[index]):
            raise error
        return original(*args)

    monkeypatch.setattr(module, name, failing)
    run_sweep(cfg, out_dir=str(tmp_path / "failed"))
    rows = [(tmp_path / d / "sr_detail.csv").read_text().splitlines()
            for d in ("clean", "failed")]
    failures = json.loads((tmp_path / "failed" / "meta.json").read_text())["failures"]
    return rows, failures


@pytest.mark.parametrize("scheme", AO_SCHEMES)
def test_not_psd_from_the_stacked_guard_fails_one_run(tmp_path, monkeypatch, small_blocks,
                                                     scheme):
    # the guard factors every problem of a round in one stacked call; the
    # target's first private matrix makes that call raise
    cfg = _block_cfg(snr_db=(20.0,))
    mats = _first_call_arg(monkeypatch, qcqp, "cholesky_psd", 0, cfg, scheme, 20.0, 3)
    target = mats[0]
    rows, failures = _injected_failure(
        tmp_path, monkeypatch, qcqp, "cholesky_psd", 0,
        lambda a: any(np.array_equal(x, target) for x in a),
        NotPsd("injected pivot"),
    )
    assert failures == [{"scheme": scheme, "alpha": 0.6, "snr_db": 20.0,
                         "channel": 3, "error": "NotPsd: injected pivot"}]
    clean, failed = rows
    assert failed == [r for r in clean if not r.startswith(f"{scheme},0.6,20.0,3,")]


@pytest.mark.parametrize("scheme", AO_SCHEMES)
def test_degenerate_mmse_from_the_block_update_fails_one_run(tmp_path, monkeypatch,
                                                            small_blocks, scheme):
    # the block update stacks the precoders of every run it serves; the
    # target's first precoder makes that call raise. The JMB and BC runs
    # of a channel share its sample, so the key is the precoder
    cfg = _block_cfg(snr_db=(20.0,))
    target = _first_call_arg(monkeypatch, ao, "update_blocks", 1, cfg, scheme, 20.0, 3)[0]
    rows, failures = _injected_failure(
        tmp_path, monkeypatch, ao, "update_blocks", 1,
        lambda p: any(np.array_equal(q, target) for q in p),
        DegenerateMmse("injected underflow"),
    )
    assert failures == [{"scheme": scheme, "alpha": 0.6, "snr_db": 20.0,
                         "channel": 3, "error": "DegenerateMmse: injected underflow"}]
    clean, failed = rows
    assert failed == [r for r in clean if not r.startswith(f"{scheme},0.6,20.0,3,")]


def test_numerical_breakdown_fails_one_run_of_a_block():
    # at 3080 dB the receive powers of that run's first update overflow:
    # the run ends in NumericalBreakdown, and the runs of its block have
    # their bits alone
    cfg = _block_cfg()
    runs = []
    for snr_db in (20.0, 3080.0, 30.0):
        seed = cell_seed(cfg.master_seed, 0.6, snr_db, 0)
        cell = harness._draw(cfg, snr_db, 0.6, seed)
        runs.append(harness._ao_run(cfg, "JMB-AWSMSE", *cell))
    out = ao.run_block(runs)
    assert isinstance(out[1], NumericalBreakdown)
    for i in (0, 2):
        assert _same_run(out[i], run_ao(*runs[i]))


# ---------------------------------------------------------------------------
# certification, run by run


def _certified_runs(monkeypatch, cfg):
    """The traces of every AWSMSE run of cfg's sweep, after checking what
    the benchmark's traced gates checked one solve and one AO run at a
    time: every solve Optimal with a recomputed KKT residual of at most
    1e-8, and the AO objective never rising by more than 1e-7."""
    blocks = _recorded_sweep(monkeypatch, cfg, None)
    results = [r for _, res in blocks for r in res]
    assert len(results) == 2 * len(cfg.snr_db) * cfg.n_channels
    traces = []
    for result in results:
        assert not isinstance(result, JmbeamError)
        _, trace = result
        assert trace.solver_status == ["Optimal"] * len(trace)
        assert all(math.isfinite(x) for x in trace.kkt_residual)
        assert max(trace.kkt_residual) <= 1e-8
        assert np.diff(trace.awsmse_obj).max(initial=-np.inf) <= 1e-7
        traces.append(trace)
    return traces


def test_desk_blocks_certify_every_solve(monkeypatch):
    # the desk sweep at 2 channels per cell: every run also converges
    cfg = replace(ExperimentConfig.from_json(DESK_CONFIG), n_channels=2)
    traces = _certified_runs(monkeypatch, cfg)
    assert all(t.stop_reason == "converged" for t in traces)


def test_paper_scale_blocks_certify_every_solve(monkeypatch):
    # the benchmark's m = 1000 grid: one channel per cell on every other
    # SNR, whose block updates take one run per stacked call; the 30 dB
    # runs extrapolate
    desk = ExperimentConfig.from_json(DESK_CONFIG)
    cfg = replace(desk.paper_scale(), snr_db=desk.snr_db[::2], n_channels=1)
    assert ao.CHUNK_ROWS // cfg.m <= 1
    traces = _certified_runs(monkeypatch, cfg)
    assert max(len(t) for t in traces) > ao.EXTRAPOLATE_FROM
    # with a tighter threshold the 30 dB runs reach the cap and stop there
    tight = replace(cfg, epsilon_r=1e-7, n_max=40)
    stops = {t.stop_reason for t in _certified_runs(monkeypatch, tight)}
    assert stops == {"converged", "n_max"}
