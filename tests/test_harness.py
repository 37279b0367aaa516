import inspect
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import Future, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_cfg
from jmbeam import ao, harness, receivers
from jmbeam.ao import INIT_SCHEMES, AoTrace, run_ao, zf_wf
from jmbeam.channel import CsitConfig, draw_sample, make_draw, substream
from jmbeam.errors import ConfigError
from jmbeam.harness import (
    SCHEMES,
    ExperimentConfig,
    cell_seed,
    run_convergence,
    run_single,
    run_sweep,
    snr_to_pt,
    write_detail_csv,
    write_esr_csv,
)
from jmbeam.receivers import precoder_power, sum_rate

DESK_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "config_desk.json"
GOLDEN_DETAIL = Path(__file__).resolve().parent / "fixtures" / "sweep_small_sr_detail.csv"


# ---------------------------------------------------------------------------
# config


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.n_t == 2 and cfg.k == 2
    assert cfg.m == 200 and cfg.n_channels == 20
    assert cfg.schemes == SCHEMES
    assert cfg.epsilon_r == 1e-3


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(k=3)  # exceeds n_t
    with pytest.raises(ConfigError):
        ExperimentConfig(schemes=("ZF", "WF"))
    with pytest.raises(ConfigError):
        ExperimentConfig(schemes=())
    with pytest.raises(ConfigError):
        ExperimentConfig(alphas=(1.2,))
    with pytest.raises(ConfigError):
        ExperimentConfig(snr_db=())
    with pytest.raises(ConfigError):
        ExperimentConfig(m=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(epsilon_r=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(master_seed=-1)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"n_channel": 5})
    assert "n_channel" in str(exc.value)
    # keys that were once valid are no longer known
    for key, value in (("solver_max_iter", 100), ("solver_tol", 1e-8),
                       ("cap_sigma_e2", True), ("init_scheme", "zf-svd")):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({key: value})
        assert key in str(exc.value)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict([1, 2])


def test_config_from_dict_coercions():
    cfg = ExperimentConfig.from_dict(
        {"alphas": [0.6], "snr_db": [0, 10], "schemes": ["ZF-WF"],
         "epsilon_r": 1}
    )
    assert cfg.alphas == (0.6,)
    assert cfg.snr_db == (0.0, 10.0)
    assert cfg.epsilon_r == 1.0


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_channels": 4, "m": 16}))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.n_channels == 4 and cfg.m == 16
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(bad)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(tmp_path / "missing.json")


def test_config_paper_scale_and_round_trip():
    cfg = tiny_cfg()
    full = cfg.paper_scale()
    assert full.m == 1000 and full.n_channels == 100
    assert full.n_t == cfg.n_t
    d = cfg.to_dict()
    assert ExperimentConfig.from_dict(d) == cfg


def test_config_keywords_json_and_replace_normalize_alike():
    kw = dict(alphas=[0.6, 1], snr_db=[0, 10], schemes=["ZF-WF"], epsilon_r=1)
    cfg = ExperimentConfig(**kw)
    twins = (ExperimentConfig.from_dict(kw), replace(ExperimentConfig(), **kw),
             ExperimentConfig.from_dict(cfg.to_dict()))
    for twin in twins:
        assert twin == cfg and hash(twin) == hash(cfg)
    assert cfg.alphas == (0.6, 1.0) and cfg.snr_db == (0.0, 10.0)
    assert all(type(x) is float for x in cfg.alphas + cfg.snr_db)
    assert cfg.schemes == ("ZF-WF",)


def test_config_int_epsilon_r_is_a_float():
    cfg = ExperimentConfig(epsilon_r=1)
    assert cfg.epsilon_r == 1.0 and type(cfg.epsilon_r) is float


def test_config_scalar_where_a_list_belongs_is_a_config_error():
    for name, value in (("alphas", 0.6), ("snr_db", 10.0), ("schemes", "ZF-WF")):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**{name: value})
        assert name in str(exc.value)


def test_config_rejects_a_repeated_scheme(tmp_path, capsys):
    # a repeated scheme used to write two esr.csv rows, each over every
    # channel counted twice, with the standard error understated
    from jmbeam.cli import main

    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(schemes=("ZF-WF", "ZF-WF"))
    assert "schemes" in str(exc.value)
    out = tmp_path / "o"
    cfgp = _write_cfg(tmp_path, schemes=["ZF-WF", "JMB-ZF-SVD", "ZF-WF"])
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 2
    assert "schemes" in capsys.readouterr().err
    assert not out.exists()


def test_config_ao_params():
    cfg = tiny_cfg()
    ap = cfg.ao_params()
    assert ap.epsilon_r == cfg.epsilon_r
    assert ap.n_max == cfg.n_max
    assert ap.init_scheme == "zf-svd"
    assert cfg.ao_params("mf-e").init_scheme == "mf-e"


# ---------------------------------------------------------------------------
# seeding


def test_cell_seed_deterministic_and_value_keyed():
    a = cell_seed(1, 0.6, 20.0, 3)
    assert cell_seed(1, 0.6, 20.0, 3) == a
    # keyed on parameter values, not grid positions or scheme
    assert cell_seed(1, 0.6, 20.0, 4) != a
    assert cell_seed(1, 0.6, 25.0, 3) != a
    assert cell_seed(1, 0.9, 20.0, 3) != a
    assert cell_seed(2, 0.6, 20.0, 3) != a
    assert cell_seed(1, 0.6 + 1e-9, 20.0, 3) == a  # below key resolution


def test_cell_seed_rejects_negative_components():
    with pytest.raises(ValueError):
        cell_seed(1, -0.5, 20.0, 0)
    with pytest.raises(ValueError):
        cell_seed(1, 0.6, -2000.0, 0)


def test_snr_to_pt():
    assert snr_to_pt(0.0) == pytest.approx(1.0, rel=1e-14)
    assert snr_to_pt(20.0) == pytest.approx(100.0, rel=1e-14)
    assert snr_to_pt(-10.0) == pytest.approx(0.1, rel=1e-14)


# ---------------------------------------------------------------------------
# run_single


def test_run_single_unknown_scheme():
    with pytest.raises(ConfigError):
        run_single(tiny_cfg(), "MMSE", 5.0, 0.6, 1)


def test_run_single_deterministic():
    cfg = tiny_cfg()
    _, sr1, _ = run_single(cfg, "JMB-ZF-SVD", 5.0, 0.6, 99)
    _, sr2, _ = run_single(cfg, "JMB-ZF-SVD", 5.0, 0.6, 99)
    assert sr1 == sr2


def test_run_single_pairs_channel_across_schemes():
    # the channel draw depends on the seed only, so the ZF-WF output can
    # be reproduced from the same draw outside the harness
    cfg = tiny_cfg()
    seed = cell_seed(cfg.master_seed, 0.6, 5.0, 0)
    p, sr, trace = run_single(cfg, "ZF-WF", 5.0, 0.6, seed)
    assert trace is None
    csit = CsitConfig(n_t=2, k=2, alpha=0.6, p_t=snr_to_pt(5.0))
    draw = make_draw(substream(seed, 0), csit)
    want = zf_wf(draw.h_est, csit.p_t)
    assert np.array_equal(p, want)
    assert sr == pytest.approx(sum_rate(draw.h_true, p), rel=1e-14)


def test_run_single_ao_schemes_return_traces():
    cfg = tiny_cfg()
    p, sr, trace = run_single(cfg, "JMB-AWSMSE", 5.0, 0.6, 5)
    assert isinstance(trace, AoTrace)
    assert len(trace) >= 1
    p2, sr2, trace2 = run_single(cfg, "BC-AWSMSE", 5.0, 0.6, 5)
    assert np.all(p2[:, 0] == 0)
    assert isinstance(trace2, AoTrace)


def test_run_single_near_perfect_csit_matches_nominal():
    # with a vanishing error variance the naive scheme's evaluated rate
    # is its nominal water-filled rate
    cfg = tiny_cfg()
    seed = 11
    p, sr, _ = run_single(cfg, "ZF-WF", 10.0, 25.0, seed)
    csit = CsitConfig(n_t=2, k=2, alpha=25.0, p_t=snr_to_pt(10.0))
    draw = make_draw(substream(seed, 0), csit)
    nominal = sum_rate(draw.h_est, p)
    assert sr == pytest.approx(nominal, abs=1e-8)


def test_run_single_stays_within_power_budget():
    # desk channel 1 at 0 dB, where an inner solve once kept an
    # over-budget point (2.31 p_t) whose objective beat the incumbent
    cfg = ExperimentConfig.from_json(DESK_CONFIG)
    seed = cell_seed(cfg.master_seed, 0.6, 0.0, 1)
    p, _, _ = run_single(cfg, "JMB-AWSMSE", 0.0, 0.6, seed)
    assert precoder_power(p) <= snr_to_pt(0.0) * (1 + 1e-9)


# ---------------------------------------------------------------------------
# run_sweep


def test_sweep_records_match_manual_single_runs(tmp_path):
    cfg = tiny_cfg()
    records = run_sweep(cfg, out_dir=str(tmp_path))
    assert len(records) == 2
    for rec in records:
        srs = []
        for ch in range(cfg.n_channels):
            seed = cell_seed(cfg.master_seed, rec.alpha, rec.snr_db, ch)
            _, sr, _ = run_single(cfg, rec.scheme, rec.snr_db, rec.alpha, seed)
            srs.append(sr)
        assert rec.esr == pytest.approx(float(np.mean(srs)), rel=1e-12)
        want_se = float(np.std(srs, ddof=1) / math.sqrt(len(srs)))
        assert rec.std_err == pytest.approx(want_se, rel=1e-12)
        assert rec.n_channels == cfg.n_channels
        assert rec.m == cfg.m


def test_sweep_output_files(tmp_path):
    cfg = tiny_cfg()
    run_sweep(cfg, out_dir=str(tmp_path))
    esr_lines = (tmp_path / "esr.csv").read_text().splitlines()
    assert esr_lines[0] == "scheme,alpha,snr_db,esr,std_err,n_channels,m,seed"
    assert len(esr_lines) == 1 + 2
    det_lines = (tmp_path / "sr_detail.csv").read_text().splitlines()
    assert det_lines[0] == "scheme,alpha,snr_db,channel,sr"
    assert len(det_lines) == 1 + 2 * 3
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["kind"] == "sweep"
    assert meta["interrupted"] is False and meta["abort_reason"] is None
    assert meta["config"]["n_channels"] == 3
    assert meta["failures"] == []
    assert "numpy" in meta["versions"]
    # detail rows parse and average to the esr records
    _assert_esr_averages_detail(cfg, tmp_path)


def _assert_esr_averages_detail(cfg, out_dir):
    """Each esr.csv row of a sweep in out_dir holds exactly the mean, the
    ddof-1 standard error over sqrt(n) and the count n of its
    sr_detail.csv rows, read in file order; the rows follow grid order."""
    srs = {}
    for ln in (out_dir / "sr_detail.csv").read_text().splitlines()[1:]:
        scheme, alpha, snr, ch, sr = ln.split(",")
        assert int(ch) >= 0
        srs.setdefault((scheme, float(alpha), float(snr)), []).append(float(sr))
    rows = [ln.split(",") for ln in (out_dir / "esr.csv").read_text().splitlines()[1:]]
    keys = [(scheme, float(alpha), float(snr)) for scheme, alpha, snr, *_ in rows]
    grid = [(s, a, snr) for s in cfg.schemes for a in cfg.alphas for snr in cfg.snr_db]
    assert keys == [key for key in grid if key in srs] and set(keys) == set(srs)
    for key, (*_, esr, std_err, n, m, seed) in zip(keys, rows):
        vals = np.asarray(srs[key])
        assert float(esr) == float(vals.mean()), key
        want_se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        assert float(std_err) == want_se, key
        assert int(n) == len(vals) and int(m) == cfg.m and int(seed) == cfg.master_seed


def test_sweep_deterministic_bytes(tmp_path):
    cfg = tiny_cfg()
    run_sweep(cfg, out_dir=str(tmp_path / "a"))
    run_sweep(cfg, out_dir=str(tmp_path / "b"))
    for name in ("esr.csv", "sr_detail.csv"):
        b1 = (tmp_path / "a" / name).read_bytes()
        b2 = (tmp_path / "b" / name).read_bytes()
        assert b1 == b2


def test_sweep_thread_count_invariance(tmp_path):
    cfg1 = tiny_cfg(schemes=("ZF-WF",), n_channels=4)
    cfg2 = tiny_cfg(schemes=("ZF-WF",), n_channels=4, threads=2)
    run_sweep(cfg1, out_dir=str(tmp_path / "t1"))
    run_sweep(cfg2, out_dir=str(tmp_path / "t2"))
    for name in ("esr.csv", "sr_detail.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (
            tmp_path / "t2" / name
        ).read_bytes()


def test_sweep_pool_starts_one_worker_per_task(tmp_path, monkeypatch):
    # an executor that runs each task inline and starts no process; the
    # sweep asks it for no more workers than the grid has blocks
    asked = []

    class InlineExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlineExecutor)
    cfg = tiny_cfg(schemes=("ZF-WF",), n_channels=2)
    run_sweep(cfg, out_dir=str(tmp_path / "serial"))
    run_sweep(replace(cfg, threads=1000), out_dir=str(tmp_path / "pool"))
    assert asked == [2]
    for name in ("esr.csv", "sr_detail.csv"):
        assert (tmp_path / "pool" / name).read_bytes() == (
            tmp_path / "serial" / name
        ).read_bytes()


def test_sweep_matches_golden_fixture(tmp_path):
    # every scheme on a small grid against rates recorded by an earlier
    # build; a tolerance rather than bytes, since small-matrix BLAS
    # kernels may round differently on other hosts
    cfg = tiny_cfg(schemes=SCHEMES, snr_db=(0.0, 20.0, 40.0), n_channels=2, m=200)
    run_sweep(cfg, out_dir=str(tmp_path))
    got = (tmp_path / "sr_detail.csv").read_text().splitlines()
    want = GOLDEN_DETAIL.read_text().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want) == 1 + 4 * 3 * 2
    for g, w in zip(got[1:], want[1:]):
        g_key, g_sr = g.rsplit(",", 1)
        w_key, w_sr = w.rsplit(",", 1)
        assert g_key == w_key
        assert float(g_sr) == pytest.approx(float(w_sr), rel=1e-9, abs=0.0), g_key


def _kill_worker_at(monkeypatch, cfg, *channels):
    """Make each pool worker whose block draws one of `channels` of cfg's
    one cell exit, once the other blocks have had time to report."""
    dying_seeds = {cell_seed(cfg.master_seed, cfg.alphas[0], cfg.snr_db[0], ch)
                   for ch in channels}
    draw = harness._draw

    def dying_draw(cfg, snr_db, alpha, seed):
        if seed in dying_seeds:
            time.sleep(1.0)
            os._exit(1)
        return draw(cfg, snr_db, alpha, seed)

    monkeypatch.setattr(harness, "_draw", dying_draw)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the patched channel draw",
)
def test_sweep_flushes_finished_tasks_when_a_worker_dies(tmp_path, monkeypatch):
    # blocks of at most 2 channels, in a multiple of the 2 workers:
    # channels 0-1, 2-3, 4 and 5, and the blocks of channels 4 and 5 die
    cfg = tiny_cfg(schemes=("ZF-WF",), n_channels=6, threads=2)
    monkeypatch.setattr(harness, "BLOCK_ROWS", 2 * cfg.m)
    serial = tiny_cfg(schemes=("ZF-WF",), n_channels=4)
    run_sweep(serial, out_dir=str(tmp_path / "serial"))
    _kill_worker_at(monkeypatch, cfg, 4, 5)
    with pytest.raises(BrokenProcessPool):
        run_sweep(cfg, out_dir=str(tmp_path / "pool"))
    meta = json.loads((tmp_path / "pool" / "meta.json").read_text())
    assert meta["interrupted"] is True
    assert meta["abort_reason"].startswith("BrokenProcessPool")
    assert meta["tasks_completed"] == 4 and meta["tasks_total"] == 6
    for name in ("esr.csv", "sr_detail.csv"):
        assert (tmp_path / "pool" / name).read_bytes() == (
            tmp_path / "serial" / name
        ).read_bytes()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the patched channel draw",
)
def test_sweep_keeps_tasks_finished_after_a_dead_worker(tmp_path, monkeypatch):
    # blocks 0-1, 2-3, 4 and 5: the first block dies last, and the three
    # blocks after it must survive
    cfg = tiny_cfg(schemes=("ZF-WF",), n_channels=6, threads=2)
    monkeypatch.setattr(harness, "BLOCK_ROWS", 2 * cfg.m)
    rest = [(0.6, 5.0, ch) for ch in (2, 3, 4, 5)]
    rows, _ = harness._block_task(cfg, rest)
    (tmp_path / "serial").mkdir()
    write_esr_csv(tmp_path / "serial" / "esr.csv", harness._records(cfg, rows))
    write_detail_csv(tmp_path / "serial" / "sr_detail.csv", rows)
    _kill_worker_at(monkeypatch, cfg, 0)
    with pytest.raises(BrokenProcessPool):
        run_sweep(cfg, out_dir=str(tmp_path / "pool"))
    meta = json.loads((tmp_path / "pool" / "meta.json").read_text())
    assert meta["interrupted"] is True
    assert meta["tasks_completed"] == 4 and meta["tasks_total"] == 6
    for name in ("esr.csv", "sr_detail.csv"):
        assert (tmp_path / "pool" / name).read_bytes() == (
            tmp_path / "serial" / name
        ).read_bytes()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the patched channel draw",
)
def test_sweep_interrupt_cancels_queued_tasks(tmp_path, monkeypatch):
    # an interrupt that reaches only the parent, after the first result;
    # 12 blocks of 2 channels, each drawing for 0.2 s
    cfg = tiny_cfg(schemes=("ZF-WF",), n_channels=24, threads=2)
    monkeypatch.setattr(harness, "BLOCK_ROWS", 2 * cfg.m)
    draw = harness._draw

    def slow_draw(*args):
        time.sleep(0.1)
        return draw(*args)

    def interrupted(futures):
        for fut in as_completed(futures):
            yield fut
            raise KeyboardInterrupt

    monkeypatch.setattr(harness, "_draw", slow_draw)
    monkeypatch.setattr(harness, "as_completed", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(cfg, out_dir=str(tmp_path))
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["interrupted"] is True
    assert meta["abort_reason"] == "KeyboardInterrupt: "
    assert 1 <= meta["tasks_completed"] < meta["tasks_total"] == 24


def test_sweep_single_cell_matches_run_single():
    cfg = tiny_cfg(schemes=("ZF-WF",), n_channels=1)
    records = run_sweep(cfg)
    assert len(records) == 1
    seed = cell_seed(cfg.master_seed, 0.6, 5.0, 0)
    _, sr, _ = run_single(cfg, "ZF-WF", 5.0, 0.6, seed)
    assert records[0].esr == pytest.approx(sr, rel=1e-14)
    assert records[0].std_err == 0.0


def test_csv_writers_round_trip(tmp_path):
    from jmbeam.harness import EsrRecord

    rec = EsrRecord(
        scheme="ZF-WF", alpha=0.6, snr_db=5.0, esr=1.234567890123456789,
        std_err=0.1, n_channels=3, m=8, seed=77,
    )
    path = tmp_path / "one.csv"
    write_esr_csv(path, [rec])
    line = path.read_text().splitlines()[1].split(",")
    assert float(line[3]) == rec.esr  # repr loses nothing
    det = tmp_path / "det.csv"
    write_detail_csv(det, [("ZF-WF", 0.6, 5.0, 0, rec.esr)])
    row = det.read_text().splitlines()[1].split(",")
    assert float(row[4]) == rec.esr


def test_bc_rows_are_the_alpha_one_run_and_no_option_selects_them(tmp_path):
    # the broadcast scheme has no switch of its own: none of the options
    # that selected or fed its run is left, and every BC-AWSMSE row of a
    # sweep is run_ao on the cell's draw at alpha = 1, to the bit
    removed = {"common", "chans", "work", "snrs", "inits"}
    for fn in (ao.run_ao, ao.ao_steps, harness.run_convergence,
               receivers.accumulate_components, receivers._batch_powers):
        assert removed.isdisjoint(inspect.signature(fn).parameters), fn.__name__
    params = inspect.signature(AoTrace.append).parameters.values()
    assert all(x.default is inspect.Parameter.empty for x in params)

    cfg = tiny_cfg(schemes=SCHEMES, snr_db=(5.0, 30.0), m=12, n_channels=2)
    run_sweep(cfg, out_dir=str(tmp_path))
    rows = [r.split(",") for r in (tmp_path / "sr_detail.csv").read_text().splitlines()[1:]]
    bc = [r for r in rows if r[0] == "BC-AWSMSE"]
    assert len(bc) == len(cfg.snr_db) * cfg.n_channels
    for _, alpha, snr_db, ch, sr in bc:
        seed = cell_seed(cfg.master_seed, float(alpha), float(snr_db), int(ch))
        csit, draw, sample = harness._draw(cfg, float(snr_db), float(alpha), seed)
        p, _ = run_ao(draw.h_est, sample, replace(csit, alpha=1.0), cfg.ao_params())
        assert sr == repr(float(sum_rate(draw.h_true, p))), (snr_db, ch)


# ---------------------------------------------------------------------------
# run_convergence


def test_convergence_mini(tmp_path):
    cfg = tiny_cfg(m=12, n_max=30)
    traces = run_convergence(cfg, out_dir=str(tmp_path))
    assert set(traces) == {(5.0, init) for init in INIT_SCHEMES}
    for trace in traces.values():
        r = np.array(trace.rbar)
        # monotone after the first update has taken effect
        assert np.all(np.diff(r[1:]) >= -1e-6)
    for init in INIT_SCHEMES:
        assert (tmp_path / f"trace_5_{init}.csv").exists()
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["kind"] == "convergence"
    assert meta["snrs"] == [5.0]
    assert meta["inits"] == list(INIT_SCHEMES)


def test_convergence_low_snr_init_agreement():
    # at 5 dB the four starts land on nearly the same surrogate rate
    cfg = tiny_cfg(m=30, epsilon_r=1e-3, n_max=60, snr_db=(5.0,))
    traces = run_convergence(cfg)
    finals = [tr.rbar[-1] for tr in traces.values()]
    assert len(finals) == 4
    assert max(finals) - min(finals) <= 0.05


def test_convergence_n_max_one():
    cfg = tiny_cfg(m=6, n_max=1)
    traces = run_convergence(cfg)
    assert len(traces) == len(INIT_SCHEMES)
    for trace in traces.values():
        assert len(trace) == 1


def test_convergence_draws_through_the_channel_model(monkeypatch):
    # every SNR's channel and sample are make_draw and draw_sample on the
    # substreams (master_seed, 0) and (master_seed, 1), bit for bit
    snrs = [0.0, 5.0, 20.0, 40.0]
    cfg = tiny_cfg(m=6, n_max=2, snr_db=tuple(snrs))
    seen = []

    def recording_run_block(runs):
        for start, sample, csit, params in runs:
            seen.append((csit.p_t, start, params.init_scheme, sample.realizations))
        return run_block(runs)

    run_block = harness.run_block
    monkeypatch.setattr(harness, "run_block", recording_run_block)
    run_convergence(cfg)
    n_inits = len(INIT_SCHEMES)
    assert len(seen) == len(snrs) * n_inits
    for i, (p_t, start, init, realizations) in enumerate(seen):
        snr_db = snrs[i // n_inits]
        csit = CsitConfig(n_t=cfg.n_t, k=cfg.k, alpha=cfg.alphas[0], p_t=p_t)
        assert p_t == snr_to_pt(snr_db)
        draw = make_draw(substream(cfg.master_seed, 0), csit)
        sample = draw_sample(
            substream(cfg.master_seed, 1), draw.h_est, draw.sigma_e2, cfg.m
        )
        # each run starts from its init on the drawn estimate
        assert np.array_equal(start, ao.initialize(init, draw.h_est, p_t, csit.alpha)), snr_db
        assert np.array_equal(realizations, sample.realizations), snr_db


def test_convergence_runs_step_as_one_block_with_the_bits_of_runs_alone(monkeypatch):
    snrs = [0.0, 10.0, 20.0, 30.0, 40.0]
    cfg = tiny_cfg(m=6, n_max=30, epsilon_r=1e-4, snr_db=tuple(snrs))
    sizes = []

    def recording_run_block(runs):
        sizes.append(len(runs))
        return run_block(runs)

    run_block = harness.run_block
    monkeypatch.setattr(harness, "run_block", recording_run_block)
    traces = run_convergence(cfg)
    assert sizes == [len(snrs) * 4]
    for snr_db in snrs:
        csit, draw, sample = harness._draw(cfg, snr_db, cfg.alphas[0], cfg.master_seed)
        for init in ("zf-svd", "zf-e", "mf-svd", "mf-e"):
            _, alone = run_ao(draw.h_est, sample, csit, cfg.ao_params(init))
            assert vars(traces[(snr_db, init)]) == vars(alone), (snr_db, init)


def test_convergence_deterministic():
    cfg = tiny_cfg(m=6, n_max=5)
    t1 = run_convergence(cfg)
    t2 = run_convergence(cfg)
    a = t1[(5.0, "zf-svd")]
    b = t2[(5.0, "zf-svd")]
    assert a.rbar == b.rbar
    assert a.awsmse_obj == b.awsmse_obj


def test_convergence_raises_a_failed_runs_error_and_writes_nothing(tmp_path):
    # at 3080 dB the receive powers of the runs' first update overflow:
    # the block's first failure is raised before any file is written
    from jmbeam.errors import NumericalBreakdown

    cfg = tiny_cfg(snr_db=(20.0, 3080.0), m=12, n_max=30)
    with pytest.raises(NumericalBreakdown):
        run_convergence(cfg, out_dir=str(tmp_path / "conv"))
    assert not (tmp_path / "conv").exists()


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, **over):
    base = dict(n_channels=2, m=6, snr_db=[5.0], schemes=["ZF-WF"],
                master_seed=3)
    base.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    return str(path)


def test_cli_sweep(tmp_path, capsys):
    from jmbeam.cli import main

    cfgp = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfgp, "--out", str(out)])
    assert code == 0
    assert (out / "esr.csv").exists()
    assert (out / "sr_detail.csv").exists()
    assert "records" in capsys.readouterr().out


def test_cli_sweep_seed_override(tmp_path):
    from jmbeam.cli import main

    cfgp = _write_cfg(tmp_path)
    main(["sweep", "--config", cfgp, "--out", str(tmp_path / "a"), "--seed", "9"])
    main(["sweep", "--config", cfgp, "--out", str(tmp_path / "b"), "--seed", "9"])
    main(["sweep", "--config", cfgp, "--out", str(tmp_path / "c"), "--seed", "10"])
    a = (tmp_path / "a" / "esr.csv").read_bytes()
    assert a == (tmp_path / "b" / "esr.csv").read_bytes()
    assert a != (tmp_path / "c" / "esr.csv").read_bytes()


def test_cli_config_error_exit_code(tmp_path, capsys):
    from jmbeam.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_channel": 5}))
    code = main(["sweep", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    nojson = tmp_path / "broken.json"
    nojson.write_text("{")
    assert main(["sweep", "--config", str(nojson), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("literal", ["1" + "0" * 400, "1e400", "Infinity"],
                         ids=["10**400", "1e400", "Infinity"])
def test_cli_sweep_overflowing_epsilon_r_exits_2(tmp_path, capsys, literal):
    # an integer too large for a float, and a float literal that json
    # reads as infinity, which would stop every AO run after one step
    from jmbeam.cli import main

    out = tmp_path / "o"
    cfgp = Path(_write_cfg(tmp_path, epsilon_r="EPS"))
    cfgp.write_text(cfgp.read_text().replace('"EPS"', literal))
    assert main(["sweep", "--config", str(cfgp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "epsilon_r" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_single(tmp_path, capsys):
    from jmbeam.cli import main

    cfgp = _write_cfg(tmp_path)
    code = main(
        ["single", "--config", cfgp, "--scheme", "ZF-WF",
         "--snr-db", "5", "--alpha", "0.6"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sum_rate=" in out
    assert "common_power_fraction=" in out


def test_cli_sweep_threads_writes_the_serial_bytes(tmp_path):
    from jmbeam.cli import main

    cfgp = _write_cfg(tmp_path, n_channels=4, schemes=["ZF-WF", "BC-AWSMSE"])
    for threads in ("1", "2"):
        out = str(tmp_path / f"t{threads}")
        assert main(["sweep", "--config", cfgp, "--out", out, "--threads", threads]) == 0
    for name in ("esr.csv", "sr_detail.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
    meta = json.loads((tmp_path / "t2" / "meta.json").read_text())
    assert meta["config"]["threads"] == 2


def test_cli_sweep_paper_scale_sets_the_full_protocol(tmp_path, monkeypatch, capsys):
    # a real paper-scale sweep takes about a minute, so only the config
    # that reaches run_sweep is checked
    import jmbeam.cli as cli

    seen = []
    monkeypatch.setattr(cli, "run_sweep", lambda cfg, out_dir: seen.append(cfg) or [])
    out = str(tmp_path / "o")
    assert cli.main(["sweep", "--config", _write_cfg(tmp_path), "--out", out,
                     "--paper-scale"]) == 0
    (cfg,) = seen
    assert (cfg.m, cfg.n_channels) == (1000, 100)
    assert "wrote 0 records" in capsys.readouterr().out


def test_cli_single_ao_scheme_prints_its_trace_summary(tmp_path, capsys):
    from jmbeam.cli import main

    cfgp = _write_cfg(tmp_path, n_max=5)
    code = main(["single", "--config", cfgp, "--scheme", "BC-AWSMSE",
                 "--snr-db", "5", "--alpha", "0.6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "iterations=" in out
    assert "stop_reason=" in out


def test_cli_single_alpha_out_of_range(tmp_path, capsys):
    from jmbeam.cli import main

    cfgp = _write_cfg(tmp_path)
    code = main(
        ["single", "--config", cfgp, "--scheme", "ZF-WF",
         "--snr-db", "5", "--alpha", "1.5"]
    )
    assert code == 2


def test_config_rejects_snrs_without_a_cell_seed_or_budget(tmp_path, capsys):
    # below -1000 dB cell_seed has no key, above about 3082 dB the budget
    # overflows; such a config fails to load, so a sweep writes nothing
    # and exits 2 instead of dying in its first task
    from jmbeam.cli import main

    for snr_db in (-2000.0, 5000.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=(5.0, snr_db))
        out = tmp_path / "o"
        cfgp = _write_cfg(tmp_path, snr_db=[snr_db])
        assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 2
        assert "snr_db" in capsys.readouterr().err
        assert not out.exists()
    for snr_db in (-1000.0, 3000.0):
        assert ExperimentConfig(snr_db=(snr_db,)).snr_db == (snr_db,)
    for name, values in (("snr_db", ["abc"]), ("alphas", [None])):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({name: values})
        assert name in str(exc.value)


def test_config_rejects_colliding_cell_keys_and_booleans(tmp_path, capsys):
    # cell_seed keys alpha at 1e-6 and the SNR at 0.01 dB, so two values
    # with one key would give two cells the same channel draws; a
    # repeated SNR used to write two identical esr.csv rows, each over
    # the duplicated draws. Such a config fails to load and a sweep
    # writes nothing and exits 2
    from jmbeam.cli import main

    for name, values in (("snr_db", [10, 10]), ("snr_db", [10.001, 10.004]),
                         ("alphas", [0.6, 0.6000001]), ("alphas", [0.6, 0.6])):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({name: values})
        assert name in str(exc.value)
        with pytest.raises(ConfigError):
            ExperimentConfig(**{name: tuple(values)})
    out = tmp_path / "o"
    cfgp = _write_cfg(tmp_path, snr_db=[10, 10])
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 2
    assert "snr_db" in capsys.readouterr().err
    assert not out.exists()
    # values one key apart are distinct cells
    cfg = ExperimentConfig(alphas=(0.6, 0.600001), snr_db=(10.0, 10.01))
    assert cfg.alphas == (0.6, 0.600001) and cfg.snr_db == (10.0, 10.01)
    # a boolean is not a number here, though Python counts it as an int
    for name, value in (("master_seed", True), ("alphas", [True]), ("snr_db", [False])):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({name: value})
        assert name in str(exc.value)
        with pytest.raises(ConfigError):
            ExperimentConfig(**{name: tuple(value) if name != "master_seed" else value})
    # nor is a numeric string, and an integer too large for a float is
    # a configuration error, not a traceback
    for name, values in (("snr_db", ["10"]), ("alphas", ["0.6"]), ("snr_db", [10**400])):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({name: values})
        assert name in str(exc.value)


@pytest.mark.parametrize(
    "flag, value",
    [("--snr-db", v) for v in ("nan", "inf", "-inf", "-2000", "5000")]
    + [("--alpha", v) for v in ("1.5", "-0.1", "nan")]
    + [("--channel", "-1")],
)
def test_cli_single_bad_cell_exits_2(tmp_path, capsys, flag, value):
    from jmbeam.cli import main

    args = {"--snr-db": "5", "--alpha": "0.6", "--channel": "0"}
    args[flag] = value
    argv = ["single", "--config", _write_cfg(tmp_path), "--scheme", "ZF-WF"]
    for name, v in args.items():
        argv.append(f"{name}={v}")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_cli_single_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    import jmbeam.cli as cli
    from jmbeam.errors import NumericalBreakdown

    def boom(*a, **kw):
        raise NumericalBreakdown("synthetic failure")

    monkeypatch.setattr(cli, "run_single", boom)
    cfgp = _write_cfg(tmp_path)
    code = cli.main(
        ["single", "--config", cfgp, "--scheme", "ZF-WF",
         "--snr-db", "5", "--alpha", "0.6"]
    )
    assert code == 3
    assert "solver failure" in capsys.readouterr().err


def test_overflowing_cell_is_a_failure_not_a_nan(tmp_path, capsys):
    # at 3080 dB, which the config accepts, JMB-ZF-SVD's receive powers
    # on the desk config's channel 0 overflow: `single` exits 3, and a
    # sweep records that channel's failure in meta.json and averages the
    # cell over the other channel, where both used to give a NaN
    from jmbeam.cli import main

    cfgp = _write_cfg(tmp_path, schemes=["ZF-WF", "JMB-ZF-SVD"],
                      snr_db=[20.0, 3080.0], master_seed=12345)
    code = main(["single", "--config", cfgp, "--scheme", "JMB-ZF-SVD",
                 "--snr-db", "3080", "--alpha", "0.6"])
    assert code == 3
    assert "NumericalBreakdown" in capsys.readouterr().err
    records = run_sweep(ExperimentConfig.from_json(cfgp), out_dir=str(tmp_path / "o"))
    assert all(math.isfinite(r.esr) for r in records)
    assert [(r.scheme, r.snr_db, r.n_channels) for r in records] == [
        ("ZF-WF", 20.0, 2), ("ZF-WF", 3080.0, 2),
        ("JMB-ZF-SVD", 20.0, 2), ("JMB-ZF-SVD", 3080.0, 1)]
    (failure,) = json.loads((tmp_path / "o" / "meta.json").read_text())["failures"]
    assert (failure["scheme"], failure["snr_db"], failure["channel"]) == (
        "JMB-ZF-SVD", 3080.0, 0)
    assert failure["error"].startswith("NumericalBreakdown")
    _assert_esr_averages_detail(ExperimentConfig.from_json(cfgp), tmp_path / "o")


def test_overflowing_cell_rows_have_run_single_bits(tmp_path):
    # the config above: JMB-ZF-SVD overflows on channel 0 at 3080 dB, so
    # the block's stacked scoring call fails and its rows are scored one
    # at a time; every row written is still run_single's sum rate to the
    # bit, and the one missing row is the one run_single fails on
    from jmbeam.errors import NumericalBreakdown

    cfg = ExperimentConfig.from_json(_write_cfg(
        tmp_path, schemes=["ZF-WF", "JMB-ZF-SVD"], snr_db=[20.0, 3080.0], master_seed=12345))
    run_sweep(cfg, out_dir=str(tmp_path / "o"))
    rows = [r.split(",") for r in (tmp_path / "o" / "sr_detail.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(cfg.schemes) * len(cfg.snr_db) * cfg.n_channels - 1
    for scheme, alpha, snr_db, ch, sr in rows:
        seed = cell_seed(cfg.master_seed, float(alpha), float(snr_db), int(ch))
        _, want, _ = run_single(cfg, scheme, float(snr_db), float(alpha), seed)
        assert sr == repr(want), (scheme, snr_db, ch)
    assert ("JMB-ZF-SVD", "3080.0", "0") not in {(r[0], r[2], r[3]) for r in rows}
    with pytest.raises(NumericalBreakdown):
        run_single(cfg, "JMB-ZF-SVD", 3080.0, 0.6, cell_seed(cfg.master_seed, 0.6, 3080.0, 0))


def test_a_channel_whose_directions_fail_drops_only_its_own_rows(tmp_path, monkeypatch):
    # the second channel's `_precoders` call (its starts and one-shot
    # designs) fails: meta.json lists that channel's four schemes, and
    # every row of the other two channels is written with run_single's bits
    from jmbeam.errors import RankDeficient

    cfg = ExperimentConfig.from_dict({"snr_db": [20], "n_channels": 3, "m": 20})
    calls = []
    precoders = harness._precoders

    def second_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RankDeficient("forced")
        return precoders(*args, **kwargs)

    monkeypatch.setattr(harness, "_precoders", second_fails)
    run_sweep(cfg, out_dir=str(tmp_path))
    monkeypatch.undo()
    failures = json.loads((tmp_path / "meta.json").read_text())["failures"]
    assert [(f["scheme"], f["channel"], f["error"]) for f in failures] == [
        (s, 1, "RankDeficient: forced") for s in SCHEMES]
    rows = [r.split(",") for r in (tmp_path / "sr_detail.csv").read_text().splitlines()[1:]]
    assert sorted((r[0], r[3]) for r in rows) == sorted(
        (s, ch) for s in SCHEMES for ch in ("0", "2"))
    for scheme, alpha, snr_db, ch, sr in rows:
        seed = cell_seed(cfg.master_seed, float(alpha), float(snr_db), int(ch))
        _, want, _ = run_single(cfg, scheme, float(snr_db), float(alpha), seed)
        assert sr == repr(want), (scheme, ch)


def test_sweep_drops_a_cell_without_a_successful_channel(tmp_path):
    # JMB-ZF-SVD fails on the one channel of its 3080 dB cell: that cell
    # gets no esr.csv row and one failure in meta.json, the others a row
    cfg = tiny_cfg(schemes=("ZF-WF", "JMB-ZF-SVD"), snr_db=(20.0, 3080.0),
                   n_channels=1, master_seed=12345)
    records = run_sweep(cfg, out_dir=str(tmp_path))
    assert [(r.scheme, r.snr_db) for r in records] == [
        ("ZF-WF", 20.0), ("ZF-WF", 3080.0), ("JMB-ZF-SVD", 20.0)]
    rows = (tmp_path / "esr.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert not any(r.startswith("JMB-ZF-SVD,0.6,3080.0,") for r in rows)
    (failure,) = json.loads((tmp_path / "meta.json").read_text())["failures"]
    assert (failure["scheme"], failure["snr_db"], failure["channel"]) == (
        "JMB-ZF-SVD", 3080.0, 0)


def test_cli_convergence(tmp_path):
    from jmbeam.cli import main

    cfgp = _write_cfg(tmp_path, schemes=["JMB-AWSMSE"], m=6, n_max=3,
                      snr_db=[5.0])
    out = tmp_path / "conv"
    code = main(["convergence", "--config", cfgp, "--out", str(out)])
    assert code == 0
    assert (out / "trace_5_zf-svd.csv").exists()
    assert (out / "meta.json").exists()


def test_cli_convergence_solver_failure_exits_3(tmp_path):
    # at 3080 dB, which the config accepts, the receive powers of the
    # first update overflow: a solver failure, exit 3, as `single` gives
    # it, with no traceback, no warning and no output directory
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text('{"snr_db": [3080], "n_channels": 1, "m": 20, "master_seed": 1}')
    out = tmp_path / "conv"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "jmbeam.cli", "convergence", "--config", str(cfgp),
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("solver failure: NumericalBreakdown")
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert not out.exists()


def test_convergence_rejects_more_than_one_alpha(tmp_path, capsys):
    # the traces are of one alpha; a second one used to be dropped silently
    cfg = tiny_cfg(alphas=(0.6, 0.8), m=6, n_max=3)
    with pytest.raises(ConfigError, match="one alpha"):
        run_convergence(cfg, out_dir=str(tmp_path / "api"))
    assert not (tmp_path / "api").exists()

    from jmbeam.cli import main

    cfgp = _write_cfg(tmp_path, alphas=[0.6, 0.8], m=6, n_max=3)
    out = tmp_path / "conv"
    assert main(["convergence", "--config", cfgp, "--out", str(out)]) == 2
    assert "one alpha" in capsys.readouterr().err
    assert not out.exists()


def test_convergence_rejects_snrs_that_share_a_trace_name(tmp_path, capsys):
    # the trace files name the SNR to 6 digits: 1000.01 and 1000.015 dB key
    # different cells but would write one file, so 4 of 8 traces were lost
    cfg = tiny_cfg(snr_db=(1000.01, 1000.015), m=6, n_max=3)
    with pytest.raises(ConfigError, match="trace file name"):
        run_convergence(cfg, out_dir=str(tmp_path / "api"))
    assert not (tmp_path / "api").exists()

    from jmbeam.cli import main

    cfgp = _write_cfg(tmp_path, snr_db=[1000.01, 1000.015], n_channels=1, m=20)
    out = tmp_path / "conv"
    assert main(["convergence", "--config", cfgp, "--out", str(out)]) == 2
    assert "trace file name" in capsys.readouterr().err
    assert not out.exists()
