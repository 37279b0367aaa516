import json
import math
import multiprocessing
import os
import time
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_cfg
from jmbeam import harness
from jmbeam.ao import AoTrace, run_ao
from jmbeam.baselines import zf_wf
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
        ExperimentConfig(init_scheme="zf")
    with pytest.raises(ConfigError):
        ExperimentConfig(master_seed=-1)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"n_channel": 5})
    assert "n_channel" in str(exc.value)
    # keys that were once valid are no longer known
    for key, value in (("solver_max_iter", 100), ("solver_tol", 1e-8),
                       ("cap_sigma_e2", True)):
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


def test_config_ao_params():
    cfg = tiny_cfg()
    ap = cfg.ao_params()
    assert ap.epsilon_r == cfg.epsilon_r
    assert ap.n_max == cfg.n_max
    assert ap.init_scheme == cfg.init_scheme
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
    want = zf_wf(draw.h_est, csit.p_t, 1.0)
    assert np.array_equal(p, want)
    assert sr == pytest.approx(sum_rate(draw.h_true, p, 1.0), rel=1e-14)


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
    nominal = sum_rate(draw.h_est, p, 1.0)
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
    for ln in det_lines[1:]:
        scheme, alpha, snr, ch, sr = ln.split(",")
        float(alpha), float(snr), int(ch), float(sr)


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


def _kill_worker_at(monkeypatch, cfg, channel):
    """Make the pool worker whose block draws `channel` of cfg's one cell
    exit, once the other blocks have had time to report."""
    dying_seed = cell_seed(cfg.master_seed, cfg.alphas[0], cfg.snr_db[0], channel)
    draw = harness._draw

    def dying_draw(cfg, snr_db, alpha, seed):
        if seed == dying_seed:
            time.sleep(1.0)
            os._exit(1)
        return draw(cfg, snr_db, alpha, seed)

    monkeypatch.setattr(harness, "_draw", dying_draw)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the patched channel draw",
)
def test_sweep_flushes_finished_tasks_when_a_worker_dies(tmp_path, monkeypatch):
    # blocks of 2 channels: the block of channels 4 and 5 dies
    monkeypatch.setattr(harness, "BLOCK_CHANNELS", 2)
    cfg = tiny_cfg(schemes=("ZF-WF",), n_channels=6, threads=2)
    serial = tiny_cfg(schemes=("ZF-WF",), n_channels=4)
    run_sweep(serial, out_dir=str(tmp_path / "serial"))
    _kill_worker_at(monkeypatch, cfg, channel=5)
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
    # the first block dies last: the two blocks after it must survive
    monkeypatch.setattr(harness, "BLOCK_CHANNELS", 2)
    cfg = tiny_cfg(schemes=("ZF-WF",), n_channels=6, threads=2)
    rest = [(0.6, 5.0, ch) for ch in (2, 3, 4, 5)]
    records, _, details = harness._reduce(
        cfg, list(zip(rest, harness._block_task(cfg, rest)))
    )
    (tmp_path / "serial").mkdir()
    write_esr_csv(tmp_path / "serial" / "esr.csv", records)
    write_detail_csv(tmp_path / "serial" / "sr_detail.csv", details)
    _kill_worker_at(monkeypatch, cfg, channel=0)
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
    monkeypatch.setattr(harness, "BLOCK_CHANNELS", 2)
    cfg = tiny_cfg(schemes=("ZF-WF",), n_channels=24, threads=2)
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


# ---------------------------------------------------------------------------
# run_convergence


def test_convergence_mini(tmp_path):
    cfg = tiny_cfg(m=12, n_max=30)
    traces = run_convergence(
        cfg, snrs=[5.0], inits=["zf-svd", "mf-e"], out_dir=str(tmp_path)
    )
    assert set(traces) == {(5.0, "zf-svd"), (5.0, "mf-e")}
    for trace in traces.values():
        r = np.array(trace.rbar)
        # monotone after the first update has taken effect
        assert np.all(np.diff(r[1:]) >= -1e-6)
    assert (tmp_path / "trace_5_zf-svd.csv").exists()
    assert (tmp_path / "trace_5_mf-e.csv").exists()
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["kind"] == "convergence"
    assert meta["inits"] == ["zf-svd", "mf-e"]


def test_convergence_low_snr_init_agreement():
    # at 5 dB the four starts land on nearly the same surrogate rate
    cfg = tiny_cfg(m=30, epsilon_r=1e-3, n_max=60)
    traces = run_convergence(cfg, snrs=[5.0])
    finals = [tr.rbar[-1] for tr in traces.values()]
    assert len(finals) == 4
    assert max(finals) - min(finals) <= 0.05


def test_convergence_n_max_one():
    cfg = tiny_cfg(m=6, n_max=1)
    traces = run_convergence(cfg, snrs=[5.0], inits=["zf-e"])
    (trace,) = traces.values()
    assert len(trace) == 1


def test_convergence_draws_through_the_channel_model(monkeypatch):
    # every SNR's channel and sample are make_draw and draw_sample on the
    # substreams (master_seed, 0) and (master_seed, 1), bit for bit
    cfg = tiny_cfg(m=6, n_max=2)
    seen = []

    def recording_run_block(runs):
        for h_est, sample, csit, _, _ in runs:
            seen.append((csit.p_t, h_est, sample.realizations))
        return run_block(runs)

    run_block = harness.run_block
    monkeypatch.setattr(harness, "run_block", recording_run_block)
    snrs = [0.0, 5.0, 20.0, 40.0]
    run_convergence(cfg, snrs=snrs, inits=["zf-svd"])
    assert len(seen) == len(snrs)
    for snr_db, (p_t, h_est, realizations) in zip(snrs, seen):
        csit = CsitConfig(n_t=cfg.n_t, k=cfg.k, alpha=cfg.alphas[0], p_t=p_t)
        assert p_t == snr_to_pt(snr_db)
        draw = make_draw(substream(cfg.master_seed, 0), csit)
        sample = draw_sample(
            substream(cfg.master_seed, 1), draw.h_est, draw.sigma_e2, cfg.m
        )
        assert np.array_equal(h_est, draw.h_est), snr_db
        assert np.array_equal(realizations, sample.realizations), snr_db


def test_convergence_runs_step_as_one_block_with_the_bits_of_runs_alone(monkeypatch):
    cfg = tiny_cfg(m=6, n_max=30, epsilon_r=1e-4)
    sizes = []

    def recording_run_block(runs):
        sizes.append(len(runs))
        return run_block(runs)

    run_block = harness.run_block
    monkeypatch.setattr(harness, "run_block", recording_run_block)
    snrs = [0.0, 10.0, 20.0, 30.0, 40.0]
    traces = run_convergence(cfg, snrs=snrs)
    assert sizes == [len(snrs) * 4]
    for snr_db in snrs:
        csit, draw, sample = harness._draw(cfg, snr_db, cfg.alphas[0], cfg.master_seed)
        for init in ("zf-svd", "zf-e", "mf-svd", "mf-e"):
            _, alone = run_ao(draw.h_est, sample, csit, cfg.ao_params(init))
            assert vars(traces[(snr_db, init)]) == vars(alone), (snr_db, init)


def test_convergence_deterministic():
    cfg = tiny_cfg(m=6, n_max=5)
    t1 = run_convergence(cfg, snrs=[5.0], inits=["zf-svd"])
    t2 = run_convergence(cfg, snrs=[5.0], inits=["zf-svd"])
    a = t1[(5.0, "zf-svd")]
    b = t2[(5.0, "zf-svd")]
    assert a.rbar == b.rbar
    assert a.awsmse_obj == b.awsmse_obj


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


def test_cli_convergence(tmp_path):
    from jmbeam.cli import main

    cfgp = _write_cfg(tmp_path, schemes=["JMB-AWSMSE"], m=6, n_max=3,
                      snr_db=[5.0])
    out = tmp_path / "conv"
    code = main(["convergence", "--config", cfgp, "--out", str(out)])
    assert code == 0
    assert (out / "trace_5_zf-svd.csv").exists()
    assert (out / "meta.json").exists()


def test_convergence_rejects_more_than_one_alpha(tmp_path, capsys):
    # the traces are of one alpha; a second one used to be dropped silently
    cfg = tiny_cfg(alphas=(0.6, 0.8), m=6, n_max=3)
    with pytest.raises(ConfigError, match="one alpha"):
        run_convergence(cfg, snrs=[5.0], out_dir=str(tmp_path / "api"))
    assert not (tmp_path / "api").exists()

    from jmbeam.cli import main

    cfgp = _write_cfg(tmp_path, alphas=[0.6, 0.8], m=6, n_max=3)
    out = tmp_path / "conv"
    assert main(["convergence", "--config", cfgp, "--out", str(out)]) == 2
    assert "one alpha" in capsys.readouterr().err
    assert not out.exists()
