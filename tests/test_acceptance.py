"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line with the measured quantities (run with -s to see the lines for
passing criteria too). The desk-scale sweep behind criteria 6a-6d runs
once as a module fixture; everything else is self-contained.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import qcqp_dual_oracle
from conftest import random_precoder, random_system
from jmbeam.ao import AoParams, run_ao, water_fill
from jmbeam.channel import complex_gaussian, substream
from jmbeam.harness import (
    ExperimentConfig,
    cell_seed,
    run_convergence,
    run_single,
    run_sweep,
    snr_to_pt,
)
from jmbeam.linalg import cholesky_psd, zf_directions
from jmbeam.qcqp import build, kkt_residual, solve
from jmbeam.receivers import (
    accumulate_components,
    average_rates,
    awmse_values,
    awsmse_objective,
    precoder_power,
    update_blocks,
)

AO_SCHEMES = ("JMB-AWSMSE", "BC-AWSMSE", "JMB-ZF-SVD")


def _criterion(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {tag}: {detail}")
    assert ok, f"criterion {tag}: {detail}"


def _mmse_point(seed, n_t, k, m):
    cfg, draw, sample = random_system(seed, n_t=n_t, k=k, m=m)
    rng = np.random.default_rng(seed + 9000)
    p = random_precoder(rng, n_t, k, cfg.p_t)
    gw = update_blocks(sample, p)
    comps = accumulate_components(sample, gw)
    return comps, sample, p, cfg


def test_criterion_1_rate_wmse_identity():
    # min-over-blocks average WMSE == 1 - average rate, per stream
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(500):
        n_t = int(rng.integers(1, 5))
        k = int(rng.integers(1, n_t + 1))
        m = int(rng.integers(1, 101))
        comps, sample, p, _ = _mmse_point(3000 + i, n_t, k, m)
        xi_c, xi_p = awmse_values(comps, p)
        ar = average_rates(sample, p)
        worst = max(
            worst,
            float(np.max(np.abs(xi_c - (1.0 - ar.r_c)))),
            float(np.max(np.abs(xi_p - (1.0 - ar.r_p)))),
        )
    wall = time.perf_counter() - t0
    _criterion(
        "1",
        worst <= 1e-10 and wall < 10.0,
        f"500 instances, worst |xi - (1 - rbar)| = {worst:.3e} "
        f"(tol 1e-10), wall {wall:.1f}s (< 10s)",
    )


def test_criterion_2_objective_equals_k_plus_1_minus_asr():
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(100):
        n_t = int(rng.integers(1, 5))
        k = int(rng.integers(1, n_t + 1))
        comps, sample, p, _ = _mmse_point(4000 + i, n_t, k, 40)
        obj = awsmse_objective(*awmse_values(comps, p))
        asr = average_rates(sample, p).asr
        worst = max(worst, abs(obj - ((k + 1) - asr)))
    _criterion(
        "2",
        worst <= 1e-8,
        f"100 instances, worst |objective - ((K+1) - ASR)| = {worst:.3e} "
        f"(tol 1e-8)",
    )


def test_criterion_3_qcqp_against_dual_ascent_oracle():
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_kkt = 0.0
    worst_gap = 0.0
    for i in range(100):
        comps, sample, p, cfg = _mmse_point(5000 + i, 2, 2, 50)
        q = build(comps, cfg.p_t)
        sol = solve(q)
        assert sol.status == "Optimal"
        kkt = kkt_residual(q, sol)
        ora = qcqp_dual_oracle(q, n_starts=6, seed=i)
        rel = abs(sol.objective - ora["objective"]) / (1.0 + abs(ora["objective"]))
        worst_rel = max(worst_rel, rel)
        worst_kkt = max(worst_kkt, kkt)
        worst_gap = max(worst_gap, ora["gap"])
    wall = time.perf_counter() - t0
    _criterion(
        "3",
        worst_rel <= 1e-5 and worst_kkt <= 1e-8 and wall < 60.0,
        f"100 instances, worst rel objective dev vs oracle = {worst_rel:.3e} "
        f"(tol 1e-5), worst recomputed KKT residual = {worst_kkt:.3e} "
        f"(tol 1e-8), worst oracle duality gap = {worst_gap:.3e}, "
        f"wall {wall:.1f}s (< 60s)",
    )


def test_criterion_4_ao_descent_and_stopping():
    snrs = (5.0, 20.0, 35.0)
    worst_rise = -np.inf
    converged = 0
    for seed in range(50):
        cfg, draw, sample = random_system(
            6000 + seed, snr_db=snrs[seed % 3], alpha=0.6, m=50
        )
        _, trace = run_ao(draw.h_est, sample, cfg, AoParams())
        rises = np.diff(trace.awsmse_obj)
        if rises.size:
            worst_rise = max(worst_rise, float(rises.max()))
        converged += trace.stop_reason == "converged"
    _criterion(
        "4",
        worst_rise <= 1e-7 and converged >= 0.95 * 50,
        f"50 runs at 5/20/35 dB, worst objective rise = {worst_rise:.3e} "
        f"(tol 1e-7), stopped before n_max in {converged}/50 (>= 48)",
    )


def test_criterion_5_convergence_spread_grows_with_snr():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(snr_db=(5.0, 20.0, 35.0))
    traces = run_convergence(cfg)
    all_conv = all(t.stop_reason == "converged" for t in traces.values())

    def spread(snr):
        finals = [t.rbar[-1] for (s, _), t in traces.items() if s == snr]
        return max(finals) - min(finals)

    s5, s35 = spread(5.0), spread(35.0)
    wall = time.perf_counter() - t0
    _criterion(
        "5",
        all_conv and s35 > s5 and wall < 300.0,
        f"12 traces (3 SNRs x 4 inits) all converged = {all_conv}; "
        f"init spread of final ASR {s35:.4f} bits at 35 dB > {s5:.4f} at "
        f"5 dB; wall {wall:.1f}s (< 300s)",
    )


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Desk-scale sweep shared by criteria 6a-6d: 4 schemes, alpha 0.6,
    SNR 0:5:40, M=200, 20 paired channels."""
    cfg = ExperimentConfig()
    out = tmp_path_factory.mktemp("desk")
    t0 = time.perf_counter()
    records = run_sweep(cfg, out_dir=str(out))
    wall = time.perf_counter() - t0
    esr = {(r.scheme, r.snr_db): r for r in records}
    per_ch = {}
    for line in (out / "sr_detail.csv").read_text().splitlines()[1:]:
        scheme, _, snr, ch, sr = line.split(",")
        per_ch.setdefault((scheme, float(snr)), {})[int(ch)] = float(sr)
    return SimpleNamespace(cfg=cfg, esr=esr, per_ch=per_ch, wall=wall)


def _margin(desk, scheme_a, scheme_b, snr):
    """ESR difference a - b and the 2-sigma radii: quadrature of the two
    reported standard errors, and the paired per-channel version."""
    ra = desk.esr[(scheme_a, snr)]
    rb = desk.esr[(scheme_b, snr)]
    diff = ra.esr - rb.esr
    quad = math.hypot(ra.std_err, rb.std_err)
    d = np.array(
        [
            desk.per_ch[(scheme_a, snr)][ch] - desk.per_ch[(scheme_b, snr)][ch]
            for ch in sorted(desk.per_ch[(scheme_a, snr)])
        ]
    )
    paired = float(np.std(d, ddof=1) / math.sqrt(d.size))
    return diff, quad, paired


# SNR range (dB) over which 6a asks a scheme to beat ZF-WF in every cell:
# the cells where a correct program passes that check on at least 80% of
# channel draws, i.e. where the expected-rate gain given each desk
# estimate (fresh conditional draws) clears the cell's paired 2se by
# 0.84 se. BC-AWSMSE has ZF-WF's high-SNR slope, and from 25 dB on its
# gain (+0.03 to +1.3 bit) is at most 1.25 times its paired 2se; the
# one-shot JMB-ZF-SVD split gains only about +0.6 bit below 20 dB.
GAIN_SNR_6A = {
    "JMB-AWSMSE": (10.0, 40.0),
    "BC-AWSMSE": (10.0, 20.0),
    "JMB-ZF-SVD": (20.0, 40.0),
}


def _verdict_6a(desk):
    """Criterion 6a's decision on a desk namespace: (ok, printed line).

    Channels are paired across schemes, so every se here is the paired
    one from _margin. Over the cells at SNR >= 10 dB, each scheme
    - beats ZF-WF (diff > 2 se) in every cell of its GAIN_SNR_6A range;
    - is non-inferior (diff > -2 se) in every other cell;
    - beats ZF-WF over the range: mean cell diff > 2 pooled se, with
      pooled se = sqrt(sum se_i^2) / n_cells (cell seeds are
      independent).
    """
    snrs = [s for s in desk.cfg.snr_db if s >= 10.0]
    bad = []
    notes = []
    for scheme in AO_SCHEMES:
        lo, hi = GAIN_SNR_6A[scheme]
        cells = []
        for snr in snrs:
            diff, quad, paired = _margin(desk, scheme, "ZF-WF", snr)
            bound = (2.0 if lo <= snr <= hi else -2.0) * paired
            cells.append((diff - bound, snr, diff, paired))
            if not diff > bound:
                bad.append(
                    f"{scheme}@{snr:g}dB diff {diff:+.3f} <= {bound:+.3f} "
                    f"(paired 2se {2 * paired:.3f}, quadrature 2se "
                    f"{2 * quad:.3f})"
                )
        margin, snr, diff, paired = min(cells)
        mean = float(np.mean([c[2] for c in cells]))
        pooled = math.sqrt(sum(c[3] ** 2 for c in cells)) / len(cells)
        if not mean > 2.0 * pooled:
            bad.append(
                f"{scheme} mean diff {mean:+.3f} <= 2 pooled se {2 * pooled:.3f}"
            )
        notes.append(
            f"{scheme} beats per cell at {lo:g}-{hi:g}dB, worst margin "
            f"{margin:+.3f} at {snr:g}dB (diff {diff:+.3f}, paired 2se "
            f"{2 * paired:.3f}), pooled margin {mean - 2.0 * pooled:+.3f} "
            f"(mean diff {mean:+.3f}, 2 pooled se {2 * pooled:.3f})"
        )
    detail = (
        f"sweep wall {desk.wall:.0f}s (< 1800s); vs ZF-WF at SNR >= 10 dB, "
        f"paired se, non-inferior outside the gain range: " + "; ".join(notes)
    )
    if bad:
        detail += "; failing: " + "; ".join(bad)
    return not bad and desk.wall < 1800.0, detail


def test_criterion_6a_all_schemes_beat_zf_wf(desk):
    _criterion("6a", *_verdict_6a(desk))


def _paired_desk(per_ch):
    """Desk namespace from per-channel sum rates {(scheme, snr): array}."""
    esr = {
        key: SimpleNamespace(
            esr=float(np.mean(v)),
            std_err=float(np.std(v, ddof=1) / math.sqrt(v.size)),
        )
        for key, v in per_ch.items()
    }
    return SimpleNamespace(
        cfg=SimpleNamespace(snr_db=sorted({snr for _, snr in per_ch})),
        esr=esr,
        per_ch={key: dict(enumerate(v)) for key, v in per_ch.items()},
        wall=0.0,
    )


def test_criterion_6a_verdict_on_synthetic_paired_data():
    # strongly correlated channels: ZF-WF rates spread over ~12 bits, so
    # the quadrature se hides a constant gain that the paired se resolves
    snrs = (10.0, 25.0, 40.0)
    rng = np.random.default_rng(606)
    sign = np.resize([1.0, -1.0], 20)
    zf = {snr: 4.0 + snr / 5.0 + rng.uniform(0.0, 12.0, 20) for snr in snrs}

    def verdict(override):
        per_ch = {("ZF-WF", snr): zf[snr] for snr in snrs}
        for scheme in AO_SCHEMES:
            for snr in snrs:
                gain = override.get((scheme, snr), 0.5 + 0.05 * sign)
                per_ch[(scheme, snr)] = zf[snr] + gain
        desk = _paired_desk(per_ch)
        return (desk,) + _verdict_6a(desk)

    desk, ok, detail = verdict({})
    hidden = all(
        _margin(desk, s, "ZF-WF", snr)[1] * 2.0 > 0.5
        for s in AO_SCHEMES
        for snr in snrs
    )
    assert ok and hidden, detail

    # 0.3 bit below ZF-WF on every channel of one cell, in a cell where
    # BC-AWSMSE need only be non-inferior
    _, ok, detail = verdict({("BC-AWSMSE", 40.0): -0.3})
    assert not ok and "BC-AWSMSE@40dB" in detail, detail

    # identical to ZF-WF everywhere
    same = {("JMB-ZF-SVD", snr): 0.0 for snr in snrs}
    _, ok, detail = verdict(same)
    assert not ok and "JMB-ZF-SVD mean diff" in detail, detail

    # each cell passes (gains of +0.5 against a paired 2se of
    # 2/sqrt(19) = 0.459 at 25 and 40 dB, -0.42 at 10 dB where JMB-ZF-SVD
    # need only be non-inferior), so only the pooled gain can fail it
    scatter = {
        ("JMB-ZF-SVD", snr): g + 1.0 * sign
        for snr, g in ((10.0, -0.42), (25.0, 0.5), (40.0, 0.5))
    }
    _, ok, detail = verdict(scatter)
    assert not ok and "JMB-ZF-SVD@" not in detail, detail
    assert "JMB-ZF-SVD mean diff" in detail, detail

    # +0.3 bit against that paired 2se fails every scheme inside its gain
    # range and passes outside it
    small = 0.3 + 1.0 * sign
    for scheme, snr, passes in (
        ("JMB-AWSMSE", 10.0, False),
        ("BC-AWSMSE", 10.0, False),
        ("BC-AWSMSE", 25.0, True),
        ("JMB-ZF-SVD", 25.0, False),
        ("JMB-ZF-SVD", 10.0, True),
    ):
        _, ok, detail = verdict({(scheme, snr): small})
        assert ok == passes, detail
        assert passes or f"{scheme}@{snr:g}dB" in detail, detail


def test_criterion_6b_joint_design_dominates_private_only(desk):
    bad = []
    gaps_25plus = []
    for snr in desk.cfg.snr_db:
        diff, quad, _ = _margin(desk, "JMB-AWSMSE", "BC-AWSMSE", snr)
        if diff < -2.0 * quad:
            bad.append(f"{snr:g}dB diff {diff:+.3f} < -2se {-2 * quad:.3f}")
        if snr >= 25.0:
            gaps_25plus.append(diff)
    strictly_pos = min(gaps_25plus) > 0.0
    _criterion(
        "6b",
        not bad and strictly_pos,
        f"JMB >= BC within 2se at all 9 SNRs ({'ok' if not bad else bad}); "
        f"gap at >= 25 dB in [{min(gaps_25plus):+.3f}, "
        f"{max(gaps_25plus):+.3f}] bits, strictly positive = {strictly_pos}",
    )


def test_criterion_6c_high_snr_slope_ratio(desk):
    snrs = np.array([25.0, 30.0, 35.0, 40.0])

    def slope(scheme):
        esr = np.array([desk.esr[(scheme, s)].esr for s in snrs])
        return float(np.polyfit(snrs, esr, 1)[0])

    ratio = slope("JMB-AWSMSE") / slope("BC-AWSMSE")
    target = 1.6 / 1.2
    dev = abs(ratio / target - 1.0)
    _criterion(
        "6c",
        dev <= 0.15,
        f"25-40 dB slope ratio JMB/BC = {ratio:.4f}, target (1+alpha)/(2*alpha)"
        f" = {target:.4f}, deviation {100 * dev:.1f}% (<= 15%)",
    )


def test_criterion_6d_horizontal_snr_gap_at_35db(desk):
    grid = np.array(desk.cfg.snr_db)
    bc = np.array([desk.esr[("BC-AWSMSE", s)].esr for s in grid])
    jmb35 = desk.esr[("JMB-AWSMSE", 35.0)].esr
    if jmb35 <= bc[-1]:
        snr_bc = float(np.interp(jmb35, bc, grid))
        how = "interpolated"
    else:
        # BC never reaches the JMB level on the grid; continue its last
        # straight segment past 40 dB
        tail_slope = (bc[-1] - bc[-2]) / (grid[-1] - grid[-2])
        snr_bc = float(grid[-1] + (jmb35 - bc[-1]) / tail_slope)
        how = "extrapolated past 40 dB"
    gap = snr_bc - 35.0
    _criterion(
        "6d",
        gap >= 3.0,
        f"BC needs {snr_bc:.1f} dB ({how}) to match JMB at 35 dB: "
        f"horizontal gap {gap:.1f} dB (>= 3 dB)",
    )


def test_criterion_7_low_snr_common_switchoff():
    cfg = ExperimentConfig(
        snr_db=(-20.0, -10.0), schemes=("JMB-AWSMSE", "BC-AWSMSE")
    )
    notes = []
    ok = True
    for snr in cfg.snr_db:
        p_t = snr_to_pt(snr)
        frac = []
        srs = {"JMB-AWSMSE": [], "BC-AWSMSE": []}
        for ch in range(cfg.n_channels):
            seed = cell_seed(cfg.master_seed, 0.6, snr, ch)
            for scheme in srs:
                p, sr, _ = run_single(cfg, scheme, snr, 0.6, seed)
                srs[scheme].append(sr)
                if scheme == "JMB-AWSMSE":
                    frac.append(float(np.sum(np.abs(p[:, 0]) ** 2)) / p_t)
        frac_max = max(frac)
        diff = float(np.mean(srs["JMB-AWSMSE"]) - np.mean(srs["BC-AWSMSE"]))
        quad = math.hypot(
            *(
                float(np.std(srs[s], ddof=1) / math.sqrt(cfg.n_channels))
                for s in srs
            )
        )
        cell_ok = frac_max <= 0.01 and abs(diff) <= 2.0 * quad
        ok = ok and cell_ok
        notes.append(
            f"{snr:g}dB: max common power fraction {frac_max:.2e} (<= 0.01), "
            f"|ESR diff| {abs(diff):.4f} <= 2se {2 * quad:.4f}"
        )
    _criterion("7", ok, "; ".join(notes))


def test_criterion_8_property_suites(tmp_path):
    rng = np.random.default_rng(808)

    worst_chol = 0.0
    worst_cross = 0.0
    worst_norm = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = b @ b.conj().T
        l = cholesky_psd(a)
        worst_chol = max(
            worst_chol,
            np.linalg.norm(l @ l.conj().T - a) / max(np.linalg.norm(a), 1e-300),
        )
        k = int(rng.integers(1, n + 1))
        h = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        w = zf_directions(h)
        off = h.conj().T @ w - np.diag(np.diag(h.conj().T @ w))
        worst_cross = max(worst_cross, float(np.abs(off).max()))
        worst_norm = max(
            worst_norm, float(np.abs(np.linalg.norm(w, axis=0) - 1.0).max())
        )
    linalg_ok = worst_chol <= 1e-12 and worst_cross <= 1e-10 and worst_norm <= 1e-12

    worst_kkt = 0.0
    for i in range(100):
        n = int(rng.integers(1, 9))
        gains = rng.uniform(0.05, 5.0, size=n)
        budget = float(rng.uniform(0.0, 20.0))
        q = water_fill(gains, budget)
        worst_kkt = max(worst_kkt, abs(q.sum() - budget) / max(budget, 1.0))
        active = q > 0
        if active.any():
            levels = q[active] + 1.0 / gains[active]
            level = levels.max()
            worst_kkt = max(worst_kkt, float(levels.max() - levels.min()))
            if (~active).any():
                # inactive users must already sit above the water level
                worst_kkt = max(
                    worst_kkt, float(max(0.0, level - (1.0 / gains[~active]).min()))
                )
    wf_ok = worst_kkt <= 1e-9

    z = complex_gaussian(substream(999, 0), (200000,))
    mean_dev = abs(complex(z.mean()))
    var_dev = abs(float(np.mean(np.abs(z) ** 2)) - 1.0)
    pseudo = abs(complex((z**2).mean()))
    rng_ok = mean_dev <= 0.02 and var_dev <= 0.02 and pseudo <= 0.02

    cfg = ExperimentConfig(
        schemes=("ZF-WF", "JMB-AWSMSE"), n_channels=2, m=6, snr_db=(5.0,)
    )
    cfg2 = ExperimentConfig.from_dict({**cfg.to_dict(), "threads": 2})
    run_sweep(cfg, out_dir=str(tmp_path / "t1"))
    run_sweep(cfg2, out_dir=str(tmp_path / "t2"))
    det_ok = all(
        (tmp_path / "t1" / f).read_bytes() == (tmp_path / "t2" / f).read_bytes()
        for f in ("esr.csv", "sr_detail.csv")
    )

    _criterion(
        "8",
        linalg_ok and wf_ok and rng_ok and det_ok,
        f"linalg worst: chol recon {worst_chol:.2e} (<=1e-12), zf cross "
        f"{worst_cross:.2e} (<=1e-10), norms {worst_norm:.2e}; water-fill "
        f"worst KKT defect {worst_kkt:.2e} (<=1e-9); RNG moment devs "
        f"mean {mean_dev:.3f} / var {var_dev:.3f} / pseudo {pseudo:.3f} "
        f"(<=0.02); threads 1 vs 2 byte-identical = {det_ok}",
    )
