"""jmbeam benchmark: ESR sweeps timed end to end and traced layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Workloads (README.md gives the reasons and the predicted moves):

    desk        demos/config_desk.json as is, on its first 2 channels per
                cell, serial (threads=1)
    paper-m     the same grid at m=1000 (ExperimentConfig.paper_scale) on
                every other SNR and 1 channel per cell, serial
    desk-2proc  exactly the desk grid with threads=2, so the harness
                process pool runs it; with --trace 1 its esr.csv and
                sr_detail.csv must be byte-identical to the serial path's

The program gets only the generated config. `--seed` shuffles the order
of the SNR grid in it, which changes task order, output row order and the
pool's load balance; the channel draws come from `--master-seed` (12345,
the desk config's own), so every seed does the same numerical work.

`--trace 0` runs the sweep untraced (repeated while another repeat fits in
`--seconds`) and prints the end-to-end metrics. `--trace 1` runs it once
untraced and once serially with every layer wrapped (layers.py), and
prints the per-layer metrics. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. Each run also
writes a record, with machine info, output digests and the src/ line
count, under .perfbench/records/. Exit code 0 means every check passed.
"""

import os

# pinned before numpy loads, here and in every process started from here
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import layers
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DESK_CONFIG = ROOT / "demos" / "config_desk.json"
OUT = ROOT / ".perfbench"

WORKLOADS = ("desk", "paper-m", "desk-2proc")
DESK_CHANNELS = 2
PAPER_CHANNELS = 1
SETUP_REPEATS = 5
SETUP_PROBES = 10  # probe samples before and after each set-up child
WORST_RISE_TOL = 1e-7  # acceptance criterion 4's bound on AO objective rises
JMB, BC = "JMB-AWSMSE", "BC-AWSMSE"

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import jmbeam
jmbeam.ExperimentConfig.from_json(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def load_program():
    """Put src/ on the path; fail without a result if the tree is missing."""
    missing = [p for p in (SRC / "jmbeam" / "__init__.py", DESK_CONFIG)
               if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: missing {', '.join(map(str, missing))}; run it "
                 "from a full jmbeam checkout")
    sys.path.insert(0, str(SRC))


def make_config(workload, seed, master_seed):
    from jmbeam.harness import ExperimentConfig

    cfg = ExperimentConfig.from_json(DESK_CONFIG)
    snrs = list(cfg.snr_db)
    n_channels = DESK_CHANNELS
    if workload == "paper-m":
        cfg = cfg.paper_scale()
        snrs = snrs[::2]
        n_channels = PAPER_CHANNELS
    random.Random(seed).shuffle(snrs)
    return replace(cfg, snr_db=tuple(snrs), n_channels=n_channels,
                   master_seed=master_seed,
                   threads=2 if workload == "desk-2proc" else 1)


def cpu_seconds():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def sweep(cfg, out_dir, probe=False):
    """One run_sweep with outputs written; returns what the checks need.

    With `probe`, the speed probe runs inside the channel tasks and
    "scale" converts the wall time to the reference host speed.
    """
    from jmbeam import harness

    spool = out_dir.with_name(out_dir.name + "-probe")
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    with speed.probed(harness, spool) if probe else contextlib.nullcontext():
        records = harness.run_sweep(cfg, out_dir=str(out_dir))
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    scale = speed.scale(speed.spool_samples(spool)) if probe else 1.0
    files = {name: (out_dir / name).read_bytes()
             for name in ("esr.csv", "sr_detail.csv")}
    meta = json.loads((out_dir / "meta.json").read_text())
    return {"wall": wall, "cpu": cpu, "scale": scale, "records": records,
            "files": files, "meta": meta}


def digests(files):
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def check_sweep(cfg, run, label, checks):
    """Every scheme-run succeeded and every ESR is finite.

    Returns (attempted, failed) scheme-runs; tasks that never completed
    count as failed.
    """
    meta = run["meta"]
    n_tasks = len(cfg.alphas) * len(cfg.snr_db) * cfg.n_channels
    attempted = len(cfg.schemes) * n_tasks
    rows = run["files"]["sr_detail.csv"].decode().splitlines()[1:]
    ok_runs = sum(math.isfinite(float(r.rsplit(",", 1)[1])) for r in rows)
    failed = attempted - ok_runs
    checks.append((f"{label}: all tasks completed",
                   meta["tasks_completed"] == n_tasks
                   and meta["tasks_total"] == n_tasks and not meta["interrupted"]))
    checks.append((f"{label}: no failed scheme-run",
                   failed == 0 and not meta["failures"]))
    recs = run["records"]
    checks.append((f"{label}: one finite ESR per cell and scheme",
                   len(recs) == len(cfg.schemes) * len(cfg.alphas) * len(cfg.snr_db)
                   and all(math.isfinite(r.esr) and r.n_channels == cfg.n_channels
                           for r in recs)))
    return attempted, failed


def esr_mean(records, scheme):
    return statistics.fmean(r.esr for r in records if r.scheme == scheme)


def measure_setup():
    """Seconds to import jmbeam and load the config in a fresh interpreter.

    Returns the median over SETUP_REPEATS children at the reference host
    speed, probed around each child, and the raw times.
    """
    probe = speed.SpeedProbe()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            probe.sample()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(DESK_CONFIG)],
            check=True, capture_output=True, text=True, cwd=ROOT,
        )
        for _ in range(SETUP_PROBES):
            probe.sample()
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * speed.scale(probe.samples))
        probe.samples.clear()
    return statistics.median(scaled), raw


def run_untraced(cfg, seconds, work, checks):
    """Repeat the sweep while another repeat fits in `seconds`."""
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(sweep(cfg, work / f"sweep{len(runs)}", probe=True))
        spent = time.perf_counter() - start
        if spent + statistics.median(r["wall"] for r in runs) > seconds:
            break
    checks.append(("repeats give identical outputs",
                   all(r["files"] == runs[0]["files"] for r in runs)))
    return runs


def run_traced(cfg, work, checks):
    tracer, outcomes = layers.Tracer(), layers.Outcomes()
    layers.install(tracer, outcomes)
    try:
        run = sweep(replace(cfg, threads=1), work / "traced", probe=True)
    finally:
        tracer.restore()
    metrics, counts = layers.layer_metrics(tracer, outcomes, run["wall"],
                                           run["scale"])
    checks.append((f"AO objective never rises by more than {WORST_RISE_TOL:g}",
                   metrics["ao.worst_rise"] <= WORST_RISE_TOL))
    return run, metrics, counts, tracer


def machine_info():
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def src_lines():
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((SRC / "jmbeam").glob("*.py")))


UNITS_E2E = {"setup_s": "s", "wall_s": "s", "esr_jmb_mean": "bit/s/Hz",
             "esr_bc_mean": "bit/s/Hz", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith(("calls", ".runs", ".tasks")):
        return "count"
    if name.endswith(("ms_per_call", "ms_per_iter", "_ms")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("iters_mean"):
        return "iterations"
    if name.endswith("worst_rise"):
        return "wsmse"
    return "ratio"


def e2e_mode(cfg, seconds, work, checks, record):
    setup_s, setup_raw = measure_setup()
    runs = run_untraced(cfg, seconds, work, checks)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    recs = runs[0]["records"]
    record["setup_raw_s"] = setup_raw
    record["wall_raw_s"] = [r["wall"] for r in runs]
    record["speed_scale"] = [r["scale"] for r in runs]
    record["cpu_s"] = [r["cpu"] for r in runs]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r["wall"] * r["scale"] for r in runs),
        "esr_jmb_mean": esr_mean(recs, JMB),
        "esr_bc_mean": esr_mean(recs, BC),
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
    }, [(f"sweep {i + 1}", r) for i, r in enumerate(runs)]


def trace_mode(cfg, work, checks, record):
    plain = sweep(cfg, work / "plain", probe=True)
    traced, metrics, counts, tracer = run_traced(cfg, work, checks)
    # on desk-2proc the untraced run used the process pool, so this is the
    # byte-identity check across --threads
    checks.append(("traced serial outputs byte-identical to the untraced run",
                   traced["files"] == plain["files"]))
    metrics["harness.worker_util"] = plain["cpu"] / (cfg.threads * plain["wall"])
    metrics["harness.tasks"] = plain["meta"]["tasks_total"]
    # both at the reference host speed; the untraced run's CPU seconds are
    # its serial-equivalent time, also when the pool ran it
    metrics["trace.overhead_s"] = (traced["wall"] * traced["scale"]
                                   - plain["cpu"] * plain["scale"])
    record["untraced_wall_raw_s"] = plain["wall"]
    record["traced_wall_raw_s"] = traced["wall"]
    record["speed_scale"] = [plain["scale"], traced["scale"]]
    record["outcome_counts"] = counts
    spans = OUT / "records" / f"{record['workload']}-seed{record['seed']}-spans.json"
    spans.parent.mkdir(exist_ok=True)
    spans.write_text(json.dumps(tracer.dump()))
    return metrics, [("untraced sweep", plain), ("traced sweep", traced)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="shuffles the SNR order of the generated config")
    ap.add_argument("--master-seed", type=int, default=12345,
                    help="master seed of the channel draws")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="untraced sweeps repeat while another fits in this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    cfg = make_config(args.workload, args.seed, args.master_seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    checks = []
    record = {"workload": args.workload, "seed": args.seed,
              "master_seed": args.master_seed, "trace": args.trace,
              "config": cfg.to_dict(), "machine": machine_info(),
              "src_lines": src_lines()}
    try:
        if args.trace:
            metrics, runs = trace_mode(cfg, work, checks, record)
        else:
            metrics, runs = e2e_mode(cfg, args.seconds, work, checks, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    for label, run in runs:
        a, f = check_sweep(cfg, run, label, checks)
        attempted += a
        failed += f
    record["digests"] = digests(runs[0][1]["files"])
    record["checks"] = [{"check": name, "ok": bool(ok)} for name, ok in checks]
    correct = all(ok for _, ok in checks)
    record["correct"] = correct

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS_E2E.get(k) or layer_unit(k)}
                          for k, v in metrics.items()}}
    record["metrics"] = result["metrics"]
    records = OUT / "records"
    records.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  master seed "
          f"{args.master_seed}  trace {args.trace}")
    for name, ok in checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    for k, v in result["metrics"].items():
        print(f"  {k:44s} {v['value']:>14.6g} {v['unit']}")
    if "wall_raw_s" in record:
        print(f"  raw wall s {record['wall_raw_s']}  speed scale {record['speed_scale']}")
    print(f"  sha256 esr.csv {record['digests']['esr.csv']}")
    print(f"  sha256 sr_detail.csv {record['digests']['sr_detail.csv']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
