"""Layer tracing for the jmbeam benchmark, installed from outside the program.

Every traced function is replaced at the place its caller looks it up:
`ao` imports `update_blocks`, `accumulate_components` and `average_rates`
by name and calls `qcqp.build`/`qcqp.solve` through the module; `qcqp`
calls `socp.solve_socp` through the module and `kkt_residual` and
`cholesky_psd` by global name; `harness` imports `run_ao`, the channel
draws, `sum_rate`, the baselines and its CSV writers by name. Nothing
under `src/` changes, and `Tracer.restore` puts the originals back.

Spans are kept in memory as (name, start, end, parent index). A span's
self time is its duration minus the durations of its direct children.
Spans opened in pool workers would not come back, so a traced sweep must
run serially.
"""

import functools
import math
import time

import numpy as np

# (module attribute that holds the callee, span name); the span name is
# "<layer>.<function>" with the layer being the jmbeam module that owns it.
TRACE_POINTS = {
    "harness": [
        ("run_ao", "ao.run_ao"),
        ("make_draw", "channel.make_draw"),
        ("draw_sample", "channel.draw_sample"),
        ("sum_rate", "receivers.sum_rate"),
        ("zf_wf", "baselines.zf_wf"),
        ("jmb_zf_svd_wf", "baselines.jmb_zf_svd_wf"),
        ("write_esr_csv", "harness.write_esr_csv"),
        ("write_detail_csv", "harness.write_detail_csv"),
    ],
    "ao": [
        ("update_blocks", "awsmse.update_blocks"),
        ("accumulate_components", "awsmse.accumulate_components"),
        ("average_rates", "receivers.average_rates"),
    ],
    "qcqp": [
        ("build", "qcqp.build"),
        ("solve", "qcqp.solve"),
        ("kkt_residual", "qcqp.kkt_residual"),
        ("cholesky_psd", "linalg.cholesky_psd"),
    ],
    "socp": [
        ("solve_socp", "socp.solve_socp"),
    ],
}

LAYERS = ("channel", "receivers", "awsmse", "qcqp", "socp", "linalg", "ao",
          "baselines", "harness")


class Tracer:
    """Wraps module attributes with span-recording shims."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []

    def wrap(self, module, attr, name, observe=None):
        original = getattr(module, attr)
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def totals(self):
        """{span name: [calls, inclusive seconds, self seconds]}."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
        return out

    def dump(self):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
        }


class Outcomes:
    """Counts read off the values the traced calls return."""

    def __init__(self):
        self.socp_iters = 0
        self.solves = 0
        self.maxiter = 0
        self.fallback = 0
        self.uncertified = 0
        self.worst_kkt = 0.0
        self.ao_runs = 0
        self.ao_iters = 0
        self.ao_nmax = 0
        self.worst_rise = -math.inf

    def socp(self, args, kwargs, res):
        self.socp_iters += res.iterations

    def qcqp(self, args, kwargs, sol):
        self.solves += 1
        self.maxiter += sol.status == "MaxIter"
        warm = kwargs.get("warm")
        self.fallback += warm is not None and np.array_equal(sol.p_star, warm)
        self.uncertified += not sol.kkt_residual <= kwargs.get("tol", 1e-8)
        self.worst_kkt = max(self.worst_kkt, float(sol.kkt_residual))

    def ao(self, args, kwargs, result):
        trace = result[1]
        self.ao_runs += 1
        self.ao_iters += len(trace)
        self.ao_nmax += trace.stop_reason == "n_max"
        rises = np.diff(trace.awsmse_obj)
        if rises.size:
            self.worst_rise = max(self.worst_rise, float(rises.max()))


def install(tracer, outcomes):
    """Wrap every trace point of the imported jmbeam package."""
    import jmbeam.ao
    import jmbeam.harness
    import jmbeam.qcqp
    import jmbeam.socp

    modules = {"harness": jmbeam.harness, "ao": jmbeam.ao,
               "qcqp": jmbeam.qcqp, "socp": jmbeam.socp}
    observers = {"socp.solve_socp": outcomes.socp,
                 "qcqp.solve": outcomes.qcqp,
                 "ao.run_ao": outcomes.ao}
    for mod, points in TRACE_POINTS.items():
        for attr, name in points:
            tracer.wrap(modules[mod], attr, name, observers.get(name))


def layer_metrics(tracer, outcomes, traced_wall, scale):
    """Per-layer metrics of one traced serial sweep of `traced_wall` seconds.

    Times are multiplied by `scale`, the sweep's host-speed factor (see
    speed.py), so that runs on a drifting host compare.
    """
    tot = tracer.totals()
    ms = 1e3 * scale

    def calls(name):
        return tot.get(name, [0, 0.0, 0.0])[0]

    def ms_per_call(name, kind=1):
        c, inc, slf = tot.get(name, [0, 0.0, 0.0])
        return ms * (inc if kind == 1 else slf) / c if c else 0.0

    share = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, slf) in tot.items():
        share[name.split(".", 1)[0]] += slf / traced_wall
    ao_self = tot.get("ao.run_ao", [0, 0.0, 0.0])[2]
    o = outcomes

    def ratio(n, base):
        return n / base if base else 0.0

    m = {
        "socp.solve_socp.calls": calls("socp.solve_socp"),
        "socp.solve_socp.ms_per_call": ms_per_call("socp.solve_socp"),
        "socp.iters_mean": ratio(o.socp_iters, calls("socp.solve_socp")),
        "socp.ms_per_iter": ratio(ms * tot.get("socp.solve_socp", [0, 0.0])[1],
                                  o.socp_iters),
        "awsmse.accumulate_components.calls": calls("awsmse.accumulate_components"),
        "awsmse.accumulate_components.ms_per_call":
            ms_per_call("awsmse.accumulate_components"),
        "awsmse.update_blocks.ms_per_call": ms_per_call("awsmse.update_blocks"),
        "qcqp.solve.calls": calls("qcqp.solve"),
        "qcqp.solve.self_ms_per_call": ms_per_call("qcqp.solve", kind=2),
        "qcqp.build.ms_per_call": ms_per_call("qcqp.build"),
        "qcqp.kkt_residual.ms_per_call": ms_per_call("qcqp.kkt_residual"),
        "qcqp.maxiter_ratio": ratio(o.maxiter, o.solves),
        "qcqp.fallback_ratio": ratio(o.fallback, o.solves),
        "qcqp.uncertified_ratio": ratio(o.uncertified, o.solves),
        "ao.runs": o.ao_runs,
        "ao.iters_mean": ratio(o.ao_iters, o.ao_runs),
        "ao.nmax_ratio": ratio(o.ao_nmax, o.ao_runs),
        "ao.self_ms_per_iter": ratio(ms * ao_self, o.ao_iters),
        "ao.worst_rise": o.worst_rise if math.isfinite(o.worst_rise) else 0.0,
        "receivers.average_rates.ms_per_call": ms_per_call("receivers.average_rates"),
        "receivers.sum_rate.calls": calls("receivers.sum_rate"),
        "channel.make_draw.calls": calls("channel.make_draw"),
        "channel.draw_sample.ms_per_call": ms_per_call("channel.draw_sample"),
        "baselines.zf_wf.ms_per_call": ms_per_call("baselines.zf_wf"),
        "baselines.jmb_zf_svd_wf.ms_per_call": ms_per_call("baselines.jmb_zf_svd_wf"),
        "linalg.cholesky_psd.calls": calls("linalg.cholesky_psd"),
        "harness.write_ms": ms * sum(tot.get(n, [0, 0.0])[1] for n in
                                      ("harness.write_esr_csv",
                                       "harness.write_detail_csv")),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = share[layer]
    m["trace.unattributed_share"] = 1.0 - sum(share.values())
    counts = {"solves": o.solves, "maxiter": o.maxiter, "fallback": o.fallback,
              "uncertified": o.uncertified, "worst_kkt": o.worst_kkt,
              "ao_iters": o.ao_iters, "ao_nmax": o.ao_nmax,
              "socp_iters": o.socp_iters}
    return m, counts
