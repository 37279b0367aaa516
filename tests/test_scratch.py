"""The block update's scratch arena, its realization sums and the
per-sample layouts they read.

`ao._updates`, with the extrapolation's rates it compares first, keeps
every per-realization array in one reused `receivers.Arena`. These tests
hold the kernels to the bits of the fresh-temporaries formulas in
`_oracles`, and the arena to its contract: results never alias it, an
error in the middle of a call leaves nothing behind, and its size does
not grow with the number of calls. The per-user layouts a
`MonteCarloSample` builds for the block update are built once,
read-only, and freed with their sample.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from _oracles import (
    fresh_layout_components,
    fresh_layout_equalizers,
    fresh_layout_powers,
    fresh_layout_rates,
)
from conftest import tiny_cfg
from jmbeam import ao, lockstep, qcqp
from jmbeam.channel import MonteCarloSample
from jmbeam.errors import DegenerateMmse, NumericalBreakdown
from jmbeam.harness import run_single, run_sweep
from jmbeam.receivers import (
    Arena,
    AwmmseComponents,
    _batch_powers,
    accumulate_components,
    average_rates,
    fresh,
    sum_rate,
    update_blocks,
)

FIELDS = list(AwmmseComponents.__dataclass_fields__)


def _runs(seed, r, m, n_t=2, k=2, scale=10.0):
    rng = np.random.default_rng(seed)
    samples = [
        MonteCarloSample(realizations=rng.standard_normal((m, n_t, k))
                         + 1j * rng.standard_normal((m, n_t, k)))
        for _ in range(r)
    ]
    p = scale * (rng.standard_normal((r, n_t, k + 1))
                 + 1j * rng.standard_normal((r, n_t, k + 1)))
    p[0, :, 0] = 0.0  # the first run is the alpha = 1 one, no common power
    return samples, p


def _expected(samples, p):
    """Powers, rates and components of the runs by the oracle formulas."""
    powers = fresh_layout_powers(samples, p)
    eq = fresh_layout_equalizers(powers)
    return powers, fresh_layout_rates(powers), eq, fresh_layout_components(samples, eq)


def _realization_major(arrays, user_axis=1):
    """User-major kernel outputs, (..., k, m, ...), as the oracle's
    realization-major (..., m, k, ...) views."""
    return tuple(np.swapaxes(x, user_axis, user_axis + 1) for x in arrays)


def _kernels(samples, p, scratch):
    """The same, by the library's kernels on one scratch allocator."""
    rates = average_rates(samples, p, scratch)
    powers = _realization_major(_batch_powers(samples, p, scratch))
    gw = update_blocks(samples, p, scratch)
    comps = accumulate_components(samples, gw, scratch)
    eq = _realization_major((gw.g_c, gw.g_p, gw.u_c, gw.u_p))
    return powers, (rates.r_c, rates.r_p, rates.asr), eq, vars(comps)


def _assert_same_bits(got, want):
    g_pow, g_rates, g_eq, g_comps = got
    w_pow, w_rates, w_eq, w_comps = want
    for a, b in zip(g_pow + g_rates + g_eq, w_pow + w_rates + w_eq):
        assert np.array_equal(a, b)
    for name in FIELDS:
        assert np.array_equal(g_comps[name], w_comps[name]), name


@pytest.mark.parametrize("n_t,k", [(2, 2), (3, 3), (3, 2)])
@pytest.mark.parametrize("r", [1, 3, 5])
@pytest.mark.parametrize("m", [1, 7, 200, 1000])
def test_kernels_match_the_fresh_layout_formulas_bit_for_bit(n_t, k, r, m):
    samples, p = _runs(1000 * r + m + k, r, m, n_t, k)
    want = _expected(samples, p)
    arena = Arena()
    for scratch in (fresh, arena, arena):
        _assert_same_bits(_kernels(samples, p, scratch), want)
    # each run of the stacked call has the bits of that run alone, in the
    # single-run form without a run axis
    for i in range(r):
        rates = average_rates(samples[i], p[i], arena)
        alone = _realization_major(_batch_powers(samples[i], p[i], arena), 0)
        gw = update_blocks(samples[i], p[i], arena)
        comps = vars(accumulate_components(samples[i], gw, arena))
        assert all(np.array_equal(a, b[i]) for a, b in zip(alone, want[0]))
        assert np.array_equal(rates.asr, want[1][2][i])
        for name in FIELDS:
            assert np.array_equal(comps[name], want[3][name][i]), name
    # the alpha = 1 run keeps an exactly zero common layer
    assert not want[3]["psi_c"][0].any() and not want[3]["f_c"][0].any()


def test_accumulate_reads_the_block_update_rows_in_place():
    # update_blocks writes g and u as the user-major (k, 2, m) rows that
    # accumulate_components multiplies; the layer views share them, and
    # accumulating copies neither: with fresh scratch its peak holds its
    # own rows of u conj(g) (16 bytes an entry) and t (8) with one real
    # temporary (8), where a copy of the u rows would add 8 and of g 16
    samples, p = _runs(12, 1, 5000)
    s, q = samples[0], p[0]
    gw = update_blocks(s, q)
    for rows, views in ((gw.g, (gw.g_c, gw.g_p)), (gw.u, (gw.u_c, gw.u_p))):
        assert rows.shape == (2, 2, 5000) and rows.flags.c_contiguous
        assert all(np.shares_memory(v, rows) for v in views)
    want = vars(accumulate_components(s, gw))  # builds user_outer first
    tracemalloc.start()
    try:
        got = vars(accumulate_components(s, gw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * gw.u.size
    assert all(np.array_equal(got[name], want[name]) for name in FIELDS)


def _items(seed, n, m, scale=10.0):
    """Block update items (sample, p, p_try, p_t): in turn no
    extrapolation, and p_try = 2p, p/2 and p. Scaling every column up
    raises every rate, so 2p is kept and p/2 is not, and p itself is not
    either, since p_try must rate strictly higher."""
    samples, p = _runs(seed, n, m, scale=scale)
    return [(s, q, None if c is None else c * q, 100.0)
            for s, q, c in zip(samples, p, (None, 2.0, 0.5, 1.0) * n)]


def _expected_updates(items):
    """What `ao._updates` must return, from the oracle formulas run by run."""
    out = []
    for s, p, p_try, p_t in items:
        tried = p_try is not None and (
            fresh_layout_rates(fresh_layout_powers([s], p_try[None]))[2][0]
            > fresh_layout_rates(fresh_layout_powers([s], p[None]))[2][0])
        comps = _expected([s], (p_try if tried else p)[None])[3]
        c = AwmmseComponents(**{name: x[0] for name, x in comps.items()})
        rbar = np.min(c.v_c) + np.sum(c.v_p)
        out.append((qcqp.build(c, p_t), float(rbar), tried))
    return out


def _snapshot(results):
    """Every array and number of `ao._updates` results, as bytes."""
    return [
        [getattr(q, name).tobytes() for name in ("psi_obj", "f_obj", "psi_con", "f_con",
                                                 "con_const")]
        + [q.omitted_constant, q.p_t, rbar, tried]
        for q, rbar, tried in results
    ]


def _arrays(results):
    return [getattr(q, name) for q, *_ in results
            for name in ("psi_obj", "f_obj", "psi_con", "f_con", "con_const")]


def _assert_outside(arena, arrays):
    for x in arrays:
        assert not any(np.shares_memory(x, buf) for buf in arena.values())


@pytest.fixture
def arena(monkeypatch):
    arena = Arena()
    monkeypatch.setattr(ao, "_SCRATCH", arena)
    return arena


def test_block_update_results_do_not_live_in_the_arena(arena):
    # 7 runs at m = 200 are two chunks (5 + 2), and their 5 rated pairs
    # two more (5 points + 5); a second call of the same shape with other
    # inputs overwrites the arena, not the first results. The kept point
    # is the one the oracle's rates pick: 2p twice, p/2 and p never
    first_items, second_items = _items(1, 7, 200), _items(2, 7, 200)
    first = ao._updates(first_items)
    kept = _snapshot(first)
    assert kept == _snapshot(_expected_updates(first_items))
    assert [tried for *_, tried in first] == [False, True, False, False, False, True, False]
    second = ao._updates(second_items)
    assert _snapshot(first) == kept
    assert _snapshot(second) == _snapshot(_expected_updates(second_items))
    _assert_outside(arena, _arrays(first) + _arrays(second))
    # the components the update reads live outside it too
    samples = [it[0] for it in first_items[:5]]
    gw = update_blocks(samples, np.array([it[1] for it in first_items[:5]]), arena)
    comps = accumulate_components(samples, gw, arena)
    _assert_outside(arena, vars(comps).values())


@pytest.mark.parametrize("error,scale", [(NumericalBreakdown, 1e160),
                                         (DegenerateMmse, None)])
def test_an_error_mid_call_leaves_the_arena_clean(arena, error, scale):
    # the bad run is the last one, in the second chunk, so the first chunk
    # has filled the arena before the call raises; lockstep then serves
    # each payload alone, as `drive` does, and every good run and the next
    # full call still have the oracle's bits
    items = _items(3, 7, 200)
    s, p, _, p_t = items[-1]
    bad = p.copy()
    if scale is None:
        # a common power about 1e304 times the private ones: the MMSE
        # underflows before any power overflows
        bad[:, 0] *= 1e152 / np.abs(bad[:, 0]).max()
        bad[:, 1:] *= 1e-3
    else:
        bad *= scale
    payloads = items[:-1] + [(s, bad, None, p_t)]
    with pytest.raises(error):
        ao._updates(payloads)
    results = [lockstep._alone(ao._updates, it) for it in payloads]
    assert isinstance(results[-1], error)
    want = _expected_updates(items)
    assert _snapshot(results[:-1]) == _snapshot(want[:-1])
    assert _snapshot(ao._updates(items)) == _snapshot(want)


def test_arena_size_is_one_chunk_at_the_largest_shape(arena):
    # chunks of every size from 1 to 5 runs at m = 200, one run at
    # m = 1000 and smaller samples: the arena ends as large as one full
    # chunk of CHUNK_ROWS rows alone makes it, whatever came before
    for n, m in ((1, 200), (7, 200), (3, 1000), (12, 200), (2, 50), (9, 200)):
        items = _items(n + m, n, m)
        ao._updates(items)
    grown = sum(buf.nbytes for buf in arena.values())
    one = Arena()
    items = _items(4, 5, 200)
    _kernels([it[0] for it in items], np.array([it[1] for it in items]), one)
    assert sum(buf.nbytes for buf in one.values()) == grown
    assert grown < 2**20


# ---------------------------------------------------------------------------
# the per-sample layouts

# the layouts built on first use; `user_channels` is the sample's one copy
LAYOUTS = ("user_outer",)


@pytest.mark.parametrize("n_t,k", [(2, 2), (3, 2), (3, 3)])
def test_sample_layouts_are_built_once_and_read_only(n_t, k):
    samples, p = _runs(n_t + k, 2, 50, n_t, k)
    s = samples[0]
    assert not any(name in vars(s) for name in LAYOUTS)
    first = accumulate_components(samples, update_blocks(samples, p))
    built = [vars(s)[name] for name in LAYOUTS]
    again = accumulate_components(samples, update_blocks(samples, p))
    assert all(getattr(s, name) is x for name, x in zip(LAYOUTS, built))
    for name in FIELDS:
        assert np.array_equal(getattr(first, name), getattr(again, name)), name
    for x in built + [s.user_channels]:
        assert x.flags.c_contiguous
        with pytest.raises(ValueError):
            x.flat[0] = 0.0
    # user u's channels in realization rows, and per realization the
    # real and imaginary parts of h_a conj(h_b) over the upper triangle,
    # then a one
    h = s.realizations.transpose(2, 0, 1)
    assert np.array_equal(s.user_channels, h)
    a, b = np.triu_indices(n_t)
    outer = h[..., a] * h[..., b].conj()
    x = s.user_outer
    assert x.shape == (k, 50, n_t * n_t + 1)
    np.testing.assert_allclose(x[..., :a.size], outer.real, rtol=0, atol=1e-14)
    np.testing.assert_allclose(x[..., a.size:-1], outer.imag[..., a < b], rtol=0, atol=1e-14)
    assert (x[..., -1] == 1.0).all()


def test_psi_is_exactly_hermitian_and_the_alpha_one_run_has_no_common_layer():
    # the first run of _runs has no common power: its common layer is
    # exactly zero and its problem is the broadcast form
    samples, p = _runs(9, 5, 200, 3, 3)
    comps = accumulate_components(samples, update_blocks(samples, p))
    for name in ("psi_c", "psi_p"):
        psi = getattr(comps, name)
        assert np.array_equal(psi, psi.conj().swapaxes(-1, -2)), name
        assert not np.diagonal(psi, axis1=-2, axis2=-1).imag.any(), name
    for name in ("psi_c", "f_c", "t_c", "v_c"):
        assert not getattr(comps, name)[0].any(), name
        assert getattr(comps, name)[1:].all(), name
    problems = [q for q, *_ in ao._updates([(s, q, None, 100.0) for s, q in zip(samples, p)])]
    assert [q.include_common for q in problems] == [False] + [True] * 4


def test_one_realization_samples_never_build_the_layouts(monkeypatch):
    # sum_rate scores every design on one channel matrix; its sample of
    # one realization needs only its user-major channels
    def refuse(self):
        raise AssertionError("a one-realization sample built a block-update layout")

    for name in LAYOUTS:
        monkeypatch.setattr(MonteCarloSample, name, property(refuse))
    samples, p = _runs(10, 1, 1)
    assert np.isfinite(sum_rate(samples[0].realizations[0], p[0]))
    cfg = tiny_cfg(schemes=("ZF-WF",))
    assert np.isfinite(run_single(cfg, "ZF-WF", 5.0, 0.6, 3)[1])


def test_sample_layouts_are_freed_with_the_sample():
    # the layouts live on the sample, in no module-level cache: a sample
    # that held them goes with its last reference, and a sweep repeated
    # in one process holds no more memory at its peak or after it
    samples, p = _runs(11, 1, 1000)
    accumulate_components(samples, update_blocks(samples, p))
    ref = weakref.ref(samples[0])
    del samples
    gc.collect()
    assert ref() is None
    cfg = tiny_cfg(schemes=("JMB-AWSMSE", "BC-AWSMSE"), snr_db=(10.0, 20.0), m=500,
                   n_channels=3)
    per_sweep = 6 * 500 * (2 * 2 * 16 + 2 * 5 * 8)  # the layouts' bytes
    tracemalloc.start()
    try:
        held, peaks = [], []
        for _ in range(3):
            tracemalloc.reset_peak()
            run_sweep(cfg)
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
            held.append(current)
            peaks.append(peak)
    finally:
        tracemalloc.stop()
    assert abs(held[2] - held[1]) < per_sweep / 10
    assert abs(peaks[2] - peaks[1]) < per_sweep / 10
