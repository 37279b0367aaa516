"""The block update's scratch arena and its one-pass realization sums.

`ao._updates` and `ao._rates` keep every per-realization array in one
reused `receivers.Arena`. These tests hold the kernels to the bits of the
fresh-temporaries formulas in `_oracles`, and the arena to its contract:
results never alias it, an error in the middle of a call leaves nothing
behind, and its size does not grow with the number of calls.
"""

import numpy as np
import pytest

from _oracles import (
    fresh_layout_components,
    fresh_layout_equalizers,
    fresh_layout_powers,
    fresh_layout_rates,
)
from jmbeam import ao, lockstep, qcqp
from jmbeam.channel import MonteCarloSample
from jmbeam.errors import DegenerateMmse, NumericalBreakdown
from jmbeam.receivers import (
    Arena,
    AwmmseComponents,
    _batch_powers,
    accumulate_components,
    average_rates,
    equalizers_of,
    fresh,
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


def _kernels(samples, p, scratch):
    """The same, by the library's kernels on one scratch allocator."""
    rates = average_rates(samples, p, scratch)
    powers = _batch_powers(samples, p, scratch)
    gw = equalizers_of(powers, scratch)
    comps = accumulate_components(samples, gw, scratch)
    eq = (gw.g_c, gw.g_p, gw.u_c, gw.u_p)
    return powers, (rates.r_c, rates.r_p, rates.asr), eq, vars(comps)


def _assert_same_bits(got, want):
    g_pow, g_rates, g_eq, g_comps = got
    w_pow, w_rates, w_eq, w_comps = want
    for a, b in zip(g_pow + g_rates + g_eq, w_pow + w_rates + w_eq):
        assert np.array_equal(a, b)
    for name in FIELDS:
        assert np.array_equal(g_comps[name], w_comps[name]), name


@pytest.mark.parametrize("n_t,k", [(2, 2), (3, 3)])
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
        alone = _batch_powers(samples[i], p[i], arena)
        gw = equalizers_of(alone, arena)
        comps = vars(accumulate_components(samples[i], gw, arena))
        assert all(np.array_equal(a, b[i]) for a, b in zip(alone, want[0]))
        assert np.array_equal(rates.asr, want[1][2][i])
        for name in FIELDS:
            assert np.array_equal(comps[name], want[3][name][i]), name
    # the alpha = 1 run keeps an exactly zero common layer
    assert not want[3]["psi_c"][0].any() and not want[3]["f_c"][0].any()


def _items(seed, n, m, scale=10.0):
    samples, p = _runs(seed, n, m, scale=scale)
    return [(s, q, 100.0) for s, q in zip(samples, p)]


def _expected_updates(items):
    """What `ao._updates` must return, from the oracle formulas run by run."""
    out = []
    for s, p, p_t in items:
        comps = _expected([s], p[None])[3]
        c = AwmmseComponents(**{name: x[0] for name, x in comps.items()})
        rbar = np.min(c.v_c) + np.sum(c.v_p)
        out.append((qcqp.build(c, p_t), float(rbar)))
    return out


def _snapshot(results):
    """Every array and number of `ao._updates` results, as bytes."""
    return [
        [getattr(q, name).tobytes() for name in ("psi_obj", "f_obj", "psi_con", "f_con",
                                                 "con_const")]
        + [q.omitted_constant, q.p_t, rbar]
        for q, rbar in results
    ]


def _arrays(results):
    return [getattr(q, name) for q, _ in results
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
    # 7 runs at m = 200 are two chunks (5 + 2); a second call of the same
    # shape with other inputs overwrites the arena, not the first results
    first_items, second_items = _items(1, 7, 200), _items(2, 7, 200)
    first = ao._updates(first_items)
    kept = _snapshot(first)
    assert kept == _snapshot(_expected_updates(first_items))
    second = ao._updates(second_items)
    assert _snapshot(first) == kept
    assert _snapshot(second) == _snapshot(_expected_updates(second_items))
    _assert_outside(arena, _arrays(first) + _arrays(second))
    # the components the update reads live outside it too
    samples = [s for s, _, _ in first_items[:5]]
    powers = _batch_powers(samples, np.array([p for _, p, _ in first_items[:5]]), arena)
    comps = accumulate_components(samples, equalizers_of(powers, arena), arena)
    _assert_outside(arena, vars(comps).values())
    # and the extrapolation's rates, per point, are those of the oracle
    points = [[(s, p), (s, 2.0 * p)] for s, p, _ in first_items]
    got = ao._rates(points)
    for pts, rates in zip(points, got):
        for (s, p), asr in zip(pts, rates):
            assert asr == fresh_layout_rates(fresh_layout_powers([s], p[None]))[2][0]


@pytest.mark.parametrize("error,scale", [(NumericalBreakdown, 1e160),
                                         (DegenerateMmse, None)])
def test_an_error_mid_call_leaves_the_arena_clean(arena, error, scale):
    # the bad run is the last one, in the second chunk, so the first chunk
    # has filled the arena before the call raises; lockstep then serves
    # each payload alone, as `drive` does, and every good run and the next
    # full call still have the oracle's bits
    items = _items(3, 7, 200)
    s, p, p_t = items[-1]
    bad = p.copy()
    if scale is None:
        # a common power about 1e304 times the private ones: the MMSE
        # underflows before any power overflows
        bad[:, 0] *= 1e152 / np.abs(bad[:, 0]).max()
        bad[:, 1:] *= 1e-3
    else:
        bad *= scale
    payloads = items[:-1] + [(s, bad, p_t)]
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
        ao._rates([[(s, p)] for s, p, _ in items])
    grown = sum(buf.nbytes for buf in arena.values())
    one = Arena()
    items = _items(4, 5, 200)
    _kernels([s for s, _, _ in items], np.array([p for _, p, _ in items]), one)
    assert sum(buf.nbytes for buf in one.values()) == grown
    assert grown < 2**20
