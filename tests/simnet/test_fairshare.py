"""Unit + property tests for the max-min fair-share solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.fairshare import maxmin_rates, path_available_bandwidth


def _mk(paths, caps):
    return maxmin_rates([np.array(p, dtype=np.intp) for p in paths], np.array(caps, float))


def test_single_flow_gets_bottleneck():
    rates = _mk([[0, 1]], [100.0, 40.0])
    assert rates[0] == pytest.approx(40.0)


def test_two_flows_share_equally():
    rates = _mk([[0], [0]], [100.0])
    assert rates[0] == pytest.approx(50.0)
    assert rates[1] == pytest.approx(50.0)


def test_classic_three_flow_maxmin():
    # flows: A on link0, B on link0+1, C on link1; caps 10, 16
    # A,B share link0 at 5 each; C gets 16-5=11
    rates = _mk([[0], [0, 1], [1]], [10.0, 16.0])
    assert rates[0] == pytest.approx(5.0)
    assert rates[1] == pytest.approx(5.0)
    assert rates[2] == pytest.approx(11.0)


def test_zero_residual_starves_only_crossing_flows():
    rates = _mk([[0], [1]], [0.0, 10.0])
    assert rates[0] == pytest.approx(0.0)
    assert rates[1] == pytest.approx(10.0)


def test_empty_input():
    assert maxmin_rates([], np.array([10.0])).size == 0


def test_bad_link_index_rejected():
    with pytest.raises(IndexError):
        _mk([[5]], [10.0])


def test_path_available_bandwidth():
    load = np.array([10.0, 60.0, 5.0])
    cap = np.array([100.0, 100.0, 100.0])
    assert path_available_bandwidth(load, cap, [0, 1]) == pytest.approx(40.0)


def test_path_available_bandwidth_rejects_empty_path():
    load = np.array([10.0])
    cap = np.array([100.0])
    with pytest.raises(ValueError):
        path_available_bandwidth(load, cap, [])


def test_empty_link_list_rejected_with_flow_index():
    with pytest.raises(ValueError, match="flow 1"):
        maxmin_rates([np.array([0]), np.array([], dtype=np.intp)], np.array([10.0]))


@st.composite
def _fair_share_cases(draw):
    nlinks = draw(st.integers(1, 8))
    nflows = draw(st.integers(1, 12))
    caps = draw(
        st.lists(
            st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
            min_size=nlinks,
            max_size=nlinks,
        )
    )
    paths = []
    for _ in range(nflows):
        length = draw(st.integers(1, nlinks))
        path = draw(
            st.lists(st.integers(0, nlinks - 1), min_size=length, max_size=length, unique=True)
        )
        paths.append(path)
    return paths, caps


@settings(max_examples=120, deadline=None)
@given(_fair_share_cases())
def test_property_capacity_never_exceeded(case):
    paths, caps = case
    rates = _mk(paths, caps)
    caps = np.asarray(caps)
    load = np.zeros_like(caps)
    for p, r in zip(paths, rates):
        load[np.asarray(p, dtype=np.intp)] += r
    assert (rates >= -1e-9).all()
    assert (load <= caps * (1 + 1e-6) + 1e-6).all()


@settings(max_examples=120, deadline=None)
@given(_fair_share_cases())
def test_property_every_flow_has_a_saturated_bottleneck(case):
    """Max-min optimality: each flow crosses a link that is (nearly)
    saturated and on which it is among the largest-rate flows."""
    paths, caps = case
    rates = _mk(paths, caps)
    caps = np.asarray(caps, float)
    load = np.zeros_like(caps)
    for p, r in zip(paths, rates):
        load[np.asarray(p, dtype=np.intp)] += r
    for p, r in zip(paths, rates):
        ok = False
        for lid in p:
            saturated = load[lid] >= caps[lid] - max(1e-6 * max(caps[lid], 1.0), 1e-6)
            max_on_link = max(
                (rates[i] for i, q in enumerate(paths) if lid in q), default=0.0
            )
            if saturated and r >= max_on_link - 1e-6 * max(max_on_link, 1.0):
                ok = True
                break
        assert ok, f"flow with rate {r} has no bottleneck link"


@settings(max_examples=60, deadline=None)
@given(_fair_share_cases())
def test_property_deterministic(case):
    paths, caps = case
    a = _mk(paths, caps)
    b = _mk(paths, caps)
    assert np.array_equal(a, b)


def test_many_flows_vectorized_path_is_consistent():
    rng = np.random.default_rng(0)
    nlinks, nflows = 20, 200
    caps = rng.uniform(1e6, 1e8, nlinks)
    paths = [rng.choice(nlinks, size=3, replace=False) for _ in range(nflows)]
    rates = _mk(paths, caps)
    load = np.zeros(nlinks)
    for p, r in zip(paths, rates):
        load[p] += r
    assert (load <= caps * (1 + 1e-9) + 1e-3).all()
    assert rates.min() > 0


# ----------------------------------------------------------------------
# grow-only scratch buffers (hoisted per-settle allocations)
# ----------------------------------------------------------------------

def _random_incidence(rng, nflows, nlinks, npairs):
    pair_flow = rng.integers(0, nflows, size=npairs).astype(np.intp)
    pair_link = rng.integers(0, nlinks, size=npairs).astype(np.intp)
    residual = rng.uniform(1.0, 100.0, size=nlinks)
    return pair_flow, pair_link, residual


def test_scratch_solves_are_bit_identical():
    """scratch= reuses buffers but must never change a single bit of
    the solution, weighted or not, across many random instances."""
    from repro.simnet.fairshare import (
        FairShareScratch,
        maxmin_rates_componentwise,
    )

    rng = np.random.default_rng(11)
    scratch = FairShareScratch()
    for trial in range(25):
        nflows = int(rng.integers(1, 40))
        nlinks = int(rng.integers(1, 20))
        npairs = int(rng.integers(0, 120))
        pf, pl, residual = _random_incidence(rng, nflows, nlinks, npairs)
        weights = rng.uniform(0.1, 5.0, size=nflows) if trial % 2 else None
        plain = maxmin_rates_componentwise(pf, pl, nflows, residual, weights)
        scratched = maxmin_rates_componentwise(
            pf, pl, nflows, residual, weights, scratch=scratch
        )
        assert np.array_equal(plain, np.asarray(scratched)), f"trial {trial}"


def test_scratch_components_are_bit_identical():
    from repro.simnet.fairshare import FairShareScratch, incidence_components

    rng = np.random.default_rng(5)
    scratch = FairShareScratch()
    for _ in range(25):
        nflows = int(rng.integers(1, 30))
        nlinks = int(rng.integers(1, 15))
        npairs = int(rng.integers(0, 90))
        pf, pl, _res = _random_incidence(rng, nflows, nlinks, npairs)
        fc0, lc0, n0 = incidence_components(pf, pl, nflows, nlinks)
        fc1, lc1, n1 = incidence_components(pf, pl, nflows, nlinks, scratch=scratch)
        assert n0 == n1
        assert np.array_equal(fc0, np.asarray(fc1))
        assert np.array_equal(lc0, np.asarray(lc1))


def test_scratch_stops_allocating_once_warm():
    """The no-allocation gate: after a warm-up solve at the working-set
    size, repeated same-size solves must reuse every slab — zero grows,
    stable buffer identities."""
    from repro.simnet.fairshare import (
        FairShareScratch,
        maxmin_rates_componentwise,
    )

    rng = np.random.default_rng(3)
    scratch = FairShareScratch()
    pf, pl, residual = _random_incidence(rng, 32, 16, 100)
    maxmin_rates_componentwise(pf, pl, 32, residual, scratch=scratch)
    warm = scratch.buffer_stats()
    warm_grows = scratch.grows
    for _ in range(10):
        pf, pl, residual = _random_incidence(rng, 32, 16, 100)
        maxmin_rates_componentwise(pf, pl, 32, residual, scratch=scratch)
    assert scratch.grows == warm_grows
    assert scratch.buffer_stats() == warm


def test_scratch_grow_callback_fires():
    from repro.simnet.fairshare import FairShareScratch

    ticks = []
    scratch = FairShareScratch(on_grow=lambda: ticks.append(1))
    scratch.zeros("a", 10)
    scratch.zeros("a", 10)   # reuse, no grow
    scratch.zeros("a", 200)  # doubles
    assert scratch.grows == 2
    assert len(ticks) == 2
