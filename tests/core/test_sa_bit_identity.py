"""The Python-float evaluator and annealer equal the numpy-scalar
references in ``_sa_oracle`` exactly.

The pinned run digests rest on this: the annealer may get cheaper, but
every objective value it sees, every move it takes and every field of
its result must be the same floats as before.  Values are compared with
``==`` (``nan`` counts as equal to ``nan``), never approximately.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.allocation import Allocation
from repro.core.annealing import SAConfig, anneal
from repro.core.objective import MODES, EnergyEfficiencyObjective, IncrementalEvaluator

import _sa_oracle as oracle


def _plain(x):
    """``x`` with every nan replaced by a marker, so ``==`` treats two
    nans as equal.  The oracle's only complex value -- ``weighted_ips **
    α`` on a negative Python-float base, before any move has turned its
    aggregates into numpy scalars -- maps to the marker too: the numpy
    path gives nan there, and that is what the evaluator keeps."""
    if isinstance(x, complex) or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _floats(lo, hi, size):
    return st.lists(
        st.floats(min_value=lo, max_value=hi, allow_nan=False),
        min_size=size, max_size=size,
    )


@st.composite
def problems(draw):
    """An objective and an initial allocation: every mode, optional
    affinity mask and weights (negative ones included), demands up to 1
    per thread so stacked cores compress (ΣU > 1), cores left empty,
    and spare slots beyond the fullest core."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(MODES))
    ips = np.array(draw(_floats(0.0, 5e9, m * n))).reshape(m, n)
    power = np.array(draw(_floats(-1.0, 10.0, m * n))).reshape(m, n)
    util = np.array(draw(_floats(0.0, 1.0, m * n))).reshape(m, n)
    idle = draw(_floats(1e-3, 2.0, n))
    sleep = draw(st.none() | _floats(0.0, 1.0, n))
    weights = draw(st.none() | _floats(-2.0, 2.0, n))
    allowed = None
    if draw(st.booleans()):
        allowed = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
        allowed = allowed.reshape(m, n)
        allowed[np.arange(m), draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))] = True
    objective = EnergyEfficiencyObjective(
        ips=ips,
        power=power,
        utilization=util,
        idle_power=idle,
        sleep_power=sleep,
        weights=weights,
        mode=mode,
        throughput_exponent=draw(st.sampled_from([1.0, 1.7, 2.0])),
        power_cap_w=draw(st.floats(0.1, 20.0)) if mode == "power_cap" else None,
        allowed=allowed,
    )
    mapping = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    fullest = max(mapping.count(core) for core in range(n))
    slots_per_core = fullest + draw(st.integers(0, 3))
    allocation = Allocation.from_mapping(mapping, n, slots_per_core)
    # Shuffle slots so a core's slot order is not its thread order.
    total = len(allocation)
    for a, b in draw(st.lists(st.tuples(st.integers(0, total - 1),
                                        st.integers(0, total - 1)), max_size=20)):
        allocation.swap(a, b)
    return objective, allocation


class TestEvaluatorIdentity:
    @given(problems(), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                                min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_every_swap_value_equals_the_oracle(self, problem, swaps):
        objective, initial = problem
        mine = initial.copy()
        theirs = initial.copy()
        evaluator = IncrementalEvaluator(objective, mine)
        reference = oracle.IncrementalEvaluator(objective, theirs)
        assert _plain(evaluator.value) == _plain(reference.value)
        total = len(mine)
        with np.errstate(all="ignore"):
            for a, b in swaps:
                value = evaluator.apply_swap(a % total, b % total)
                expected = reference.apply_swap(a % total, b % total)
                assert type(value) is float
                assert _plain(value) == _plain(expected)
                assert evaluator.value is value
        assert mine.slots == theirs.slots
        assert mine._thread_slot == theirs._thread_slot

    def test_negative_aggregate_base_gives_nan(self):
        """A negative weight can drive ``Σ ω IPS`` below zero; a
        fractional ``α`` then has no real power, and the value is nan
        exactly where the numpy-scalar evaluator's was."""
        objective = EnergyEfficiencyObjective(
            ips=np.array([[1e9, 1e9], [2e9, 2e9]]),
            power=np.ones((2, 2)),
            utilization=np.full((2, 2), 0.5),
            idle_power=[0.5, 0.5],
            weights=[1.0, -3.0],
        )
        mine = Allocation.from_mapping([0, 0], 2, 2)
        theirs = mine.copy()
        evaluator = IncrementalEvaluator(objective, mine)
        reference = oracle.IncrementalEvaluator(objective, theirs)
        assert evaluator.value == reference.value > 0
        with np.errstate(all="ignore"):
            # Thread 0 to core 1: Σ ω IPS = 1e9 - 1.5e9 < 0.
            value = evaluator.apply_swap(0, 2)
            expected = reference.apply_swap(0, 2)
        assert math.isnan(value) and math.isnan(expected)

    def test_zero_aggregate_base(self):
        objective = EnergyEfficiencyObjective(
            ips=np.zeros((3, 2)),
            power=np.ones((3, 2)),
            utilization=np.full((3, 2), 0.4),
            idle_power=[0.5, 0.5],
        )
        mine = Allocation.from_mapping([0, 0, 1], 2)
        theirs = mine.copy()
        evaluator = IncrementalEvaluator(objective, mine)
        reference = oracle.IncrementalEvaluator(objective, theirs)
        for a, b in ((0, 3), (1, 4), (0, 5), (2, 3)):
            assert evaluator.apply_swap(a, b) == reference.apply_swap(a, b) == 0.0

    @pytest.mark.parametrize("positions", [(-1, 0), (0, -1), (0, 6), (6, 0)])
    def test_out_of_range_slot_raises_before_any_change(self, positions):
        objective = EnergyEfficiencyObjective(
            ips=np.ones((2, 2)), power=np.ones((2, 2)),
            utilization=np.full((2, 2), 0.5), idle_power=[0.5, 0.5],
        )
        allocation = Allocation.from_mapping([0, 1], 2, 3)
        evaluator = IncrementalEvaluator(objective, allocation)
        before = (list(allocation.slots), list(allocation._thread_slot), evaluator.value)
        with pytest.raises(IndexError):
            evaluator.apply_swap(*positions)
        assert (allocation.slots, allocation._thread_slot, evaluator.value) == before


def _fields(result):
    trace = None
    if result.trace is not None:
        trace = (result.trace.stride, result.trace.samples)
    return _plain([
        result.best_allocation.slots,
        result.best_allocation._thread_slot,
        result.best_value,
        result.initial_value,
        result.iterations,
        result.accepted_moves,
        result.uphill_accepts,
        result.truncated,
        trace,
    ])


class TestAnnealIdentity:
    @given(
        problems(),
        st.integers(0, 2**32 - 1),
        st.integers(1, 300),
        st.floats(0.0, 1.0),
        st.floats(1e-3, 1.0),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_result_field_equals_the_oracle(
        self, problem, seed, iterations, perturbation, acceptance,
        fixed_point, incremental, keep_trace,
    ):
        objective, initial = problem
        # A complex value (a negative base under a fractional α on a
        # Python float) makes the reference compare complex numbers:
        # Python raises TypeError, numpy orders them as pairs.  Either
        # way there is no reference result to match.
        assume(not isinstance(oracle.IncrementalEvaluator(objective, initial.copy()).value,
                              complex))
        config = SAConfig(
            max_iterations=iterations,
            initial_perturbation=perturbation,
            initial_acceptance=acceptance,
            seed=seed,
            use_fixed_point_exp=fixed_point,
            incremental=incremental,
        )
        with np.errstate(all="ignore"):
            try:
                expected = oracle.anneal(objective, initial, config, keep_trace=keep_trace)
            except TypeError:
                assume(False)
            result = anneal(objective, initial, config, keep_trace=keep_trace)
        assert _fields(result) == _fields(expected)

    @pytest.mark.parametrize("fixed_point", [True, False])
    @pytest.mark.parametrize("incremental", [True, False])
    @pytest.mark.parametrize("keep_trace", [True, False])
    def test_default_schedule_on_a_compressed_problem(self, fixed_point, incremental, keep_trace):
        """The full default iteration budget, demands high enough that
        most placements stack ΣU > 1 on some core."""
        rng = np.random.default_rng(7)
        m, n = 8, 4
        objective = EnergyEfficiencyObjective(
            ips=rng.uniform(1e8, 5e9, (m, n)),
            power=rng.uniform(0.05, 8.0, (m, n)),
            utilization=rng.uniform(0.5, 1.0, (m, n)),
            idle_power=rng.uniform(0.05, 1.5, n),
        )
        initial = Allocation.round_robin(m, n)
        config = SAConfig(
            seed=11, use_fixed_point_exp=fixed_point, incremental=incremental
        )
        expected = oracle.anneal(objective, initial, config, keep_trace=keep_trace)
        result = anneal(objective, initial, config, keep_trace=keep_trace)
        assert _fields(result) == _fields(expected)
