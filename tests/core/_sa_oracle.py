"""Reference copies of the annealer's inner loop, kept as test oracles.

``IncrementalEvaluator`` and ``anneal`` below are the numpy-scalar
implementations that :mod:`repro.core.objective` and
:mod:`repro.core.annealing` replaced with a Python-float evaluator and
a tighter loop.  The replacements must perform the same float
operations in the same order, so every value they produce equals these
references exactly; ``tests/core/test_sa_bit_identity.py`` checks that.
Do not edit the two bodies: they are the reference.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.allocation import EMPTY, Allocation
from repro.core.annealing import (
    TRACE_SAMPLES,
    SAConfig,
    SAResult,
    SATrace,
    default_iteration_cap,
)
from repro.core.fixed_point import Xorshift32, exp_neg
from repro.core.objective import (
    AFFINITY_VIOLATION_PENALTY,
    EnergyEfficiencyObjective,
)


class IncrementalEvaluator:
    """O(1)-per-move tracker of ``J_E`` over a mutating allocation.

    Owns the allocation while attached: perform moves through
    :meth:`apply_swap` only, so the running sums stay consistent.
    Swaps are involutive, so rejecting a move is just applying the same
    swap again.
    """

    def __init__(self, objective: EnergyEfficiencyObjective, allocation: Allocation) -> None:
        objective._check_allocation(allocation)
        self.objective = objective
        self.allocation = allocation
        n = objective.n_cores
        self._sum_u = np.zeros(n)
        self._sum_uips = np.zeros(n)
        self._sum_up = np.zeros(n)
        self._core_ips = np.zeros(n)
        self._core_power = np.zeros(n)
        for core in range(n):
            for thread in allocation.threads_on(core):
                self._account(thread, core, +1.0)
            self._core_ips[core], self._core_power[core] = objective.core_terms(
                core, self._sum_u[core], self._sum_uips[core], self._sum_up[core]
            )
        self._violations = objective.violations(allocation)
        self._weighted_ips = float((objective.weights * self._core_ips).sum())
        self._total_power = float(self._core_power.sum())
        self._ratio_sum = float(
            (
                objective.weights
                * np.where(
                    self._core_power > 0,
                    self._core_ips / np.maximum(self._core_power, 1e-30),
                    0.0,
                )
            ).sum()
        )

    @property
    def value(self) -> float:
        """Current ``J_E``."""
        value = self.objective.scalar_value(
            self._weighted_ips, self._total_power, self._ratio_sum
        )
        return value - AFFINITY_VIOLATION_PENALTY * self._violations

    def _account(self, thread: int, core: int, sign: float) -> None:
        obj = self.objective
        self._sum_u[core] += sign * obj.utilization[thread, core]
        # Reuse the objective's cached u·ips / u·p vectors instead of
        # re-multiplying on every annealer move.
        self._sum_uips[core] += sign * obj._uips[thread, core]
        self._sum_up[core] += sign * obj._up[thread, core]

    def _refresh_core(self, core: int) -> None:
        obj = self.objective
        new_ips, new_power = obj.core_terms(
            core, self._sum_u[core], self._sum_uips[core], self._sum_up[core]
        )
        old_ips, old_power = self._core_ips[core], self._core_power[core]
        weight = obj.weights[core]
        self._weighted_ips += weight * (new_ips - old_ips)
        self._total_power += new_power - old_power
        old_ratio = old_ips / old_power if old_power > 0 else 0.0
        new_ratio = new_ips / new_power if new_power > 0 else 0.0
        self._ratio_sum += weight * (new_ratio - old_ratio)
        self._core_ips[core] = new_ips
        self._core_power[core] = new_power

    def apply_swap(self, pos_a: int, pos_b: int) -> float:
        """Swap two slots, update ``J_E`` incrementally, return new value."""
        alloc = self.allocation
        thread_a = alloc.slots[pos_a]
        thread_b = alloc.slots[pos_b]
        core_a, core_b = alloc.swap(pos_a, pos_b)
        if core_a != core_b:
            allowed = self.objective.allowed
            if thread_a != EMPTY:
                self._account(thread_a, core_a, -1.0)
                self._account(thread_a, core_b, +1.0)
                if allowed is not None:
                    self._violations += int(not allowed[thread_a, core_b]) - int(
                        not allowed[thread_a, core_a]
                    )
            if thread_b != EMPTY:
                self._account(thread_b, core_b, -1.0)
                self._account(thread_b, core_a, +1.0)
                if allowed is not None:
                    self._violations += int(not allowed[thread_b, core_a]) - int(
                        not allowed[thread_b, core_b]
                    )
            self._refresh_core(core_a)
            self._refresh_core(core_b)
        return self.value


def anneal(
    objective: EnergyEfficiencyObjective,
    initial: Allocation,
    config: SAConfig = SAConfig(),
    keep_trace: bool = False,
) -> SAResult:
    """Run Algorithm 1 from ``initial`` and return the best allocation.

    ``initial`` is not mutated.  The returned allocation is the best
    one *visited* (tracking the best costs nothing and dominates
    returning the final state).  With ``keep_trace`` the result carries
    a sampled :class:`SATrace` of the walk — observability only, the
    search itself is identical either way.
    """
    working = initial.copy()
    evaluator = IncrementalEvaluator(objective, working)
    rng = Xorshift32(config.seed)
    total_slots = len(working)
    iterations = config.max_iterations
    if iterations is None:
        iterations = default_iteration_cap(objective.n_cores, objective.n_threads)

    perturb = config.initial_perturbation
    accept = config.initial_acceptance
    current = evaluator.value
    initial_value = current
    best_value = current
    best_allocation = working.copy()
    accepted = 0
    uphill = 0
    truncated = False
    deadline = None
    if config.time_budget_s is not None:
        deadline = time.perf_counter() + config.time_budget_s
    trace = None
    if keep_trace:
        trace = SATrace(stride=max(iterations // TRACE_SAMPLES, 1))
        trace.record(0, current, best_value, perturb, accept)

    performed = 0
    for _ in range(iterations):
        if deadline is not None and performed % 32 == 0 and performed > 0:
            if time.perf_counter() >= deadline:
                truncated = True
                break
        performed += 1
        pos = rng.randi_range(0, total_slots)
        span = math.sqrt(perturb)
        offset = rng.randi_range(-pos, total_slots - pos)
        pos_new = pos + int(span * offset)
        pos_new = min(max(pos_new, 0), total_slots - 1)

        if config.incremental:
            new_value = evaluator.apply_swap(pos, pos_new)
        else:
            working.swap(pos, pos_new)
            new_value = objective.evaluate(working)
        diff = new_value - current

        take = False
        if diff > 0:
            take = True
        elif diff < 0:
            scale = accept * max(abs(current), 1e-30)
            x = min(-diff / scale, 11.0)
            probability = exp_neg(x) if config.use_fixed_point_exp else math.exp(-x)
            if probability > 0:
                inverse = max(int(round(1.0 / probability)), 1)
                take = rng.randi() % inverse == 0
        else:
            # Neutral move (e.g. empty-empty swap): accept, it costs
            # nothing and keeps the walk moving.
            take = True

        if take:
            current = new_value
            accepted += 1
            if diff < 0:
                uphill += 1
            if current > best_value:
                best_value = current
                best_allocation = working.copy()
        else:
            # Swaps are involutive: undo by re-applying.
            if config.incremental:
                evaluator.apply_swap(pos, pos_new)
            else:
                working.swap(pos, pos_new)

        perturb *= config.perturbation_decay
        accept *= config.acceptance_decay
        if trace is not None and performed % trace.stride == 0:
            trace.record(performed, current, best_value, perturb, accept)

    if trace is not None and trace.samples[-1]["iteration"] != performed:
        trace.record(performed, current, best_value, perturb, accept)
    return SAResult(
        best_allocation=best_allocation,
        best_value=best_value,
        initial_value=initial_value,
        iterations=performed,
        accepted_moves=accepted,
        uphill_accepts=uphill,
        truncated=truncated,
        trace=trace,
    )
