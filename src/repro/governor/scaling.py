"""Frequency-conditioning of observations and predictor outputs.

The paper's Eq. 8/9 predictors characterise threads at each core
type's *nominal* operating point.  Running a cluster at a scaled OPP
changes three measured quantities in model-exact ways (each law is
locked by tests against the hardware model):

* **IPC is frequency-invariant** — the micro-architectural model sees
  the same structures whatever the clock, so ``ips = ipc · f`` scales
  linearly with frequency;
* **demand stretches**: a thread needing time fraction ``d`` of a core
  at nominal frequency needs ``min(d / r, 1)`` of it at frequency
  ratio ``r = f_opp / f_nom`` (rate-limited phases re-expand exactly);
* **busy power separates** into dynamic (``∝ V² f``) and leakage
  (frequency-independent at fixed V, recomputed per OPP voltage):
  ``P(opp) = (P(nom) − leak_nom) · s + leak_opp`` with
  ``s = (V_opp² f_opp) / (V_nom² f_nom)``.

This module applies those laws in both directions: *normalising*
measurements taken at a scaled OPP back into the nominal frame the
predictors and the adaptation layer expect, and *conditioning* the
nominal-frame characterisation matrices onto a candidate OPP vector so
one epoch's sensing scores every rung of every cluster's ladder.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.objective import EnergyEfficiencyObjective
from repro.core.sensing import EpochObservation, ThreadObservation
from repro.hardware import power as power_model
from repro.hardware.features import CoreType


def freq_ratio(nominal: CoreType, applied: CoreType) -> float:
    """``r = f_opp / f_nom``."""
    return applied.freq_mhz / nominal.freq_mhz


def dynamic_ratio(nominal: CoreType, applied: CoreType) -> float:
    """Dynamic-power scale ``s = (V² f)_opp / (V² f)_nom``."""
    return (applied.vdd**2 * applied.freq_mhz) / (
        nominal.vdd**2 * nominal.freq_mhz
    )


def normalize_thread(
    obs: ThreadObservation, nominal: CoreType
) -> ThreadObservation:
    """Re-express one scaled-OPP measurement in the nominal frame.

    Identity when the observation was already taken at nominal — the
    common case returns the frozen observation object untouched.

    The inverse laws: ``ips_nom = ips / r`` (IPC invariant, so the
    clock identity ``ips_nom / ipc ≈ f_nom`` still holds and throttle
    faults stay detectable), ``util_nom = util · r`` (exact unless the
    thread saturated the slowed core, where the saturation clipped the
    information away), ``p_nom = (p − leak_opp) / s + leak_nom``
    (clamped non-negative; sensor noise can push the dynamic part
    below zero).
    """
    applied = obs.core_type
    if applied == nominal:
        return obs
    r = freq_ratio(nominal, applied)
    s = dynamic_ratio(nominal, applied)
    leak_applied = power_model.leakage_power(applied)
    leak_nominal = power_model.leakage_power(nominal)
    power_w = obs.power_measured
    if power_w > 0:
        power_w = max((power_w - leak_applied) / s + leak_nominal, 0.0)
    return replace(
        obs,
        core_type=nominal,
        ips_measured=obs.ips_measured / r,
        utilization=min(obs.utilization * r, 1.0),
        power_measured=power_w,
    )


def normalize_observation(
    observation: EpochObservation,
    nominal_by_core: "dict[int, CoreType]",
    nominal_idle_w: "tuple[float, ...]",
    nominal_sleep_w: "tuple[float, ...]",
) -> EpochObservation:
    """Normalise a whole epoch observation into the nominal frame."""
    threads = tuple(
        normalize_thread(t, nominal_by_core[t.core_id])
        for t in observation.threads
    )
    return replace(
        observation,
        threads=threads,
        idle_power_w=nominal_idle_w,
        sleep_power_w=nominal_sleep_w,
    )


class ConditionedObjectiveFactory:
    """Memoised ``J_E`` objectives, one per candidate OPP level vector.

    Holds one epoch's nominal-frame characterisation matrices and
    conditions them onto any requested ``(level per cluster)`` vector
    via the scaling laws above.  Cores whose applied type *is* the
    nominal type get their matrix columns copied through untouched, so
    the all-top objective is numerically identical to the stock
    (governor-free) objective — candidate values are always compared
    in the same currency.

    Idle/sleep power per rung comes from the firmware-table model of
    the applied type, mixed with the shallow-idle fraction recovered
    from the nominal observation (``idle_eff = φ·idle + (1−φ)·sleep``,
    so φ is algebraically recoverable and level-independent).
    """

    def __init__(
        self,
        ips: np.ndarray,
        power: np.ndarray,
        utilization: np.ndarray,
        nominal_types: "list[CoreType]",
        nominal_idle_w: "tuple[float, ...]",
        nominal_sleep_w: "tuple[float, ...]",
        ladders,
        weights,
        mode: str,
        throughput_exponent: float,
        allowed,
    ) -> None:
        self.ips = np.asarray(ips, dtype=float)
        self.power = np.asarray(power, dtype=float)
        self.utilization = np.asarray(utilization, dtype=float)
        self.nominal_types = nominal_types
        self.nominal_idle_w = nominal_idle_w
        self.nominal_sleep_w = nominal_sleep_w
        self.ladders = ladders
        self.weights = weights
        self.mode = mode
        self.throughput_exponent = throughput_exponent
        self.allowed = allowed
        self.n_cores = len(nominal_types)
        #: Shallow-idle mix per core, recovered from the observation.
        self._shallow = []
        for j, ct in enumerate(nominal_types):
            idle_model = power_model.idle_power(ct).total_w
            sleep_model = power_model.sleep_power(ct)
            span = idle_model - sleep_model
            if span > 1e-12:
                phi = (nominal_idle_w[j] - sleep_model) / span
            else:
                phi = 1.0
            self._shallow.append(min(max(phi, 0.0), 1.0))
        self._cache: dict[tuple[int, ...], EnergyEfficiencyObjective] = {}
        #: ``(core, applied type) -> (ips, power, util column, idle,
        #: sleep)`` -- a rung's conditioned column, shared by every
        #: candidate vector that puts the core on that rung.
        self._columns: dict = {}
        self.evaluations = 0

    def _column(self, j: int, nom: CoreType, app: CoreType) -> tuple:
        key = (j, app)
        column = self._columns.get(key)
        if column is None:
            r = freq_ratio(nom, app)
            s = dynamic_ratio(nom, app)
            leak_nom = power_model.leakage_power(nom)
            leak_app = power_model.leakage_power(app)
            sleep = power_model.sleep_power(app)
            phi = self._shallow[j]
            column = self._columns[key] = (
                self.ips[:, j] * r,
                (self.power[:, j] - leak_nom) * s + leak_app,
                np.minimum(self.utilization[:, j] / r, 1.0),
                phi * power_model.idle_power(app).total_w + (1.0 - phi) * sleep,
                sleep,
            )
        return column

    def objective(self, levels: "tuple[int, ...]") -> EnergyEfficiencyObjective:
        cached = self._cache.get(levels)
        if cached is not None:
            return cached
        from repro.governor.ladder import applied_types

        applied = applied_types(self.ladders, levels, self.n_cores)
        ips = self.ips.copy()
        power = self.power.copy()
        util = self.utilization.copy()
        idle = list(self.nominal_idle_w)
        sleep = list(self.nominal_sleep_w)
        for j, (nom, app) in enumerate(zip(self.nominal_types, applied)):
            if app == nom:
                continue
            ips[:, j], power[:, j], util[:, j], idle[j], sleep[j] = self._column(
                j, nom, app
            )
        obj = EnergyEfficiencyObjective(
            ips=ips,
            power=power,
            utilization=util,
            idle_power=idle,
            sleep_power=sleep,
            weights=self.weights,
            mode=self.mode,
            throughput_exponent=self.throughput_exponent,
            allowed=self.allowed,
        )
        self._cache[levels] = obj
        self.evaluations += 1
        return obj
