"""Hashable run descriptions for the parallel sweep engine.

A :class:`RunSpec` pins down one simulation completely — platform,
workload, balancer, scale, seeds, fault scenario and simulator knobs —
using only strings and scalars, so it can be

* **hashed** into a stable cache key (:meth:`RunSpec.spec_key`) that
  also folds in the package version and the full
  :class:`~repro.kernel.simulator.SimulationConfig` contents, making
  stale cache hits after a config or code change impossible;
* **pickled** across a ``multiprocessing`` pool boundary;
* **compared** for deduplication when several experiments request the
  same run inside one sweep.

It is also the one description of a run that every front end shares:
the CLI turns its run flags into a spec and executes it, and the job
service's JSON payload is the spec's fields.

Per-job seeds for replicated sweeps derive from a base seed and the
spec identity (:func:`derive_seed`): jobs are decorrelated from each
other yet fully reproducible, independent of worker scheduling order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.kernel.simulator import SimulationConfig

#: Bumped whenever the cached result layout changes shape; part of the
#: cache key, so old cache files simply miss instead of misparsing.
#: 4: ResilienceStats grew the adaptation counters and RunSpec the
#: ``adaptation`` field.
#: 5: SimulationConfig grew the ``kernel`` knob (structure-of-arrays
#: vs reference engine) and the reference kernel's per-core
#: instruction accumulation was restructured (same totals, different
#: float association), so pre-SoA cache entries are stale.
#: 6: RunSpec grew the ``governor`` field and RunResult the optional
#: ``governor`` stats dict.
#: 7: RunSpec grew the ``scenario`` field and RunResult the optional
#: ``scenario`` stats dict (repro.scenarios).
CACHE_FORMAT = 7


def _code_version() -> str:
    """The package version folded into every cache key."""
    import repro

    return repro.__version__


def config_fingerprint(config: SimulationConfig) -> dict:
    """Canonical JSON-ready view of a :class:`SimulationConfig`.

    ``seed`` and ``faults`` are excluded: both are owned by the
    :class:`RunSpec` (the seed is a spec field, faults are named
    scenarios regenerated at execution time).  Everything else — epoch
    timing, noise models, OS noise, thermal flag — participates, so
    *any* changed field changes the fingerprint and therefore the
    cache key.
    """
    data = dataclasses.asdict(config)
    data.pop("seed", None)
    data.pop("faults", None)
    return data


def stable_hash(payload: dict, length: int = 40) -> str:
    """Deterministic hex digest of a JSON-serialisable payload.

    ``json.dumps(sort_keys=True)`` gives a canonical byte string
    (Python float repr is shortest-round-trip, hence stable), and
    SHA-256 — unlike the builtin ``hash`` — does not vary with
    ``PYTHONHASHSEED`` or the process.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:length]


@dataclass(frozen=True)
class RunSpec:
    """One (platform, workload, balancer, scale, seed, faults) job.

    The single route from run knobs to a run: ``repro run``/``compare``
    build a spec from their flags and call
    :func:`repro.runner.engine.execute_spec`, and the job service's
    payloads (``repro submit`` included) are this class's fields (see
    :mod:`repro.service.api`).  A spec and the equivalent command line
    therefore produce identical runs.
    """

    #: Workload name: IMB config, PARSEC benchmark, mix or ``random``.
    workload: str
    platform: str = "quad"
    threads: int = 8
    balancer: str = "smartbalance"
    n_epochs: int = 12
    #: Simulation (sensing-noise) seed.
    seed: int = 0
    #: Workload instantiation seed; ``None`` follows ``seed``.
    workload_seed: Optional[int] = None
    #: Named fault scenario from :mod:`repro.faults`; ``None`` = clean.
    faults: Optional[str] = None
    #: Fault-schedule seed; ``None`` follows ``seed``.
    fault_seed: Optional[int] = None
    #: SmartBalance resilience defences on/off (smartbalance only).
    mitigations: bool = True
    #: Online model maintenance on/off (smartbalance only; see
    #: :mod:`repro.adaptation`).  Off keeps runs byte-identical to
    #: builds without the adaptation subsystem.
    adaptation: bool = False
    #: DVFS governor strategy (smartbalance only): ``"fixed"`` (no
    #: governor — byte-identical to pre-governor builds), ``"two_level"``,
    #: ``"coupled_anneal"`` or ``"pinned:<level>"``.  Parsed by
    #: :func:`repro.governor.parse_governor`.
    governor: str = "fixed"
    #: Workload scenario from :mod:`repro.scenarios`: ``"none"`` (no
    #: scenario — byte-identical to pre-scenario builds) or a scenario
    #: string like ``"openloop:rate=120"``, ``"barrier:groups=2"``,
    #: ``"smt:cores=big"``.  Parsed by
    #: :func:`repro.scenarios.parse_scenario`.
    scenario: str = "none"
    #: Simulator knobs.  ``config.seed`` and ``config.faults`` are
    #: ignored in favour of the spec's own fields.
    config: SimulationConfig = field(default_factory=SimulationConfig)

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {self.n_epochs}")
        if self.config.faults is not None:
            raise ValueError(
                "RunSpec.config must not embed a FaultPlan; name the "
                "scenario via RunSpec.faults so the spec stays hashable"
            )
        if self.scenario != "none":
            # Validate eagerly so a bad scenario (or governor, below)
            # string fails at spec construction, not minutes later
            # inside a worker.
            from repro.scenarios import parse_scenario

            parse_scenario(self.scenario)
        if self.governor != "fixed":
            from repro.governor.config import parse_governor

            parse_governor(self.governor)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def canonical(self) -> dict:
        """JSON-ready canonical form (the hashed identity): every field,
        with ``config`` as its :func:`config_fingerprint`."""
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        data["config"] = config_fingerprint(self.config)
        return data

    def spec_key(self) -> str:
        """Stable cache key: spec identity + config + code version."""
        return stable_hash(
            {
                "format": CACHE_FORMAT,
                "code": _code_version(),
                "spec": self.canonical(),
            }
        )

    def label(self) -> str:
        """Compact human-readable id for logs and progress lines."""
        parts = [self.platform, self.workload, f"x{self.threads}", self.balancer]
        if self.governor != "fixed":
            parts.append(f"gov={self.governor}")
        if self.scenario != "none":
            parts.append(f"scenario={self.scenario}")
        if self.faults:
            parts.append(f"faults={self.faults}")
        parts.append(f"seed={self.seed}")
        return "/".join(parts)

    # ------------------------------------------------------------------
    # Derived seeds
    # ------------------------------------------------------------------

    def with_derived_seed(self, base_seed: int) -> "RunSpec":
        """The same job re-seeded as ``hash(base_seed, spec)``.

        Used by replicated sweeps: every job draws an independent,
        reproducible seed that depends only on the base seed and the
        job's identity — never on pool scheduling order.
        """
        return dataclasses.replace(self, seed=derive_seed(base_seed, self))


def derive_seed(base_seed: int, spec: RunSpec) -> int:
    """Per-job seed ``hash(base_seed, spec)`` (31-bit, deterministic).

    The spec's own ``seed`` field is excluded from the hash so the
    derivation is idempotent: re-deriving from an already-derived spec
    yields the same seed.
    """
    identity = spec.canonical()
    identity.pop("seed")
    digest = hashlib.sha256(
        json.dumps(
            {"base_seed": base_seed, "spec": identity},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
