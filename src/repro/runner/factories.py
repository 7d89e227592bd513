"""Name → object resolution shared by the CLI and the sweep engine.

A :class:`~repro.runner.spec.RunSpec` describes a run entirely with
strings and scalars so it can be hashed, pickled to worker processes
and used as a cache key.  This module turns those strings back into
live objects: platforms, workloads and balancers.  The CLI re-exports
these resolvers, so ``python -m repro run --workload MTMI`` and a
``RunSpec(workload="MTMI")`` job resolve identically.
"""

from __future__ import annotations

from repro.hardware.features import BIG, HUGE, MEDIUM, SMALL
from repro.hardware.platform import (
    Platform,
    big_little_octa,
    build_platform,
    quad_hmp,
    scaled_hmp,
)
from repro.kernel.balancers.base import LoadBalancer, NullBalancer
from repro.kernel.balancers.gts import GtsBalancer
from repro.kernel.balancers.iks import IksBalancer
from repro.kernel.balancers.vanilla import VanillaBalancer
from repro.workload.parsec import BENCHMARKS, MIXES, benchmark, mix_threads
from repro.workload.synthetic import IMB_CONFIGS, imb_threads

def _hmp_preset(n_cores: int):
    def build() -> Platform:
        return scaled_hmp(n_cores)

    return build


def dvfs_quad() -> Platform:
    """The paper's quad HMP with one cluster (= one V/f knob) per type.

    The stock ``quad`` preset puts all four cores in one cluster, which
    gives a DVFS governor a single chip-wide knob; this variant is the
    same silicon with per-type clustering so the governor gets four
    independent ladders — the interesting co-optimisation topology.
    """
    return build_platform(
        [(HUGE, 1), (BIG, 1), (MEDIUM, 1), (SMALL, 1)],
        name="dvfs-quad",
        cluster_per_type=True,
    )


#: Platform presets reachable from the CLI and from RunSpecs.  The
#: ``hmp256``/``hmp512``/``hmp1024`` presets pin the Table-2-style
#: round-robin heterogeneous mixes used by the structure-of-arrays
#: kernel benchmarks (``benchmarks/bench_kernel.py``); they resolve
#: identically to ``hmp:<n>`` but are first-class names so sweeps and
#: the job service can validate them.
PLATFORMS = {
    "quad": quad_hmp,
    "biglittle": big_little_octa,
    "hmp256": _hmp_preset(256),
    "hmp512": _hmp_preset(512),
    "hmp1024": _hmp_preset(1024),
    "dvfsquad": dvfs_quad,
}

#: Balancer factories reachable from the CLI and from RunSpecs.
BALANCERS = {
    "none": NullBalancer,
    "vanilla": VanillaBalancer,
    "gts": GtsBalancer,
    "iks": IksBalancer,
}

#: Workload spec prefix for the seeded random thread sets used by the
#: resilience experiment and integration tests.
RANDOM_WORKLOAD = "random"

#: SmartBalance-pipeline balancers: the stock engine plus the
#: scenario-aware variants (repro.core.variants).  All three share the
#: predictor, so sweeps warm it whenever any of them is queued.
SMART_BALANCERS = ("smartbalance", "tpeq", "slo")


def _smart_balancer(
    mitigations: bool = True,
    adaptation: bool = False,
    governor: str = "fixed",
    variant: str = "stock",
) -> LoadBalancer:
    # Imported lazily: training the default predictor takes a moment
    # and commands like `list` should stay instant.
    from repro.adaptation.controller import AdaptationConfig
    from repro.core.config import ResilienceConfig, SmartBalanceConfig
    from repro.kernel.balancers.smart import SmartBalanceKernelAdapter

    resilience = ResilienceConfig() if mitigations else ResilienceConfig.disabled()
    config = SmartBalanceConfig(
        resilience=resilience,
        adaptation=AdaptationConfig(enabled=adaptation),
    )
    if governor != "fixed":
        from repro.governor import GovernorKernelAdapter, parse_governor

        try:
            parsed = parse_governor(governor)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        # parse_governor tolerates padding: " fixed" is no governor too.
        if parsed.strategy != "fixed":
            if variant != "stock":
                raise SystemExit(
                    f"balancer variant {variant!r} cannot be combined "
                    "with a DVFS governor"
                )
            return GovernorKernelAdapter(parsed, config=config)
    return SmartBalanceKernelAdapter(config=config, variant=variant)


def make_platform(spec: str) -> Platform:
    """Resolve a platform spec: a preset name or ``hmp:<n>``."""
    if spec in PLATFORMS:
        return PLATFORMS[spec]()
    if spec.startswith("hmp:"):
        return scaled_hmp(int(spec.split(":", 1)[1]))
    raise SystemExit(
        f"unknown platform {spec!r}; use one of {sorted(PLATFORMS)} or hmp:<n>"
    )


def make_workload(spec: str, n_threads: int, seed: int = 0):
    """Resolve a workload spec: an IMB config, benchmark, mix name or
    ``random`` (a seeded random thread set)."""
    if spec in IMB_CONFIGS:
        return imb_threads(spec, n_threads, seed)
    if spec in BENCHMARKS:
        return benchmark(spec).threads(n_threads, seed)
    if spec in MIXES:
        return mix_threads(spec, max(n_threads, 1), seed)
    if spec == RANDOM_WORKLOAD:
        from repro.workload.generator import random_thread_set

        return random_thread_set(n_threads, seed=seed)
    raise SystemExit(
        f"unknown workload {spec!r}; see `python -m repro list`"
    )


def catalogue() -> dict:
    """Machine-readable inventory of every resolvable name.

    The single source of truth shared by ``repro list --json``, the
    job-service API validation and the service client: anything listed
    here resolves through :func:`make_platform` /
    :func:`make_workload` / :func:`make_balancer`, and nothing else
    does (plus the ``hmp:<n>`` platform pattern, described under
    ``platform_patterns``).
    """
    from repro.faults import SCENARIOS
    from repro.fleet.faults import FLEET_SCENARIOS
    from repro.fleet.spec import POLICIES
    from repro.governor.config import GOVERNOR_STRATEGIES
    from repro.scenarios import scenario_catalogue

    return {
        "platforms": sorted(PLATFORMS),
        "platform_patterns": ["hmp:<n>"],
        "balancers": sorted(BALANCERS) + sorted(SMART_BALANCERS),
        "governors": sorted(GOVERNOR_STRATEGIES),
        "governor_patterns": ["pinned:<level>"],
        "workloads": {
            "imb": list(IMB_CONFIGS),
            "benchmarks": sorted(BENCHMARKS),
            "mixes": sorted(MIXES),
            "special": [RANDOM_WORKLOAD],
        },
        "faults": list(SCENARIOS),
        "scenarios": scenario_catalogue(),
        "fleet": {
            "policies": list(POLICIES),
            "faults": list(FLEET_SCENARIOS),
        },
    }


def workload_names() -> "set[str]":
    """Every valid workload spec string (flat view of the catalogue)."""
    names = catalogue()["workloads"]
    return set().union(*names.values())


def make_balancer(
    name: str,
    mitigations: bool = True,
    adaptation: bool = False,
    governor: str = "fixed",
) -> LoadBalancer:
    """Resolve a balancer name, including ``smartbalance``.

    ``adaptation`` switches on online model maintenance and ``governor``
    the joint placement + DVFS co-optimiser (both smartbalance only;
    the other balancers have neither a model nor an OPP search).
    """
    if name in SMART_BALANCERS:
        variant = "stock" if name == "smartbalance" else name
        return _smart_balancer(mitigations, adaptation, governor, variant)
    if governor != "fixed":
        raise SystemExit(
            f"governor {governor!r} requires the smartbalance balancer, "
            f"got {name!r}"
        )
    try:
        return BALANCERS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown balancer {name!r}; use one of "
            f"{sorted(BALANCERS) + list(SMART_BALANCERS)}"
        ) from None
