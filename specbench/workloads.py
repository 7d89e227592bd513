"""The benchmark's workloads: one ``RunSpec`` each, seeded by the caller.

Every workload is closed loop: one ``execute_spec`` at a time, and the
next repetition starts when the previous one returns.  The seed is the
only input that varies; it seeds both the random thread set and the
simulation.
"""

from __future__ import annotations

from typing import Dict

from repro.runner.spec import RunSpec

#: name -> (RunSpec fields other than the seed, why it is in the set).
WORKLOADS: Dict[str, "tuple[dict, str]"] = {
    "hmp1024-smart": (
        dict(
            workload="random",
            platform="hmp1024",
            threads=2048,
            balancer="smartbalance",
            n_epochs=12,
        ),
        "scale: construction, sensing, predict and the SoA kernel grow as "
        "threads x cores; anneal is about a tenth of the run",
    ),
    "dvfsquad-governor": (
        dict(
            workload="random",
            platform="dvfsquad",
            threads=8,
            balancer="smartbalance",
            governor="two_level",
            n_epochs=12,
        ),
        "governed search: most of the time is thousands of small anneal "
        "calls; kernel and sensing are about 1%",
    ),
    "biglittle-openloop": (
        dict(
            workload="random",
            platform="biglittle",
            threads=8,
            balancer="smartbalance",
            scenario="openloop:rate=120",
            n_epochs=50,
        ),
        "small-scale guard: a changing thread population of short "
        "requests, tiny arrays, one 8x8 anneal per epoch",
    ),
}


def make_spec(workload: str, seed: int) -> RunSpec:
    """The ``RunSpec`` of ``workload`` at ``seed``."""
    fields, _ = WORKLOADS[workload]
    return RunSpec(seed=seed, **fields)
