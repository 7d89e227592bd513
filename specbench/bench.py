"""The benchmark proper; ``run.py`` is its command-line entry point.

One invocation measures one workload at one seed, in one process:

1. train the default predictor (once per process, as a sweep worker does);
2. time the set-up of the spec — everything ``execute_spec`` does before
   ``System.run`` — several times;
3. repeat ``execute_spec`` closed loop for the time budget, checking each
   repetition's ``metrics_digest`` against the pin;
4. print a human summary on stderr and one JSON result line on stdout.

With ``--trace 1`` step 3 alternates untraced and traced repetitions and
reports per-layer self times and work counts instead (see
:mod:`specbench.tracing`).  Every host time is normalised to the nominal
host speed (see :mod:`specbench.hostspeed`).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.core.training import default_predictor
from repro.kernel.simulator import System
from repro.runner.engine import execute_spec
from repro.runner.serialize import metrics_digest

from specbench import tracing
from specbench.hostspeed import HostSampler, RepetitionTimeout
from specbench.stats import MIN_P90_POOL, samples_beyond, tail_percentile
from specbench.workloads import WORKLOADS, make_spec

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")
OUT_DIR = os.path.join(HERE, "out")

#: A repetition still running after this long is aborted and failed.
REP_TIMEOUT_S = 90.0
#: Fewest timed repetitions per run, whatever the budget.
MIN_REPS = 3
#: No repetition starts this long after the first one did.
HARD_STOP_S = 110.0
#: Set-up is timed in batches of about SETUP_BATCH_S (at least one
#: set-up each): SETUP_BATCHES_FIRST before the first repetition, then
#: one after every repetition, so that the batches sample the host over
#: the whole run rather than over one stretch of it.
SETUP_BATCH_S, SETUP_BATCHES_FIRST = 0.05, MIN_REPS - 1

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("decide_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]

#: Per-layer metric -> unit.  ``*_s`` metrics are summed self times of
#: the span of that name, per repetition, in nominal-host seconds.
PER_LAYER = [
    ("setup.platform_s", "s"),
    ("setup.workload_s", "s"),
    ("setup.scenario_s", "s"),
    ("setup.balancer_s", "s"),
    ("setup.predictor_train_s", "s"),
    ("kernel.construct_s", "s"),
    ("kernel.view_s", "s"),
    ("kernel.migrate_s", "s"),
    ("kernel.loop_s", "s"),
    ("kernel.views", "count"),
    ("kernel.migrations", "count"),
    ("kernel.soa_layout_s", "s"),
    ("kernel.simulate_s", "s"),
    ("kernel.sync_s", "s"),
    ("kernel.periods", "count"),
    ("hardware.sensor_read_s", "s"),
    ("hardware.sensor_reads", "count"),
    ("core.decide_s", "s"),
    ("core.sense_s", "s"),
    ("core.decisions", "count"),
    ("core.adopt_ratio", "ratio"),
    ("core.matrix_build_s", "s"),
    ("core.objective_init_s", "s"),
    ("core.evaluator_init_s", "s"),
    ("core.objectives_built", "count"),
    ("core.anneal_s", "s"),
    ("core.anneal_calls", "count"),
    ("core.anneal_iterations", "count"),
    ("core.anneal_accept_ratio", "ratio"),
    ("governor.objective_s", "s"),
    ("governor.search_s", "s"),
    ("governor.objective_calls", "count"),
    ("scenarios.hook_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
    ("host.calib_ms", "ms"),
    ("host.wall_raw_s", "s"),
    ("sim.ips_per_watt", "IPS/W"),
    ("sim.slo_miss_rate", "fraction"),
    ("sim.latency_p99_ms", "ms"),
]

_COUNTS = [name for name, unit in PER_LAYER if unit == "count"]


def log(*parts) -> None:
    print("specbench:", *parts, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------


def load_pins(path: str = PINS_PATH) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def save_pin(workload: str, seed: int, digest: str, ipw: float,
             path: str = PINS_PATH) -> None:
    pins = load_pins(path)
    pins.setdefault(workload, {})[str(seed)] = {"digest": digest, "ips_per_watt": ipw}
    with open(path, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


class DigestCheck:
    """Judges each repetition's result against the pin, or — for a seed
    with no pin — against the first repetition of the run."""

    def __init__(self, pin: Optional[dict]) -> None:
        self.expected = pin
        self.pinned = pin is not None
        self.attempted = 0
        self.failed = 0

    def judge(self, result) -> bool:
        """Count one repetition; True when it matches."""
        self.attempted += 1
        observed = {"digest": metrics_digest(result), "ips_per_watt": result.ips_per_watt}
        if self.expected is None:
            self.expected = observed
        ok = observed == self.expected
        if not ok:
            self.failed += 1
            log(f"digest mismatch: expected {self.expected}, got {observed}")
        return ok

    def fail(self, reason: str) -> None:
        """Count one repetition that raised or timed out."""
        self.attempted += 1
        self.failed += 1
        log(f"repetition failed: {reason}")


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------


def time_setup(spec, n: int = 1) -> Tuple[float, float]:
    """``(start, end)`` of ``n`` back-to-back runs of ``execute_spec``'s
    work before ``System.run``: platform, workload, scenario, balancer
    and ``System`` construction."""
    gc.collect()
    entered: List[float] = []
    original = System.__dict__["run"]
    System.run = lambda self, **kw: entered.append(time.perf_counter())
    try:
        start = time.perf_counter()
        for _ in range(n):
            execute_spec(spec)
    finally:
        System.run = original
    return start, entered[-1]


class Runner:
    """One invocation's state: sampler, digest check, budget."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.spec = make_spec(workload, seed)
        self.check = DigestCheck(load_pins().get(workload, {}).get(str(seed)))
        self.sampler = HostSampler()
        self.result = None

    def normalise(self, start: float, end: float) -> float:
        return self.sampler.normalise(start, end)[0]

    def train(self) -> float:
        start = time.perf_counter()
        default_predictor()
        return self.normalise(start, time.perf_counter())

    def setup_batch_size(self) -> int:
        """Set-ups per batch, sized from one warm set-up."""
        time_setup(self.spec)  # warm-up: lazy imports, caches
        start, end = time_setup(self.spec)
        return max(1, int(SETUP_BATCH_S / (end - start)))

    def setup_batch(self, n: int) -> float:
        """Mean nominal time of ``n`` back-to-back set-ups."""
        return self.normalise(*time_setup(self.spec, n)) / n

    def repetition(
        self, rec: Optional[tracing.SpanRecorder] = None
    ) -> Tuple[float, float, bool]:
        """One checked ``execute_spec``: ``(start, end, passed)``.

        The previous repetition's garbage is collected first, outside
        the timed interval, so that each starts from the same heap.
        With ``rec``, the call is wrapped in a root span.  Raises
        :class:`RepetitionTimeout` after counting it as failed.
        """
        gc.collect()
        start = time.perf_counter()
        self.sampler.deadline = start + REP_TIMEOUT_S
        try:
            if rec is None:
                result = execute_spec(self.spec)
            else:
                root = rec.open(tracing.ROOT)
                try:
                    result = execute_spec(self.spec)
                finally:
                    rec.close(root)
        except RepetitionTimeout:
            self.check.fail(f"timed out after {REP_TIMEOUT_S:.0f} s")
            raise
        except Exception as exc:  # a crash is a failed repetition
            self.check.fail(f"{type(exc).__name__}: {exc}")
            return start, time.perf_counter(), False
        finally:
            self.sampler.deadline = None
        end = time.perf_counter()
        passed = self.check.judge(result)
        if passed:
            self.result = result
        return start, end, passed

    def schedule(self, floor: int):
        """Yield repetition indices while the budget fits one more of
        typical length, or fewer than ``floor`` have been started.
        The caller appends each repetition's raw duration to
        :attr:`durations`."""
        self.durations: List[float] = []
        begin = time.perf_counter()
        index = 0
        while True:
            now = time.perf_counter() - begin
            if now > HARD_STOP_S:
                return
            if index >= floor and (
                now + statistics.median(self.durations) > self.seconds
            ):
                return
            yield index
            index += 1


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------


#: The one wrapper of an untraced run: a span per balancer decision.
_DECISIONS = [("repro.kernel.balancers.smart", "SmartBalanceKernelAdapter.rebalance",
               "decision", None)]


def measure(runner: Runner) -> Dict[str, float]:
    """Untraced run: the end-to-end metrics."""
    n = runner.setup_batch_size()
    setups = [runner.setup_batch(n) for _ in range(SETUP_BATCHES_FIRST)]
    walls: List[float] = []
    decisions: List[float] = []
    rec = tracing.SpanRecorder()
    undo = tracing.install(rec, layers=_DECISIONS, tables=())
    try:
        for _ in runner.schedule(MIN_REPS):
            first = len(rec.spans)
            try:
                start, end, passed = runner.repetition()
            except RepetitionTimeout:
                break
            runner.durations.append(end - start)
            setups.append(runner.setup_batch(n))
            if not passed:
                continue
            wall, raw = runner.sampler.normalise(start, end)
            walls.append(wall)
            log(f"  repetition {len(walls)}: {raw:.4f} s raw, "
                f"probe {runner.sampler.probe_mean(start, end) * 1e3:.4f} ms, "
                f"{wall:.4f} s nominal")
            decisions.extend(
                runner.normalise(span[tracing.START], span[tracing.END]) * 1e3
                for span in rec.spans[first:]
            )
    finally:
        tracing.uninstall(undo)
    if not walls:
        return {}
    p90 = tail_percentile(decisions, 90, min_pool=MIN_P90_POOL)
    log(f"{len(walls)} timed repetitions, {len(decisions)} decisions, "
        f"{len(setups)} set-ups")
    log(f"decide_ms_p50 over n={len(decisions)} decisions "
        f"({samples_beyond(len(decisions), 50)} beyond it)")
    if p90 is None:
        log(f"decide_ms_p90 omitted: n={len(decisions)} decisions "
            f"(needs >= {MIN_P90_POOL} and 10 beyond it)")
    else:
        log(f"decide_ms_p90 = {p90:.4f} ms over n={len(decisions)} decisions "
            f"({samples_beyond(len(decisions), 90)} beyond it)")
    for name, value in simulated(runner.result).items():
        log(f"{name} = {value!r}")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "decide_ms_p50": statistics.median(decisions),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def simulated(result) -> Dict[str, float]:
    """The run's simulated outcome: J_E and, for request traffic, the
    SLO-miss rate and p99 latency (0 on workloads without requests)."""
    scenario = result.scenario or {}
    return {
        "sim.ips_per_watt": result.ips_per_watt,
        "sim.slo_miss_rate": scenario.get("slo_miss_rate", 0.0),
        "sim.latency_p99_ms": scenario.get("latency_p99_s", 0.0) * 1e3,
    }


def _layer_metrics(spans, first: int, counts, scale: float) -> Dict[str, float]:
    by_name = tracing.self_time_by_name(spans, first)
    out = {
        name: by_name.get(name[: -len("_s")], 0.0) * scale
        for name, unit in PER_LAYER
        if unit == "s" and not name.startswith(("setup.predictor", "trace.", "host."))
    }
    out["trace.unattributed_s"] = by_name.get(tracing.ROOT, 0.0) * scale
    for name in _COUNTS:
        out[name] = float(counts.get(name, 0))
    decisions = counts.get("core.decisions", 0)
    out["core.adopt_ratio"] = counts.get("core.adopted", 0) / decisions if decisions else 0.0
    iterations = counts.get("core.anneal_iterations", 0)
    out["core.anneal_accept_ratio"] = (
        counts.get("core.anneal_accepted", 0) / iterations if iterations else 0.0
    )
    return out


def measure_traced(runner: Runner, train_s: float) -> Dict[str, float]:
    """Traced run: per-layer self times and counts, alternating with
    untraced repetitions for the overhead comparison."""
    rec = tracing.SpanRecorder()
    sampler = runner.sampler
    plain: List[float] = []
    plain_raw: List[float] = []
    traced: List[Dict[str, float]] = []
    traced_walls: List[float] = []
    reference_counts = None
    sums_ok = True
    for index in runner.schedule(2 * 2):
        if index % 2 == 0:
            try:
                start, end, passed = runner.repetition()
            except RepetitionTimeout:
                break
            runner.durations.append(end - start)
            if passed:
                wall, raw = sampler.normalise(start, end)
                plain.append(wall)
                plain_raw.append(raw)
            continue
        rec.run = f"rep{index}"
        rec.counts.clear()
        first = len(rec.spans)
        undo = tracing.install(rec)
        try:
            _, _, passed = runner.repetition(rec)
        except RepetitionTimeout:
            break
        finally:
            tracing.uninstall(undo)
        start, end = rec.spans[first][tracing.START], rec.spans[first][tracing.END]
        runner.durations.append(end - start)
        if not passed:
            continue
        probes = [
            (s, d) for s, d in zip(sampler.starts, sampler.durations) if start <= s < end
        ]
        tracing.attach_probes(rec.spans, first, probes, rec.run)
        total = sum(tracing.self_times(rec.spans, first))
        if abs(total - (end - start)) > 1e-6:
            sums_ok = False
            log(f"self times sum to {total!r}, root span is {end - start!r}")
        counts = dict(rec.counts)
        if reference_counts is None:
            reference_counts = counts
        elif counts != reference_counts:
            runner.check.failed += 1
            log(f"work counts differ between traced repetitions: "
                f"{reference_counts} vs {counts}")
            continue
        wall, raw = sampler.normalise(start, end)
        traced_walls.append(wall)
        traced.append(_layer_metrics(rec.spans, first, counts, wall / raw))
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{runner.workload}-seed{runner.seed}.jsonl")
    rec.write_jsonl(trace_path)
    if not traced or not plain or not sums_ok:
        runner.check.failed += 1
        log("traced run incomplete: needs a traced and an untraced repetition "
            "whose self times sum to the root span")
        return {}
    log(f"{len(plain)} untraced and {len(traced)} traced repetitions; "
        f"{len(rec.spans)} spans written to {os.path.relpath(trace_path)}")
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    metrics["setup.predictor_train_s"] = train_s
    untraced = statistics.median(plain)
    metrics["trace.overhead_pct"] = (statistics.median(traced_walls) / untraced - 1.0) * 100.0
    metrics["host.calib_ms"] = statistics.fmean(sampler.durations) * 1e3
    metrics["host.wall_raw_s"] = statistics.median(plain_raw)
    metrics.update(simulated(runner.result))
    return metrics


# ----------------------------------------------------------------------
# Entry
# ----------------------------------------------------------------------


def pin(workload: str, seed: int) -> None:
    """Run the spec once and record its digest and J_E as the pin."""
    result = execute_spec(make_spec(workload, seed))
    save_pin(workload, seed, metrics_digest(result), result.ips_per_watt)
    log(f"pinned {workload} seed {seed}: {metrics_digest(result)[:16]}… "
        f"ips_per_watt={result.ips_per_watt!r}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    runner = Runner(workload, seed, seconds)
    log(f"{workload} seed {seed}: {runner.spec.label()} "
        f"({'pinned' if runner.check.pinned else 'no pin: repetitions must agree'})")
    with runner.sampler:
        train_s = runner.train()
        metrics = measure_traced(runner, train_s) if trace else measure(runner)
    units = dict(PER_LAYER if trace else END_TO_END)
    for name in units:
        if name in metrics:
            log(f"  {name:28s} {metrics[name]:.6g} {units[name]}")
    check = runner.check
    correct = bool(metrics) and check.failed == 0
    log(f"attempted {check.attempted}, failed {check.failed}, correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(check.attempted, 1),
        "failed": check.failed if check.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="specbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record the seed's digest in pins.json and exit")
    args = parser.parse_args(argv)
    if args.pin:
        pin(args.workload, args.seed)
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))
