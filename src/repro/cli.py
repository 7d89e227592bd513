"""Command-line interface.

Run experiments, simulate workloads and train predictors without
writing Python::

    python -m repro experiments --scale quick          # everything
    python -m repro experiments fig4a fig6             # selected
    python -m repro experiments fig4a --jobs 4 --cache # parallel + cached
    python -m repro sweep --scale quick --jobs 4       # shared-pool sweep
    python -m repro run --platform quad --workload MTMI --threads 8 \
        --balancer smartbalance --epochs 40 --trace out.json
    python -m repro compare --workload Mix6 --threads 2
    python -m repro run --workload MTMI --faults combined --epochs 16
    python -m repro run --workload Mix1 --trace-out run.trace.json  # Perfetto
    python -m repro fleet --nodes 4 --requests 32 --fleet-faults kill30 \
        --trace-out fleet.jsonl                        # multi-node chaos
    python -m repro report run.jsonl                   # trace diagnostics
    python -m repro train --output predictor.json
    python -m repro list

Diagnostics go to ``logging`` (stderr, ``--log-level``); results and
reports stay on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from repro.analysis.trace import write_trace
from repro.faults import SCENARIOS
from repro.kernel.simulator import SimulationConfig
from repro.obs import (
    LOG_LEVELS,
    ObsContext,
    build_report,
    configure_logging,
    get_logger,
    render_report,
    user_output,
    validate_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.export import read_jsonl
from repro.runner.engine import execute_spec
from repro.runner.factories import (  # noqa: F401 (re-exported resolvers)
    catalogue,
    make_balancer,
    make_platform,
    make_workload,
)
from repro.runner.spec import RunSpec

_log = get_logger("cli")


def print_resilience(result) -> None:
    """One-line fault/defence summary of a run, when there is one."""
    stats = result.resilience
    if stats is None:
        return
    user_output(
        f"faults: {stats.faults_injected} injected "
        f"(sensor {stats.sensor_dropouts + stats.sensor_stuck + stats.sensor_spikes}, "
        f"counter {stats.counter_wraps + stats.counter_saturations}, "
        f"migration {stats.migrations_lost + stats.migrations_delayed}, "
        f"hotplug {stats.hotplug_events}, throttle {stats.throttle_events}); "
        f"defences: {stats.samples_rejected} samples rejected, "
        f"{stats.fallback_rows_used} fallback rows, "
        f"{stats.samples_rebaselined} re-baselined, "
        f"{stats.watchdog_trips} watchdog trips, "
        f"{stats.offline_placements_blocked} offline placements blocked"
    )
    if stats.drift_detections or stats.model_updates or stats.model_rollbacks:
        user_output(
            f"adaptation: {stats.drift_detections} drift detections, "
            f"{stats.model_updates} model updates, "
            f"{stats.model_rollbacks} rollbacks, "
            f"{stats.watchdog_repairs} watchdog repairs"
        )


def cmd_list(args) -> int:
    names = catalogue()
    if getattr(args, "json", False):
        user_output(json.dumps(names, indent=2, sort_keys=True))
        return 0
    workloads, scenarios, fleet = (
        names["workloads"], names["scenarios"], names["fleet"]
    )
    rows = (
        ("platforms", names["platforms"] + names["platform_patterns"]),
        ("balancers", names["balancers"]),
        ("governors", names["governors"] + names["governor_patterns"]),
        ("imb", workloads["imb"]),
        ("benchmarks", workloads["benchmarks"]),
        ("mixes", workloads["mixes"]),
        ("special", workloads["special"]),
        ("faults", names["faults"]),
        ("scenarios", scenarios["families"] + scenarios["patterns"]),
        ("fleet policies", fleet["policies"]),
        ("fleet faults", fleet["faults"]),
    )
    width = max(len(label) for label, _ in rows)
    for label, values in rows:
        user_output(f"{label:<{width}}:", ", ".join(values))
    return 0


#: Every run flag, declared once: flag -> (the ``RunSpec`` field it
#: sets, ``add_argument`` keywords).  ``run``, ``compare`` and ``submit``
#: each declare a subset (:func:`_add_run_flags`); the field name is the
#: argparse dest, so :func:`_spec_from_args` reads the spec straight off
#: the namespace.
_RUN_FLAGS = {
    "--platform": ("platform", dict(
        default="quad", help="platform preset or hmp:<n> (default quad)",
    )),
    "--workload": ("workload", dict(
        required=True,
        help="IMB config, PARSEC benchmark, mix or random (see `repro list`)",
    )),
    "--threads": ("threads", dict(
        type=int, default=8, help="threads in the workload (default 8)",
    )),
    "--balancer": ("balancer", dict(
        default="smartbalance", help="balancer name (default smartbalance)",
    )),
    "--epochs": ("n_epochs", dict(
        type=int, default=40, metavar="EPOCHS",
        help="epochs to simulate (default 40)",
    )),
    "--seed": ("seed", dict(
        type=int, default=0, help="workload and sensing-noise seed",
    )),
    "--faults": ("faults", dict(
        choices=SCENARIOS, help="inject a named fault scenario",
    )),
    "--fault-seed": ("fault_seed", dict(
        type=int, default=None,
        help="seed of the fault schedule (default: --seed)",
    )),
    "--no-mitigations": ("mitigations", dict(
        action="store_false",
        help="ablate every resilience defence (smartbalance only)",
    )),
    "--adapt": ("adaptation", dict(
        action=argparse.BooleanOptionalAction, default=False,
        help="online model maintenance: drift-triggered RLS re-fits "
        "with registry rollback (smartbalance only; default off)",
    )),
    "--governor": ("governor", dict(
        default="fixed", metavar="STRATEGY",
        help="joint placement + per-cluster DVFS co-optimisation "
        "(smartbalance only): fixed (off, default), two_level, "
        "coupled_anneal or pinned:<level>",
    )),
    "--scenario": ("scenario", dict(
        default="none", metavar="SPEC",
        help="workload scenario (docs/scenarios.md): none (default), "
        "openloop[:rate=..,slo_ms=..], barrier[:groups=..,members=..] "
        "or smt[:cores=..,corunners=..]",
    )),
}


def _add_run_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        field, kwargs = _RUN_FLAGS[flag]
        parser.add_argument(flag, dest=field, **kwargs)


def _spec_from_args(args) -> RunSpec:
    """The :class:`RunSpec` of a subcommand's run flags.

    A run flag the subcommand does not declare leaves its field at the
    ``RunSpec`` default.
    """
    given = vars(args)
    fields = {
        field: given[field] for field, _ in _RUN_FLAGS.values()
        if field in given
    }
    if "kernel" in given:
        fields["config"] = SimulationConfig(kernel=args.kernel)
    try:
        return RunSpec(**fields)
    except ValueError as exc:
        # RunSpec names its fields; the user typed flags.
        message = str(exc)
        for flag, (field, _) in _RUN_FLAGS.items():
            if field in fields and message.startswith(f"{field} "):
                message = flag + message[len(field):]
                break
        raise SystemExit(message) from None


def cmd_run(args) -> int:
    obs = ObsContext() if args.trace_out else None
    result = execute_spec(_spec_from_args(args), obs=obs)
    if args.json:
        # Machine mode: the deterministic metrics document is the whole
        # of stdout (wall-clock timings excluded), so two runs of the
        # same spec — e.g. --kernel soa vs --kernel reference — compare
        # byte-for-byte.
        from repro.runner.serialize import metrics_dict

        user_output(json.dumps(metrics_dict(result), indent=2, sort_keys=True))
    else:
        user_output(
            f"{result.balancer_name} on {result.platform_name}: "
            f"{result.ips_per_watt:.4e} instructions/J, "
            f"{result.average_ips:.4e} IPS, {result.average_power_w:.3f} W, "
            f"{result.migrations} migrations"
        )
        if result.governor:
            gov = result.governor
            levels = ", ".join(
                f"{cluster}={level}"
                for cluster, level in sorted(gov["levels"].items())
            )
            user_output(
                f"governor {gov['strategy']}: {gov['opp_changes']} OPP "
                f"switches over {gov['epochs']} epochs "
                f"({gov['transition_energy_j'] * 1e6:.1f} uJ transition "
                f"energy); final levels {levels}"
            )
        if result.scenario:
            scen = result.scenario
            if scen["family"] == "openloop":
                extra = ""
                if "latency_p50_s" in scen:
                    extra = (
                        f"; p50/p95/p99 = {scen['latency_p50_s'] * 1e3:.1f}/"
                        f"{scen['latency_p95_s'] * 1e3:.1f}/"
                        f"{scen['latency_p99_s'] * 1e3:.1f} ms"
                    )
                user_output(
                    f"scenario openloop: {scen['completed']}/{scen['requests']} "
                    f"requests completed, {scen['slo_misses']} SLO misses "
                    f"({scen['slo_miss_rate']:.1%}){extra}"
                )
            elif scen["family"] == "barrier":
                makespan = scen["makespan_s"]
                user_output(
                    f"scenario barrier: {scen['barriers_released']} barriers "
                    f"released across {scen['groups']} group(s), "
                    f"{scen['stall_s']:.3f} s total stall, makespan "
                    + (f"{makespan:.3f} s" if makespan is not None else "incomplete")
                )
            elif scen["family"] == "smt":
                user_output(
                    f"scenario smt: cores {scen['smt_cores']} co-running, "
                    f"{scen['corunners']} background co-runner(s)"
                )
        print_resilience(result)
    if result.degenerate_epochs:
        _log.warning("%d degenerate epoch(s) (zero energy) in this run",
                     result.degenerate_epochs)
    if args.trace:
        write_trace(result, args.trace)
        user_output(f"trace written to {args.trace}")
    if args.trace_out:
        events = obs.tracer.events
        if args.trace_out.endswith(".jsonl"):
            write_jsonl(events, args.trace_out)
            user_output(
                f"event trace ({len(events)} events) written to "
                f"{args.trace_out}"
            )
        else:
            write_chrome_trace(events, args.trace_out)
            user_output(
                f"Chrome trace written to {args.trace_out} "
                "(load in Perfetto / chrome://tracing)"
            )
    return 0


def cmd_compare(args) -> int:
    spec = _spec_from_args(args)
    names = args.balancers or ["vanilla", "smartbalance"]
    results = {}
    for name in names:
        results[name] = execute_spec(dataclasses.replace(spec, balancer=name))
        user_output(f"{name:>13}: {results[name].ips_per_watt:.4e} instructions/J")
    baseline = results[names[0]]
    for name in names[1:]:
        gain = results[name].improvement_over(baseline)
        user_output(f"{name} vs {names[0]}: {gain:+.1f} %")
    return 0


def cmd_fleet(args) -> int:
    """Run one multi-node fleet simulation (see :mod:`repro.fleet`)."""
    from repro.fleet import FLEET_SCENARIOS, FleetSpec, run_fleet
    from repro.obs import NULL_OBS
    from repro.runner import resolve_jobs

    if args.node_platforms:
        nodes = tuple(args.node_platforms.split(","))
    else:
        defaults = ("quad", "biglittle")
        nodes = tuple(defaults[i % len(defaults)] for i in range(args.nodes))
    if args.faults and args.faults not in FLEET_SCENARIOS:
        raise SystemExit(
            f"unknown fleet fault scenario {args.faults!r}; "
            f"known: {', '.join(FLEET_SCENARIOS)}"
        )
    spec = FleetSpec(
        nodes=nodes,
        n_requests=args.requests,
        workloads=tuple(args.workloads.split(",")),
        distinct_jobs=args.distinct_jobs,
        threads=args.threads,
        n_epochs=args.epochs,
        arrival_rate_hz=args.arrival_rate,
        seed=args.seed,
        policy=args.policy,
        faults=args.faults,
        fault_seed=args.fault_seed,
        profile=args.profile,
    )
    obs = ObsContext() if args.trace_out else None
    result = run_fleet(
        spec,
        obs=obs if obs is not None else NULL_OBS,
        jobs=resolve_jobs(args.jobs),
        cache=_experiment_cache(args),
    )
    if args.json:
        # Machine mode: the JSON document is the whole of stdout, so the
        # output can be piped straight into a parser.
        user_output(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        user_output(
            f"fleet {spec.label()}: {result.completed}/{result.accepted} "
            f"completed ({result.duplicates} duplicates suppressed, "
            f"{result.failed} failed), {result.throughput_rps:.2f} req/s, "
            f"{result.ips_per_watt:.4e} instructions/J"
        )
        stats = result.stats
        if stats["reroutes"] or stats["nodes_down"] or stats["hedges"]:
            user_output(
                f"  faults ridden out: {stats['nodes_down']} nodes down, "
                f"{stats['reroutes']} reroutes, {stats['hedges']} hedges, "
                f"{stats['retries']} retries, "
                f"{stats['telemetry_rejected']} telemetry samples rejected"
            )
        for row in result.nodes:
            user_output(
                f"  node {row['node']} ({row['platform']}, {row['state']}): "
                f"{row['jobs_completed']} jobs, {row['busy_s']:.2f} s busy, "
                f"{row['energy_j']:.2f} J"
            )
    if args.trace_out:
        events = obs.tracer.events
        if args.trace_out.endswith(".jsonl"):
            write_jsonl(events, args.trace_out)
        else:
            write_chrome_trace(events, args.trace_out)
        _log.info("event trace (%d events) written to %s",
                  len(events), args.trace_out)
    return 0


def _experiment_cache(args):
    """Resolve ``--cache``/``--cache-dir`` into a ResultCache, if any."""
    from repro.runner import ResultCache

    if getattr(args, "cache_dir", None):
        return ResultCache(args.cache_dir)
    if getattr(args, "cache", False):
        return ResultCache()
    return None


def cmd_experiments(args) -> int:
    from repro import experiments
    from repro.experiments.common import scale_by_name

    scale = scale_by_name(args.scale)
    jobs = args.jobs
    cache = _experiment_cache(args)
    registry = {
        "table1": lambda: experiments.table1.run(),
        "table2": lambda: experiments.table2.run(),
        "table3": lambda: experiments.table3.run(),
        "table4": lambda: experiments.table4.run(),
        "fig4a": lambda: experiments.fig4.run_fig4a(scale, jobs=jobs, cache=cache),
        "fig4b": lambda: experiments.fig4.run_fig4b(scale, jobs=jobs, cache=cache),
        "fig5": lambda: experiments.fig5.run(scale, jobs=jobs, cache=cache),
        "fig6": lambda: experiments.fig6.run(),
        "fig7a": lambda: experiments.fig7.run_fig7a(scale),
        "fig7b": lambda: experiments.fig7.run_fig7b(),
        "fig8a": lambda: experiments.fig8.run_fig8a(),
        "fig8b": lambda: experiments.fig8.run_fig8b(),
        "ext_virtual_sensing": lambda: experiments.extensions.run_virtual_sensing(),
        "ext_optimizers": lambda: experiments.extensions.run_optimizer_comparison(),
        "ext_replicated": lambda: experiments.extensions.run_replicated_headline(),
        "resilience": lambda: experiments.resilience.run(scale, jobs=jobs, cache=cache),
        "table4_adapted": lambda: experiments.table4.run_adapted(scale),
        "drift": lambda: experiments.drift.run(scale),
        "fleet": lambda: experiments.fleet.run(scale, jobs=jobs, cache=cache),
        "governor": lambda: experiments.governor.run(scale, jobs=jobs, cache=cache),
        "scenarios": lambda: experiments.scenarios.run(scale, jobs=jobs, cache=cache),
    }
    selected = args.ids or list(registry)
    unknown = [i for i in selected if i not in registry]
    if unknown:
        raise SystemExit(f"unknown experiment ids {unknown}; known: {list(registry)}")
    for exp_id in selected:
        user_output(registry[exp_id]().render())
        user_output()
    return 0


#: Experiments that decompose into RunSpec jobs (see `sweep`).
SWEEP_IDS = ("fig4a", "fig4b", "fig5", "resilience")


def cmd_sweep(args) -> int:
    """Run the sweep-decomposable experiments through one shared pool."""
    import time

    from repro import experiments
    from repro.experiments.common import scale_by_name
    from repro.runner import ResultCache, resolve_jobs, run_sweep

    scale = scale_by_name(args.scale)
    selected = args.ids or list(SWEEP_IDS)
    unknown = [i for i in selected if i not in SWEEP_IDS]
    if unknown:
        raise SystemExit(
            f"unknown sweep ids {unknown}; known: {list(SWEEP_IDS)}"
        )
    by_id = {}
    for module in (experiments.fig4, experiments.fig5, experiments.resilience):
        for sweep_exp in module.sweep_experiments():
            by_id[sweep_exp.experiment_id] = sweep_exp
    chosen = [by_id[i] for i in selected]
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.trace_dir and cache is not None:
        _log.info("tracing requested; result cache bypassed for this sweep")
        cache = None
    jobs = resolve_jobs(args.jobs)
    n_jobs = len({
        spec for experiment in chosen for spec in experiment.specs(scale)
    })
    started = time.perf_counter()
    # Resilience tolerates crashed unmitigated runs (scored as zero
    # retention); outside it a worker crash should propagate.
    on_error = "none" if "resilience" in selected else "raise"
    reports = run_sweep(
        chosen,
        scale,
        jobs=jobs,
        cache=cache,
        base_seed=args.base_seed,
        on_error=on_error,
        trace_dir=args.trace_dir,
    )
    elapsed = time.perf_counter() - started
    for report in reports:
        user_output(report.render())
        user_output()
    summary = (
        f"sweep: {len(chosen)} experiment(s), {n_jobs} distinct job(s), "
        f"{jobs} worker(s), {elapsed:.1f}s"
    )
    if cache is not None:
        summary += (
            f"; cache {cache.root}: {cache.hits} hit(s), "
            f"{cache.misses} miss(es)"
        )
    if args.trace_dir:
        summary += f"; traces in {args.trace_dir}"
    user_output(summary)
    return 0


def cmd_report(args) -> int:
    """Render the diagnostics report of a JSONL event trace."""
    try:
        events = read_jsonl(args.path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read trace: {exc}") from None
    if args.validate:
        errors = validate_events(events)
        if errors:
            for error in errors[:20]:
                _log.error("%s", error)
            raise SystemExit(
                f"trace {args.path} failed schema validation "
                f"({len(errors)} error(s))"
            )
        _log.info("%d events, schema valid", len(events))
    user_output(render_report(build_report(events)), end="")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(build_report(events), handle, indent=2, sort_keys=True)
        user_output(f"report JSON written to {args.json}")
    return 0


def cmd_serve(args) -> int:
    """Run the job service until SIGTERM/SIGINT, then drain."""
    from repro.runner import resolve_jobs
    from repro.service.lifecycle import run_service

    return run_service(
        host=args.host,
        port=args.port,
        jobs=resolve_jobs(args.jobs),
        queue_depth=args.queue_depth,
        cache=_experiment_cache(args),
        trace_dir=args.trace_dir,
        drain_timeout_s=args.drain_timeout,
    )


def cmd_submit(args) -> int:
    """Submit one job to a running service; optionally wait/follow."""
    from repro.service.api import payload_from_spec
    from repro.service.client import Client, ServiceError

    payload = payload_from_spec(_spec_from_args(args))
    client = Client(host=args.host, port=args.port)
    try:
        (job,) = client.submit(
            payload,
            priority=args.priority,
            timeout_s=args.timeout,
        )
    except ServiceError as exc:
        if exc.status == 429 and exc.retry_after_s is not None:
            _log.error("%s (Retry-After: %.0fs)", exc, exc.retry_after_s)
        else:
            _log.error("%s", exc)
        return 1
    user_output(f"submitted {job['id']} ({job['label']}, "
                f"status {job['status']})")
    if args.follow:
        for event in client.events(job["id"]):
            user_output(json.dumps(event, sort_keys=True))
    if args.wait or args.follow:
        final = client.wait(job["id"], timeout_s=args.wait_timeout)
        if final["status"] != "done":
            _log.error("job %s ended %s: %s",
                       job["id"], final["status"], final.get("error"))
            return 1
        from repro.runner.serialize import result_from_dict

        result = result_from_dict(final["result"])
        user_output(
            f"{result.balancer_name} on {result.platform_name}: "
            f"{result.ips_per_watt:.4e} instructions/J, "
            f"{result.average_ips:.4e} IPS, {result.average_power_w:.3f} W, "
            f"{result.migrations} migrations "
            f"(attempts {result.attempts})"
        )
    return 0


def cmd_status(args) -> int:
    """Show one job (or all jobs) of a running service."""
    from repro.service.client import Client, ServiceError

    client = Client(host=args.host, port=args.port)
    try:
        if args.job_id is None:
            jobs = client.jobs()
            if args.json:
                user_output(json.dumps({"jobs": jobs}, indent=2, sort_keys=True))
                return 0
            health = client.health()
            user_output(
                f"service {health['state']}: {health['queued']} queued, "
                f"{health['running']} running, "
                f"queue depth {health['queue_depth']}, "
                f"{health['worker_slots']} worker slot(s)"
            )
            for job in jobs:
                user_output(
                    f"  {job['id']}  {job['status']:<9}  {job['label']}"
                    + (f"  [{job['error']}]" if job.get("error") else "")
                )
            return 0
        if args.cancel:
            job = client.cancel(args.job_id)
        else:
            job = client.status(args.job_id)
    except ServiceError as exc:
        _log.error("%s", exc)
        return 1
    if args.json:
        user_output(json.dumps(job, indent=2, sort_keys=True))
    else:
        line = (f"{job['id']}  {job['status']}  {job['label']}  "
                f"attempts={job['attempts']}")
        if job.get("error"):
            line += f"  error={job['error']}"
        user_output(line)
    return 0


def cmd_train(args) -> int:
    from repro.core.training import train_predictor
    from repro.hardware.features import BUILTIN_TYPES

    types = list(BUILTIN_TYPES.values())
    model = train_predictor(types, seed=args.seed)
    with open(args.output, "w") as handle:
        json.dump(model.to_dict(), handle, indent=2)
    mean_err = sum(model.fit_error.values()) / len(model.fit_error)
    user_output(
        f"trained predictor over {len(types)} types "
        f"({len(model.theta)} pairs, mean fit error {100 * mean_err:.2f} %) "
        f"-> {args.output}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SmartBalance reproduction (DAC 2015)",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default=None,
        help="diagnostic verbosity on stderr (default: info)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="list platforms, balancers and workloads")
    lst.add_argument(
        "--json", action="store_true",
        help="machine-readable catalogue (the same source of truth the "
        "job-service API validates against)",
    )

    run = sub.add_parser("run", help="simulate one workload under one balancer")
    _add_run_flags(
        run, "--platform", "--workload", "--threads", "--balancer",
        "--epochs", "--seed", "--faults", "--fault-seed",
        "--no-mitigations", "--adapt", "--governor", "--scenario",
    )
    run.add_argument("--trace", help="write per-epoch trace (.csv or .json)")
    run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record a structured event trace: .jsonl for the raw "
        "event stream (repro report input), anything else for a "
        "Chrome/Perfetto trace",
    )
    run.add_argument(
        "--kernel", choices=("soa", "reference"), default="soa",
        help="kernel engine: vectorised structure-of-arrays core (soa, "
        "default) or the object-per-task reference path; both are "
        "digest-identical (see docs/kernel.md)",
    )
    run.add_argument(
        "--json", action="store_true",
        help="print the deterministic metrics document (JSON, "
        "wall-clock timings excluded) instead of the summary line",
    )

    compare = sub.add_parser("compare", help="run several balancers on one workload")
    _add_run_flags(
        compare, "--platform", "--workload", "--threads", "--epochs",
        "--seed", "--faults", "--fault-seed",
    )
    compare.add_argument("balancers", nargs="*", metavar="balancer")

    experiments = sub.add_parser("experiments", help="regenerate paper artifacts")
    experiments.add_argument("ids", nargs="*", metavar="id")
    experiments.add_argument("--scale", choices=("quick", "full"), default="quick")
    experiments.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for sweep-decomposable experiments "
        "(default: REPRO_JOBS or serial)",
    )
    experiments.add_argument(
        "--cache", action="store_true",
        help="serve repeated runs from the on-disk result cache",
    )
    experiments.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (implies --cache; "
        "default benchmarks/out/cache)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run the sweep-decomposable experiments through one shared pool",
    )
    sweep.add_argument("ids", nargs="*", metavar="id",
                       help=f"subset of {', '.join(SWEEP_IDS)} (default: all)")
    sweep.add_argument("--scale", choices=("quick", "full"), default="quick")
    sweep.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS or serial)",
    )
    sweep.add_argument(
        "--base-seed", type=int, default=None,
        help="re-seed every job as hash(base_seed, spec) — replication sweeps",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache (on by default)",
    )
    sweep.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default benchmarks/out/cache, "
        "override with REPRO_CACHE_DIR)",
    )
    sweep.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="trace every job: <spec_key>.jsonl + <spec_key>.metrics.json "
        "per job (bypasses the result cache)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="simulate a fault-tolerant multi-node fleet "
        "(energy-aware routing, seeded chaos)",
    )
    fleet.add_argument(
        "--nodes", type=int, default=4,
        help="fleet size; platforms alternate quad/biglittle (default 4)",
    )
    fleet.add_argument(
        "--node-platforms", default=None, metavar="P1,P2,...",
        help="explicit comma-separated platform per node (overrides --nodes)",
    )
    fleet.add_argument("--requests", type=int, default=32,
                       help="requests in the arrival stream")
    fleet.add_argument("--workloads", default="MTMI,HTHI,LTLI",
                       metavar="W1,W2,...",
                       help="workloads the request slots cycle through")
    fleet.add_argument("--distinct-jobs", type=int, default=6,
                       help="distinct request identities (profile-phase size)")
    fleet.add_argument("--threads", type=int, default=4)
    fleet.add_argument("--epochs", type=int, default=4,
                       help="epochs simulated per request")
    fleet.add_argument("--arrival-rate", type=float, default=8.0,
                       help="mean request arrival rate (Hz, Poisson)")
    fleet.add_argument(
        "--policy", choices=("energy", "round_robin", "least_loaded"),
        default="energy",
    )
    fleet.add_argument(
        "--fleet-faults", dest="faults", default=None, metavar="SCENARIO",
        help="seeded cluster fault scenario: node_churn, hang, partition, "
        "telemetry, kill30, chaos",
    )
    fleet.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed of the fault schedule (default: --seed)",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--profile", choices=("simulated", "analytic"), default="simulated",
        help="request cost model: real simulator runs (default) or the "
        "closed-form analytic stand-in",
    )
    fleet.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the profile phase "
        "(default: REPRO_JOBS or serial)",
    )
    fleet.add_argument(
        "--cache", action="store_true",
        help="serve profile-phase runs from the on-disk result cache",
    )
    fleet.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (implies --cache)",
    )
    fleet.add_argument("--json", action="store_true",
                       help="print the full result (ledger included) as JSON")
    fleet.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record the fleet event trace: .jsonl for the raw stream "
        "(repro report input), anything else for a Chrome/Perfetto trace",
    )

    report = sub.add_parser(
        "report",
        help="summarise a JSONL event trace (prediction accuracy, "
        "annealer convergence, faults/defences)",
    )
    report.add_argument("path", metavar="TRACE.jsonl")
    report.add_argument(
        "--validate", action="store_true",
        help="schema-check every event before reporting",
    )
    report.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the report as JSON",
    )

    train = sub.add_parser("train", help="train and export the Θ predictor")
    train.add_argument("--output", default="predictor.json")
    train.add_argument("--seed", type=int, default=7)

    serve = sub.add_parser(
        "serve",
        help="run the async job service (HTTP/JSON API over the runner)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=None,
        help="listen port (default: REPRO_SERVICE_PORT or 8642; 0 = ephemeral)",
    )
    serve.add_argument(
        "--jobs", type=int, default=None,
        help="worker slots (default: REPRO_JOBS or serial)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None,
        help="admission bound; a full queue answers HTTP 429 "
        "(default: REPRO_SERVICE_QUEUE_DEPTH or 64)",
    )
    serve.add_argument(
        "--cache", action="store_true",
        help="serve repeated specs from the on-disk result cache",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (implies --cache)",
    )
    serve.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="flush per-spec event traces here on shutdown",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=300.0,
        help="seconds to wait for in-flight jobs on SIGTERM/SIGINT "
        "before terminating them (default: 300)",
    )

    submit = sub.add_parser(
        "submit", help="submit one job to a running `repro serve`"
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument(
        "--port", type=int, default=None,
        help="service port (default: REPRO_SERVICE_PORT or 8642)",
    )
    _add_run_flags(
        submit, "--platform", "--workload", "--threads", "--balancer",
        "--epochs", "--seed", "--faults", "--fault-seed",
        "--no-mitigations", "--adapt", "--governor", "--scenario",
    )
    submit.add_argument(
        "--priority", type=int, default=0,
        help="scheduling priority (higher runs first)",
    )
    submit.add_argument(
        "--timeout", type=float, default=None,
        help="per-job execution timeout in seconds",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its summary",
    )
    submit.add_argument(
        "--follow", action="store_true",
        help="stream the job's NDJSON events to stdout (implies --wait)",
    )
    submit.add_argument(
        "--wait-timeout", type=float, default=None,
        help="give up waiting after this many seconds",
    )

    status = sub.add_parser(
        "status", help="inspect jobs on a running `repro serve`"
    )
    status.add_argument("job_id", nargs="?", default=None, metavar="JOB_ID")
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument(
        "--port", type=int, default=None,
        help="service port (default: REPRO_SERVICE_PORT or 8642)",
    )
    status.add_argument("--json", action="store_true",
                        help="machine-readable output")
    status.add_argument("--cancel", action="store_true",
                        help="cancel the given job")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "compare": cmd_compare,
        "experiments": cmd_experiments,
        "sweep": cmd_sweep,
        "fleet": cmd_fleet,
        "report": cmd_report,
        "train": cmd_train,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "status": cmd_status,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
