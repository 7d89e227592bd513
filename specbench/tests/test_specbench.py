"""Tests of the benchmark's own machinery (not of the program).

Run from the repo root: ``python -m pytest specbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.runner.engine import execute_spec
from repro.runner.serialize import metrics_digest
from repro.runner.spec import RunSpec

from specbench import bench, hostspeed, tracing
from specbench.stats import percentile, samples_beyond, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)


# -- self time ---------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, "r"]


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("execute", 0.0, 10.0, -1),  # 0
        _span("a", 1.0, 4.0, 0),          # 1
        _span("b", 2.0, 3.0, 1),          # 2
        _span("a", 5.0, 9.0, 0),          # 3
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(own) == pytest.approx(10.0)
    assert tracing.self_time_by_name(spans) == pytest.approx(
        {"execute": 3.0, "a": 6.0, "b": 1.0}
    )


def test_overlapping_children_are_counted_once():
    spans = [
        _span("p", 0.0, 10.0, -1),
        _span("c", 2.0, 6.0, 0),
        _span("c", 4.0, 12.0, 0),  # overlaps its sibling and outlives p
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_probes_attach_to_the_innermost_open_span():
    spans = [
        _span("execute", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("c", 5.0, 9.0, 0),
    ]
    # Inside b; after b closed but inside a; between a and c; after c.
    probes = [(2.2, 0.1), (3.5, 0.2), (4.5, 0.3), (9.5, 0.25)]
    tracing.attach_probes(spans, 0, probes, "r")
    parents = [span[tracing.PARENT] for span in spans[4:]]
    assert parents == [2, 1, 0, 0]
    by_name = tracing.self_time_by_name(spans)
    assert by_name[tracing.PROBE] == pytest.approx(0.85)
    assert by_name["b"] == pytest.approx(0.9)
    assert by_name["execute"] == pytest.approx(3.0 - 0.55)
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_recorder_nests_spans_and_counts():
    ticks = iter(range(100))
    rec = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    rec.run = "rep1"
    root = rec.open("execute")
    inner = rec.open("core.anneal")
    rec.count("core.anneal_calls")
    rec.close(inner)
    rec.close(root)
    assert rec.spans == [
        ["execute", 0.0, 3.0, -1, "rep1"],
        ["core.anneal", 1.0, 2.0, 0, "rep1"],
    ]
    assert rec.counts == {"core.anneal_calls": 1}


# -- normalisation -----------------------------------------------------


def _sampler(probes):
    sampler = hostspeed.HostSampler()
    for start, duration in probes:
        sampler.starts.append(start)
        sampler.durations.append(duration)
    return sampler


def test_normalise_scales_by_the_probe_mean_and_drops_probe_time():
    ref = hostspeed.REFERENCE_PROBE_S
    # A host exactly twice as slow as the reference, probing every 0.1 s.
    sampler = _sampler([(0.1 * i, 2 * ref) for i in range(100)])
    nominal, raw = sampler.normalise(1.0, 5.0)
    probe_time = 40 * 2 * ref
    assert raw == pytest.approx(4.0 - probe_time)
    assert nominal == pytest.approx(raw / 2)


def test_calibration_that_changes_mid_run():
    ref = hostspeed.REFERENCE_PROBE_S
    # Fast for the first 5 s, three times slower afterwards.
    sampler = _sampler(
        [(0.1 * i, ref if i < 50 else 3 * ref) for i in range(100)]
    )
    fast, fast_raw = sampler.normalise(1.0, 4.0)
    slow, slow_raw = sampler.normalise(6.0, 9.0)
    assert fast == pytest.approx(fast_raw)
    assert slow == pytest.approx(slow_raw / 3)
    # A repetition straddling the change is scaled by its own mix.
    mixed, mixed_raw = sampler.normalise(4.0, 6.0)
    assert mixed == pytest.approx(mixed_raw / 2)


def test_short_interval_borrows_neighbouring_probes():
    ref = hostspeed.REFERENCE_PROBE_S
    sampler = _sampler([(float(i), ref * (1 + i)) for i in range(20)])
    # No probe inside [10.2, 10.4): the nine nearest are probes 6..14.
    expected = sum(ref * (1 + i) for i in range(6, 15)) / 9
    assert sampler.probe_mean(10.2, 10.4) == pytest.approx(expected)


def test_sampler_probes_on_its_timer_and_stops():
    sampler = hostspeed.HostSampler(interval_s=0.01)
    with sampler:
        end = sampler.clock() + 0.2
        while sampler.clock() < end:
            pass
    taken = len(sampler.durations)
    assert taken >= 5
    assert all(d > 0 for d in sampler.durations)


def test_a_tick_during_a_probe_takes_no_nested_probe():
    sampler = hostspeed.HostSampler()
    # The probe itself takes a tick, as a probe delayed past the next
    # timer expiry would.
    sampler.probe_fn = lambda: sampler._on_alarm(None, None)
    sampler._on_alarm(None, None)
    assert len(sampler.durations) == 1


# -- percentile rule ---------------------------------------------------


def test_percentile_sample_rule():
    values = list(range(1, 101))
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(90, 90) == 9
    assert tail_percentile(values, 90, min_pool=100) == pytest.approx(percentile(values, 90))
    assert tail_percentile(values[:99], 90, min_pool=100) is None
    # Pool large enough but too few samples beyond the percentile.
    assert tail_percentile(values[:50], 90) is None
    assert tail_percentile(values[:50], 50) == pytest.approx(25.5)


# -- correctness gate --------------------------------------------------

_TINY = RunSpec(workload="random", platform="quad", threads=4, balancer="none", n_epochs=2)


def test_digest_mismatch_counts_as_failed():
    result = execute_spec(_TINY)
    good = {"digest": metrics_digest(result), "ips_per_watt": result.ips_per_watt}
    check = bench.DigestCheck(dict(good))
    assert check.judge(result)
    check.expected = dict(good, digest="0" * 64)
    assert not check.judge(result)
    check.fail("RuntimeError: boom")
    assert (check.attempted, check.failed) == (3, 2)


def test_unpinned_seed_compares_repetitions_with_each_other():
    first = execute_spec(_TINY)
    other = execute_spec(RunSpec(**{**_TINY.canonical(), "config": _TINY.config, "seed": 1}))
    check = bench.DigestCheck(None)
    assert check.judge(first)
    assert check.judge(execute_spec(_TINY))
    assert not check.judge(other)
    assert (check.attempted, check.failed) == (3, 1)


def test_pins_round_trip(tmp_path):
    path = str(tmp_path / "pins.json")
    bench.save_pin("w", 10, "ab", 1.5, path=path)
    bench.save_pin("w", 2, "cd", 0.1 + 0.2, path=path)
    pins = bench.load_pins(path)
    assert set(pins["w"]) == {"2", "10"}
    assert pins["w"]["2"]["ips_per_watt"] == 0.1 + 0.2


# -- the wrappers change nothing the program computes ------------------


@pytest.mark.parametrize(
    "fields",
    [
        dict(platform="biglittle", scenario="openloop:rate=120", n_epochs=4),
        dict(platform="dvfsquad", governor="two_level", n_epochs=2),
    ],
)
def test_wrappers_leave_metrics_digest_byte_identical(fields):
    spec = RunSpec(workload="random", threads=8, balancer="smartbalance", seed=3, **fields)
    plain = execute_spec(spec)
    rec = tracing.SpanRecorder()
    undo = tracing.install(rec)
    try:
        root = rec.open(tracing.ROOT)
        traced = execute_spec(spec)
        rec.close(root)
    finally:
        tracing.uninstall(undo)
    assert metrics_digest(traced) == metrics_digest(plain)
    names = {span[tracing.NAME] for span in rec.spans}
    assert {"setup.platform", "kernel.construct", "kernel.simulate", "core.decide",
            "core.anneal", "hardware.sensor_read"} <= names
    assert rec.counts["core.decisions"] == spec.n_epochs
    own = tracing.self_times(rec.spans)
    assert sum(own) == pytest.approx(rec.spans[0][tracing.END] - rec.spans[0][tracing.START])
    # Uninstalled: a third run records nothing.
    before = len(rec.spans)
    assert metrics_digest(execute_spec(spec)) == metrics_digest(plain)
    assert len(rec.spans) == before


# -- the declared metrics are the ones the benchmark prints -------------


def test_benchmark_json_matches_the_metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == bench.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} <= set(bench.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "specbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "specbench/run.py", "--workload", "biglittle-openloop",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
