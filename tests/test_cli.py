"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import (
    _spec_from_args,
    build_parser,
    main,
    make_balancer,
    make_platform,
    make_workload,
)
from repro.kernel.simulator import SimulationConfig
from repro.obs import validate_events
from repro.obs.export import read_jsonl
from repro.runner import RunSpec, catalogue
from repro.runner.engine import execute_spec
from repro.runner.serialize import metrics_dict
from repro.service.api import payload_from_spec, spec_from_payload


class TestResolvers:
    def test_platform_presets(self):
        assert len(make_platform("quad")) == 4
        assert len(make_platform("biglittle")) == 8
        assert len(make_platform("hmp:6")) == 6

    def test_unknown_platform_exits(self):
        with pytest.raises(SystemExit):
            make_platform("toaster")

    def test_workload_kinds(self):
        assert len(make_workload("MTMI", 4)) == 4
        assert len(make_workload("bodytrack", 3)) == 3
        assert len(make_workload("Mix1", 2)) == 4  # 2 per member

    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            make_workload("doom", 4)

    def test_balancers(self):
        assert make_balancer("vanilla").name == "vanilla"
        assert make_balancer("gts").name == "gts"
        assert make_balancer("smartbalance").name == "smartbalance"

    def test_unknown_balancer_exits(self):
        with pytest.raises(SystemExit):
            make_balancer("magic")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bodytrack" in out
        assert "smartbalance" in out

    def test_list_names_every_catalogue_entry(self, capsys):
        """The text listing is rendered from the catalogue, so it cannot
        drift from it (it once left out the tpeq and slo balancers)."""
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        rows = dict(line.split(":", 1) for line in out.splitlines())
        listed = {label.strip(): value for label, value in rows.items()}
        balancers = {name.strip() for name in listed["balancers"].split(",")}
        assert balancers == set(catalogue()["balancers"])
        assert "scenarios" in listed  # CI greps for this label

        def names(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    if key != "params":  # parameter defaults, not names
                        yield from names(value)
            else:
                yield from node

        for name in names(catalogue()):
            assert name in out, name

    def test_list_json_is_machine_readable(self, capsys):
        """Satellite: `repro list --json` mirrors the factories'
        catalogue — the same source of truth the service API validates
        against."""
        from repro.runner.factories import catalogue

        assert main(["list", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == catalogue()
        assert "vanilla" in document["balancers"]
        assert "bodytrack" in document["workloads"]["benchmarks"]
        assert document["platform_patterns"] == ["hmp:<n>"]

    def test_run_prints_result(self, capsys):
        code = main(
            ["run", "--workload", "MTMI", "--threads", "4",
             "--balancer", "vanilla", "--epochs", "3"]
        )
        assert code == 0
        assert "instructions/J" in capsys.readouterr().out

    def test_run_json_is_deterministic_metrics(self, capsys):
        args = ["run", "--workload", "MTMI", "--threads", "4",
                "--balancer", "vanilla", "--epochs", "3", "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["balancer_name"] == "vanilla"
        assert "phase_times" not in first  # wall clock excluded
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out) == first

    def test_run_kernel_flag_digest_identity(self, capsys):
        """--kernel reference and --kernel soa agree byte-for-byte."""
        docs = {}
        for kernel in ("reference", "soa"):
            args = ["run", "--workload", "MTMI", "--threads", "4",
                    "--balancer", "vanilla", "--epochs", "3",
                    "--kernel", kernel, "--json"]
            assert main(args) == 0
            docs[kernel] = json.loads(capsys.readouterr().out)
        assert docs["reference"] == docs["soa"]

    def test_run_rejects_unknown_kernel(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "MTMI", "--kernel", "scalar"])

    def test_run_preset_platform_hmp256(self, capsys):
        code = main(
            ["run", "--workload", "MTMI", "--threads", "8",
             "--platform", "hmp256", "--balancer", "none", "--epochs", "1"]
        )
        assert code == 0
        assert "instructions/J" in capsys.readouterr().out

    def test_run_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        main(
            ["run", "--workload", "MTMI", "--threads", "4",
             "--balancer", "none", "--epochs", "3", "--trace", str(trace)]
        )
        doc = json.loads(trace.read_text())
        assert len(doc["epochs"]) == 3

    def test_compare_reports_gain(self, capsys):
        code = main(
            ["compare", "--workload", "HTHI", "--threads", "4",
             "--epochs", "5", "vanilla", "none"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "none vs vanilla" in out

    def test_experiments_selected(self, capsys):
        assert main(["experiments", "table3"]) == 0
        assert "Mix6" in capsys.readouterr().out

    def test_experiments_unknown_id_exits(self):
        with pytest.raises(SystemExit):
            main(["experiments", "fig99"])

    def test_train_writes_model(self, tmp_path, capsys):
        out = tmp_path / "predictor.json"
        assert main(["train", "--output", str(out)]) == 0
        model = json.loads(out.read_text())
        assert "theta" in model and "power_lines" in model


#: Run flag sets and the RunSpec fields they stand for (``--epochs``
#: defaults to 40 on the CLI, 12 on RunSpec).
FLAG_SETS = {
    "defaults": (["--workload", "MTMI"], dict(workload="MTMI")),
    "faults": (
        ["--workload", "Mix1", "--faults", "combined", "--fault-seed", "3",
         "--seed", "2"],
        dict(workload="Mix1", faults="combined", fault_seed=3, seed=2),
    ),
    "governor": (
        ["--platform", "dvfsquad", "--workload", "MTMI",
         "--governor", "pinned:0", "--adapt"],
        dict(platform="dvfsquad", workload="MTMI", governor="pinned:0",
             adaptation=True),
    ),
    "scenario": (
        ["--platform", "biglittle", "--workload", "random",
         "--scenario", "openloop:rate=80", "--no-mitigations"],
        dict(platform="biglittle", workload="random",
             scenario="openloop:rate=80", mitigations=False),
    ),
}


class TestCliIsRunSpec:
    """A spec and the equivalent command line produce identical runs."""

    @pytest.mark.parametrize("name", sorted(FLAG_SETS))
    def test_run_json_equals_execute_spec(self, name, capsys):
        flags, fields = FLAG_SETS[name]
        if name == "scenario":
            flags = flags + ["--kernel", "reference"]
            fields = dict(fields, config=SimulationConfig(kernel="reference"))
        assert main(["run", *flags, "--json"]) == 0
        result = execute_spec(RunSpec(n_epochs=40, **fields))
        expected = json.dumps(metrics_dict(result), indent=2, sort_keys=True)
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize("name", sorted(FLAG_SETS))
    def test_submit_flags_round_trip_through_the_payload(self, name):
        flags, fields = FLAG_SETS[name]
        spec = _spec_from_args(build_parser().parse_args(["submit", *flags]))
        assert spec == RunSpec(n_epochs=40, **fields)
        assert spec_from_payload(payload_from_spec(spec)) == spec

    def test_bad_spec_value_exits_with_its_message(self):
        with pytest.raises(SystemExit, match="threads must be >= 1"):
            main(["run", "--workload", "MTMI", "--threads", "0"])

    def test_bad_spec_value_names_the_flag_not_the_field(self):
        with pytest.raises(SystemExit, match=r"^--epochs must be >= 1, got 0$"):
            main(["compare", "--workload", "MTMI", "--epochs", "0"])


def _subcommand(name: str) -> argparse.ArgumentParser:
    parser = build_parser()
    (sub,) = (action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction))
    return sub.choices[name]


#: Run flags every run-taking subcommand shares.
_COMMON = {"--platform", "--workload", "--threads", "--epochs", "--seed",
           "--faults", "--fault-seed"}
_KNOBS = {"--balancer", "--no-mitigations", "--adapt", "--no-adapt",
          "--governor", "--scenario"}
_RUN_DEFAULTS = dict(
    log_level=None, workload="MTMI", platform="quad", threads=8,
    n_epochs=40, seed=0, faults=None, fault_seed=None,
)
_KNOB_DEFAULTS = dict(
    balancer="smartbalance", mitigations=True, adaptation=False,
    governor="fixed", scenario="none",
)


class TestFlagSurface:
    """The run flags are declared once and shared; each subcommand keeps
    exactly its own option strings and defaults."""

    OPTIONS = {
        "run": _COMMON | _KNOBS | {"--trace", "--trace-out", "--kernel",
                                   "--json"},
        "compare": set(_COMMON),
        "submit": _COMMON | _KNOBS | {"--host", "--port", "--priority",
                                      "--timeout", "--wait", "--follow",
                                      "--wait-timeout"},
    }
    DEFAULTS = {
        "run": dict(_RUN_DEFAULTS, **_KNOB_DEFAULTS, command="run",
                    trace=None, trace_out=None, kernel="soa", json=False),
        "compare": dict(_RUN_DEFAULTS, command="compare", balancers=[]),
        "submit": dict(_RUN_DEFAULTS, **_KNOB_DEFAULTS, command="submit",
                       host="127.0.0.1", port=None, priority=0,
                       timeout=None, wait=False, follow=False,
                       wait_timeout=None),
    }

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_option_strings(self, command):
        options = {
            option
            for action in _subcommand(command)._actions
            for option in action.option_strings
        } - {"-h", "--help"}
        assert options == self.OPTIONS[command]

    @pytest.mark.parametrize("command", sorted(DEFAULTS))
    def test_defaults(self, command):
        args = build_parser().parse_args([command, "--workload", "MTMI"])
        assert vars(args) == self.DEFAULTS[command]


class TestObservability:
    RUN_ARGS = [
        "run", "--workload", "MTMI", "--threads", "4",
        "--platform", "biglittle", "--balancer", "smartbalance",
        "--epochs", "3",
    ]

    def test_log_level_flag_accepted(self, capsys):
        assert main(["--log-level", "debug", "list"]) == 0

    def test_trace_out_jsonl_is_schema_clean(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(self.RUN_ARGS + ["--trace-out", str(trace)]) == 0
        events = read_jsonl(str(trace))
        assert events[0]["type"] == "run_start"
        assert validate_events(events) == []
        assert "event trace" in capsys.readouterr().out

    def test_trace_out_json_is_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        assert main(self.RUN_ARGS + ["--trace-out", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert any(r["ph"] == "X" for r in doc["traceEvents"])
        assert "Chrome trace" in capsys.readouterr().out

    def test_report_renders_prediction_table(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(self.RUN_ARGS + ["--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["report", str(trace), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "SmartBalance trace report" in out
        assert "Prediction accuracy (abs % error, Table 4)" in out
        assert "Annealer convergence (Algorithm 1)" in out

    def test_report_writes_json(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(self.RUN_ARGS + ["--trace-out", str(trace)])
        report_path = tmp_path / "report.json"
        assert main(["report", str(trace), "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["epochs"] == 3
        assert "prediction_accuracy" in report

    def test_report_validate_rejects_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "warp_drive", "t_s": 0.0}\n')
        with pytest.raises(SystemExit, match="schema validation"):
            main(["report", str(bad), "--validate"])

    def test_report_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["report", str(tmp_path / "absent.jsonl")])


class TestFleet:
    FLEET_ARGS = [
        "fleet", "--nodes", "3", "--requests", "8", "--arrival-rate", "6",
        "--profile", "analytic",
    ]

    def test_fleet_prints_summary_with_per_node_lines(self, capsys):
        assert main(self.FLEET_ARGS) == 0
        out = capsys.readouterr().out
        assert "8/8 completed" in out
        assert out.count("node ") == 3

    def test_fleet_json_is_pure_json(self, capsys):
        assert main(self.FLEET_ARGS + ["--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["accepted"] == document["completed"] == 8
        assert document["failed"] == 0
        assert "ledger" in document and "stats" in document

    def test_fleet_kill30_reports_ridden_out_faults(self, capsys):
        assert main(self.FLEET_ARGS + ["--fleet-faults", "kill30",
                                       "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "8/8 completed" in out
        assert "faults ridden out" in out
        assert "crashed" in out

    def test_fleet_trace_feeds_report(self, tmp_path, capsys):
        trace = tmp_path / "fleet.jsonl"
        assert main(self.FLEET_ARGS + ["--fleet-faults", "kill30",
                                       "--seed", "7",
                                       "--trace-out", str(trace)]) == 0
        events = read_jsonl(str(trace))
        assert validate_events(events) == []
        capsys.readouterr()
        assert main(["report", str(trace), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "Fleet (multi-node dispatch)" in out

    def test_fleet_unknown_scenario_exits(self):
        with pytest.raises(SystemExit, match="unknown fleet fault scenario"):
            main(self.FLEET_ARGS + ["--fleet-faults", "meteor"])

    def test_fleet_explicit_platform_list(self, capsys):
        assert main(["fleet", "--node-platforms", "quad,quad",
                     "--requests", "4", "--profile", "analytic"]) == 0
        out = capsys.readouterr().out
        assert "node 0 (quad" in out and "node 1 (quad" in out
