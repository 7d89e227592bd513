"""End-to-end governor runs: identity, gains, kernel equivalence.

Everything here goes through :func:`execute_spec` — the same path the
CLI, the sweep runner and the service use — so the contracts pinned
are the ones users get.
"""

import pytest

from repro.kernel.simulator import SimulationConfig
from repro.obs import ObsContext, build_report, render_report, validate_events
from repro.runner.engine import execute_spec
from repro.runner.serialize import metrics_digest
from repro.runner.spec import RunSpec
from repro.service.api import ApiError, spec_from_payload


def spec(governor="fixed", *, platform="dvfsquad", kernel="reference", epochs=6):
    return RunSpec(
        workload="MTMI",
        platform=platform,
        threads=8,
        balancer="smartbalance",
        n_epochs=epochs,
        seed=0,
        governor=governor,
        config=SimulationConfig(kernel=kernel),
    )


class TestFixedIdentity:
    def test_fixed_is_byte_identical_to_default(self):
        """The default-off contract: governor='fixed' must reproduce
        the governor-free pipeline digest for digest."""
        default = execute_spec(spec())
        explicit = execute_spec(spec("fixed"))
        assert default.governor is None
        assert explicit.governor is None
        assert metrics_digest(default) == metrics_digest(explicit)

    def test_padded_fixed_is_no_governor(self):
        """parse_governor (and so the service API) accepts " fixed ";
        the runner must then run the governor-free pipeline, not fail."""
        padded = execute_spec(spec(" fixed ", epochs=3))
        assert padded.governor is None
        assert metrics_digest(padded) == metrics_digest(execute_spec(spec(epochs=3)))

    def test_never_switching_governor_changes_nothing_physical(self):
        """pinned at the top (nominal) rung: the governor is active but
        every cluster stays at nominal, so no OPP change is ever
        queued and no core type is ever re-based."""
        result = execute_spec(spec("pinned:3"))
        assert result.governor is not None
        assert result.governor["opp_changes"] == 0


class TestGovernedRuns:
    @pytest.mark.parametrize("strategy", ["two_level", "coupled_anneal"])
    def test_dynamic_strategy_switches_and_reports(self, strategy):
        result = execute_spec(spec(strategy))
        stats = result.governor
        assert stats is not None
        assert stats["strategy"] == strategy
        assert stats["epochs"] > 0
        assert stats["opp_changes"] > 0, "governor never left nominal V/f"
        assert stats["candidates_evaluated"] > 0
        assert stats["transition_energy_j"] > 0.0
        assert set(stats["levels"]) == {"Huge", "Big", "Medium", "Small"}

    def test_two_level_beats_fixed_on_efficiency(self):
        fixed = execute_spec(spec())
        governed = execute_spec(spec("two_level"))
        assert governed.ips_per_watt > fixed.ips_per_watt

    def test_pinned_low_saves_power(self):
        fixed = execute_spec(spec())
        pinned = execute_spec(spec("pinned:0"))
        assert pinned.governor["opp_changes"] > 0
        assert pinned.average_power_w < fixed.average_power_w

    def test_governed_run_is_deterministic(self):
        first = execute_spec(spec("two_level"))
        second = execute_spec(spec("two_level"))
        assert metrics_digest(first) == metrics_digest(second)
        assert first.governor == second.governor

    def test_governor_survives_faults(self):
        """OPP re-basing composes with the fault layer (throttle faults
        rescale relative to the governed base type)."""
        faulted = RunSpec(
            workload="Mix1",
            platform="biglittle",
            threads=6,
            balancer="smartbalance",
            n_epochs=6,
            seed=3,
            faults="combined",
            governor="two_level",
        )
        first = execute_spec(faulted)
        second = execute_spec(faulted)
        assert first.governor is not None
        assert metrics_digest(first) == metrics_digest(second)


class TestKernelEquivalence:
    @pytest.mark.parametrize("strategy", ["two_level", "coupled_anneal"])
    def test_soa_matches_reference_under_opp_changes(self, strategy):
        """The SoA engine's on_core_type_changed path must track
        mid-run OPP re-basing exactly."""
        reference = execute_spec(spec(strategy, kernel="reference"))
        soa = execute_spec(spec(strategy, kernel="soa"))
        assert reference.governor["opp_changes"] > 0
        assert metrics_digest(reference) == metrics_digest(soa)


class TestObservability:
    def test_trace_schema_and_report_section(self):
        obs = ObsContext()
        execute_spec(spec("two_level"), obs=obs)
        events = obs.tracer.events
        assert not validate_events(events)
        types = {e["type"] for e in events}
        assert "governor_decision" in types
        assert "opp_change" in types
        rendered = render_report(build_report(events))
        assert "Governor (joint placement + DVFS)" in rendered

    def test_governor_summary_counts_match_stats(self):
        obs = ObsContext()
        result = execute_spec(spec("two_level"), obs=obs)
        report = build_report(obs.tracer.events)
        summary = report["governor"]
        assert summary["strategy"] == "two_level"
        assert summary["opp_switches"] == result.governor["opp_changes"]
        assert summary["final_levels"] == {
            cluster: level
            for cluster, level in result.governor["levels"].items()
            if level != 3  # unswitched clusters stayed at top: absent
        }


class TestServiceApi:
    def payload(self, **overrides):
        base = {
            "workload": "MTMI",
            "platform": "dvfsquad",
            "threads": 8,
            "balancer": "smartbalance",
            "n_epochs": 4,
        }
        base.update(overrides)
        return base

    def test_governor_accepted(self):
        parsed = spec_from_payload(self.payload(governor="two_level"))
        assert parsed.governor == "two_level"

    def test_pinned_pattern_accepted(self):
        assert spec_from_payload(self.payload(governor="pinned:1")).governor == "pinned:1"

    def test_default_is_fixed(self):
        assert spec_from_payload(self.payload()).governor == "fixed"

    def test_unknown_governor_rejected(self):
        with pytest.raises(ApiError):
            spec_from_payload(self.payload(governor="ondemand"))

    def test_malformed_pinned_rejected(self):
        with pytest.raises(ApiError, match="pinned"):
            spec_from_payload(self.payload(governor="pinned:low"))

    def test_governor_requires_smartbalance(self):
        with pytest.raises(ApiError, match="smartbalance"):
            spec_from_payload(
                self.payload(balancer="vanilla", governor="two_level")
            )
