"""Request validation: JSON payloads <-> :class:`RunSpec`.

The service speaks the same vocabulary as the CLI because both go
through :class:`~repro.runner.spec.RunSpec`: a job payload is the JSON
shape of a spec (its keys are the spec's fields, a missing key takes
the field's default, and ``repro submit`` sends
:func:`payload_from_spec` of the spec its flags build).  Names are
validated against :func:`repro.runner.factories.catalogue` — the same
source of truth ``repro list`` prints — and the governor and scenario
strings by the parsers that own their formats, so a spec the API
accepts is exactly a spec the runner can execute.

Validation errors raise :class:`ApiError` with an HTTP status and a
``field`` naming the offending key; the server maps them straight to
JSON error responses without ever calling into the simulator.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.governor.config import parse_governor
from repro.hardware.sensors import NoiseModel
from repro.kernel.simulator import SimulationConfig
from repro.runner.factories import catalogue, workload_names
from repro.runner.spec import RunSpec, config_fingerprint
from repro.scenarios import parse_scenario


class ApiError(Exception):
    """A request the service refuses, with its HTTP status."""

    def __init__(self, message: str, status: int = 400,
                 field: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.field = field

    def to_dict(self) -> dict:
        payload = {"error": str(self)}
        if self.field is not None:
            payload["field"] = self.field
        return payload


#: Payload keys accepted on a job spec: exactly the ``RunSpec`` fields.
SPEC_FIELDS = tuple(f.name for f in dataclasses.fields(RunSpec))

#: A spec with only its required field set: it carries the default of
#: every payload key a job may omit.
_DEFAULT = RunSpec(workload="")

#: ``SimulationConfig`` fields settable through the API.  ``seed`` and
#: ``faults`` are owned by the spec (same rule as ``RunSpec.config``).
CONFIG_FIELDS = {
    "period_s": float,
    "periods_per_epoch": int,
    "os_noise_tasks": int,
    "thermal_enabled": bool,
    "counter_noise": dict,
    "power_noise": dict,
}


def _require_int(payload: dict, key: str,
                 minimum: Optional[int] = None) -> int:
    value = payload.get(key, getattr(_DEFAULT, key))
    if isinstance(value, bool) or not isinstance(value, int):
        raise ApiError(f"{key} must be an integer, got {value!r}", field=key)
    if minimum is not None and value < minimum:
        raise ApiError(f"{key} must be >= {minimum}, got {value}", field=key)
    return value


def _optional_int(payload: dict, key: str) -> Optional[int]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ApiError(f"{key} must be an integer or null, got {value!r}",
                       field=key)
    return value


def _require_bool(payload: dict, key: str) -> bool:
    value = payload.get(key, getattr(_DEFAULT, key))
    if not isinstance(value, bool):
        raise ApiError(f"{key} must be a boolean", field=key)
    return value


def _noise_model(data: object, key: str) -> NoiseModel:
    if not isinstance(data, dict):
        raise ApiError(f"{key} must be an object with sigma/clip", field=key)
    unknown = set(data) - {"sigma", "clip"}
    if unknown:
        raise ApiError(f"unknown {key} field(s) {sorted(unknown)}", field=key)
    try:
        return NoiseModel(**{k: float(v) for k, v in data.items()})
    except (TypeError, ValueError) as exc:
        raise ApiError(f"invalid {key}: {exc}", field=key) from None


def _config_from_payload(data: object) -> SimulationConfig:
    if not isinstance(data, dict):
        raise ApiError("config must be an object", field="config")
    unknown = set(data) - set(CONFIG_FIELDS)
    if unknown & {"seed", "faults"}:
        raise ApiError(
            "config.seed and config.faults are owned by the spec; set "
            "the top-level seed / faults fields instead",
            field="config",
        )
    if unknown:
        raise ApiError(f"unknown config field(s) {sorted(unknown)}",
                       field="config")
    kwargs: dict = {}
    for key, value in data.items():
        if key in ("counter_noise", "power_noise"):
            kwargs[key] = _noise_model(value, key)
        elif key == "thermal_enabled":
            if not isinstance(value, bool):
                raise ApiError(f"{key} must be a boolean", field=key)
            kwargs[key] = value
        else:
            expected = CONFIG_FIELDS[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ApiError(f"{key} must be a number", field=key)
            kwargs[key] = expected(value)
    try:
        return SimulationConfig(**kwargs)
    except ValueError as exc:
        raise ApiError(f"invalid config: {exc}", field="config") from None


def spec_from_payload(payload: object) -> RunSpec:
    """Validate one job payload and build its :class:`RunSpec`.

    Every name is checked against the catalogue *before* touching the
    simulator, so a bad request costs microseconds, not a traceback in
    a worker process.
    """
    if not isinstance(payload, dict):
        raise ApiError("job spec must be a JSON object")
    unknown = set(payload) - set(SPEC_FIELDS)
    if unknown:
        raise ApiError(f"unknown spec field(s) {sorted(unknown)}")
    names = catalogue()

    workload = payload.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ApiError("workload is required and must be a string",
                       field="workload")
    if workload not in workload_names():
        raise ApiError(
            f"unknown workload {workload!r}; see GET /v1/catalogue or "
            "`repro list --json`",
            field="workload",
        )

    platform = payload.get("platform", _DEFAULT.platform)
    if not isinstance(platform, str):
        raise ApiError("platform must be a string", field="platform")
    if platform not in names["platforms"]:
        if platform.startswith("hmp:"):
            suffix = platform.split(":", 1)[1]
            if not suffix.isdigit() or int(suffix) < 1:
                raise ApiError(
                    f"malformed hmp platform {platform!r}; use hmp:<n>",
                    field="platform",
                )
        else:
            raise ApiError(
                f"unknown platform {platform!r}; one of "
                f"{names['platforms']} or hmp:<n>",
                field="platform",
            )

    balancer = payload.get("balancer", _DEFAULT.balancer)
    if balancer not in names["balancers"]:
        raise ApiError(
            f"unknown balancer {balancer!r}; one of {names['balancers']}",
            field="balancer",
        )

    faults = payload.get("faults")
    if faults is not None and faults not in names["faults"]:
        raise ApiError(
            f"unknown fault scenario {faults!r}; one of {names['faults']}",
            field="faults",
        )

    governor = payload.get("governor", _DEFAULT.governor)
    if not isinstance(governor, str):
        raise ApiError("governor must be a string", field="governor")
    try:
        parse_governor(governor)
    except ValueError as exc:
        raise ApiError(str(exc), field="governor") from None
    if governor != "fixed" and balancer != "smartbalance":
        raise ApiError(
            f"governor {governor!r} requires the smartbalance balancer",
            field="governor",
        )

    scenario = payload.get("scenario", _DEFAULT.scenario)
    if not isinstance(scenario, str):
        raise ApiError("scenario must be a string", field="scenario")
    if scenario != "none":
        try:
            parse_scenario(scenario)
        except ValueError as exc:
            raise ApiError(str(exc), field="scenario") from None

    config = (
        _config_from_payload(payload["config"])
        if payload.get("config") is not None
        else _DEFAULT.config
    )
    try:
        return RunSpec(
            workload=workload,
            platform=platform,
            threads=_require_int(payload, "threads", minimum=1),
            balancer=balancer,
            n_epochs=_require_int(payload, "n_epochs", minimum=1),
            seed=_require_int(payload, "seed"),
            workload_seed=_optional_int(payload, "workload_seed"),
            faults=faults,
            fault_seed=_optional_int(payload, "fault_seed"),
            mitigations=_require_bool(payload, "mitigations"),
            adaptation=_require_bool(payload, "adaptation"),
            governor=governor,
            scenario=scenario,
            config=config,
        )
    except ValueError as exc:
        raise ApiError(str(exc)) from None


def payload_from_spec(spec: RunSpec) -> dict:
    """The JSON payload that round-trips to ``spec``.

    ``payload_from_spec`` and :func:`spec_from_payload` are exact
    inverses (pinned by the API tests), which is what lets the client
    submit real :class:`RunSpec` objects over the wire.
    """
    payload = spec.canonical()
    default = config_fingerprint(_DEFAULT.config)
    config = {
        key: value for key, value in payload.pop("config").items()
        if value != default[key]
    }
    if config:
        payload["config"] = config
    return payload


def specs_from_request(body: object) -> "tuple[list[RunSpec], dict]":
    """Parse a ``POST /v1/jobs`` body.

    Accepts ``{"spec": {...}}`` or ``{"specs": [{...}, ...]}`` plus
    the per-request options ``priority`` (int, higher runs first) and
    ``timeout_s`` (positive number).  Returns the validated specs and
    an options dict.
    """
    if not isinstance(body, dict):
        raise ApiError("request body must be a JSON object")
    unknown = set(body) - {"spec", "specs", "priority", "timeout_s"}
    if unknown:
        raise ApiError(f"unknown request field(s) {sorted(unknown)}")
    if ("spec" in body) == ("specs" in body):
        raise ApiError('exactly one of "spec" or "specs" is required')

    if "spec" in body:
        raw_specs = [body["spec"]]
    else:
        raw_specs = body["specs"]
        if not isinstance(raw_specs, list) or not raw_specs:
            raise ApiError('"specs" must be a non-empty array', field="specs")

    priority = body.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ApiError("priority must be an integer", field="priority")

    timeout_s = body.get("timeout_s")
    if timeout_s is not None:
        if isinstance(timeout_s, bool) or not isinstance(timeout_s, (int, float)):
            raise ApiError("timeout_s must be a number", field="timeout_s")
        if timeout_s <= 0:
            raise ApiError("timeout_s must be positive", field="timeout_s")
        timeout_s = float(timeout_s)

    specs = [spec_from_payload(raw) for raw in raw_specs]
    return specs, {"priority": priority, "timeout_s": timeout_s}


def spec_to_dict(spec: RunSpec) -> dict:
    """Spec as shown in job-status responses (canonical identity)."""
    return spec.canonical()
