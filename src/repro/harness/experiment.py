"""Experiment framework: scales, checks, registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: Named scales.  ``smoke`` keeps every experiment in CI-friendly time;
#: ``default`` gives clean shapes in seconds-to-minutes; ``paper``
#: approaches the paper's parameters (hours of simulated activity).
SCALES = ("smoke", "default", "paper")


@dataclass
class Check:
    """One expectation from the paper, evaluated against measured data."""

    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentResult:
    experiment_id: str
    scale: str
    #: Figure-style table: x values + named series.
    x_name: str = "x"
    x_values: list[Any] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Free-form extra tables/values for EXPERIMENTS.md.
    extras: dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        ok = sum(1 for c in self.checks if c.passed)
        return f"{self.experiment_id} [{self.scale}]: {ok}/{len(self.checks)} checks passed"

    def to_dict(self) -> dict:
        """JSON-safe dict for ``repro run --json`` and machine consumers."""
        return {
            "experiment_id": self.experiment_id,
            "scale": self.scale,
            "x_name": self.x_name,
            "x_values": _json_safe(self.x_values),
            "series": _json_safe(self.series),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "notes": list(self.notes),
            "extras": _json_safe(self.extras),
            "all_passed": self.all_passed,
        }


def _json_safe(value: Any) -> Any:
    """Recursively coerce to JSON-encodable types (repr as last resort)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


@dataclass
class Experiment:
    """A registered, runnable reproduction of one paper figure."""

    id: str
    figure: str
    title: str
    description: str
    run: Callable[[str], ExperimentResult]


_REGISTRY: dict[str, Experiment] = {}


def register(
    id: str, figure: str, title: str, description: str
) -> Callable[[Callable[[str], ExperimentResult]], Callable[[str], ExperimentResult]]:
    """Decorator: add a runner to the registry."""

    def deco(fn: Callable[[str], ExperimentResult]):
        if id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {id!r}")
        _REGISTRY[id] = Experiment(id, figure, title, description, fn)
        return fn

    return deco


def get(id: str) -> Experiment:
    # Import runners lazily so `import repro.harness` stays cheap.
    _ensure_loaded()
    try:
        return _REGISTRY[id]
    except KeyError:
        raise KeyError(f"unknown experiment {id!r}; have {sorted(_REGISTRY)}") from None


def all_experiments() -> list[Experiment]:
    _ensure_loaded()
    return [exp for _, exp in sorted(_REGISTRY.items())]


def _ensure_loaded() -> None:
    import repro.harness.runners  # noqa: F401  (registers on import)
    import repro.harness.ablations  # noqa: F401
    import repro.harness.motivation  # noqa: F401
    import repro.harness.chaos  # noqa: F401
    import repro.harness.hotspot  # noqa: F401
    import repro.harness.readpath  # noqa: F401
    import repro.harness.elasticity  # noqa: F401
    import repro.harness.tenants  # noqa: F401
