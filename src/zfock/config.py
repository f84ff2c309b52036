"""Run configuration for the verification driver."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .fock import Indicatrix, RapidityGrid
from .scattering import ScatteringModel

SUITES = ("scattering", "fock", "zops", "contractions", "expansion", "warped")

DEFAULT_EQUALITY_TOL = 1e-10
DEFAULT_EXACT_TOL = 1e-12
DEFAULT_INEQUALITY_SLACK = 1e-12

_MODEL_FAMILIES = ("free", "ising", "sinh_exp", "table")


class ConfigError(ValueError):
    """Invalid configuration; carries every violation found."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration: " + "; ".join(problems))


@dataclass
class RunConfig:
    grid: RapidityGrid
    truncation: int
    scattering: dict
    omega: Indicatrix
    seed: int = 0
    instances: int = 12
    tolerances: dict[str, float] = field(default_factory=dict)
    suites: tuple[str, ...] = SUITES

    def tolerance(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def build_model(self) -> ScatteringModel:
        """Construct the scattering model, enforcing the unitarity invariants.

        Tabulated values are validated here rather than at parse time, so a
        corrupted table surfaces as a failing scattering check.
        """
        return build_scattering(self.scattering)


def build_scattering(data: dict) -> ScatteringModel:
    """The model of a ``scattering`` object that ``_check_scattering`` accepted."""
    family = data["family"]
    if family == "free":
        return ScatteringModel.free()
    if family == "ising":
        return ScatteringModel.ising()
    if family == "sinh_exp":
        return ScatteringModel.sinh_exp(float(data.get("a", 0.0)))
    values = [complex(re, im) for re, im in data.get("values", [])]
    return ScatteringModel.tabulated(data.get("thetas", []), values)


def scattering_config(model: ScatteringModel) -> dict:
    """The ``scattering`` object of a config that builds ``model``."""
    if model.family == "sinh_exp":
        return {"family": model.family, "a": model.a}
    if model.family == "table":
        return {"family": model.family, "thetas": [t for t, _ in model.table],
                "values": [[v.real, v.imag] for _, v in model.table]}
    return {"family": model.family}


def _is_int(value) -> bool:
    """JSON integers only; booleans are ints to Python but not to the config."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """JSON numbers only, booleans excluded."""
    return _is_int(value) or isinstance(value, float)


def _is_finite(value) -> bool:
    """JSON numbers other than NaN, the infinities and integers beyond a float."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _check_scattering(data, problems: list[str]) -> dict:
    """Structural validation only; algebraic invariants are deferred."""
    if not isinstance(data, dict):
        problems.append("scattering must be an object")
        return {"family": "free"}
    family = data.get("family")
    if family not in _MODEL_FAMILIES:
        supported = ", ".join(_MODEL_FAMILIES)
        problems.append(f"unknown scattering family {family!r} (supported: {supported})")
        return {"family": "free"}
    if family == "sinh_exp" and not _is_finite(data.get("a", 0.0)):
        problems.append("sinh_exp parameter a must be a finite number")
    if family == "table":
        thetas = data.get("thetas", [])
        values = data.get("values", [])
        if len(thetas) != len(values):
            problems.append("table rapidity and value lists differ in length")
        if not all(isinstance(v, (list, tuple)) and len(v) == 2 for v in values):
            problems.append("table values must be [re, im] pairs")
    return data


def _build_omega(data, problems: list[str]) -> Indicatrix:
    if not isinstance(data, dict):
        problems.append("omega must be an object")
        return Indicatrix.zero()
    family = data.get("family", "zero")
    alpha = data.get("alpha", 0.0)
    if not _is_finite(alpha):
        problems.append("omega alpha must be a finite number")
        alpha = 0.0
    try:
        if family == "zero":
            return Indicatrix.zero()
        if family == "sqrt":
            return Indicatrix.sqrt(alpha)
        if family == "log":
            return Indicatrix.log(alpha)
    except ValueError as exc:
        problems.append(str(exc))
        return Indicatrix.zero()
    problems.append(f"unknown indicatrix family {family!r} (supported: zero, sqrt, log)")
    return Indicatrix.zero()


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    All violations are collected and reported together.  A configuration
    knows its lattice, truncation, scattering model, weight, seed, optional
    tolerance overrides, and suite selection.
    """
    problems: list[str] = []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    if not isinstance(data, dict):
        raise ConfigError(["top level must be an object"])

    grid = None
    mass = data.get("mass", 1.0)
    if not _is_number(mass):
        problems.append(f"mass must be a number, got {mass!r}")
        mass = 1.0
    pts = data.get("grid")
    if pts is None:
        problems.append("missing grid")
    elif not (isinstance(pts, list) and all(_is_number(p) for p in pts)):
        problems.append(f"grid must be a list of JSON numbers, got {pts!r}")
    else:
        try:
            grid = RapidityGrid(tuple(float(p) for p in pts), float(mass))
        except ValueError as exc:
            problems.append(str(exc))
        except OverflowError:
            problems.append("grid points and mass must fit in a float")

    truncation = data.get("truncation")
    if not _is_int(truncation) or truncation < 1:
        problems.append(f"truncation must be a positive integer, got {truncation!r}")
        truncation = 1

    scattering = _check_scattering(data.get("scattering", {"family": "free"}), problems)
    omega = _build_omega(data.get("omega", {"family": "zero"}), problems)

    seed = data.get("seed", 0)
    if not _is_int(seed):
        problems.append(f"seed must be an integer, got {seed!r}")
        seed = 0

    instances = data.get("instances", 12)
    if not _is_int(instances) or instances < 1:
        problems.append(f"instances must be a positive integer, got {instances!r}")
        instances = 12

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        problems.append("tolerances must map check names to numbers")
        tolerances = {}
    for name, value in tolerances.items():
        if not (_is_finite(value) and value >= 0):
            problems.append(f"tolerance for {name!r} must be a finite non-negative "
                            f"number, got {value!r}")

    suites = tuple(data.get("suites", SUITES))
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        problems.append(f"unknown suites {unknown!r}")
        suites = tuple(s for s in suites if s in SUITES)

    if problems:
        raise ConfigError(problems)
    return RunConfig(grid=grid, truncation=truncation, scattering=scattering, omega=omega,
                     seed=seed, instances=instances,
                     tolerances={k: float(v) for k, v in tolerances.items()},
                     suites=suites)
