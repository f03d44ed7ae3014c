"""Run configuration: a single YAML file, validated with every problem
reported at once, and echoed fully resolved (defaults included) into the run
manifest. Field reference: docs/config-schema.md."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError
from .pipeline import BSPParams, PipelineConfig, SubsetParams
from .reliability import P0


@dataclass(frozen=True)
class ModelConfig:
    type: str = "toy"
    band: tuple[float, float] | None = None
    table_path: str | None = None


@dataclass(frozen=True)
class OptimizationConfig:
    allowable: tuple[float, ...] = ()


@dataclass(frozen=True)
class GridConfig:
    resolution: int = 21
    n_per_point: int = 130000


@dataclass(frozen=True)
class OutputConfig:
    fpf_grid_resolution: int = 21


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    bounds: tuple[tuple[float, float], ...] | None = None
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    optimization: OptimizationConfig = field(default_factory=OptimizationConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def with_seed(self, seed: int) -> "RunConfig":
        return dataclasses.replace(self, seed=seed)

    def resolved(self) -> dict:
        """Fully resolved mapping (defaults applied) for the manifest."""

        def convert(obj):
            if dataclasses.is_dataclass(obj):
                return {
                    f.name: convert(getattr(obj, f.name))
                    for f in dataclasses.fields(obj)
                }
            if isinstance(obj, tuple):
                return [convert(v) for v in obj]
            return obj

        return convert(self)


class _Reader:
    """Pulls typed values out of nested mappings, accumulating errors. Each
    hand-read key is popped from a copy of its section before ``fields``."""

    def __init__(self, errors: list[str]):
        self.errors = errors

    def section(self, mapping: dict, key: str, path: str) -> dict:
        val = mapping.pop(key, None)
        if val is None:
            return {}
        if not isinstance(val, dict):
            self.errors.append(f"{path}{key}: expected a mapping")
            return {}
        return dict(val)

    def value(self, val, path: str, kind: type, check=None, note: str = ""):
        """``val`` coerced to ``kind``, or None once its problem is recorded."""
        if kind is float and isinstance(val, int) and not isinstance(val, bool):
            val = float(val)
        if kind is int and isinstance(val, float) and val.is_integer():
            val = int(val)
        if not isinstance(val, kind) or isinstance(val, bool):
            self.errors.append(f"{path}: expected {kind.__name__}")
            return None
        if kind is float and not math.isfinite(val):
            self.errors.append(f"{path}: must be finite")
            return None
        if check is not None and not check(val):
            self.errors.append(f"{path}: {note}")
            return None
        return val

    def required(self, mapping: dict, key: str, path: str, kind: type, check, note):
        val = mapping.pop(key, None)
        if val is not None:
            val = self.value(val, path + key, kind, check, note)
        if val is None:
            self.errors.append(f"{path}{key}: required")
        return val

    def fields(self, mapping: dict, table: dict, path: str, **read) -> dict:
        """The valid settings ``mapping`` sets, with the ``read`` values that
        are set; keys outside ``table`` are unknown."""
        out = {key: val for key, val in read.items() if val is not None}
        for key, val in mapping.items():
            if key not in table:
                self.errors.append(f"{path}{key}: unknown key")
            elif val is not None:
                val = self.value(val, path + key, *table[key])
                if val is not None:
                    out[key] = val
        return out


_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_0 = (lambda v: v >= 0, "must be >= 0")
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_AT_LEAST_2 = (lambda v: v >= 2, "must be >= 2")
_OPEN_UNIT = (lambda v: 0 < v < 1, "must lie in (0, 1)")

# The scalar settings of each section: key -> (type, check, message).
_MODEL = {"table_path": (str,)}
_PIPELINE = {
    "pilot_budget": (int, *_POSITIVE),
    "iteration_budget": (int, *_POSITIVE),
    "max_iterations": (int, *_AT_LEAST_0),
    "mass_ratio": (float, *_OPEN_UNIT),
    "pf_floor": (float, *_POSITIVE),
}
_BSP = {"max_leaves": (int, *_AT_LEAST_2)}
_SUBSET = {"max_levels": (int, *_AT_LEAST_1)}
_GRID = {"resolution": (int, *_AT_LEAST_2), "n_per_point": (int, *_POSITIVE)}
_OUTPUT = {"fpf_grid_resolution": (int, *_AT_LEAST_2)}


def _parse_bounds(raw, errors: list[str], path: str):
    if raw is None:
        return None
    try:
        bounds = tuple((float(lo), float(hi)) for lo, hi in raw)
    except (TypeError, ValueError):
        errors.append(f"{path}: expected a list of [lo, hi] pairs")
        return None
    for lo, hi in bounds:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            errors.append(f"{path}: bound ({lo}, {hi}) is not finite")
            return None
        if not lo < hi:
            errors.append(f"{path}: bound ({lo}, {hi}) is not increasing")
            return None
    return bounds


def _parse_allowable(raw, errors: list[str]):
    if raw is None:
        return None
    try:
        values = tuple(float(v) for v in raw)
    except (TypeError, ValueError):
        errors.append("optimization.allowable: expected a list of numbers")
        return None
    if not all(0 < v < 1 for v in values):
        errors.append("optimization.allowable: values must lie in (0, 1)")
    return values


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed mapping; raises ConfigError listing all problems."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    errors: list[str] = []
    r = _Reader(errors)
    data = dict(data)
    seed = r.required(data, "seed", "", int, *_AT_LEAST_0)

    m = r.section(data, "model", "")
    mtype = r.required(m, "type", "model.", str,
                       lambda v: v in ("beam", "toy", "table"),
                       "must be one of beam, toy, table")
    band_raw = m.pop("band", None)
    band = None
    if band_raw is not None:
        try:
            low, high = (float(v) for v in band_raw)
        except (TypeError, ValueError):
            errors.append("model.band: expected [low, high]")
        else:
            band = (low, high)
            if not low < high:
                errors.append("model.band: must be an increasing pair")
    model = ModelConfig(**r.fields(m, _MODEL, "model.", type=mtype, band=band))
    if model.type == "beam" and band_raw is None:
        errors.append("model.band: required for the beam model")
    if model.type == "table" and model.table_path is None:
        errors.append("model.table_path: required for the table model")

    ds = r.section(data, "design_space", "")
    bounds = _parse_bounds(ds.pop("bounds", None), errors, "design_space.bounds")
    r.fields(ds, {}, "design_space.")

    p = r.section(data, "pipeline", "")
    bsp, su = (r.section(p, key, "pipeline.") for key in ("bsp", "subset"))
    pipeline = PipelineConfig(**r.fields(
        p, _PIPELINE, "pipeline.",
        bsp=BSPParams(**r.fields(bsp, _BSP, "pipeline.bsp.")),
        subset=SubsetParams(**r.fields(su, _SUBSET, "pipeline.subset.")),
    ))
    n0 = pipeline.pilot_budget * P0
    if abs(n0 - round(n0)) > 1e-9 or round(n0) < 2:
        errors.append(
            f"pipeline.pilot_budget: times subset simulation's level probability {P0} "
            "must be an integer >= 2 (needed if the pilot escalates to subset simulation)"
        )

    o = r.section(data, "optimization", "")
    # An absent key or an empty list means no optimization.
    allowable = _parse_allowable(o.pop("allowable", None), errors)
    optimization = OptimizationConfig(**r.fields(o, {}, "optimization.", allowable=allowable))

    grid = GridConfig(**r.fields(r.section(data, "grid", ""), _GRID, "grid."))
    output = OutputConfig(**r.fields(r.section(data, "output", ""), _OUTPUT, "output."))
    r.fields(data, {}, "")  # every top-level key left over is unknown

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return RunConfig(
        seed=seed,
        model=model,
        bounds=bounds,
        pipeline=pipeline,
        optimization=optimization,
        grid=grid,
        output=output,
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a YAML run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if data is None:
        raise ConfigError("config file is empty")
    return parse_config(data)
