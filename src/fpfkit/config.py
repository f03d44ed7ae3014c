"""Run configuration: a single YAML file, validated with every problem
reported at once, and echoed fully resolved (defaults included) into the run
manifest. Field reference: docs/config-schema.md."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError
from .pipeline import BSPParams, PipelineConfig, SubsetParams
from .reliability import ChainParams


@dataclass(frozen=True)
class ModelConfig:
    type: str = "toy"
    band: tuple[float, float] = (550.0, 600.0)
    length_mm: float = 500.0
    table_path: str | None = None


@dataclass(frozen=True)
class SmoothingConfig:
    noise_floor: float = 1e-4
    length_scales: tuple[float, ...] | None = None


@dataclass(frozen=True)
class OptimizationConfig:
    allowable: tuple[float, ...] = ()
    wall_mm: float = 2.0


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
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
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
    """Pulls typed values out of nested mappings, accumulating errors."""

    def __init__(self, errors: list[str]):
        self.errors = errors

    def section(self, mapping: dict, key: str, path: str) -> dict:
        val = mapping.get(key)
        if val is None:
            return {}
        if not isinstance(val, dict):
            self.errors.append(f"{path}{key}: expected a mapping")
            return {}
        return val

    def value(self, mapping, key, default, kind, path, check=None, note=""):
        if key not in mapping or mapping[key] is None:
            return default
        val = mapping[key]
        if kind is float and isinstance(val, int) and not isinstance(val, bool):
            val = float(val)
        if kind is int and isinstance(val, float) and val.is_integer():
            val = int(val)
        if not isinstance(val, kind) or isinstance(val, bool):
            self.errors.append(f"{path}{key}: expected {kind.__name__}")
            return default
        if check is not None and not check(val):
            self.errors.append(f"{path}{key}: {note}")
            return default
        return val

    def reject_unknown(self, mapping: dict, known: set[str], path: str) -> None:
        for key in mapping:
            if key not in known:
                self.errors.append(f"{path}{key}: unknown key")


def _parse_bounds(raw, errors: list[str], path: str):
    if raw is None:
        return None
    try:
        bounds = tuple((float(lo), float(hi)) for lo, hi in raw)
    except (TypeError, ValueError):
        errors.append(f"{path}: expected a list of [lo, hi] pairs")
        return None
    for lo, hi in bounds:
        if not lo < hi:
            errors.append(f"{path}: bound ({lo}, {hi}) is not increasing")
            return None
    return bounds


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed mapping; raises ConfigError listing all problems."""
    errors: list[str] = []
    r = _Reader(errors)
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    r.reject_unknown(
        data,
        {"seed", "model", "design_space", "pipeline", "smoothing",
         "optimization", "grid", "output"},
        "",
    )

    seed = r.value(data, "seed", None, int, "", lambda v: v >= 0, "must be >= 0")
    if seed is None:
        errors.append("seed: required")
        seed = 0

    m = r.section(data, "model", "")
    r.reject_unknown(m, {"type", "band", "length_mm", "table_path"}, "model.")
    mtype = r.value(m, "type", None, str, "model.",
                    lambda v: v in ("beam", "toy", "table"),
                    "must be one of beam, toy, table")
    if mtype is None:
        errors.append("model.type: required")
        mtype = "toy"
    band_raw = m.get("band")
    band = (550.0, 600.0)
    if band_raw is not None:
        try:
            band = (float(band_raw[0]), float(band_raw[1]))
            if not band[0] < band[1]:
                errors.append("model.band: must be an increasing pair")
        except (TypeError, ValueError, IndexError):
            errors.append("model.band: expected [low, high]")
    length = r.value(m, "length_mm", 500.0, float, "model.",
                     lambda v: v > 0, "must be positive")
    table_path = r.value(m, "table_path", None, str, "model.")
    if mtype == "table" and table_path is None:
        errors.append("model.table_path: required for the table model")
    model = ModelConfig(mtype, band, length, table_path)

    ds = r.section(data, "design_space", "")
    r.reject_unknown(ds, {"bounds"}, "design_space.")
    bounds = _parse_bounds(ds.get("bounds"), errors, "design_space.bounds")

    p = r.section(data, "pipeline", "")
    r.reject_unknown(
        p,
        {"pilot_budget", "iteration_budget", "max_iterations", "mass_ratio",
         "pf_floor", "bsp", "mmh", "subset"},
        "pipeline.",
    )
    pilot = r.value(p, "pilot_budget", 8000, int, "pipeline.",
                    lambda v: v > 0, "must be positive")
    iter_budget = r.value(p, "iteration_budget", 8000, int, "pipeline.",
                          lambda v: v > 0, "must be positive")
    max_iter = r.value(p, "max_iterations", 4, int, "pipeline.",
                       lambda v: v >= 0, "must be >= 0")
    ratio = r.value(p, "mass_ratio", 0.1, float, "pipeline.",
                    lambda v: 0 < v < 1, "must lie in (0, 1)")
    floor = r.value(p, "pf_floor", 1e-4, float, "pipeline.",
                    lambda v: v > 0, "must be positive")
    b = r.section(p, "bsp", "pipeline.")
    r.reject_unknown(b, {"alpha", "beta", "particles", "max_leaves"}, "pipeline.bsp.")
    bsp = BSPParams(
        alpha=r.value(b, "alpha", 0.5, float, "pipeline.bsp.",
                      lambda v: v > 0, "must be positive"),
        beta=r.value(b, "beta", None, float, "pipeline.bsp."),
        particles=r.value(b, "particles", 100, int, "pipeline.bsp.",
                          lambda v: v >= 1, "must be >= 1"),
        max_leaves=r.value(b, "max_leaves", 64, int, "pipeline.bsp.",
                           lambda v: v >= 2, "must be >= 2"),
    )
    mm = r.section(p, "mmh", "pipeline.")
    r.reject_unknown(mm, {"burn_in", "max_chains", "scale_factor"}, "pipeline.mmh.")
    chains = ChainParams(
        burn_in=r.value(mm, "burn_in", 10, int, "pipeline.mmh.",
                        lambda v: v >= 0, "must be >= 0"),
        max_chains=r.value(mm, "max_chains", 100, int, "pipeline.mmh.",
                           lambda v: v >= 1, "must be >= 1"),
        scale_factor=r.value(mm, "scale_factor", 1.0, float, "pipeline.mmh.",
                             lambda v: v > 0, "must be positive"),
    )
    su = r.section(p, "subset", "pipeline.")
    r.reject_unknown(su, {"p0", "max_levels"}, "pipeline.subset.")
    subset = SubsetParams(
        p0=r.value(su, "p0", 0.1, float, "pipeline.subset.",
                   lambda v: 0 < v < 1, "must lie in (0, 1)"),
        max_levels=r.value(su, "max_levels", 8, int, "pipeline.subset.",
                           lambda v: v >= 1, "must be >= 1"),
    )
    n0 = pilot * subset.p0
    if abs(n0 - round(n0)) > 1e-9 or round(n0) < 2:
        errors.append(
            "pipeline.pilot_budget: times subset.p0 must be an integer >= 2 "
            "(needed if the pilot escalates to subset simulation)"
        )

    s = r.section(data, "smoothing", "")
    r.reject_unknown(s, {"noise_floor", "length_scales"}, "smoothing.")
    noise = r.value(s, "noise_floor", 1e-4, float, "smoothing.",
                    lambda v: v > 0, "must be positive")
    scales_raw = s.get("length_scales")
    scales = None
    if scales_raw is not None:
        try:
            scales = tuple(float(v) for v in scales_raw)
            if not scales:
                errors.append("smoothing.length_scales: must not be empty")
            elif any(v <= 0 for v in scales):
                errors.append("smoothing.length_scales: must be positive")
        except (TypeError, ValueError):
            errors.append("smoothing.length_scales: expected a list of numbers")
    smoothing = SmoothingConfig(noise, scales)

    o = r.section(data, "optimization", "")
    r.reject_unknown(o, {"allowable", "wall_mm"}, "optimization.")
    allow_raw = o.get("allowable", [])
    allowable: tuple[float, ...] = ()
    if allow_raw:
        try:
            allowable = tuple(float(v) for v in allow_raw)
            if any(not 0 < v < 1 for v in allowable):
                errors.append("optimization.allowable: values must lie in (0, 1)")
        except (TypeError, ValueError):
            errors.append("optimization.allowable: expected a list of numbers")
    wall = r.value(o, "wall_mm", 2.0, float, "optimization.",
                   lambda v: v > 0, "must be positive")
    optimization = OptimizationConfig(allowable, wall)

    g = r.section(data, "grid", "")
    r.reject_unknown(g, {"resolution", "n_per_point"}, "grid.")
    grid = GridConfig(
        resolution=r.value(g, "resolution", 21, int, "grid.",
                           lambda v: v >= 2, "must be >= 2"),
        n_per_point=r.value(g, "n_per_point", 130000, int, "grid.",
                            lambda v: v > 0, "must be positive"),
    )

    out = r.section(data, "output", "")
    r.reject_unknown(out, {"fpf_grid_resolution"}, "output.")
    output = OutputConfig(
        fpf_grid_resolution=r.value(out, "fpf_grid_resolution", 21, int, "output.",
                                    lambda v: v >= 2, "must be >= 2"),
    )

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return RunConfig(
        seed=seed,
        model=model,
        bounds=bounds,
        pipeline=PipelineConfig(
            pilot_budget=pilot,
            iteration_budget=iter_budget,
            max_iterations=max_iter,
            mass_ratio=ratio,
            pf_floor=floor,
            bsp=bsp,
            chains=chains,
            subset=subset,
        ),
        smoothing=smoothing,
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
