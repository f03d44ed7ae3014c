"""Orchestration of the three commands (run, grid, compare) and their
artifact trees. Manifests echo the resolved config, per-stage evaluation
counts, and sha256 checksums of every artifact; they contain no timestamps or
absolute paths, so a fixed config and seed reproduce the tree byte for byte.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import (
    density_record,
    level_record,
    load_oracle_csv,
    load_surface,
    load_table_csv,
    sha256_of,
    surface_record,
    write_csv,
    write_json,
    write_oracle_csv,
    write_samples_npy,
)
from .benchmarks import (
    BoxBeamModel,
    TableModel,
    ToyModel,
    analytic_toy_fpf,
    beam_design_space,
    beam_variable_specs,
    grid_dmcs_oracle,
    grid_points,
    objective_mean_area,
    table_variable_specs,
    toy_design_space,
    toy_variable_specs,
)
from .config import RunConfig
from .errors import ConfigError
from .model import DesignSpace
from .optimize import optimize
from .pipeline import run_pipeline
from .smoothing import extract_support_points, fit_surface, SmoothedFPF
from .streams import Streams

# the compare rule: judge oracle pf >= MIN_PF, pass when MIN_FRACTION of those
# points lie within TOL_LOG10 decades of the oracle
TOL_LOG10 = 0.3
MIN_PF = 1e-4
MIN_FRACTION = 0.9


def build_problem(config: RunConfig, base_dir: Path | None = None):
    """Model, design space, and variable specs for a run configuration."""
    kind = config.model.type
    if kind == "beam":
        model = BoxBeamModel(config.model.band)
        space = DesignSpace(config.bounds) if config.bounds else beam_design_space()
        specs = beam_variable_specs()
    elif kind == "toy":
        model = ToyModel()
        space = DesignSpace(config.bounds) if config.bounds else toy_design_space()
        specs = toy_variable_specs()
    elif kind == "table":
        path = Path(config.model.table_path)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        if not path.exists():
            raise ConfigError(f"table file not found: {path}")
        try:
            axes, values = load_table_csv(path)
            model = TableModel(axes, values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        specs = table_variable_specs()
        space = DesignSpace(config.bounds) if config.bounds else model.design_space()
        table_space = model.design_space()
        if space.ndim != table_space.ndim:
            raise ConfigError(
                f"design bounds: expected {table_space.ndim} pairs (one per table axis), "
                f"got {space.ndim}"
            )
        for (lo, hi), (tlo, thi) in zip(space.bounds, table_space.bounds):
            if lo < tlo or hi > thi:
                raise ConfigError(
                    f"design bounds ({lo}, {hi}) exceed the table grid ({tlo}, {thi})"
                )
    else:
        raise ConfigError(f"unknown model type {kind!r}")
    for spec in specs:
        axis = spec.mean_design
        if axis is not None and axis >= space.ndim:
            raise ConfigError(
                f"variable {spec.name!r} follows design axis {axis + 1}, but the "
                f"design bounds have {space.ndim} axes"
            )
    return model, space, specs


def _objective_for(model):
    if isinstance(model, BoxBeamModel):
        return objective_mean_area
    return lambda phi: np.sum(phi, axis=-1)


def _checksum_manifest(out_dir: Path, manifest: dict) -> None:
    files = sorted(
        p for p in out_dir.rglob("*") if p.is_file() and p.name != "manifest.json"
    )
    manifest["artifacts"] = {
        str(p.relative_to(out_dir)): sha256_of(p) for p in files
    }
    write_json(out_dir / "manifest.json", manifest)


def run_command(config: RunConfig, out_dir: Path, base_dir: Path | None = None) -> dict:
    """Full pipeline run: chain, surface, grids, optional optima, manifest."""
    model, space, specs = build_problem(config, base_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "levels").mkdir(exist_ok=True)
    streams = Streams(np.random.SeedSequence(config.seed))
    chain, approx = run_pipeline(model, space, specs, config.pipeline, streams)

    support = extract_support_points(chain)
    surface = fit_surface(support)
    smoothed = SmoothedFPF(surface, chain.pf, space)

    theta_names = [s.name for s in specs]
    for level in chain.levels:
        write_samples_npy(
            out_dir / "levels" / f"level_{level.index}_samples.npy", level.samples, theta_names
        )
        write_json(out_dir / "levels" / f"level_{level.index}.json", level_record(level))

    ndim = space.ndim
    phi_cols = [f"phi_{i + 1}" for i in range(ndim)]
    write_csv(
        out_dir / "support_points.csv",
        phi_cols + ["log_density", "level", "weight"],
        zip(*support.x.T, support.log_density, support.level, support.weight),
    )
    write_json(out_dir / "surface.json", surface_record(smoothed))

    pts = grid_points(space, config.output.fpf_grid_resolution)
    composite = approx.fpf(pts)
    smooth_vals = smoothed(pts)
    header = phi_cols + ["composite_fpf", "smoothed_fpf"]
    extra = []
    if isinstance(model, ToyModel):
        header.append("analytic_fpf")
        extra = [analytic_toy_fpf(pts)]
    elif isinstance(model, TableModel):
        header.append("table_fpf")
        extra = [model.table_fpf(pts)]
    write_csv(
        out_dir / "fpf_grid.csv",
        header,
        np.column_stack([pts, composite, smooth_vals, *extra]).tolist(),
    )

    grads = smoothed.gradient(pts)
    write_csv(
        out_dir / "gradient_grid.csv",
        phi_cols + ["smoothed_fpf"] + [f"grad_{i + 1}" for i in range(ndim)],
        np.column_stack([pts, smooth_vals, grads]).tolist(),
    )

    optima = []
    allowables = config.optimization.allowable
    if allowables:
        found = optimize(
            _objective_for(model), smoothed, space, allowables,
            [streams.generator() for _ in allowables],
        )
        at = np.arange(len(allowables)), found.best
        columns = (found.phi[at], found.objective[at], found.pf[at], found.feasible[at], found.active)
        optima = [
            {"allowable": a, "phi": phi, "objective": obj, "pf": pf, "feasible": ok, "active": act}
            for a, phi, obj, pf, ok, act in zip(allowables, *(c.tolist() for c in columns))
        ]
        n_starts = found.phi.shape[1]
        write_csv(
            out_dir / "optima.csv",
            ["allowable"] + phi_cols + ["objective", "pf", "feasible", "active", "n_starts"],
            ([o["allowable"], *o["phi"], o["objective"], o["pf"], o["feasible"], o["active"],
              n_starts] for o in optima),
        )

    total = chain.evaluations["total"]
    if total != model.n_evaluations:
        raise AssertionError(
            f"stage evaluation counts ({total}) disagree with the model counter "
            f"({model.n_evaluations})"
        )
    manifest = {
        "version": __version__,
        "command": "run",
        "seed": config.seed,
        "config": config.resolved(),
        "evaluations": chain.evaluations,
        "chain": {
            "n_iterations": chain.n_iterations,
            "n_regions": len(chain.regions),
            "pf": chain.pf,
            "pilot_cov": chain.pilot.cov,
            "pilot_method": chain.pilot.method,
            "stopping": chain.stopping,
            "ratios": list(chain.ratios),
            "weights": list(chain.weights),
            "thresholds": [level.threshold for level in chain.levels],
        },
        "optima": optima,
    }
    _checksum_manifest(out_dir, manifest)
    return manifest


def grid_command(
    config: RunConfig,
    out_dir: Path,
    base_dir: Path | None = None,
    resolution: int | None = None,
    n_per_point: int | None = None,
    workers: int = 1,
) -> dict:
    """Brute-force oracle over the design grid; writes oracle.csv."""
    res = resolution if resolution is not None else config.grid.resolution
    n = n_per_point if n_per_point is not None else config.grid.n_per_point
    if res < 2 or n < 1:
        raise ConfigError(f"need --resolution >= 2 and --per-point >= 1, got {res} and {n}")
    model, space, specs = build_problem(config, base_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    oracle = grid_dmcs_oracle(
        model, space, specs, res, n, np.random.SeedSequence(config.seed), workers
    )
    write_oracle_csv(out_dir / "oracle.csv", oracle)
    if oracle.total_evaluations != model.n_evaluations:
        raise AssertionError("oracle evaluation count disagrees with the model counter")
    manifest = {
        "version": __version__,
        "command": "grid",
        "seed": config.seed,
        "config": config.resolved(),
        "resolution": res,
        "n_per_point": n,
        "evaluations": {"total": oracle.total_evaluations},
    }
    _checksum_manifest(out_dir, manifest)
    return manifest


def compare_command(run_dir: Path, oracle_path: Path, out_dir: Path) -> tuple[bool, dict]:
    """Per-point log10 comparison of a run's smoothed FPF against an oracle.

    Points with oracle pf below ``MIN_PF`` are reported but not judged. The
    comparison passes when at least ``MIN_FRACTION`` of the judged points are
    within ``TOL_LOG10`` decades.
    """
    run_dir = Path(run_dir)
    surface_path = run_dir / "surface.json"
    if not surface_path.exists():
        raise ConfigError(f"run directory has no surface.json: {run_dir}")
    oracle_path = Path(oracle_path)
    if oracle_path.is_dir():
        oracle_path = oracle_path / "oracle.csv"
    if not oracle_path.exists():
        raise ConfigError(f"oracle file not found: {oracle_path}")
    try:
        smoothed = load_surface(surface_path)
        oracle = load_oracle_csv(oracle_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    mine = tuple((float(lo), float(hi)) for lo, hi in smoothed.space.bounds)
    theirs = tuple((float(lo), float(hi)) for lo, hi in oracle.bounds)
    if len(mine) != len(theirs) or any(
        abs(a - c) > 1e-9 or abs(b - d) > 1e-9
        for (a, b), (c, d) in zip(mine, theirs)
    ):
        raise ConfigError(
            f"design spaces differ: run has {mine}, oracle has {theirs}"
        )

    try:
        estimates = smoothed(oracle.points)
    except OverflowError as exc:
        raise ConfigError(f"{surface_path}: surface values overflow on the oracle grid ({exc})")
    if not estimates.all():
        phi = oracle.points[np.argmin(estimates)].tolist()
        raise ConfigError(f"{surface_path}: surface value underflows to 0 at oracle point {phi}")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ndim = oracle.points.shape[1]
    rows = []
    judged = 0
    within = 0
    abs_ratios = []
    for phi, opf, mpf in zip(oracle.points, oracle.pf.tolist(), estimates.tolist()):
        if opf > 0.0:
            ratio = math.log10(mpf / opf)
        else:
            ratio = math.nan
        include = opf >= MIN_PF
        ok = include and abs(ratio) <= TOL_LOG10
        if include:
            judged += 1
            abs_ratios.append(abs(ratio))
            if ok:
                within += 1
        rows.append(list(phi) + [opf, mpf, ratio, include, ok])
    fraction = within / judged if judged else 0.0
    passed = judged > 0 and fraction >= MIN_FRACTION
    summary = {
        "n_points": len(oracle.points),
        "n_judged": judged,
        "n_within": within,
        "fraction_within": fraction,
        "tol_log10": TOL_LOG10,
        "min_pf": MIN_PF,
        "min_fraction": MIN_FRACTION,
        "max_abs_log10": max(abs_ratios) if abs_ratios else None,
        "median_abs_log10": float(np.median(abs_ratios)) if abs_ratios else None,
        "pass": passed,
    }
    write_csv(
        out_dir / "comparison.csv",
        [f"phi_{i + 1}" for i in range(ndim)]
        + ["oracle_pf", "smoothed_fpf", "log10_ratio", "judged", "within"],
        rows,
    )
    write_json(out_dir / "comparison.json", summary)
    return passed, summary
