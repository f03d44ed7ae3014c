"""Artifact serialization: deterministic CSV/JSON/NPY writers and loaders.

Text floats are written with repr (shortest round-trip form) and sample
tables as exact binary, so artifacts from a fixed seed are byte-identical
across runs and reload to bit-identical surfaces.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from .bsp import BinaryPartition, PiecewiseConstantDensity
from .model import DesignSpace, SampleSet
from .pipeline import PartitionLevel, RegionChainResult
from .smoothing import RegressionSurface, SmoothedFPF


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    path.write_text(buf.getvalue())


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- samples ---


def write_samples_npy(path: Path, samples: SampleSet, theta_names: list[str]) -> None:
    """One float64 record per sample (all failures): phi_1..phi_d, theta_names, performance."""
    names = [f"phi_{i + 1}" for i in range(samples.phi.shape[1])] + theta_names + ["performance"]
    table = np.hstack([samples.phi, samples.theta, samples.performance[:, None]])
    np.save(path, table.view([(name, np.float64) for name in names])[:, 0], allow_pickle=False)


# ----------------------------------------------------------- grid oracles ---


def write_oracle_csv(path: Path, oracle) -> None:
    ndim = oracle.points.shape[1]
    header = [f"phi_{i + 1}" for i in range(ndim)] + ["pf_hat", "n", "cov"]
    rows = (
        list(oracle.points[i]) + [oracle.pf[i], int(oracle.n[i]), oracle.cov[i]]
        for i in range(len(oracle.points))
    )
    write_csv(path, header, rows)


def _read_numeric_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and a float table of a CSV; ValueError names the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        data = [row for row in reader]
    if header is None or not data:
        raise ValueError(f"{path}: expected a header and at least one row")
    try:
        arr = np.array([[float(v) for v in row] for row in data])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if arr.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {arr.shape[1]} cells, the header {len(header)}")
    return header, arr


def _grid_index(path: Path, points: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Distinct values of each coordinate column, and the flat index of each
    row into the grid they span; ValueError unless every grid point is a
    row exactly once."""
    axes = tuple(np.unique(column) for column in points.T)
    shape = tuple(len(a) for a in axes)
    if math.prod(shape) == len(points):
        idx = tuple(np.searchsorted(a, column) for a, column in zip(axes, points.T))
        flat = np.ravel_multi_index(idx, shape)
        if np.unique(flat).size == len(points):
            return axes, flat
    raise ValueError(f"{path}: points do not form a full factorial grid")


def load_oracle_csv(path: Path):
    """Read a grid oracle CSV back into points/pf/n/cov arrays.

    The grid must be full factorial, each point once; bounds and resolution
    are recovered from the coordinate columns. Every cell is finite, except
    a cov of +inf at a point without failures; pf_hat lies in [0, 1] and n
    is a positive whole number.
    """
    from .benchmarks import FPFGridOracle

    header, arr = _read_numeric_csv(path)
    ndim = sum(1 for name in header if name.startswith("phi_"))
    if ndim == 0 or header[:ndim] != [f"phi_{i + 1}" for i in range(ndim)]:
        raise ValueError(f"{path}: expected leading phi_1..phi_n columns")
    for name in ("pf_hat", "n", "cov"):
        if name not in header:
            raise ValueError(f"{path}: missing column {name}")
    finite = np.isfinite(arr)
    finite[:, header.index("cov")] |= arr[:, header.index("cov")] == np.inf
    if not finite.all():
        raise ValueError(f"{path}: a cell is not a finite number")
    points = arr[:, :ndim]
    pf = arr[:, header.index("pf_hat")]
    n = arr[:, header.index("n")]
    cov = arr[:, header.index("cov")]
    if not ((pf >= 0) & (pf <= 1)).all():
        raise ValueError(f"{path}: pf_hat values must lie in [0, 1]")
    if not ((n >= 1) & (n == np.floor(n))).all():
        raise ValueError(f"{path}: n values must be positive whole numbers")
    uniques = _grid_index(path, points)[0]
    res = len(uniques[0])
    if any(len(u) != res for u in uniques):
        raise ValueError(f"{path}: points do not form a full factorial grid")
    bounds = tuple((float(u[0]), float(u[-1])) for u in uniques)
    return FPFGridOracle(points, pf, n.astype(int), cov, bounds, res)


def load_table_csv(path: Path):
    """Tabulated FPF grid (phi_1..phi_n, pf) -> (axes, values) for TableModel.
    Every grid point must be a row exactly once, and every cell finite."""
    header, arr = _read_numeric_csv(path)
    ndim = sum(1 for name in header if name.startswith("phi_"))
    if ndim == 0 or "pf" not in header:
        raise ValueError(f"{path}: expected phi_1..phi_n and pf columns")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: a cell is not a finite number")
    axes, flat = _grid_index(path, arr[:, :ndim])
    values = np.empty(len(flat))
    values[flat] = arr[:, header.index("pf")]
    return axes, values.reshape(tuple(len(a) for a in axes))


# -------------------------------------------------------------- partitions ---


def _node_record(part: BinaryPartition, node: int = 0) -> dict:
    axis, position, low, high, leaf = part.nodes[node].item()
    if leaf >= 0:
        lo, hi = part.boxes[leaf].tolist()
        return {"leaf": {"lo": lo, "hi": hi, "n": int(part.counts[leaf])}}
    return {
        "axis": axis,
        "position": position,
        "low": _node_record(part, low),
        "high": _node_record(part, high),
    }


def density_record(density: PiecewiseConstantDensity) -> dict:
    part = density.partition
    return {
        "domain_lo": list(part.lo),
        "domain_hi": list(part.hi),
        "n_samples": part.n_samples,
        "tree": _node_record(part),
        "alpha": density.alpha,
        "beta": density.beta,
        "log_score": density.log_score,
        "masses": [float(m) for m in density.masses],
    }


def _boxes_record(boxes: np.ndarray) -> list:
    return [{"lo": lo, "hi": hi} for lo, hi in boxes.tolist()]


def level_record(level: PartitionLevel) -> dict:
    cell_pieces = np.split(level.pieces, np.flatnonzero(np.diff(level.piece_cell)) + 1)
    return {
        "index": level.index,
        "captured": level.captured,
        "threshold": level.threshold,
        "ratio": level.ratio,
        "weight": level.weight,
        "n_samples": len(level.samples),
        "region": _boxes_record(level.region.boxes),
        "high_region": _boxes_record(level.high_region.boxes),
        "low_region": _boxes_record(level.low_region.boxes),
        "cells": [
            {"pieces": _boxes_record(p), "volume": v, "mass": m, "density": dn, "low": lo}
            for p, v, m, dn, lo in zip(
                cell_pieces, level.volumes.tolist(), level.masses.tolist(),
                level.densities.tolist(), level.low_mask.tolist(),
            )
        ],
        "estimate": density_record(level.raw),
    }


# ---------------------------------------------------------------- surfaces ---


def surface_record(smoothed: SmoothedFPF) -> dict:
    s = smoothed.surface
    return {
        "x": [[float(v) for v in row] for row in s.x],
        "coef": [float(v) for v in s.coef],
        "length_scales": [float(v) for v in s.length_scales],
        "signal_var": s.signal_var,
        "noise_floor": s.noise_floor,
        "y_mean": s.y_mean,
        "pf": smoothed.pf,
        "bounds": [[lo, hi] for lo, hi in smoothed.space.bounds],
    }


def surface_from_record(rec: dict) -> SmoothedFPF:
    """The smoothed FPF of a surface record. Raises ValueError unless ``x`` is
    (n, d) with one column per bound, ``coef`` is (n,), ``length_scales`` is
    (d,) and positive, ``signal_var`` and ``noise_floor`` are positive, and
    every number is finite."""
    surface = RegressionSurface(
        x=np.array(rec["x"], dtype=float),
        coef=np.array(rec["coef"], dtype=float),
        length_scales=np.array(rec["length_scales"], dtype=float),
        signal_var=rec["signal_var"],
        noise_floor=rec["noise_floor"],
        y_mean=rec["y_mean"],
    )
    space = DesignSpace(tuple((float(lo), float(hi)) for lo, hi in rec["bounds"]))
    x, coef, scales, d = surface.x, surface.coef, surface.length_scales, space.ndim
    if x.ndim != 2 or x.shape[1] != d or coef.shape != x.shape[:1] or scales.shape != (d,):
        raise ValueError(
            f"shapes x {x.shape}, coef {coef.shape} and length_scales {scales.shape} "
            f"do not fit {d} design axes"
        )
    numbers = [surface.signal_var, surface.noise_floor, surface.y_mean, rec["pf"]]
    if not all(np.isfinite(a).all() for a in (x, coef, scales, numbers, space.lower, space.upper)):
        raise ValueError("every number of a surface must be finite")
    if not (np.all(scales > 0) and surface.signal_var > 0 and surface.noise_floor > 0):
        raise ValueError("length_scales, signal_var and noise_floor must be positive")
    return SmoothedFPF(surface, rec["pf"], space)


def load_surface(path: Path) -> SmoothedFPF:
    """Raises ValueError naming the file when it is not a surface record."""
    try:
        return surface_from_record(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a surface record ({type(exc).__name__}: {exc})") from None
