"""Benchmark limit states and the brute-force grid oracle.

The box-beam benchmark is a cantilever of length L with a hollow rectangular
section whose first natural frequency must avoid a resonance band. With the
Euler-Bernoulli first bending mode,

    omega_1 = lambda_1^2 * sqrt(E * I / (rho * A * L^4)),   lambda_1 = 1.87510...

designs (outer width, outer height) in [30, 50] mm with 2 mm walls give
omega_1 of roughly 836-1430 rad/s. The constructor's default band keeps the
classical (550, 600) rad/s setting, which this frequency model cannot reach
anywhere in that design box (its FPF is ~0 there); benchmark configs
therefore calibrate the band to bracket the low-design frequencies so the
failure probability spans several decades across the box. See
configs/beam.yaml for the calibrated setting used by the acceptance runs.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (
    MAX_REDRAWS,
    DesignSpace,
    LimitStateModel,
    RandomVariableSpec,
    resolve_parameters,
)

# first root of cos(x) * cosh(x) = -1 (clamped-free beam)
LAMBDA_1 = 1.8751040687119611

# rows an oracle point draws and evaluates at a time; bounds a worker's buffers
_ORACLE_BLOCK = 16384

# the beam's mean wall thickness, mm: the ``t`` spec's mean and the objective's wall
WALL_MM = 2.0


def _as_arrays(*values):
    """The broadcast shape of ``values`` and the values as float arrays of
    that shape, at least 1-d so that in-place ufuncs have arrays to write."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    return shape, np.broadcast_arrays(*(np.atleast_1d(a) for a in arrays))


def beam_section(b, h, t):
    """Area (mm^2) and second moment (mm^4) of a hollow rectangle.

    Outer dimensions must exceed twice the wall thickness.
    """
    shape, (b, h, t) = _as_arrays(b, h, t)
    t2 = 2 * t
    if np.any(b <= t2) or np.any(h <= t2):
        raise ValueError("outer dimensions must exceed twice the wall thickness")
    # three buffers, rounding as b * h - bi * hi and (b * h**3 - bi * hi**3) / 12
    bi = b - t2
    hi = np.subtract(h, t2, out=t2)
    outer = hi**3
    outer *= bi  # bi * hi**3
    hi *= bi  # bi * hi
    area = np.multiply(b, h, out=bi)
    area -= hi
    inertia = np.power(h, 3, out=hi)
    inertia *= b
    inertia -= outer
    inertia /= 12.0
    return area.reshape(shape)[()], inertia.reshape(shape)[()]


def objective_mean_area(phi: np.ndarray, wall: float = WALL_MM) -> np.ndarray:
    """Mean cross-sectional area ``(n,)`` of hollow rectangular sections at
    rows ``(n, 2)``, mm^2: ``beam_section``'s area at phi = (outer width,
    outer height) and wall thickness ``wall``, all at their mean values."""
    phi = np.asarray(phi, dtype=float)
    b, h = phi[:, 0], phi[:, 1]
    thin = (b <= 2 * wall) | (h <= 2 * wall)
    if thin.any():
        bad = phi[np.argmax(thin)]
        raise ValueError(f"section {bad[0]} x {bad[1]} too small for wall {wall}")
    return beam_section(b, h, wall)[0]


def beam_frequency(b, h, t, rho, e_gpa, length_mm: float = 500.0):
    """First natural frequency (rad/s) of the cantilever box beam.

    b, h, t in mm; rho in kg/m^3; e_gpa in GPa; length in mm.
    """
    shape, (b, h, t, rho, e_gpa) = _as_arrays(b, h, t, rho, e_gpa)
    area, inertia = beam_section(b, h, t)
    # in place, rounding as
    # LAMBDA_1**2 * sqrt(E[Pa] * I[m^4] / (rho * A[m^2] * L[m]**4))
    freq = e_gpa * 1e9
    inertia *= 1e-12
    freq *= inertia
    area *= 1e-6
    area *= rho
    area *= (length_mm * 1e-3) ** 4
    freq /= area
    np.sqrt(freq, out=freq)
    freq *= LAMBDA_1**2
    return freq.reshape(shape)[()]


class BoxBeamModel(LimitStateModel):
    """Failure: the first natural frequency falls inside a closed band.

    theta = (b, h, t, rho, E[GPa]); the design point sets the mean outer
    dimensions. Draws violating the section geometry are invalid (samplers
    redraw them rather than clamping).
    """

    name = "beam"

    def __init__(
        self, band: tuple[float, float] = (550.0, 600.0), length_mm: float = 500.0
    ) -> None:
        super().__init__()
        lo, hi = band
        if not lo < hi:
            raise ValueError(f"band must be an increasing pair, got {band}")
        if length_mm <= 0:
            raise ValueError("length must be positive")
        self.band = (float(lo), float(hi))
        self.length_mm = float(length_mm)

    def performance_batch(self, phis: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        b, h, t, rho, e = (thetas[:, j] for j in range(5))
        return beam_frequency(b, h, t, rho, e, self.length_mm)

    def margin(self, performance):
        lo, hi = self.band
        return np.maximum(lo - performance, performance - hi)

    def theta_valid_batch(self, phis: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        b, h, t, rho, e = (thetas[:, j] for j in range(5))
        t2 = 2 * t
        valid = b > t2
        valid &= h > t2
        valid &= t > 0
        valid &= rho > 0
        valid &= e > 0
        return valid


def beam_design_space() -> DesignSpace:
    return DesignSpace(((30.0, 50.0), (30.0, 50.0)))


def beam_variable_specs() -> tuple[RandomVariableSpec, ...]:
    """b, h follow the design point with 2% c.o.v.; t, rho, E are fixed normals."""
    return (
        RandomVariableSpec("b", mean_design=0, cov=0.02),
        RandomVariableSpec("h", mean_design=1, cov=0.02),
        RandomVariableSpec("t", mean=WALL_MM, std=0.1),
        RandomVariableSpec("rho", mean=7800.0, std=156.0),
        RandomVariableSpec("E", mean=210.0, std=4.2),
    )


class ToyModel(LimitStateModel):
    """1-d analytic case: failure {theta >= phi}, theta ~ N(0, 1).

    performance = phi - theta, so the margin is the performance itself and
    the exact FPF is Phi(-phi).
    """

    name = "toy"

    def performance_batch(self, phis: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        return phis[:, 0] - thetas[:, 0]

    def margin(self, performance):
        return performance


def toy_design_space() -> DesignSpace:
    return DesignSpace(((0.0, 4.0),))


def toy_variable_specs() -> tuple[RandomVariableSpec, ...]:
    return (RandomVariableSpec("theta", mean=0.0, std=1.0),)


def analytic_toy_fpf(phi: np.ndarray) -> np.ndarray:
    """Exact toy FPF ``(n,)`` at rows ``(n, 1)``: P(theta >= phi) = Phi(-phi),
    which is erfc(phi / sqrt(2)) / 2."""
    rows = np.asarray(phi, dtype=float)[:, 0]
    return np.fromiter(
        (0.5 * math.erfc(x / math.sqrt(2.0)) for x in rows.tolist()), float, rows.size
    )


class TableModel(LimitStateModel):
    """Synthetic limit state from a tabulated FPF grid.

    theta is a single standard normal; failure is {Phi(theta) <= pf(phi)}
    with pf bilinearly interpolated from the table, so the model's exact FPF
    is the table itself. Useful for validating the pipeline against a known
    surface.
    """

    name = "table"

    def __init__(self, axes: tuple[np.ndarray, ...], pf: np.ndarray) -> None:
        super().__init__()
        pf = np.asarray(pf, dtype=float)
        if not np.all((pf >= 0) & (pf <= 1)):
            raise ValueError("table pf values must lie in [0, 1]")
        if pf.shape != tuple(len(a) for a in axes):
            raise ValueError("table shape does not match its axes")
        from scipy import special
        from scipy.interpolate import RegularGridInterpolator

        self._interp = RegularGridInterpolator(axes, pf, method="linear")
        self._ndtr = special.ndtr
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)

    def design_space(self) -> DesignSpace:
        return DesignSpace(tuple((float(a[0]), float(a[-1])) for a in self.axes))

    def table_fpf(self, phis: np.ndarray) -> np.ndarray:
        """Tabulated FPF ``(n,)`` at rows ``(n, d)``."""
        return self._interp(phis)

    def performance_batch(self, phis: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        return self._ndtr(thetas[:, 0]) - self._interp(phis)

    def margin(self, performance):
        return performance


def table_variable_specs() -> tuple[RandomVariableSpec, ...]:
    return (RandomVariableSpec("u", mean=0.0, std=1.0),)


@dataclass(frozen=True)
class FPFGridOracle:
    """Direct Monte Carlo FPF estimates on a regular design grid."""

    points: np.ndarray
    pf: np.ndarray
    n: np.ndarray
    cov: np.ndarray
    bounds: tuple[tuple[float, float], ...]
    resolution: int

    @property
    def total_evaluations(self) -> int:
        return int(np.sum(self.n))


def grid_points(space: DesignSpace, resolution: int) -> np.ndarray:
    """Regular grid over the box, rows in lexicographic order (first axis
    slowest), endpoints included."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in space.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _point_estimate(
    model: LimitStateModel,
    specs: tuple[RandomVariableSpec, ...],
    phi: np.ndarray,
    n: int,
    seq: np.random.SeedSequence,
) -> tuple[float, float]:
    """Direct Monte Carlo ``(pf, cov)`` of ``n`` theta draws at the design ``phi``.

    The draws are the first ``n`` rows of the point's stream that the model
    accepts. The stream is read in blocks of at most ``_ORACLE_BLOCK`` rows,
    none larger than the count still needed, and a block's accepted rows are
    evaluated in one call. A point may draw ``MAX_REDRAWS * n`` rows; one
    that needs more raises ``RuntimeError``.
    """
    rng = np.random.Generator(np.random.PCG64(seq))
    (mu,), (sigma,) = resolve_parameters(specs, phi[None, :])
    size = min(_ORACLE_BLOCK, n)
    phis = np.broadcast_to(phi, (size, phi.size))
    # normals row-major as the stream fills them, theta variable-major for column reads
    normals = np.empty((size, mu.size))
    columns = np.empty((mu.size, size))

    # a call, so that a block's performance array is freed before the next block
    def count_failures(thetas: np.ndarray) -> int:
        _, failed = model.evaluate_batch(phis[: len(thetas)], thetas)
        return int(np.count_nonzero(failed))

    n_fail = drawn = 0
    needed = n
    while needed:
        m = min(size, needed)
        drawn += m
        if drawn > MAX_REDRAWS * n:
            raise RuntimeError("theta redraw limit exceeded; check variable specs")
        rng.standard_normal(out=normals[:m])
        block = columns[:, :m]
        np.multiply(normals[:m].T, sigma[:, None], out=block)
        block += mu[:, None]
        valid = model.theta_valid_batch(phis[:m], block.T)
        n_valid = int(np.count_nonzero(valid))
        if n_valid:
            n_fail += count_failures(block.T if n_valid == m else block[:, valid].T)
        needed -= n_valid
    pf = n_fail / n
    cov = math.sqrt((1.0 - pf) / (n * pf)) if pf > 0 else math.inf
    return pf, cov


def grid_dmcs_oracle(
    model: LimitStateModel,
    space: DesignSpace,
    specs: tuple[RandomVariableSpec, ...],
    resolution: int,
    n_per_point: int,
    seed_seq: np.random.SeedSequence,
    workers: int = 1,
) -> FPFGridOracle:
    """Fixed-design direct Monte Carlo on every gridpoint.

    Each point draws from its own spawned stream, so the result does not
    depend on worker scheduling and is reproducible for a given seed. A point
    counts the failures among the first ``n_per_point`` valid rows of its
    stream, drawn and evaluated in blocks of 16,384 rows, so a worker's
    buffers hold one block whatever ``n_per_point`` is. A point may draw 100
    rows per requested row; one that needs more raises ``RuntimeError``.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if n_per_point <= 0:
        raise ValueError("n_per_point must be positive")
    pts = grid_points(space, resolution)
    seqs = seed_seq.spawn(len(pts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        estimates = list(
            pool.map(
                lambda i: _point_estimate(model, specs, pts[i], n_per_point, seqs[i]),
                range(len(pts)),
            )
        )
    pf, cov = np.array(estimates).T
    return FPFGridOracle(
        points=pts,
        pf=pf,
        n=np.full(len(pts), n_per_point, dtype=int),
        cov=cov,
        bounds=space.bounds,
        resolution=resolution,
    )
