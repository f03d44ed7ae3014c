"""Augmented-space stochastic model: design box, conditional random variables,
and the limit-state evaluation contract.

The augmented space stacks a design point ``phi`` (uniform artificial prior
over the design box) with the random vector ``theta`` whose per-variable
normal parameters may be tied to design coordinates. A limit-state model maps
``(phi, theta)`` to a scalar performance and a failure flag derived from a
continuous margin (margin <= 0 is failure).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import FpfkitError
from .regions import RegionIndicator


@dataclass(frozen=True)
class DesignSpace:
    """Box of design variables carrying the uniform artificial prior."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ValueError("design space needs at least one dimension")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"invalid design bounds: ({lo}, {hi})")

    @property
    def ndim(self) -> int:
        return len(self.bounds)

    @property
    def lower(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds])

    @property
    def upper(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds])

    @property
    def volume(self) -> float:
        v = 1.0
        for lo, hi in self.bounds:
            v *= hi - lo
        return v

    def contains(self, phi: np.ndarray):
        """Closed-box membership (both boundaries included) of a point
        ``(d,)``, as a bool, or of rows ``(n, d)``, as an ``(n,)`` mask."""
        phi = np.asarray(phi, dtype=float)
        if phi.ndim not in (1, 2) or phi.shape[-1] != self.ndim:
            raise ValueError(f"expected phi of shape (..., {self.ndim}), got {phi.shape}")
        inside = np.all((phi >= self.lower) & (phi <= self.upper), axis=-1)
        return bool(inside) if phi.ndim == 1 else inside

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform design points, shape (n, ndim)."""
        return rng.uniform(self.lower, self.upper, size=(n, self.ndim))

    def region(self) -> RegionIndicator:
        """The whole box as a one-box region."""
        bounds = np.array(self.bounds, dtype=float)
        return RegionIndicator(bounds.T[None], tuple(bounds[:, 1].tolist()))


@dataclass(frozen=True)
class RandomVariableSpec:
    """Normal random variable whose parameters may follow a design coordinate.

    Exactly one of ``mean``/``mean_design`` must be given, and exactly one of
    ``std``/``cov``. A coefficient of variation multiplies the referenced
    design coordinate (``cov_design``, defaulting to ``mean_design``).
    """

    name: str
    family: str = "normal"
    mean: float | None = None
    mean_design: int | None = None
    std: float | None = None
    cov: float | None = None
    cov_design: int | None = None

    def __post_init__(self) -> None:
        if self.family != "normal":
            raise ValueError(f"unsupported family {self.family!r} for {self.name!r}")
        if (self.mean is None) == (self.mean_design is None):
            raise ValueError(f"{self.name!r}: give exactly one of mean, mean_design")
        if (self.std is None) == (self.cov is None):
            raise ValueError(f"{self.name!r}: give exactly one of std, cov")
        if self.std is not None and self.std <= 0:
            raise ValueError(f"{self.name!r}: std must be positive")
        if self.cov is not None:
            if self.cov <= 0:
                raise ValueError(f"{self.name!r}: cov must be positive")
            if self.cov_design is None and self.mean_design is None:
                raise ValueError(
                    f"{self.name!r}: cov needs a design coordinate reference"
                )


def resolve_parameters(
    specs: tuple[RandomVariableSpec, ...], phis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (mu, sigma) arrays of shape (n, n_theta) for design rows
    ``phis`` (n, d_phi), filled one spec's column at a time.

    A fixed mean or std fills its column as a scalar; a design-tied one is
    the (scaled) design column. Only design-tied stds need a positivity check,
    since ``RandomVariableSpec`` checks fixed ones when it is built.
    """
    phis = np.asarray(phis, dtype=float)
    mus = np.empty((phis.shape[0], len(specs)))
    sigmas = np.empty_like(mus)
    for j, spec in enumerate(specs):
        mus[:, j] = spec.mean if spec.mean is not None else phis[:, spec.mean_design]
        if spec.std is not None:
            sigmas[:, j] = spec.std
            continue
        ref = spec.cov_design if spec.cov_design is not None else spec.mean_design
        sigma = np.multiply(spec.cov, phis[:, ref], out=sigmas[:, j])
        if (sigma <= 0).any():
            raise ValueError(f"{spec.name!r}: resolved std is not positive")
    return mus, sigmas


@dataclass(frozen=True)
class SampleSet:
    """Failure samples of the augmented space as aligned arrays.

    ``phi`` (..., d_phi), ``theta`` (..., d_theta) and ``performance`` (...)
    share their leading axes: one row per sample, or (chains, steps) for chain
    output. Every sample the pipeline holds is a failure, so there is no flag.
    """

    phi: np.ndarray
    theta: np.ndarray
    performance: np.ndarray

    def __len__(self) -> int:
        return self.performance.shape[0]

    def __getitem__(self, index) -> "SampleSet":
        return SampleSet(self.phi[index], self.theta[index], self.performance[index])

    def flatten(self) -> "SampleSet":
        """Leading axes merged into rows, in C order (chain-major)."""
        n = self.performance.size
        return SampleSet(
            self.phi.reshape(n, -1), self.theta.reshape(n, -1), self.performance.reshape(n)
        )

    @staticmethod
    def concat(sets, axis: int = 0) -> "SampleSet":
        return SampleSet(
            np.concatenate([s.phi for s in sets], axis=axis),
            np.concatenate([s.theta for s in sets], axis=axis),
            np.concatenate([s.performance for s in sets], axis=axis),
        )


class LimitStateModel:
    """Evaluation contract: (phi, theta) -> (performance, failed).

    Failure is derived from a continuous margin of the performance value,
    failed iff margin(performance) <= 0, so the flag is consistent with the
    margin by construction. The evaluation counter is thread safe; evaluation
    itself must be pure (no state besides the counter).

    Subclasses implement ``performance_batch`` (vectorized over rows) and
    ``margin``; ``theta_valid_batch`` may reject physically meaningless draws
    so samplers can redraw instead of clamping. A non-finite performance is
    an error, never a safe outcome.
    """

    name = "model"

    def __init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()

    @property
    def n_evaluations(self) -> int:
        return self._count

    def performance_batch(self, phis: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def margin(self, performance):
        """Continuous failure margin; <= 0 iff failed. Accepts arrays."""
        raise NotImplementedError

    def theta_valid_batch(self, phis: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        return np.ones(thetas.shape[0], dtype=bool)

    def evaluate_batch(
        self, phis: np.ndarray, thetas: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        phis = np.asarray(phis, dtype=float)
        thetas = np.asarray(thetas, dtype=float)
        if phis.shape[0] != thetas.shape[0]:
            raise ValueError("phi/theta batch lengths differ")
        perf = np.asarray(self.performance_batch(phis, thetas), dtype=float)
        with self._lock:
            self._count += phis.shape[0]
        finite = np.isfinite(perf)
        if not finite.all():
            i = int(np.argmin(finite))
            raise FpfkitError(
                f"model {self.name!r} returned performance {float(perf[i])!r} at "
                f"phi={phis[i].tolist()}, theta={thetas[i].tolist()}"
            )
        return perf, np.asarray(self.margin(perf)) <= 0.0


_MAX_REDRAWS = 100


def _draw_theta(
    model: LimitStateModel,
    phis: np.ndarray,
    mu: np.ndarray,
    sigma: np.ndarray,
    rng: np.random.Generator,
    normals: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Fill ``out`` (n, k) with normal theta rows, redrawing the ones the model
    rejects; ``mu`` and ``sigma`` are (k,) or (n, k).

    ``normals`` is a C-ordered (n, k) buffer for the standard normals, which
    the stream fills row by row; it may be ``out`` itself, or ``out`` may be a
    column-major view so that each variable is contiguous for the model. The
    doubles are those of ``rng.normal(mu, sigma)``, which computes
    ``mu + sigma * z`` from the same standard normals, without its
    per-element broadcast or fresh temporaries.
    """
    rng.standard_normal(out=normals)
    np.multiply(normals, sigma, out=out)
    out += mu
    bad = ~model.theta_valid_batch(phis, out)
    tries = 0
    while np.any(bad):
        tries += 1
        if tries > _MAX_REDRAWS:
            raise RuntimeError("theta redraw limit exceeded; check variable specs")
        redraw = rng.standard_normal((int(np.count_nonzero(bad)), out.shape[1]))
        redraw *= np.broadcast_to(sigma, out.shape)[bad]
        redraw += np.broadcast_to(mu, out.shape)[bad]
        out[bad] = redraw
        bad = ~model.theta_valid_batch(phis, out)
    return out


def sample_theta(
    specs: tuple[RandomVariableSpec, ...],
    model: LimitStateModel,
    phis: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw theta rows conditional on each design row, redrawing invalid ones."""
    mus, sigmas = resolve_parameters(specs, phis)
    thetas = np.empty_like(mus)
    return _draw_theta(model, phis, mus, sigmas, rng, thetas, thetas)
