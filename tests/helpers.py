"""Reference helpers that only the tests use."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy import special

from fpfkit.bsp import (
    _NODE,
    BinaryPartition,
    PiecewiseConstantDensity,
    _posterior_masses,
    _systematic_resample,
)
from fpfkit.benchmarks import LAMBDA_1
from fpfkit.model import DesignSpace, resolve_parameters
from fpfkit.pipeline import threshold_from_ratio
from fpfkit.regions import box_volumes
from fpfkit.smoothing import _MULT_GRID, _NOISE_FRACTIONS, RegressionSurface, SmoothedFPF


# log Gamma from the C library's lgamma, as the search takes it
loggamma = np.vectorize(math.lgamma, otypes=[float])


def log_partition_score(partition: BinaryPartition, alpha: float, beta: float) -> float:
    """Log posterior score of a partition (up to the data-only constant)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    t = partition.n_leaves
    n_total = partition.n_samples
    counts = partition.counts.astype(float)
    log_vols = np.array([math.log(v) for v in box_volumes(partition.boxes).tolist()])
    score = -beta * t
    score += float(np.sum(loggamma(counts + alpha))) - math.lgamma(n_total + t * alpha)
    score -= t * math.lgamma(alpha) - math.lgamma(t * alpha)
    score -= float(np.sum(counts * log_vols))
    return float(score)


def disjoint_volume_check(boxes: np.ndarray, tol: float = 1e-9) -> bool:
    """True when no pair of rows of a (n, 2, d) box array overlaps with
    positive volume."""
    boxes = np.asarray(boxes, dtype=float)
    lo = np.maximum(boxes[:, None, 0], boxes[None, :, 0])
    hi = np.minimum(boxes[:, None, 1], boxes[None, :, 1])
    overlap = np.prod(np.clip(hi - lo, 0.0, None), axis=-1)
    np.fill_diagonal(overlap, 0.0)
    return not np.any(overlap > tol)


def box_contains(box, x: np.ndarray, upper: tuple[float, ...]) -> bool:
    """Per-point membership reference for one ``[lo, hi]`` box: half-open,
    closed where a face sits on the space's upper bound ``upper``."""
    lo, hi = box
    for d in range(len(lo)):
        if x[d] < lo[d] or x[d] > hi[d]:
            return False
        if x[d] == hi[d] and hi[d] != upper[d]:
            return False
    return True


def _box_intersect(a, b):
    """Overlap of two ``(lo, hi)`` tuple boxes, axis by axis with max/min;
    None when it has zero volume."""
    lo = tuple(max(x, y) for x, y in zip(a[0], b[0]))
    hi = tuple(min(x, y) for x, y in zip(a[1], b[1]))
    if any(x >= y for x, y in zip(lo, hi)):
        return None
    return lo, hi


def _box_volume(box) -> float:
    v = 1.0
    for a, b in zip(*box):
        v *= b - a
    return v


@dataclass(frozen=True)
class ReferenceLevelCells:
    pieces: np.ndarray
    piece_cell: np.ndarray
    volumes: np.ndarray
    masses: np.ndarray
    densities: np.ndarray
    low_mask: np.ndarray
    low_boxes: np.ndarray
    high_boxes: np.ndarray


def reference_level_cells(region, raw: PiecewiseConstantDensity, mass_ratio: float):
    """A level's cells by clipping each partition leaf against each region
    box in turn, in plain Python: the per-leaf loop the array clip in
    ``build_level`` replaces."""
    region_boxes = [(tuple(lo), tuple(hi)) for lo, hi in region.boxes.tolist()]
    cells, overlaps, contributions, raw_density = [], [], [], []
    for i, leaf in enumerate(raw.partition.boxes.tolist()):
        cuts = [_box_intersect(b, leaf) for b in region_boxes]
        pieces = [c for c in cuts if c is not None]
        if not pieces:
            continue
        o = sum(_box_volume(p) for p in pieces)
        cells.append(pieces)
        overlaps.append(o)
        contributions.append(float(raw.masses[i]) * (o / _box_volume(leaf)))
        raw_density.append(float(raw.masses[i]) / _box_volume(leaf))
    captured = float(np.sum(contributions))
    masses = np.asarray(contributions) / captured
    densities = np.asarray(raw_density) / captured
    low = threshold_from_ratio(masses, densities, mass_ratio)[2]
    low_boxes, high_boxes = [], []
    for pieces, is_low in zip(cells, low):
        (low_boxes if is_low else high_boxes).extend(pieces)
    return ReferenceLevelCells(
        pieces=np.array([p for pieces in cells for p in pieces]),
        piece_cell=np.repeat(np.arange(len(cells)), [len(p) for p in cells]),
        volumes=np.array(overlaps),
        masses=masses,
        densities=densities,
        low_mask=low,
        low_boxes=np.array(low_boxes),
        high_boxes=np.array(high_boxes),
    )


def design_prior_density(space: DesignSpace, phi: np.ndarray) -> float:
    """Uniform artificial prior p(phi): 1/volume inside the box, 0 outside."""
    return 1.0 / space.volume if space.contains(np.asarray(phi, dtype=float)[None, :])[0] else 0.0


# ------------------------------------------------ per-particle BSP search ---


@dataclass(frozen=True)
class PointLeaf:
    """Leaf of a reference partition tree: its box, its sample count, the
    indices of its points into the partition's point array (``idx``) and its
    per-axis counts strictly below the midpoint (``n_below``)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    n: int
    idx: np.ndarray | None = None
    n_below: tuple[int, ...] | None = None


@dataclass(frozen=True)
class CutNode:
    axis: int
    position: float
    low: "CutNode | PointLeaf"
    high: "CutNode | PointLeaf"


def tree_partition(lo, hi, root, n_samples: int) -> BinaryPartition:
    """The array partition of a ``CutNode``/``PointLeaf`` tree, its leaves
    and nodes numbered depth first, low child before high."""
    leaves, nodes = [], []

    def visit(node) -> int:
        k = len(nodes)
        nodes.append(None)
        if isinstance(node, CutNode):
            nodes[k] = (node.axis, node.position, visit(node.low), visit(node.high), -1)
        else:
            nodes[k] = (0, 0.0, -1, -1, len(leaves))
            leaves.append(node)
        return k

    visit(root)
    return BinaryPartition(
        tuple(lo),
        tuple(hi),
        np.array([(leaf.lo, leaf.hi) for leaf in leaves], dtype=float),
        np.array([leaf.n for leaf in leaves], dtype=np.int64),
        np.array(nodes, dtype=_NODE),
        n_samples,
    )


@dataclass(frozen=True)
class PointPartition:
    """Reference partition: a tree of ``CutNode``/``PointLeaf`` objects over
    the sample array its counts refer to, ``leaves`` in low-before-high
    order. ``boxes`` and ``counts`` read like ``BinaryPartition``'s."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    root: "CutNode | PointLeaf"
    leaves: tuple[PointLeaf, ...]
    n_samples: int
    points: np.ndarray

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def boxes(self) -> np.ndarray:
        return np.array([(leaf.lo, leaf.hi) for leaf in self.leaves], dtype=float)

    @property
    def counts(self) -> np.ndarray:
        return np.array([leaf.n for leaf in self.leaves], dtype=np.int64)

    def as_partition(self) -> BinaryPartition:
        return tree_partition(self.lo, self.hi, self.root, self.n_samples)


def _make_leaf(
    lo: tuple[float, ...], hi: tuple[float, ...], idx: np.ndarray, points: np.ndarray
) -> PointLeaf:
    below = []
    for d in range(len(lo)):
        mid = 0.5 * (lo[d] + hi[d])
        below.append(int(np.count_nonzero(points[idx, d] < mid)))
    return PointLeaf(lo, hi, int(idx.size), idx, tuple(below))


def root_partition(
    points: np.ndarray, lo: tuple[float, ...], hi: tuple[float, ...]
) -> PointPartition:
    """Single-leaf partition over the domain box; all points must lie inside."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != len(lo):
        raise ValueError("points must be (n, d) matching the domain")
    if np.any(points < np.asarray(lo)) or np.any(points > np.asarray(hi)):
        raise ValueError("samples outside the partition domain")
    leaf = _make_leaf(tuple(lo), tuple(hi), np.arange(points.shape[0]), points)
    return PointPartition(tuple(lo), tuple(hi), leaf, (leaf,), points.shape[0], points)


def _replace_leaf(node, target: PointLeaf, repl: CutNode):
    if node is target:
        return repl
    if isinstance(node, PointLeaf):
        return node
    low = _replace_leaf(node.low, target, repl)
    high = _replace_leaf(node.high, target, repl)
    if low is node.low and high is node.high:
        return node
    return CutNode(node.axis, node.position, low, high)


def propose_cut(partition: PointPartition, leaf_index: int, axis: int) -> PointPartition:
    """New partition with the given leaf split at its midpoint on ``axis``.

    A point exactly on the cut goes to the high child. The input partition is
    unchanged (trees share structure).
    """
    if not 0 <= leaf_index < partition.n_leaves:
        raise IndexError(f"leaf index {leaf_index} out of range")
    leaf = partition.leaves[leaf_index]
    if not 0 <= axis < partition.ndim:
        raise IndexError(f"axis {axis} out of range")
    mid = 0.5 * (leaf.lo[axis] + leaf.hi[axis])
    coords = partition.points[leaf.idx, axis]
    below = coords < mid
    lo_hi = tuple(mid if d == axis else leaf.hi[d] for d in range(partition.ndim))
    hi_lo = tuple(mid if d == axis else leaf.lo[d] for d in range(partition.ndim))
    low_leaf = _make_leaf(leaf.lo, lo_hi, leaf.idx[below], partition.points)
    high_leaf = _make_leaf(hi_lo, leaf.hi, leaf.idx[~below], partition.points)
    node = CutNode(axis, mid, low_leaf, high_leaf)
    root = _replace_leaf(partition.root, leaf, node)
    leaves = (
        partition.leaves[:leaf_index]
        + (low_leaf, high_leaf)
        + partition.leaves[leaf_index + 1 :]
    )
    return PointPartition(
        partition.lo, partition.hi, root, leaves, partition.n_samples, partition.points
    )


def reference_cut_deltas(partition: PointPartition, alpha: float, beta: float) -> np.ndarray:
    """Score change of every candidate (leaf, axis) cut of one partition, (t, d).

        delta = -beta + lg(nL+a) + lg(nR+a) - lg(n+a) + n*log 2 + level_term

    A cut whose midpoint is not strictly inside its leaf gets -inf.
    """
    t = partition.n_leaves
    n_total = partition.n_samples
    a = alpha
    level_term = (
        -loggamma(n_total + (t + 1) * a)
        + loggamma(n_total + t * a)
        - loggamma(a)
        + loggamma((t + 1) * a)
        - loggamma(t * a)
    )
    deltas = np.empty((t, partition.ndim))
    for i, leaf in enumerate(partition.leaves):
        nl = np.asarray(leaf.n_below, dtype=float)
        nr = leaf.n - nl
        deltas[i, :] = (
            -beta
            + loggamma(nl + a)
            + loggamma(nr + a)
            - loggamma(leaf.n + a)
            + leaf.n * math.log(2.0)
            + level_term
        )
        for d in range(partition.ndim):
            if not leaf.lo[d] < 0.5 * (leaf.lo[d] + leaf.hi[d]) < leaf.hi[d]:
                deltas[i, d] = -np.inf
    return deltas


def reference_bsp_estimate(
    points: np.ndarray,
    lo: tuple[float, ...],
    hi: tuple[float, ...],
    rng: np.random.Generator,
    alpha: float = 0.5,
    beta: float | None = None,
    n_particles: int = 100,
    max_leaves: int = 64,
) -> PiecewiseConstantDensity:
    """The SIS search one particle at a time, each holding a partition tree:
    scipy's ``logsumexp`` and one ``Generator.choice`` per particle and level,
    and ``propose_cut`` for every cut. The search stops before a level at
    which some particle has no candidate cut left."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if beta is None:
        beta = math.log(n) if n > 1 else 0.0

    base = root_partition(points, lo, hi)
    base_score = log_partition_score(base, alpha, beta)
    particles = [base] * n_particles
    scores = np.full(n_particles, base_score)
    log_w = np.zeros(n_particles)
    best_partition, best_score = base, base_score
    stagnant = 0

    while particles[0].n_leaves < max_leaves and stagnant < 2:
        level_deltas = [reference_cut_deltas(part, alpha, beta).ravel() for part in particles]
        if any(np.all(deltas == -np.inf) for deltas in level_deltas):
            break
        level_best = -np.inf
        for j, deltas in enumerate(level_deltas):
            part = particles[j]
            norm = special.logsumexp(deltas)
            prob = np.exp(deltas - norm)
            prob /= prob.sum()
            choice = int(rng.choice(deltas.size, p=prob))
            log_w[j] += norm
            leaf_index, axis = divmod(choice, part.ndim)
            particles[j] = propose_cut(part, leaf_index, axis)
            scores[j] += float(deltas[choice])
            if scores[j] > level_best:
                level_best = scores[j]
        arg = int(np.argmax(scores))
        if level_best > best_score:
            best_partition, best_score = particles[arg], float(scores[arg])
            stagnant = 0
        else:
            stagnant += 1
        shifted = np.exp(log_w - np.max(log_w))
        w_norm = shifted / shifted.sum()
        ess = 1.0 / float(np.sum(w_norm**2))
        if ess < n_particles / 2 and particles[0].n_leaves < max_leaves:
            keep = _systematic_resample(w_norm, rng)
            particles = [particles[k] for k in keep]
            scores = scores[keep]
            log_w = np.zeros(n_particles)

    return PiecewiseConstantDensity(
        best_partition.as_partition(),
        _posterior_masses(best_partition, alpha),
        alpha,
        float(beta),
        float(best_score),
    )


# ------------------------------------------------------- point densities ---


def _node_from_record(rec: dict):
    if "leaf" in rec:
        return PointLeaf(tuple(rec["leaf"]["lo"]), tuple(rec["leaf"]["hi"]), rec["leaf"]["n"])
    return CutNode(
        rec["axis"], rec["position"], _node_from_record(rec["low"]), _node_from_record(rec["high"])
    )


def density_from_record(rec: dict) -> PiecewiseConstantDensity:
    """The estimate an ``artifacts.density_record`` describes."""
    part = tree_partition(
        rec["domain_lo"], rec["domain_hi"], _node_from_record(rec["tree"]), rec["n_samples"]
    )
    return PiecewiseConstantDensity(
        part,
        np.array(rec["masses"], dtype=float),
        rec["alpha"],
        rec["beta"],
        rec["log_score"],
    )


def reference_locate(partition: BinaryPartition, x: np.ndarray) -> int | None:
    """Leaf index by walking the cut tree's nodes from the root (ties on a
    cut go to the high child); None outside the closed domain."""
    if not all(a <= v <= b for a, v, b in zip(partition.lo, x, partition.hi)):
        return None
    node = partition.nodes[0]
    while node["leaf"] < 0:
        below = x[node["axis"]] < node["position"]
        node = partition.nodes[node["low"] if below else node["high"]]
    return int(node["leaf"])


def reference_pdf(density: PiecewiseConstantDensity, phi: np.ndarray) -> float:
    """Density at one point: mass/volume of its leaf, 0 outside the domain."""
    i = reference_locate(density.partition, np.asarray(phi, dtype=float))
    if i is None:
        return 0.0
    return float(density.masses[i] / _box_volume(density.partition.boxes[i]))


def reference_compose_density(levels, phi: np.ndarray) -> float:
    """Composite density at one point by the deepest-level rule."""
    phi = np.asarray(phi, dtype=float)
    for level in reversed(levels):
        if level.region.contains(phi[None, :])[0]:
            return reference_pdf(level.raw, phi) / level.captured * level.weight
    return 0.0


# ---------------------------------------------------- per-point surface ---


def _reference_kvec(surface: RegressionSurface, phi: np.ndarray) -> np.ndarray:
    r = (surface.x - phi[None, :]) / surface.length_scales[None, :]
    return surface.signal_var * np.exp(-0.5 * np.sum(r * r, axis=1))


def reference_predict(surface: RegressionSurface, phi: np.ndarray) -> float:
    """Surface value at one point: its kernel vector, then one ``kvec @ coef``."""
    phi = np.asarray(phi, dtype=float)
    return float(surface.y_mean + _reference_kvec(surface, phi) @ surface.coef)


def reference_surface_gradient(surface: RegressionSurface, phi: np.ndarray) -> np.ndarray:
    """Analytic surface gradient at one point."""
    phi = np.asarray(phi, dtype=float)
    k = _reference_kvec(surface, phi)
    return ((surface.x - phi[None, :]) / surface.length_scales[None, :] ** 2).T @ (
        k * surface.coef
    )


def reference_smoothed(smoothed: SmoothedFPF, phi: np.ndarray) -> float:
    """Scaled smooth FPF at one point."""
    return math.exp(reference_predict(smoothed.surface, phi)) * smoothed.scale


def reference_smoothed_gradient(smoothed: SmoothedFPF, phi: np.ndarray) -> np.ndarray:
    """Gradient of the scaled smooth FPF at one point (no boundary guard)."""
    return reference_smoothed(smoothed, phi) * reference_surface_gradient(smoothed.surface, phi)


# --------------------------------------------------- Cholesky surface fit ---


def _reference_loo_sse(k: np.ndarray, y: np.ndarray, lam: float, weights: np.ndarray) -> float:
    """Weighted leave-one-out error from one Cholesky factor and inverse per ridge."""
    a = k + lam * np.eye(k.shape[0])
    try:
        c = cho_factor(a)
    except np.linalg.LinAlgError:
        return math.inf
    inv = cho_solve(c, np.eye(k.shape[0]))
    coef = inv @ y
    diag = np.diag(inv)
    if np.any(diag <= 0):
        return math.inf
    return float(np.sum(weights * (coef / diag) ** 2))


def reference_fit_surface(points, noise_floor: float = 1e-4) -> RegressionSurface:
    """``fit_surface``'s multiplier and noise scan with a Cholesky solve per
    ridge, for support points at distinct locations."""
    x, y = points.x, points.log_density
    w = points.weight / points.weight.sum()
    n, d = x.shape
    y_mean = float(np.mean(y))
    yc = y - y_mean
    signal = float(np.var(yc)) or 1.0
    base = np.std(x, axis=0)
    spread = np.max(x, axis=0) - np.min(x, axis=0)
    base = np.where(base > 0, base, spread / math.sqrt(12.0))
    base = np.where(base > 0, base, 1.0)
    r = x[:, None, :] - x[None, :, :]

    def kernel(scales: np.ndarray) -> np.ndarray:
        z = r / scales
        return signal * np.exp(-0.5 * (z * z).sum(axis=-1))

    noise_grid = [max(noise_floor, f * signal) for f in _NOISE_FRACTIONS]

    def score(mults: np.ndarray) -> tuple[float, float]:
        k = kernel(base * mults)
        best = (math.inf, noise_grid[0])
        for lam in noise_grid:
            sse = _reference_loo_sse(k, yc, lam, w)
            if sse < best[0]:
                best = (sse, lam)
        return best

    best_sse, mults, noise = math.inf, np.ones(d), noise_floor
    for m in _MULT_GRID:
        sse, lam = score(np.full(d, m))
        if sse < best_sse:
            best_sse, mults, noise = sse, np.full(d, m), lam
    for axis in range(d):
        for m in _MULT_GRID:
            cand = mults.copy()
            cand[axis] = m
            sse, lam = score(cand)
            if sse < best_sse:
                best_sse, mults, noise = sse, cand, lam
    scales = base * mults
    coef = cho_solve(cho_factor(kernel(scales) + noise * np.eye(n)), yc)
    return RegressionSurface(x, coef, scales, signal, noise, y_mean)


# ------------------------------------------- allocating draws and physics ---


def toy_pf_exact(lo: float = 0.0, hi: float = 4.0) -> float:
    """Exact augmented-space P(F) for the toy: mean of Phi(-t) over [lo, hi].

    Uses the closed antiderivative t*Phi(-t) - pdf(t).
    """

    def anti(t: float) -> float:
        sf = 0.5 * math.erfc(t / math.sqrt(2.0))
        return t * sf - np.exp(-t**2 / 2.0) / np.sqrt(2 * np.pi)

    return (anti(hi) - anti(lo)) / (hi - lo)


def reference_sample_theta(specs, model, phis, rng) -> np.ndarray:
    """Per-row theta draws through ``Generator.normal``, redrawing invalid rows."""
    mus, sigmas = resolve_parameters(specs, phis)
    thetas = rng.normal(mus, sigmas)
    bad = ~model.theta_valid_batch(phis, thetas)
    while np.any(bad):
        thetas[bad] = rng.normal(mus[bad], sigmas[bad])
        bad = ~model.theta_valid_batch(phis, thetas)
    return thetas


def reference_point_estimate(model, specs, phi, n, seq) -> tuple[float, float]:
    """One oracle point: fresh ``Generator.normal`` batches of 65,536 rows with
    broadcast parameters, invalid rows redrawn the same way."""
    rng = np.random.Generator(np.random.PCG64(seq))
    mu, sigma = resolve_parameters(specs, phi[None, :])
    n_fail = 0
    done = 0
    while done < n:
        m = min(65536, n - done)
        thetas = rng.normal(mu[0], sigma[0], size=(m, mu.shape[1]))
        phis = np.broadcast_to(phi, (m, phi.size))
        bad = ~model.theta_valid_batch(phis, thetas)
        while np.any(bad):
            thetas[bad] = rng.normal(
                mu[0], sigma[0], size=(int(np.count_nonzero(bad)), mu.shape[1])
            )
            bad = ~model.theta_valid_batch(phis, thetas)
        _, failed = model.evaluate_batch(phis, thetas)
        n_fail += int(np.count_nonzero(failed))
        done += m
    pf = n_fail / n
    cov = math.sqrt((1.0 - pf) / (n * pf)) if pf > 0 else math.inf
    return pf, cov


def reference_beam_frequency(b, h, t, rho, e_gpa, length_mm: float = 500.0):
    """Beam frequency with one fresh array per operation."""
    b = np.asarray(b, dtype=float)
    h = np.asarray(h, dtype=float)
    t = np.asarray(t, dtype=float)
    bi = b - 2 * t
    hi = h - 2 * t
    area = b * h - bi * hi
    inertia = (b * h**3 - bi * hi**3) / 12.0
    area_m2 = area * 1e-6
    inertia_m4 = inertia * 1e-12
    length_m = length_mm * 1e-3
    e_pa = np.asarray(e_gpa, dtype=float) * 1e9
    rho = np.asarray(rho, dtype=float)
    return LAMBDA_1**2 * np.sqrt(e_pa * inertia_m4 / (rho * area_m2 * length_m**4))


def reference_chain_draws(rngs, n_steps: int, k: int) -> np.ndarray:
    """``mmh_chain`` draws as one generator per chain gives them: chain c's
    row is ``rngs[c].random((n_steps, k))``."""
    return np.stack([rng.random((n_steps, k)) for rng in rngs])
