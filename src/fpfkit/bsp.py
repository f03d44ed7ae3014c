"""Adaptive binary-partition density estimation with a closed-form posterior
score, searched by sequential importance sampling over cut sequences.

A partition of the domain box is grown one binary midpoint cut at a time. A
partition with leaves A_1..A_t holding counts n_1..n_t is scored (log scale,
up to a data-only constant) by

    score = -beta*t + log B(n_1+alpha, ..., n_t+alpha) - log B(alpha, ..., alpha)
            - sum_i n_i log|A_i|

with B the multivariate beta function. Leaf masses of the returned estimate
are posterior means theta_i = (n_i + alpha) / (N + t*alpha).

The search advances every particle together, on arrays (``_Particles``).
Particles hold leaf boxes and counts, not points: the samples are sorted once
on axis 0, and each level counts the points of each distinct cut box once,
however many particles make that cut. The returned partition holds no points
either; it is built from the winner's cut log and leaf counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regions import box_volumes


# A cut-tree node: the cut's axis and position and its low and high child
# nodes at a cut, and the leaf index at a leaf (-1 at a cut).
_NODE = np.dtype(
    [("axis", np.intp), ("position", float), ("low", np.intp), ("high", np.intp),
     ("leaf", np.intp)]
)


@dataclass(frozen=True, eq=False)
class BinaryPartition:
    """Binary tree of midpoint cuts over a domain box, held as arrays.

    ``boxes`` (t, 2, d) holds the leaves' ``[lo, hi]`` corners and ``counts``
    (t,) their sample counts, in left-to-right (low-before-high) order.
    ``nodes`` is the cut tree as a ``_NODE`` record array with the root at
    node 0. The partition holds counts, not points: ``bsp_estimate`` builds
    it from the winning cut log.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    boxes: np.ndarray
    counts: np.ndarray
    nodes: np.ndarray
    n_samples: int

    @property
    def n_leaves(self) -> int:
        return self.counts.size


def _partition(
    lo: tuple[float, ...],
    hi: tuple[float, ...],
    cuts: np.ndarray,
    counts: np.ndarray,
    n_samples: int,
) -> BinaryPartition:
    """Replay a (leaf, axis) cut log over the domain box. Each cut halves a
    leaf at its midpoint; the low child keeps the leaf's slot and the high
    child takes the next one. Cut c turns its leaf's tree node into a cut
    with children 2c + 1 (low) and 2c + 2 (high). ``counts`` are the final
    leaves' sample counts in slot order."""
    boxes = [np.array([lo, hi], dtype=float)]
    slots = [0]  # tree node of each leaf slot
    nodes = np.array([(0, 0.0, -1, -1, -1)] * (2 * len(cuts) + 1), dtype=_NODE)
    for c, (leaf, axis) in enumerate(cuts.tolist()):
        low, high = boxes[leaf].copy(), boxes[leaf].copy()
        mid = 0.5 * (low[0, axis] + low[1, axis])
        low[1, axis] = high[0, axis] = mid
        boxes[leaf : leaf + 1] = [low, high]
        nodes[slots[leaf]] = (axis, mid, 2 * c + 1, 2 * c + 2, -1)
        slots[leaf : leaf + 1] = [2 * c + 1, 2 * c + 2]
    nodes["leaf"][slots] = np.arange(len(slots))
    return BinaryPartition(
        lo, hi, np.array(boxes), np.array(counts, dtype=np.int64), nodes, n_samples
    )


def _lgamma(x: np.ndarray) -> np.ndarray:
    """log Gamma of each entry of ``x``, flattened, from ``math.lgamma``."""
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size)


@dataclass(frozen=True)
class PiecewiseConstantDensity:
    """Normalized piecewise-constant density on a binary partition.

    masses[i] = (n_i + alpha) / (N + t*alpha) sum to one; the density on leaf
    i is masses[i] / |A_i|.
    """

    partition: BinaryPartition
    masses: np.ndarray
    alpha: float
    beta: float
    log_score: float

    def __post_init__(self) -> None:
        if self.masses.shape != (self.partition.n_leaves,):
            raise ValueError("one mass per leaf required")
        err = abs(float(np.sum(self.masses)) - 1.0)
        if err > 1e-12:
            raise AssertionError(f"leaf masses sum to 1 +/- {err:.3e}, beyond 1e-12")


def _posterior_masses(partition: BinaryPartition, alpha: float) -> np.ndarray:
    t = partition.n_leaves
    return (partition.counts + alpha) / (partition.n_samples + t * alpha)


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling; returns selected indices (ascending stratified)."""
    m = weights.size
    positions = (rng.random() + np.arange(m)) / m
    return np.searchsorted(np.cumsum(weights), positions)


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each row of an (m, k) array whose rows each hold a
    finite maximum (other entries may be -inf), with the arithmetic
    of ``scipy.special.logsumexp``: the row maximum and the count m of entries
    equal to it are split off the sum s of the rest's shifted exponentials,
    giving log1p(s / m) + log(m) + max."""
    top = x.max(axis=1, keepdims=True)
    at_top = x == top
    m = np.count_nonzero(at_top, axis=1).astype(float)[:, None]
    s = np.exp(np.where(at_top, -np.inf, x) - top).sum(axis=1, keepdims=True)
    return (np.log1p(s / m) + np.log(m) + top)[:, 0]


def _box_counts(coords: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Points x with lo <= x < hi on every axis, for each row of the (B, d)
    corners ``lo`` and ``hi``. ``coords`` is the (d, N) transpose of the
    points sorted on axis 0, so a box's candidates are one slice of columns:
    in 1-D the count is that slice's length, and above 1-D the other axes are
    tested on the slices alone."""
    first = np.searchsorted(coords[0], lo[:, 0])
    last = np.searchsorted(coords[0], hi[:, 0])
    if coords.shape[0] == 1:
        return last - first
    size = last - first
    box = np.repeat(np.arange(lo.shape[0]), size)
    col = np.arange(box.size) + np.repeat(first - np.cumsum(size) + size, size)
    inside = np.ones(box.size, dtype=bool)
    for k in range(1, coords.shape[0]):
        x = coords[k, col]
        inside &= (lo[box, k] <= x) & (x < hi[box, k])
    return np.bincount(box[inside], minlength=lo.shape[0])


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of one row per distinct row of a 2-D float array, and each row's
    group: ``rows[first][group] == rows``. Rows compare by their bytes."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    return first, group.reshape(-1)


def _cut_gains(
    n_below: np.ndarray, n: np.ndarray, lo: np.ndarray, hi: np.ndarray, lgam: np.ndarray,
    beta: float,
) -> np.ndarray:
    """Score change of halving each leaf on each axis, less the term that
    depends only on the leaf count (see ``_Particles.cut_deltas``), for
    per-axis counts ``n_below`` (..., d), leaf counts ``n`` (...) and leaf
    boxes ``lo``/``hi`` (..., d); ``lgam[k]`` is log Gamma(k + alpha). A leaf
    whose midpoint on an axis rounds onto one of its ends cannot be halved
    there; that cut gets -inf."""
    n = np.broadcast_to(n[..., None], n_below.shape)
    gains = -beta + lgam[n_below] + lgam[n - n_below] - lgam[n] + n * math.log(2.0)
    mid = 0.5 * (lo + hi)
    gains[(mid <= lo) | (hi <= mid)] = -np.inf
    return gains


@dataclass
class _Particles:
    """SIS particles as aligned arrays; every particle has the same leaf
    count t, its leaves in tree (low-before-high) order.

    ``lo``/``hi`` (P, t, d) are the leaf boxes, ``n_below`` (P, t, d) the
    per-axis counts strictly below each leaf's midpoint, ``n`` (P, t) the
    leaf counts, ``gains`` (P, t, d) each candidate cut's ``_cut_gains`` and
    ``cuts`` (P, max_leaves - 1, 2) the (leaf, axis) of each cut so far. A
    cut changes two leaves, so it recomputes two leaves' gains. ``lgam`` is
    the search's table of log Gamma(k + alpha) for k = 0..N, which every
    count-dependent score term gathers from, and ``level[t - 1]`` the score
    terms of a cut at t leaves that depend only on (t, N).

    No particle holds its points: a leaf's points are those in its box,
    lo <= x < hi on every axis, closed (x <= hi) where the box's upper face
    lies on the domain's. Cuts send ties to the high child and only halve a
    leaf whose midpoint lies strictly inside it, so this is the set the cut
    sequence routes to the leaf.
    """

    lo: np.ndarray
    hi: np.ndarray
    n_below: np.ndarray
    n: np.ndarray
    gains: np.ndarray
    cuts: np.ndarray
    lgam: np.ndarray
    level: np.ndarray
    beta: float

    @classmethod
    def start(
        cls, lo: tuple[float, ...], hi: tuple[float, ...], coords: np.ndarray,
        n_particles: int, max_leaves: int, alpha: float, beta: float,
    ) -> "_Particles":
        """Every particle at the one-leaf partition of the domain box;
        ``coords`` is the (d, N) transpose of the points."""
        lo_arr, hi_arr = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        n_below = np.count_nonzero(coords < 0.5 * (lo_arr + hi_arr)[:, None], axis=1)
        n = np.array(coords.shape[1])
        lgam = _lgamma(np.arange(n + 1) + alpha)
        gains = _cut_gains(n_below, n, lo_arr, hi_arr, lgam, beta)
        t_alpha = np.arange(1, max_leaves + 1) * alpha
        lg_n, lg_t = _lgamma(n + t_alpha), _lgamma(t_alpha)
        level = -lg_n[1:] + lg_n[:-1] - math.lgamma(alpha) + lg_t[1:] - lg_t[:-1]

        def fill(values, dtype) -> np.ndarray:
            return np.tile(np.asarray(values, dtype=dtype), (n_particles, 1, 1))

        return cls(
            fill(lo_arr, float),
            fill(hi_arr, float),
            fill(n_below, np.int64),
            np.full((n_particles, 1), n, dtype=np.int64),
            fill(gains, float),
            np.zeros((n_particles, max_leaves - 1, 2), dtype=np.intp),
            lgam,
            level,
            beta,
        )

    @property
    def n_leaves(self) -> int:
        return self.n.shape[1]

    def take(self, keep: np.ndarray) -> "_Particles":
        return _Particles(
            self.lo[keep], self.hi[keep], self.n_below[keep], self.n[keep],
            self.gains[keep], self.cuts[keep], self.lgam, self.level, self.beta,
        )

    def cut_deltas(self) -> np.ndarray:
        """Score change of every candidate (leaf, axis) cut, (P, t*d) in
        leaf-major order:

            delta = -beta + lg(nL+a) + lg(nR+a) - lg(n+a) + n*log 2 + level_term

        where level_term, ``level[t - 1]``, collects the pieces depending only
        on (t, N) and the rest is the cached ``gains``.
        """
        n_particles, t, ndim = self.gains.shape
        return (self.gains + self.level[t - 1]).reshape(n_particles, t * ndim)

    def split(
        self, leaf: np.ndarray, axis: np.ndarray, coords: np.ndarray, top: np.ndarray
    ) -> None:
        """Cut leaf ``leaf[p]`` of each particle p at its midpoint on
        ``axis[p]``. The low child keeps the leaf's slot, the high child takes
        the next one and later leaves move up a slot; points on the cut go to
        the high child. ``coords`` is the (d, N) transpose of the points
        sorted on axis 0 and ``top`` the domain's upper corner.

        Particles are mostly copies of each other, so the counts are taken
        once per distinct (leaf box, axis) cut: the low child's points, the
        low child's points below its midpoint on each axis, and the high
        child's below its midpoint on the cut axis. The rest follow by
        subtraction.
        """
        p = np.arange(leaf.size)
        t, ndim = self.n_leaves, coords.shape[0]
        self.cuts[:, t - 1, 0] = leaf
        self.cuts[:, t - 1, 1] = axis
        slot = np.arange(t + 1)
        src = p[:, None], slot - (slot > leaf[:, None])
        self.lo, self.hi = self.lo[src], self.hi[src]
        self.n_below, self.n, self.gains = self.n_below[src], self.n[src], self.gains[src]

        lo, hi = self.lo[p, leaf], self.hi[p, leaf]
        first, group = _distinct_rows(np.column_stack((lo, hi, axis)))
        lo, hi, on = lo[first], hi[first], axis[first]
        g = np.arange(first.size)
        mid = 0.5 * (lo[g, on] + hi[g, on])
        low_mid = 0.5 * (lo + hi)
        low_mid[g, on] = 0.5 * (lo[g, on] + mid)
        # Boxes to count, with upper faces open (a face on the domain's moves
        # to +inf): the low child; the low child below its midpoint on each
        # axis; the high child below its midpoint on the cut axis.
        box_lo = np.repeat(lo[None], ndim + 2, axis=0)
        box_hi = np.repeat(np.where(hi < top, hi, np.inf)[None], ndim + 2, axis=0)
        box_hi[:-1, g, on] = mid
        for d in range(ndim):
            box_hi[d + 1, :, d] = low_mid[:, d]
        box_lo[-1, g, on] = mid
        box_hi[-1, g, on] = 0.5 * (mid + hi[g, on])
        counts = _box_counts(coords, box_lo.reshape(-1, ndim), box_hi.reshape(-1, ndim))
        counts = counts.reshape(ndim + 2, -1)[:, group]

        # Off the cut axis both children keep the leaf's midpoint, so the high
        # child's counts there are the leaf's minus the low child's.
        n_leaf, below_leaf = self.n[p, leaf], self.n_below[p, leaf]
        self.n[p, leaf] = counts[0]
        self.n[p, leaf + 1] = n_leaf - counts[0]
        self.n_below[p, leaf] = counts[1:-1].T
        self.n_below[p, leaf + 1] = below_leaf - counts[1:-1].T
        self.n_below[p, leaf + 1, axis] = counts[-1]
        self.hi[p, leaf, axis] = self.lo[p, leaf + 1, axis] = mid[group]
        both = p[:, None], leaf[:, None] + [0, 1]
        self.gains[both] = _cut_gains(
            self.n_below[both], self.n[both], self.lo[both], self.hi[both], self.lgam, self.beta
        )


def bsp_estimate(
    points: np.ndarray,
    lo: tuple[float, ...],
    hi: tuple[float, ...],
    rng: np.random.Generator,
    alpha: float = 0.5,
    beta: float | None = None,
    n_particles: int = 100,
    max_leaves: int = 64,
) -> PiecewiseConstantDensity:
    """Search cut sequences by SIS and return the best-scoring estimate.

    Each level, every particle scores all (leaf, axis) candidate cuts, samples
    one proportionally to its posterior score, and updates its importance
    weight by the score ratio over the proposal probability. Systematic
    resampling triggers when the effective sample size drops below half the
    ensemble. The search stops at ``max_leaves``, when some particle has no
    leaf left that its midpoint can halve, or after two consecutive levels
    without improvement of the best score seen; the highest-posterior
    partition encountered is returned with posterior-mean leaf masses.

    All particles advance together on arrays (``_Particles``), which count
    the points of each distinct cut box once per level; the returned
    partition is built from the winner's cut log and leaf counts. ``beta``
    defaults to log(N).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot estimate a density from zero samples")
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if max_leaves < 1:
        raise ValueError("max_leaves must be >= 1")
    if beta is None:
        beta = math.log(n) if n > 1 else 0.0
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")

    lo, hi = tuple(lo), tuple(hi)
    if points.ndim != 2 or points.shape[1] != len(lo):
        raise ValueError("points must be (n, d) matching the domain")
    if not np.isfinite(points).all():
        raise ValueError("samples must be finite")
    if np.any(points < np.asarray(lo)) or np.any(points > np.asarray(hi)):
        raise ValueError("samples outside the partition domain")

    coords = np.ascontiguousarray(points[np.argsort(points[:, 0])].T)
    top = np.asarray(hi, dtype=float)
    swarm = _Particles.start(lo, hi, coords, n_particles, max_leaves, alpha, beta)
    # the one-leaf score: its log-gamma terms cancel, leaving -beta - N log|box|;
    # 0.0 - beta, not -beta, keeps a zero score +0.0 as the term-by-term sum has it
    base_score = 0.0 - beta - n * math.log(box_volumes(np.array([lo, hi], dtype=float)))
    rows = np.arange(n_particles)
    scores = np.full(n_particles, base_score)
    log_w = np.zeros(n_particles)
    best_cuts, best_counts, best_score = swarm.cuts[0, :0], swarm.n[0].copy(), base_score
    stagnant = 0

    while swarm.n_leaves < max_leaves and stagnant < 2:
        deltas = swarm.cut_deltas()
        if np.any(deltas.max(axis=1) == -np.inf):
            break  # some particle cannot halve any of its leaves
        norm = _logsumexp_rows(deltas)
        prob = np.exp(deltas - norm[:, None])
        prob /= prob.sum(axis=1, keepdims=True)
        # Generator.choice(k, p=prob) per row: one uniform, counted against
        # the normalized cumulative sum (searchsorted side="right")
        cdf = np.cumsum(prob, axis=1)
        cdf /= cdf[:, -1:]
        choice = np.count_nonzero(cdf <= rng.random(n_particles)[:, None], axis=1)
        # SIS weight update: delta_chosen - log q(chosen) = logsumexp(deltas)
        log_w += norm
        scores += deltas[rows, choice]
        leaf, axis = np.divmod(choice, points.shape[1])
        swarm.split(leaf, axis, coords, top)
        arg = int(np.argmax(scores))
        if scores[arg] > best_score:
            best_cuts = swarm.cuts[arg, : swarm.n_leaves - 1].copy()
            best_counts = swarm.n[arg].copy()
            best_score = float(scores[arg])
            stagnant = 0
        else:
            stagnant += 1
        shifted = np.exp(log_w - np.max(log_w))
        w_norm = shifted / shifted.sum()
        ess = 1.0 / float(np.sum(w_norm**2))
        if ess < n_particles / 2 and swarm.n_leaves < max_leaves:
            keep = _systematic_resample(w_norm, rng)
            swarm = swarm.take(keep)
            scores = scores[keep]
            log_w = np.zeros(n_particles)

    best_partition = _partition(lo, hi, best_cuts, best_counts, n)
    return PiecewiseConstantDensity(
        best_partition,
        _posterior_masses(best_partition, alpha),
        alpha,
        float(beta),
        float(best_score),
    )
