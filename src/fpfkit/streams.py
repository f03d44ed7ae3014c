"""Numbered random streams of one run.

Every stage of a run draws from a child of the run's root ``SeedSequence``,
numbered in the order the stages ask for them: child k is
``SeedSequence(entropy, spawn_key=root.spawn_key + (k,))``, exactly as
``SeedSequence.spawn`` numbers its children. ``Streams`` owns that counter,
so the numbering rule lives here and nowhere else.

Conditional chains are many and short, and each needs only the first few
draws of its own child stream. ``Streams.uniforms`` computes those draws for a
block of children at once: one vectorized pass reproduces ``SeedSequence``'s
entropy mixing and ``generate_state`` for every child, then each child's
PCG64 seeding is done on Python ints and its uniforms are drawn through one
reused ``Generator``. Row c equals
``Generator(PCG64(child_c)).random(shape)`` bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

# numpy/random/bit_generator.pyx: SeedSequence's hash and mix constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, as SeedSequence
    assembles its entropy (zero is one word)."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


def _pools(rows: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence.mix_entropy`` of every column of ``rows``.

    ``rows`` is (n_words, n_children) uint32 with n_words > the pool size,
    which always holds for a spawned child. The hash constant's sequence does
    not depend on the data, so it advances once for all columns.
    """
    h = _INIT_A

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = v ^ np.uint32(h)
        h = (h * _MULT_A) & _MASK32
        v = v * np.uint32(h)
        return v ^ (v >> np.uint32(16))

    pool = [hashmix(rows[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(rows)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(rows[src]))
    return pool


def _seed_words(pool: list[np.ndarray]) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of every child, as (n, 4) uint64."""
    h = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        v = pool[i % _POOL_SIZE] ^ np.uint32(h)
        h = (h * _MULT_B) & _MASK32
        v = v * np.uint32(h)
        out.append((v ^ (v >> np.uint32(16))).astype(np.uint64))
    lo, hi = np.stack(out[0::2], axis=1), np.stack(out[1::2], axis=1)
    return lo | (hi << np.uint64(32))


class Streams:
    """Allocator of the numbered child streams of one root ``SeedSequence``.

    The counter starts at the root's ``n_children_spawned`` and the root
    itself is left untouched, so the allocator continues the root's own
    ``spawn`` numbering. Only an int entropy and the default pool size are
    supported, since the bulk kernel reproduces exactly that case.
    """

    def __init__(self, root: np.random.SeedSequence) -> None:
        entropy = root.entropy
        if not isinstance(entropy, (int, np.integer)) or entropy < 0:
            raise ValueError("Streams needs a SeedSequence with non-negative int entropy")
        if root.pool_size != _POOL_SIZE:
            raise ValueError(f"Streams needs a SeedSequence with pool_size {_POOL_SIZE}")
        self._entropy = int(entropy)
        self._spawn_key = tuple(root.spawn_key)
        self._next = int(root.n_children_spawned)
        run = _words(self._entropy)
        run += [0] * (_POOL_SIZE - len(run))  # spawned children pad the run entropy
        self._prefix = run + [w for k in self._spawn_key for w in _words(int(k))]
        self._bitgen = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bitgen)

    def _take(self, n: int) -> int:
        if n < 0:
            raise ValueError("child count must be non-negative")
        first = self._next
        if first + n > _MASK32 + 1:
            raise ValueError("child index exceeds 32 bits")
        self._next += n
        return first

    def child(self) -> np.random.SeedSequence:
        """The next child ``SeedSequence``."""
        k = self._take(1)
        return np.random.SeedSequence(self._entropy, spawn_key=self._spawn_key + (k,))

    def generator(self) -> np.random.Generator:
        """A ``Generator`` on the next child stream."""
        return np.random.Generator(np.random.PCG64(self.child()))

    def uniforms(self, n: int, shape: tuple[int, ...]) -> np.ndarray:
        """The first ``random(shape)`` draw of each of the next ``n`` children,
        stacked as an ``(n, *shape)`` array."""
        first = self._take(n)
        out = np.empty((n, *shape))
        if n == 0:
            return out
        rows = np.empty((len(self._prefix) + 1, n), dtype=np.uint32)
        rows[:-1] = np.array(self._prefix, dtype=np.uint32)[:, None]
        rows[-1] = np.arange(first, first + n, dtype=np.uint32)
        flat = out.reshape(n, math.prod(shape))
        state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
        for c, (s0, s1, i0, i1) in enumerate(_seed_words(_pools(rows)).tolist()):
            # pcg64_set_seed: inc = 2i + 1; step, add the seed, step
            inc = (((i0 << 64) | i1) << 1 | 1) & _MASK128
            state["state"] = {
                "state": ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128,
                "inc": inc,
            }
            self._bitgen.state = state
            self._gen.random(out=flat[c])
        return out
