"""The stream allocator numbers and draws its children exactly as NumPy's
``SeedSequence.spawn`` -> ``PCG64`` -> ``Generator`` does."""

import numpy as np
import pytest

from fpfkit.streams import Streams


def _root(entropy, spawn_key=(), spawned=0):
    return np.random.SeedSequence(entropy, spawn_key=spawn_key, n_children_spawned=spawned)


def _reference(root, n, shape):
    """First ``random(shape)`` of each of the root's next n spawned children."""
    return np.array(
        [np.random.Generator(np.random.PCG64(s)).random(shape) for s in root.spawn(n)]
    ).reshape(n, *shape)


# The last entropy is a fixed full 128-bit value, the size ``SeedSequence()``
# draws from the OS; it is written out so that the test ids stay the same
# from run to run.
ENTROPIES = [0, 42, 2**32 - 1, 2**32, 2**70 + 3, 236359095341679666064364748440517203961]


@pytest.mark.parametrize("entropy", ENTROPIES)
@pytest.mark.parametrize("spawn_key", [(), (3,), (7, 2**40)])
def test_uniforms_equal_spawned_generators(entropy, spawn_key):
    streams = Streams(_root(entropy, spawn_key))
    ref = _root(entropy, spawn_key)
    for n, shape in [(5, (9, 3)), (1, (4,)), (0, (9, 3)), (3, ())]:
        got = streams.uniforms(n, shape)
        assert got.shape == (n, *shape)
        assert np.array_equal(got, _reference(ref, n, shape))


def test_long_blocks_equal_spawned_generators():
    streams, ref = Streams(_root(11)), _root(11)
    assert np.array_equal(streams.uniforms(800, (9, 3)), _reference(ref, 800, (9, 3)))
    assert np.array_equal(streams.uniforms(100, (80, 12)), _reference(ref, 100, (80, 12)))


def test_single_children_equal_spawned_children():
    streams, ref = Streams(_root(2**70 + 3, (5,))), _root(2**70 + 3, (5,))
    child = streams.child()
    expected = ref.spawn(1)[0]
    assert child.spawn_key == expected.spawn_key
    assert np.array_equal(child.generate_state(8), expected.generate_state(8))
    got = streams.generator().random(50)
    assert np.array_equal(got, np.random.Generator(np.random.PCG64(ref.spawn(1)[0])).random(50))


def test_root_with_spawned_children_continues_its_numbering():
    root = _root(42)
    root.spawn(7)
    streams = Streams(root)
    ref = _root(42, spawned=7)
    assert np.array_equal(streams.uniforms(4, (9, 3)), _reference(ref, 4, (9, 3)))
    assert root.n_children_spawned == 7  # the root itself is not advanced


def test_interleaved_calls_number_children_like_spawn():
    streams, ref = Streams(_root(100042)), _root(100042)

    def next_generator():
        return np.random.Generator(np.random.PCG64(ref.spawn(1)[0]))

    assert np.array_equal(streams.generator().random((3, 2)), next_generator().random((3, 2)))
    assert np.array_equal(streams.uniforms(6, (9, 3)), _reference(ref, 6, (9, 3)))
    assert streams.child().spawn_key == ref.spawn(1)[0].spawn_key
    assert streams.uniforms(0, (9, 3)).shape == (0, 9, 3)
    assert np.array_equal(streams.uniforms(1, (2, 5)), _reference(ref, 1, (2, 5)))
    assert np.array_equal(streams.generator().random(4), next_generator().random(4))


@pytest.mark.parametrize(
    "root",
    [
        np.random.SeedSequence([1, 2]),
        np.random.SeedSequence((3,)),
        np.random.SeedSequence(5, pool_size=8),
    ],
    ids=["list-entropy", "tuple-entropy", "pool-size-8"],
)
def test_unsupported_roots_are_rejected(root):
    with pytest.raises(ValueError):
        Streams(root)


def test_negative_child_count_is_rejected():
    with pytest.raises(ValueError):
        Streams(_root(0)).uniforms(-1, (2,))


def test_child_indices_stop_at_32_bits():
    """Child 2**32 would need a two-word spawn key, which the kernel does not
    assemble; the last one-word child is still exact. NumPy's ``spawn`` on a
    root that has already spawned 2**32 - 1 children does not return, so the
    reference child is built from its key."""
    streams = Streams(_root(9, spawned=2**32 - 1))
    last = np.random.SeedSequence(9, spawn_key=(2**32 - 1,))
    expected = np.random.Generator(np.random.PCG64(last)).random((1, 3))
    assert np.array_equal(streams.uniforms(1, (3,)), expected)
    with pytest.raises(ValueError):
        streams.uniforms(1, (3,))
