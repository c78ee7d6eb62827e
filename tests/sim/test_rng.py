"""Tests for seeded random streams."""

import hashlib
import random

from hypothesis import example, given, settings, strategies as st

from repro.sim.rng import SeededRng, sha256

NAMES = st.text(max_size=12)


def test_same_seed_same_stream():
    a = SeededRng(42)
    b = SeededRng(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = SeededRng(1)
    b = SeededRng(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_fork_is_independent_of_parent_consumption():
    """Forking after draws yields the same stream as forking before."""
    parent1 = SeededRng(7)
    fork_early = parent1.fork("net")
    parent2 = SeededRng(7)
    for _ in range(100):
        parent2.random()  # consume the parent heavily
    fork_late = parent2.fork("net")
    assert [fork_early.random() for _ in range(10)] == [
        fork_late.random() for _ in range(10)
    ]


def test_named_forks_are_distinct():
    root = SeededRng(3)
    a = root.fork("a")
    b = root.fork("b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_nested_forks_stable():
    one = SeededRng(5).fork("x").fork("y")
    two = SeededRng(5).fork("x").fork("y")
    assert one.random() == two.random()


def test_chance_extremes():
    rng = SeededRng(0)
    assert not rng.chance(0.0)
    assert rng.chance(1.0)
    assert not rng.chance(-1.0)
    assert rng.chance(2.0)


@given(st.floats(0.05, 0.95))
def test_chance_rate_roughly_matches(p):
    rng = SeededRng(123).fork(f"p{p}")
    hits = sum(rng.chance(p) for _ in range(2000))
    assert abs(hits / 2000 - p) < 0.08


def test_uniform_bounds():
    rng = SeededRng(9)
    for _ in range(100):
        value = rng.uniform(2.0, 3.0)
        assert 2.0 <= value <= 3.0


def test_sample_and_choice():
    rng = SeededRng(11)
    population = list(range(10))
    picked = rng.sample(population, 3)
    assert len(picked) == 3
    assert all(item in population for item in picked)
    assert rng.choice(population) in population


def test_shuffle_is_permutation():
    rng = SeededRng(13)
    items = list(range(20))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items


# -- the stream derivation and the owned sha256 --------------------------------


def _reference_stream(seed, a, b):
    """What ``SeededRng(seed).fork(a).fork(b)`` is defined to draw, derived
    with ``hashlib``: the first 8 bytes of the sha256 of its path, big-endian."""
    path = "/".join((str(seed), "root", a, b))
    digest = hashlib.sha256(path.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(), NAMES), NAMES, NAMES)
@example(4242, "net", "delay")
@example("ключ", "сеть", "задержка")
@example(-1, "", "\u20ac\U0001f600")
def test_a_forked_stream_is_its_paths_sha256(seed, a, b):
    ours = SeededRng(seed).fork(a).fork(b)
    reference = _reference_stream(seed, a, b)
    assert [ours.random() for _ in range(4)] == [reference.random() for _ in range(4)]
    assert ours.randint(0, 10**9) == reference.randint(0, 10**9)


def _chunks(data, cuts):
    """*data* cut at the (sorted, deduplicated) offsets *cuts*."""
    edges = [0, *sorted({cut % (len(data) + 1) for cut in cuts}), len(data)]
    return [data[lo:hi] for lo, hi in zip(edges, edges[1:])]


# Empty input, both sides of the 55/56-byte padding edge, one block, and
# several blocks with a ragged tail.
BOUNDARY_SIZES = [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128, 200, 1000]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.sampled_from(BOUNDARY_SIZES).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)
        ),
        st.binary(max_size=700),
    ),
    st.lists(st.integers(min_value=0), max_size=6),
)
def test_the_owned_sha256_is_hashlibs(data, cuts):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert sha256(data).digest() == hashlib.sha256(data).digest()
    fed = sha256()
    for chunk in _chunks(data, cuts):
        fed.update(chunk)
    assert fed.hexdigest() == hashlib.sha256(data).hexdigest()


def test_the_owned_sha256_pads_every_boundary():
    for size in BOUNDARY_SIZES:
        data = bytes(range(256)) * 4
        assert sha256(data[:size]).digest() == hashlib.sha256(data[:size]).digest(), size
