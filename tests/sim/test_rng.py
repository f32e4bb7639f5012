"""Deterministic RNG behaviour."""

import random

import pytest

from repro.sim.rng import SeededRng


def test_same_seed_same_stream():
    a = SeededRng(7)
    b = SeededRng(7)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = SeededRng(1)
    b = SeededRng(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_forks_are_reproducible():
    a = SeededRng(7).fork("net")
    b = SeededRng(7).fork("net")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_forks_are_independent_of_parent_consumption():
    parent1 = SeededRng(7)
    child1 = parent1.fork("x")
    parent2 = SeededRng(7)
    parent2.random()  # consuming the parent must not perturb the child
    child2 = parent2.fork("x")
    assert [child1.random() for _ in range(5)] == [
        child2.random() for _ in range(5)
    ]


def test_fork_names_differ():
    parent = SeededRng(7)
    a = parent.fork("a")
    b = parent.fork("b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_randint_bounds():
    rng = SeededRng(3)
    values = [rng.randint(1, 6) for _ in range(200)]
    assert min(values) >= 1
    assert max(values) <= 6


@pytest.mark.parametrize("seed", [0, 1, 7, 20990131])
def test_randint_stream_matches_random_randint(seed):
    """Same values, and the same stream left behind, as
    ``random.Random.randint`` over widths 1, powers of two (where the
    bit-length draw is tightest) and their neighbours."""
    rng = SeededRng(seed)
    reference = random.Random(seed)
    ranges = [
        (5, 5),
        (0, 1),
        (1, 2),
        (0, 7),
        (0, 8),
        (1, 1 << 16),
        (1, (1 << 24) - 2),
        (-3, 3),
        (0, (1 << 40) + 1),
        (1, 6),
    ]
    for low, high in ranges * 25:
        assert rng.randint(low, high) == reference.randint(low, high)
    assert rng.random() == reference.random()


def test_randint_rejects_an_empty_range_as_random_does():
    with pytest.raises(ValueError) as expected:
        random.Random(3).randint(4, 3)
    with pytest.raises(ValueError) as got:
        SeededRng(3).randint(4, 3)
    assert str(got.value) == str(expected.value)


def test_uniform_bounds():
    rng = SeededRng(3)
    for _ in range(100):
        value = rng.uniform(2.0, 3.0)
        assert 2.0 <= value <= 3.0


def test_choice_and_shuffle_deterministic():
    rng1 = SeededRng(5)
    rng2 = SeededRng(5)
    items1 = list(range(10))
    items2 = list(range(10))
    rng1.shuffle(items1)
    rng2.shuffle(items2)
    assert items1 == items2
    assert rng1.choice("abc") == rng2.choice("abc")
