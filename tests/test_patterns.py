import itertools
import random

import pytest
from hypothesis import given, strategies as st

from conftest import contains_ref, flatten_ref
from klbounds.patterns import (HEXAGON_PATTERNS, P2_PATTERNS,
                               SMOOTHNESS_PATTERNS,
                               avoids_patterns, conjecture_p2_patterns,
                               contains_pattern, flatten,
                               is_321_hexagon_avoiding,
                               is_rationally_smooth_typeA, pattern_witness)


def _inv(w):
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def test_flatten_basics():
    assert flatten((4, 6, 1, 2)) == (3, 4, 1, 2)
    assert flatten((10, -3, 7)) == (3, 1, 2)
    assert flatten(()) == ()
    assert flatten((1, 2, 3)) == (1, 2, 3)


def test_flatten_accepts_generators():
    # a generator argument must not be half-consumed by the sort
    assert flatten(v for v in (5, 2, 9)) == (2, 1, 3)


@given(st.lists(st.integers(-100, 100), max_size=9, unique=True))
def test_flatten_is_order_isomorphic(values):
    flat = flatten(values)
    assert sorted(flat) == list(range(1, len(values) + 1))
    for i in range(len(values)):
        for j in range(len(values)):
            assert (values[i] < values[j]) == (flat[i] < flat[j])
    assert flatten(flat) == flat


def test_witness_for_worked_example():
    w, v = "4536172", "3412"
    wit = pattern_witness(w, v)
    assert wit == (1, 2, 5, 7)  # the lexicographically first witness
    wtup = tuple(int(c) for c in w)
    assert flatten(tuple(wtup[p - 1] for p in wit)) == (3, 4, 1, 2)
    # another valid witness for the same pattern
    assert flatten(tuple(wtup[p - 1] for p in (1, 4, 5, 7))) == (3, 4, 1, 2)


def test_witness_none_when_absent():
    assert pattern_witness("4536172", "4321") is None
    assert pattern_witness("123", "1234") is None


def test_contains_pattern_forms():
    assert contains_pattern("4536172", "3412")
    assert not contains_pattern("4536172", "4321")
    found, wit = contains_pattern((2, 1, 3), (2, 1), return_witness=True)
    assert found and wit == (1, 2)
    found, wit = contains_pattern((1, 2, 3), (2, 1), return_witness=True)
    assert not found and wit is None


def test_contains_matches_bruteforce_small():
    fives = list(itertools.permutations(range(1, 6)))
    threes = list(itertools.permutations(range(1, 4)))
    for w in fives:
        for v in threes:
            assert contains_pattern(w, v) == contains_ref(w, v), (w, v)


def test_contains_matches_bruteforce_sampled():
    rng = random.Random(2026)
    sevens = list(itertools.permutations(range(1, 8)))
    fours = list(itertools.permutations(range(1, 5)))
    for _ in range(150):
        w = rng.choice(sevens)
        v = rng.choice(fours)
        assert contains_pattern(w, v) == contains_ref(w, v), (w, v)


def test_witnesses_are_always_valid():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(4, 9)
        w = list(range(1, n + 1))
        rng.shuffle(w)
        v = list(range(1, rng.randrange(2, 5) + 1))
        rng.shuffle(v)
        wit = pattern_witness(w, v)
        if wit is not None:
            assert list(wit) == sorted(wit)
            assert flatten_ref([w[p - 1] for p in wit]) == tuple(v)
        else:
            assert not contains_ref(w, v)


def test_containment_inverse_duality():
    # w contains v exactly when w^(-1) contains v^(-1)
    rng = random.Random(13)
    for _ in range(80):
        w = list(range(1, 8))
        rng.shuffle(w)
        v = list(range(1, 5))
        rng.shuffle(v)
        assert contains_pattern(w, v) == contains_pattern(_inv(w), _inv(v))


def test_pattern_rejects_garbage():
    with pytest.raises(ValueError):
        contains_pattern((1, 1, 2), (1, 2))
    with pytest.raises(ValueError):
        contains_pattern((1, 3), (1, 2))


def test_pattern_query():
    assert contains_pattern("4536172", "3412", return_witness=True) == \
        (True, (1, 2, 5, 7))
    assert contains_pattern("4536172", "4321", return_witness=True) == \
        (False, None)


def test_smoothness_patterns_match_kl():
    from klbounds import get_system, kl_polynomial
    from klbounds.polynomials import ONE
    for name in ("A2", "A3"):
        system = get_system(name)
        for w in system.elements():
            flat = tuple(int(t) for t in
                         system.format_element(w, "token").split(","))
            smooth = kl_polynomial(system, system.identity, w) == ONE
            assert smooth == is_rationally_smooth_typeA(flat), flat


def test_smoothness_pattern_constants():
    assert SMOOTHNESS_PATTERNS == ((4, 2, 3, 1), (3, 4, 1, 2))
    assert not is_rationally_smooth_typeA((4, 2, 3, 1))
    assert not is_rationally_smooth_typeA((3, 4, 1, 2))
    assert is_rationally_smooth_typeA((1, 2, 3, 4))


def test_hexagon_predicate():
    assert is_321_hexagon_avoiding((1, 2, 3))
    assert not is_321_hexagon_avoiding((3, 2, 1))
    assert is_321_hexagon_avoiding((3, 1, 2))
    for pat in HEXAGON_PATTERNS[1:]:
        assert not is_321_hexagon_avoiding(pat)
        assert len(pat) == 8


def test_p2_predicate():
    assert conjecture_p2_patterns(tuple(range(1, 7)))
    for pat in P2_PATTERNS:
        assert not conjecture_p2_patterns(pat)
    assert avoids_patterns((2, 1), P2_PATTERNS)
