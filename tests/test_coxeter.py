import random

import pytest

from conftest import bfs_lengths, subword_interval
from klbounds import build_system, get_system, weyl_group_order
from klbounds.cartan import CartanDatum, parse_type, positive_root_count
from klbounds.errors import EnumerationCapError, ParseError
from klbounds.kl import get_engine
from klbounds.parabolic import parse_subgroup_spec


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3",
                                  "C3", "D3", "D4", "G2"])
def test_enumerated_order_matches_closed_form(name):
    system = get_system(name)
    want = weyl_group_order(system.datum.family, system.datum.rank)
    assert system.order() == want


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_positive_root_generation_count(name):
    system = get_system(name)
    fam, rank = system.datum.family, system.datum.rank
    assert len(system.positive_root_vecs) == positive_root_count(fam, rank)


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_length_is_cayley_distance(name):
    system = get_system(name)
    dist = bfs_lengths(system)
    assert len(dist) == system.order()
    for w in system.elements():
        assert system.length(w) == dist[w]


def test_length_is_inversion_count(b3):
    # the number of positive roots sent negative, straight from the action
    for w in random.Random(7).sample(b3.elements(), 12):
        sent_negative = sum(
            1 for alpha in b3.positive_root_vecs
            if b3.act(w, alpha) not in set(b3.positive_root_vecs))
        assert sent_negative == b3.length(w)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_bruhat_matches_subword_oracle(name):
    system = get_system(name)
    elements = system.elements()
    for w in elements:
        below = subword_interval(system, w)
        for x in elements:
            assert system.bruhat_leq(x, w) == (x in below), (x, w)


def test_lower_interval_matches_oracle(a3, b3):
    # the engine lifts each column's interval from the previous column
    for ctx in (a3, b3, parse_subgroup_spec(a3, "refl:1-3,2-4")):
        for rule in ("lowest", "highest"):
            engine = get_engine(ctx, rule)
            for w in ctx.elements():
                assert set(engine.column(w)) == subword_interval(ctx, w)


@pytest.mark.parametrize("name", ["A3", "B2", "D3", "G2"])
def test_canonical_words_are_reduced(name):
    system = get_system(name)
    for w in system.elements():
        word = system.canonical_word(w)
        assert len(word) == system.length(w)
        u = system.identity
        for i in word:
            u = system.right_mul(u, i)
        assert u == w


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "G2"])
def test_left_mul_table_matches_root_images(name):
    # a system of its own, so its product tables start empty
    system = build_system(parse_type(name))
    mul = system.multiply
    gens = system.simple_reflections
    for w in system.elements():
        for i in range(system.num_simples):
            u = system.left_mul(i, w)
            assert u == mul(gens[i], w)
            assert system.left_mul(i, u) is w
            step = -1 if system.left_descent(w, i) else 1
            assert system.length(u) == system.length(w) + step
            assert system.right_mul(w, i) == mul(w, gens[i])
        for rd in system._refl_data:
            t = rd.element
            assert system.reflect_mul_left(rd, w) == mul(t, w)
            assert system.reflect_mul_right(w, rd) == mul(w, t)


def test_parabolic_generator_products_match_multiply(a3):
    sub = parse_subgroup_spec(a3, "refl:1-3,2-4")
    assert not sub.is_standard
    for w in a3.elements():
        for i, s in enumerate(sub.simple_reflections):
            assert sub.left_mul(i, w) == a3.multiply(s, w)
            assert sub.right_mul(w, i) == a3.multiply(w, s)


def test_left_mul_table_fill_order_is_invisible():
    # fill the tables longest element first, before any canonical word
    # (elements() sorts by canonical word, so BFS finds the elements here)
    warm = build_system(parse_type("B3"))
    for w in reversed(list(bfs_lengths(warm))):
        for i in range(warm.num_simples):
            warm.left_mul(i, w)
    cold = build_system(parse_type("B3"))
    assert {w.images: warm.canonical_word(w) for w in warm.elements()} == \
        {w.images: cold.canonical_word(w) for w in cold.elements()}


def test_group_laws_sampled(b3):
    rng = random.Random(11)
    els = b3.elements()
    mul, inv = b3.multiply, b3.inverse
    for _ in range(50):
        u, v, w = rng.choice(els), rng.choice(els), rng.choice(els)
        assert mul(mul(u, v), w) == mul(u, mul(v, w))
        assert mul(u, inv(u)) == b3.identity
        assert inv(mul(u, v)) == mul(inv(v), inv(u))


def test_length_of_inverse(b3):
    for w in b3.elements():
        assert b3.length(w) == b3.length(b3.inverse(w))


def test_bruhat_inverse_compatible(a3):
    els = a3.elements()
    for x in els:
        for w in els:
            assert a3.bruhat_leq(x, w) == \
                a3.bruhat_leq(a3.inverse(x), a3.inverse(w))


# -- element notation

def test_parse_one_line_type_a(a3):
    w = a3.parse_element("2143")
    assert a3.format_element(w) == "2143"
    assert a3.length(w) == 2
    assert a3.parse_element("2,1,4,3") == w


def test_parse_words(a3):
    assert a3.parse_element("s1 s2 s1") == a3.parse_element("s2 s1 s2")
    assert a3.parse_element("s1.s2.s1") == a3.parse_element("s1 s2 s1")
    for text in ("e", "id", "identity"):
        assert a3.parse_element(text) == a3.identity


def test_parse_rejects_bad_one_line(a3):
    for text in ("2134567", "1235", "-2,1,4,3", "0,1,2,3", "1123"):
        with pytest.raises(ParseError):
            a3.parse_element(text)


def test_signed_window_round_trip():
    b4 = get_system("B4")
    w = b4.parse_element("-4,2,1,-3")
    assert b4.format_element(w) == "-4,2,1,-3"
    assert b4.format_element(b4.identity) == "1,2,3,4"


def test_signed_windows_exhaustive(b2):
    seen = set()
    for w in b2.elements():
        text = b2.format_element(w)
        assert b2.parse_element(text) == w
        seen.add(text)
    assert len(seen) == 8


def test_d_family_needs_even_negatives():
    d3 = get_system("D3")
    d3.parse_element("-2,-1,3")
    with pytest.raises(ParseError):
        d3.parse_element("-2,1,3")


def test_signed_window_is_inverse_value_list():
    # the window lists, per position, the signed source slot: entry t at
    # position i means w sends slot |t| to position i with sign sgn(t),
    # so the window read as a signed permutation is w^(-1)
    b3 = get_system("B3")
    for w in b3.elements():
        window = [int(t) for t in b3.format_element(w).split(",")]
        winv = [int(t) for t in b3.format_element(b3.inverse(w)).split(",")]
        for pos, t in enumerate(window, start=1):
            spot = abs(t)
            assert abs(winv[spot - 1]) == pos
            assert (winv[spot - 1] > 0) == (t > 0)


def test_word_format_round_trip(b3):
    for w in random.Random(5).sample(b3.elements(), 10):
        text = b3.format_element(w, "word")
        assert b3.parse_element(text) == w


def test_exceptional_rejects_one_line():
    g2 = get_system("G2")
    with pytest.raises(ParseError):
        g2.parse_element("12")
    w = g2.parse_element("s1 s2")
    assert g2.length(w) == 2


def test_classical_root_reflection(a3):
    r13 = a3.reflection_for_root(a3.classical_root(1, 3, "diff"))
    assert a3.format_element(r13) == "3214"


def test_elements_sorted_by_length(a3):
    lengths = [a3.length(w) for w in a3.elements()]
    assert lengths == sorted(lengths)
    assert lengths[0] == 0 and lengths[-1] == 6


def test_enumeration_cap():
    system = build_system(CartanDatum.standard("A", 3), enum_cap=5)
    with pytest.raises(EnumerationCapError):
        system.elements()


def test_get_system_caches():
    assert get_system("A3") is get_system("a3")
    assert get_system("B3") is get_system("B", 3)
