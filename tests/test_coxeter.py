import random

import pytest

from conftest import bfs_lengths, subword_interval
from klbounds import build_system, get_system, weyl_group_order
from klbounds.cartan import CartanDatum, parse_type, positive_root_count
from klbounds.coxeter import _vec_is_negative
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


@pytest.mark.parametrize("name", ["A3", "A4", "B3"])
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


@pytest.mark.parametrize("spec", ["A3", "B3", "G2", "B3|standard:s2,s3"])
def test_lower_interval_tuples_lift_the_column(spec):
    name, _, parabolic = spec.partition("|")
    ctx = get_system(name)
    if parabolic:
        ctx = parse_subgroup_spec(ctx, parabolic)
    engine = get_engine(ctx)
    for v in ctx.elements():
        below = engine.column(v)
        for i in range(ctx.num_simples):
            if ctx.left_descent(v, i):
                continue
            result = ctx.lower_interval(i, below)
            for lx, x, sx, down in result:
                assert lx == ctx.length(x)
                assert sx == ctx.left_mul(i, x)
                assert down == ctx.left_descent(x, i)
            members = [x for _, x, _, _ in result]
            assert len(set(members)) == len(members)
            assert set(members) == subword_interval(ctx, ctx.left_mul(i, v))
            # reference order: below first, then each new s_i z in the
            # order of below, stably sorted by decreasing length
            lifted = [ctx.left_mul(i, z) for z in below
                      if not ctx.left_descent(z, i)]
            old = dict.fromkeys(list(below) + lifted)
            assert members == sorted(old, key=ctx.length, reverse=True)


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


def _inversion_count(system, w):
    # l(w) as the number of positive roots that w sends to negative ones
    return sum(1 for g in system.positive_root_vecs
               if _vec_is_negative(system.act(w, g)))


def _check_simple_step(system, w, i):
    """left_mul and right_mul by s_i agree with the general kernel, tuple
    for tuple, and propagate the length that the root images give."""
    rd = system._simple_rdata[i]
    step = system._simple_step
    assert step(i, w.images, w.inv_images) == \
        system._reflect(rd, w.images, w.inv_images)
    assert step(i, w.inv_images, w.images) == \
        system._reflect(rd, w.inv_images, w.images)
    u = system.left_mul(i, w)
    v = system.right_mul(w, i)
    assert u is system.reflect_mul_left(rd, w)
    assert v is system.reflect_mul_right(w, rd)
    for el in (u, v):
        assert system._length[el] == _inversion_count(system, el)
    return u, v


@pytest.mark.parametrize("name", ["A4", "B3", "C3", "D4", "G2", "F4"])
def test_simple_step_matches_general_kernel(name):
    # walk from e by the generator products themselves, on a system of
    # its own, so every length is one that the steps propagated
    system = build_system(parse_type(name))
    seen = {system.identity}
    frontier = [system.identity]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(system.num_simples):
                for el in _check_simple_step(system, w, i):
                    if el not in seen:
                        seen.add(el)
                        nxt.append(el)
        frontier = nxt
    assert len(seen) == weyl_group_order(system.datum.family, system.rank)


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_simple_step_matches_general_kernel_on_random_words(name):
    system = build_system(parse_type(name))
    rng = random.Random(f"{name}:simple-step")
    for _ in range(20):
        w = system.identity
        for _ in range(30):
            i = rng.randrange(system.num_simples)
            u, v = _check_simple_step(system, w, i)
            w = u if rng.random() < 0.5 else v


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


def _simple_reflection_perm(family, n, g):
    """s_(g+1) as a signed permutation of the points: entry k is the
    signed point that e_k goes to.  Family A: alpha_i = e_i - e_(i+1) on
    n+1 points; B/C/D: alpha_i = e_(n+1-i) - e_(n-i) for i < n, and the
    last root is e_1 (B), 2 e_1 (C) or e_1 + e_2 (D)."""
    if family == "A":
        perm = list(range(1, n + 2))
        perm[g], perm[g + 1] = g + 2, g + 1
        return perm
    perm = list(range(1, n + 1))
    if g < n - 1:
        a, b = n - 1 - g, n - g
        perm[a - 1], perm[b - 1] = b, a
    elif family == "D":
        perm[0], perm[1] = -2, -1
    else:
        perm[0] = -1
    return perm


@pytest.mark.parametrize("name", ["A4", "B3", "C3", "C4", "D4"])
def test_windows_follow_signed_permutation_oracle(name):
    # s_i w acts on the values of a family-A window and on the positions
    # of a signed window (entry i of the window of s_i w is the entry of
    # the window of w at the signed position s_i(i))
    system = get_system(name)
    fam, n = system.datum.family, system.rank
    perms = [_simple_reflection_perm(fam, n, g) for g in range(n)]
    for w in system.elements():
        window = system.to_oneline(w)
        assert system.parse_oneline(window) is w
        for g, s in enumerate(perms):
            if fam == "A":
                want = tuple(s[v - 1] for v in window)
            else:
                want = tuple(window[abs(t) - 1] * (1 if t > 0 else -1)
                             for t in s)
            assert system.to_oneline(system.left_mul(g, w)) == want


@pytest.mark.parametrize("name", ["A4", "B3", "C3", "D4"])
def test_evec_conversions_invert_each_other(name):
    system = get_system(name)
    pts = system.classical_points()
    for v in system.positive_root_vecs:
        ev = system.to_evec(v)
        assert len(ev) == pts
        assert system.from_evec(ev) == v
        assert system.from_evec(tuple(-c for c in ev)) == \
            tuple(-c for c in v)
    if system.datum.family != "B":
        # e_1 lies in the root lattice of B only
        with pytest.raises(ParseError, match="outside the root lattice"):
            system.from_evec((1,) + (0,) * (pts - 1))


@pytest.mark.parametrize("name, a, b, kind, ev", [
    ("A3", 1, 3, "diff", (1, 0, -1, 0)),
    ("A3", 4, 2, "diff", (0, -1, 0, 1)),
    ("B3", 1, 3, "diff", (1, 0, -1)),
    ("B3", 2, 3, "sum", (0, 1, 1)),
    ("B3", 2, None, "sign", (0, 1, 0)),
    ("C3", 3, None, "sign", (0, 0, 2)),
    ("D4", 1, 4, "sum", (1, 0, 0, 1)),
])
def test_classical_root_builds_the_named_root(name, a, b, kind, ev):
    system = get_system(name)
    coords = system.classical_root(a, b, kind)
    assert system.to_evec(coords) == ev
    system.reflection_for_root(coords)  # a root of the system


@pytest.mark.parametrize("name, args, message", [
    ("A3", (1, 2, "sum"), "family A has only e_a - e_b roots"),
    ("A3", (1, None, "sign"), "family A has only e_a - e_b roots"),
    ("A3", (1,), "family A has only e_a - e_b roots"),
    ("A3", (2, 2), "family A has only e_a - e_b roots"),
    ("D4", (1, None, "sign"), "family D has no sign-change roots"),
    ("B3", (1,), "need two distinct positions"),
    ("B3", (2, 2, "sum"), "need two distinct positions"),
    ("A3", (0, 2), "positions must lie in 1..4"),
    ("B3", (1, 4), "positions must lie in 1..3"),
    ("C3", (4, None, "sign"), "positions must lie in 1..3"),
    ("B3", (1, 2, "bogus"), "unknown root kind 'bogus'"),
    ("G2", (1, 2), "classical roots need a classical family"),
])
def test_classical_root_refusals(name, args, message):
    with pytest.raises(ParseError) as info:
        get_system(name).classical_root(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("name, values, message", [
    ("D4", (-1, 2, 3, 4), "family D needs an even number of signs"),
    ("D3", (-2, -1, -3), "family D needs an even number of signs"),
    ("A3", (-1, 2, 3, 4),
     "(-1, 2, 3, 4) is not a permutation of 1..4 (family A takes no signs)"),
    ("A3", (1, 2, 3, 5),
     "(1, 2, 3, 5) is not a permutation of 1..4 (family A takes no signs)"),
    ("B3", (1, -1, 3),
     "(1, -1, 3) entry magnitudes must be a permutation of 1..3"),
    ("B3", (1, 2), "expected 3 one-line entries, got 2"),
    ("G2", (1, 2), "G2 has no one-line form"),
])
def test_parse_oneline_refusals(name, values, message):
    with pytest.raises(ParseError) as info:
        get_system(name).parse_oneline(values)
    assert str(info.value) == message


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
