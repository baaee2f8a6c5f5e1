import itertools
import random

import pytest

from klbounds import get_system
from klbounds.errors import NonParabolicError, ParseError
from klbounds.parabolic import (all_parabolic_subgroups, coset_minimum,
                                describe_subgroup, embed_pattern,
                                flatten_classical, flatten_element,
                                flatten_matches_phi,
                                parabolic_from_reflections,
                                parse_subgroup_spec, phi_coset, phi_root,
                                position_subgroup, standard_parabolic,
                                standard_parabolic_subgroups,
                                unsigned_subgroup)


def test_spec_round_trips(a3, b3):
    cases = [
        (a3, "trivial"), (a3, "standard:s1,s3"), (a3, "standard:s1,s2,s3"),
        (a3, "refl:1-3,2-4"), (b3, "standard:s2"), (b3, "unsigned"),
    ]
    for system, spec in cases:
        sub = parse_subgroup_spec(system, spec)
        redescribed = describe_subgroup(sub)
        again = parse_subgroup_spec(system, redescribed)
        assert again == sub, spec


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "B2", "B3", "C3",
                                  "D4", "G2"])
def test_every_parabolic_spec_is_its_own_description(name):
    # verify's subgroup units rely on this: the unit arg, which run_unit
    # parses, is already the records' subgroup token
    system = get_system(name)
    for sub in all_parabolic_subgroups(system):
        spec = describe_subgroup(sub)
        assert describe_subgroup(parse_subgroup_spec(system, spec)) == spec


def test_spec_constructions_agree(a3):
    assert parse_subgroup_spec(a3, "standard:s1,s2") == \
        standard_parabolic(a3, [0, 1])
    assert parse_subgroup_spec(a3, "full") == \
        standard_parabolic(a3, [0, 1, 2])
    r13 = a3.classical_root(1, 3, "diff")
    r24 = a3.classical_root(2, 4, "diff")
    assert parse_subgroup_spec(a3, "refl:1-3,2-4") == \
        parabolic_from_reflections(a3, [r13, r24])
    # a conjugate of a standard parabolic, spelled both ways
    x = a3.parse_element("2314")
    conj = parse_subgroup_spec(a3, "conj:2314|s1")
    gen = a3.multiply(a3.multiply(x, a3.parse_element("s1")), a3.inverse(x))
    assert conj == parabolic_from_reflections(a3, [gen])


def test_bad_specs_rejected(a3, b3):
    for spec in ("nonsense", "positions:0,2", "positions:1,9",
                 "standard:s9", "rootidx:99", "rootidx:-1"):
        with pytest.raises(ParseError):
            parse_subgroup_spec(a3, spec)
    with pytest.raises(ParseError):
        parse_subgroup_spec(a3, "unsigned")  # family A has no signs
    with pytest.raises(ParseError):
        parse_subgroup_spec(a3, "signed:1,2")
    # an empty block list degenerates to the trivial subgroup
    assert parse_subgroup_spec(b3, "signed:") == \
        parse_subgroup_spec(b3, "trivial")


def test_every_reflection_subset_is_parabolic_in_type_a(a3):
    # distinguishing feature of the symmetric group
    for k in range(1, 4):
        for refls in itertools.combinations(a3.reflections, k):
            sub = parabolic_from_reflections(a3, list(refls))
            for r in refls:
                assert r in sub.reflections


def test_sign_reflections_not_parabolic_in_b2(b2):
    e1 = b2.classical_root(1, kind="sign")
    e2 = b2.classical_root(2, kind="sign")
    with pytest.raises(NonParabolicError) as info:
        parabolic_from_reflections(b2, [e1, e2])
    witness = info.value.witness
    assert witness is not None
    # the missing reflection lies in the span but not in the closure
    assert witness in b2.reflections


def test_subgroup_length_and_order(a3):
    sub = parse_subgroup_spec(a3, "refl:1-3,2-4")
    assert sub.order() == 4
    for u in sub.elements():
        assert sub.length(u) <= a3.length(u)
    top = max(sub.elements(), key=sub.length)
    assert sub.length(top) == 2


def test_counts_of_parabolic_subgroups(a3, b3):
    assert len(standard_parabolic_subgroups(a3)) == 8
    # 1 trivial + 6 single transpositions + 3 pair groups + 4 point
    # stabilizers + the full group
    assert len(all_parabolic_subgroups(a3)) == 15
    assert len(all_parabolic_subgroups(b3)) == 24
    for sub in all_parabolic_subgroups(a3):
        if sub.is_standard:
            continue
        # every parabolic is a conjugate of a standard one
        assert any(len(s.root_indices) == len(sub.root_indices)
                   for s in standard_parabolic_subgroups(a3))


def test_coset_minimum_properties(a3):
    sub = parse_subgroup_spec(a3, "standard:s1,s3")
    for w in a3.elements():
        m = coset_minimum(sub, w)
        coset = {a3.multiply(u, w) for u in sub.elements()}
        assert m in coset
        assert a3.length(m) == min(a3.length(z) for z in coset)
        u = a3.multiply(w, a3.inverse(m))
        assert u in set(sub.elements())
        assert a3.length(w) == sub.length(u) + a3.length(m) or \
            a3.length(w) == a3.length(a3.multiply(u, m))


def test_phi_root_equals_phi_coset(a3):
    for sub in all_parabolic_subgroups(a3):
        for w in a3.elements():
            assert phi_root(sub, w) == phi_coset(sub, w)


def test_phi_fixes_subgroup_elements(a3, b3):
    for system, spec in ((a3, "refl:1-3,2-4"), (b3, "unsigned")):
        sub = parse_subgroup_spec(system, spec)
        for u in sub.elements():
            assert phi_root(sub, u) == u


def test_phi_equivariance(a3):
    sub = parse_subgroup_spec(a3, "standard:s1,s2")
    for w in a3.elements():
        fw = phi_root(sub, w)
        for u in sub.elements():
            assert phi_root(sub, a3.multiply(u, w)) == a3.multiply(u, fw)


def test_phi_worked_example_a6():
    a6 = get_system("A6")
    sub = parse_subgroup_spec(a6, "positions:1,4,6,7")
    w = a6.parse_element("6213475")
    image = phi_root(sub, w)
    assert flatten_element(sub, image) == (3, 1, 2, 4)
    assert a6.format_element(coset_minimum(sub, w)) == "1243675"
    # w factors through the subgroup part times the coset floor
    assert a6.multiply(image, coset_minimum(sub, w)) == w


def test_phi_worked_example_b4():
    b4 = get_system("B4")
    sub = parse_subgroup_spec(b4, "unsigned")
    w = b4.parse_element("-4,2,1,-3")
    assert flatten_element(sub, phi_root(sub, w)) == (1, 4, 3, 2)


def test_phi_worked_example_s9():
    a8 = get_system("A8")
    sub = parse_subgroup_spec(a8, "positions:1,3,4,5,7,8,9")
    # the same subgroup presented by its simple reflections
    assert sub == parse_subgroup_spec(a8, "refl:1-3,3-4,4-5,5-7,7-8,8-9")
    x = a8.parse_element("163457289")
    w = a8.parse_element("869457213")
    fx = phi_root(sub, x)
    fw = phi_root(sub, w)
    assert flatten_element(sub, fx) == (1, 2, 3, 4, 5, 6, 7)
    assert flatten_element(sub, fw) == (6, 7, 3, 4, 5, 1, 2)


def test_multi_block_flatten(a4):
    sub = parse_subgroup_spec(a4, "positions:1,3/2,5")
    w = a4.parse_element("43521")
    image = phi_root(sub, w)
    flat = flatten_element(sub, image)
    assert isinstance(flat, tuple) and len(flat) == 2
    for block_flat in flat:
        assert sorted(block_flat) == list(range(1, len(block_flat) + 1))


def test_embed_pattern_inverts_flatten(a4):
    sub = parse_subgroup_spec(a4, "positions:1,3,4")
    for u in sub.elements():
        flat = flatten_element(sub, u)
        assert embed_pattern(sub, flat) == u
    with pytest.raises(ParseError):
        embed_pattern(sub, (1, 2))


@pytest.mark.parametrize("block_index", [2, -1])
def test_embed_pattern_rejects_a_missing_block(a4, block_index):
    # two blocks: an index past the end, or a negative one, names none
    sub = parse_subgroup_spec(a4, "positions:1,3/2,5")
    with pytest.raises(ParseError):
        embed_pattern(sub, (2, 1), block_index)


@pytest.mark.parametrize("name, spec, flat", [
    ("A4", "positions:1,4", (0, 1)),
    ("A4", "positions:1,4", (1, 3)),
    ("A4", "positions:1,4", (1, 1)),
    ("A4", "positions:1,4", (-2, 1)),
    ("B3", "signed:1,3", (1, 3)),
    ("B3", "signed:1,3", (-1, 1)),
    ("B3", "signed:1,3", (0, 2)),
])
def test_embed_pattern_rejects_a_non_permutation(name, spec, flat):
    sub = parse_subgroup_spec(get_system(name), spec)
    with pytest.raises(ParseError, match="is not a"):
        embed_pattern(sub, flat)


def test_flatten_classical_is_value_selection():
    assert flatten_classical(7, (1, 4, 6, 7), (6, 2, 1, 3, 4, 7, 5)) == \
        (3, 1, 2, 4)
    assert flatten_classical(4, (1, 2, 3, 4), (2, 1, 4, 3)) == (2, 1, 4, 3)
    with pytest.raises(ParseError):
        flatten_classical(4, (0, 2), (2, 1, 4, 3))
    with pytest.raises(ParseError):
        flatten_classical(4, (1, 2), (2, 2, 4, 3))


def test_flatten_matches_phi_exhaustive_s5():
    perms = list(itertools.permutations(range(1, 6)))
    sigmas = [s for k in (2, 3, 4)
              for s in itertools.combinations(range(1, 6), k)]
    for sigma in sigmas:
        for w in perms:
            assert flatten_matches_phi(5, sigma, w), (sigma, w)


def test_signed_block_flatten(b3):
    sub = parse_subgroup_spec(b3, "signed:1,3")
    for u in sub.elements():
        flat = flatten_element(sub, u)
        assert sorted(abs(v) for v in flat) == [1, 2]
        assert embed_pattern(sub, flat) == u


def test_unsigned_flatten_matches_phi_exhaustive(b3):
    # integer-rank flattening of the signed window equals the pattern map
    sub = unsigned_subgroup(b3)
    for w in b3.elements():
        window = [int(t) for t in b3.format_element(w).split(",")]
        ranks = sorted(window)
        expect = tuple(ranks.index(v) + 1 for v in window)
        assert flatten_element(sub, phi_root(sub, w)) == expect


def test_position_subgroup_validation(a4):
    with pytest.raises(ParseError):
        position_subgroup(a4, [(1, 2), (2, 3)])  # overlapping blocks
    with pytest.raises(ParseError):
        position_subgroup(a4, [(0, 1)])
    with pytest.raises(ParseError):
        position_subgroup(a4, [(1, 2)], signed=True)  # family A
    d4 = get_system("D4")
    with pytest.raises(ParseError):
        position_subgroup(d4, [(2,)], signed=True)  # needs >= 2 points
