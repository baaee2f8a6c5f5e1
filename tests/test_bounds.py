import random

import pytest

from klbounds import get_system, kl_polynomial
from klbounds.bounds import (_coset_table, brenti_simion,
                             coefficientwise_bound, coefficientwise_bounds,
                             conjugate_is_standard, main_bound, maximal_set,
                             monotonicity_bound, parabolic_equalities,
                             parabolic_equality, standardness_holds)
from klbounds.errors import HypothesisError
from klbounds.parabolic import (all_parabolic_subgroups,
                                parabolic_from_reflections,
                                parse_subgroup_spec, phi_root,
                                standard_parabolic_subgroups)
from klbounds.polynomials import ONE, IntPolynomial

from conftest import maxima_oracle


def test_worked_example_s4(a3):
    sub = parse_subgroup_spec(a3, "refl:1-3,2-4")
    x = a3.parse_element("2143")
    w = a3.parse_element("4231")
    report = main_bound(sub, x, w)
    names = {a3.format_element(y) for y in report.maximal_set}
    assert names == {"4123", "2341"}
    assert report.rhs == 2
    assert report.lhs == 2
    assert report.holds and report.comparable
    assert len(report.per_term) == 2
    for _, pyw, pprime in report.per_term:
        assert pyw == 1 and pprime == 1
    assert kl_polynomial(a3, x, w) == IntPolynomial((1, 1))


def test_maximal_set_wrapper(a3):
    sub = parse_subgroup_spec(a3, "refl:1-3,2-4")
    x = a3.parse_element("2143")
    w = a3.parse_element("4231")
    ms = maximal_set(sub, x, w)
    assert ms == main_bound(sub, x, w).maximal_set


def test_incomparable_pair_is_trivially_true(a3):
    sub = parse_subgroup_spec(a3, "refl:1-3,2-4")
    x = a3.parse_element("4231")
    w = a3.parse_element("2143")
    report = main_bound(sub, x, w)
    assert not report.comparable
    assert report.lhs == 0 and report.rhs == 0 and report.holds


def test_main_bound_exhaustive_one_subgroup(a3):
    sub = parse_subgroup_spec(a3, "refl:2-3,1-4")
    els = a3.elements()
    for x in els:
        for w in els:
            assert main_bound(sub, x, w).holds


def test_conjugate_standardness_matches_reconstruction(a3):
    # x^-1 W' x is standard exactly when rebuilding the conjugated
    # subgroup from scratch lands on simple generators
    for sub in all_parabolic_subgroups(a3):
        for x in a3.elements():
            conj = [a3.multiply(a3.inverse(x), a3.multiply(t, x))
                    for t in sub.reflections]
            rebuilt = parabolic_from_reflections(a3, conj)
            assert conjugate_is_standard(sub, x) == rebuilt.is_standard


def test_coefficientwise_standard_subgroup(a3):
    sub = parse_subgroup_spec(a3, "standard:s1,s3")
    for x in a3.elements():
        for w in a3.elements():
            rep = coefficientwise_bound(sub, x, w)
            assert rep.holds
            if rep.empty:
                assert rep.y is None and rep.degrees == ()
            else:
                for k, lk, rk, good in rep.degrees:
                    assert good and lk >= rk


def test_coefficientwise_requires_standardness(a3):
    sub = parse_subgroup_spec(a3, "refl:1-3,2-4")
    with pytest.raises(HypothesisError):
        coefficientwise_bound(sub, a3.identity, a3.parse_element("4231"))


def test_parabolic_equality_on_cosets(a3):
    sub = parse_subgroup_spec(a3, "standard:s1,s2")
    subels = list(sub.elements())
    for x in a3.elements():
        if not conjugate_is_standard(sub, x):
            continue
        for u in subels:
            w = a3.multiply(u, x)
            assert parabolic_equality(sub, x, w).holds


def test_parabolic_equality_needs_same_coset(a3):
    sub = parse_subgroup_spec(a3, "standard:s1,s2")
    x = a3.identity
    w = a3.parse_element("1243")  # s3 x sits in a different coset
    with pytest.raises(HypothesisError):
        parabolic_equality(sub, x, w)


def _per_pair_rows(sub, x, w, y):
    """Degree rows of the bound from per-pair lookups and a fresh phi."""
    amb = sub.ambient
    lhs = kl_polynomial(amb, x, w)
    prod = kl_polynomial(amb, y, w) * kl_polynomial(
        sub, phi_root(sub, x), phi_root(sub, y))
    top = max(lhs.degree, prod.degree)
    return tuple((k, lhs[k], prod[k], lhs[k] >= prod[k])
                 for k in range(top + 1))


def _check_report(sub, x, w, rep, maxima):
    """rep against a maximal set found another way, for the pair (x, w)."""
    assert rep.x == x and rep.w == w
    if not maxima:
        assert rep.empty and rep.y is None and rep.degrees == ()
        return
    assert maxima == (rep.y,)
    assert not rep.empty
    assert rep.degrees == _per_pair_rows(sub, x, w, rep.y)
    assert rep.holds == all(row[3] for row in rep.degrees)


def test_window_maxima_set_up_once_per_subgroup(monkeypatch):
    # a fresh A4: the value orbits of W' are found once for the whole
    # main-theorem unit, and each maximum's window is parsed once per
    # system, so no more than the 120 elements of A4 are ever parsed
    from klbounds import bounds, build_system, parse_type, verify
    from klbounds.coxeter import CoxeterSystem

    calls = {"orbits": 0, "parse": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(bounds, "_value_orbits_typeA",
                        counted("orbits", bounds._value_orbits_typeA))
    monkeypatch.setattr(CoxeterSystem, "parse_oneline",
                        counted("parse", CoxeterSystem.parse_oneline))
    system = build_system(parse_type("A4"))
    sub = parse_subgroup_spec(system, "standard:s1,s3")
    records = verify._unit_main_theorem(sub, "standard:s1,s3")
    assert len(records) == 120 * 120
    assert all(rec.holds for rec in records)
    assert calls["orbits"] == 1
    assert 0 < calls["parse"] <= 120


@pytest.mark.parametrize("name,spec", [
    ("A3", None), ("B3", None), ("A3", "refl:1-3,2-4"),
], ids=["A3-standard", "B3-standard", "A3-refl"])
def test_coefficientwise_bounds_match_maximal_set(name, spec):
    system = get_system(name)
    if spec is None:
        subs = standard_parabolic_subgroups(system)
    else:
        subs = [parse_subgroup_spec(system, spec)]
    els = system.elements()
    eligible = 0
    for sub in subs:
        for x in els:
            if not standardness_holds(sub, x):
                continue
            eligible += 1
            reps = list(coefficientwise_bounds(sub, (x,), els))
            assert [rep.w for rep in reps] == list(els)
            for w, rep in zip(els, reps):
                _check_report(sub, x, w, rep, maximal_set(sub, x, w))
    assert eligible > 0


@pytest.mark.parametrize("name,samples", [("A4", 400), ("D4", 400)])
def test_coefficientwise_bound_sampled_pairs(name, samples):
    system = get_system(name)
    if name == "A4":
        subs = [parse_subgroup_spec(system, "full")]
    else:
        subs = standard_parabolic_subgroups(system)
    els = system.elements()
    rng = random.Random(f"{name}:coefficientwise")
    for _ in range(samples):
        sub = subs[rng.randrange(len(subs))]
        x = els[rng.randrange(len(els))]
        w = els[rng.randrange(len(els))]
        _check_report(sub, x, w, coefficientwise_bound(sub, x, w),
                      maximal_set(sub, x, w))


@pytest.mark.parametrize("name,spec,samples", [
    ("A3", None, None), ("B3", None, None), ("A3", "refl:1-3,2-4", None),
    ("A4", "full", 300), ("D4", None, 300),
], ids=["A3-standard", "B3-standard", "A3-refl", "A4-full-300", "D4-300"])
def test_coefficientwise_bounds_match_maxima_oracle(name, spec, samples):
    system = get_system(name)
    if spec is None:
        subs = standard_parabolic_subgroups(system)
    else:
        subs = [parse_subgroup_spec(system, spec)]
    els = system.elements()
    if samples is None:
        pairs = [(sub, x, els) for sub in subs for x in els
                 if standardness_holds(sub, x)]
    else:
        rng = random.Random(f"{name}:maxima-oracle")
        pairs = [(subs[rng.randrange(len(subs))],
                  els[rng.randrange(len(els))],
                  (els[rng.randrange(len(els))],)) for _ in range(samples)]
    assert pairs
    for sub, x, ws in pairs:
        for w, rep in zip(ws, coefficientwise_bounds(sub, (x,), ws),
                          strict=True):
            _check_report(sub, x, w, rep, maxima_oracle(sub, x, w))


@pytest.mark.parametrize("name,spec", [
    ("A3", None), ("B3", None), ("G2", None), ("A3", "refl:1-3,2-4"),
], ids=["A3", "B3", "G2", "A3-refl"])
def test_coset_table_matches_multiply(name, spec):
    system = get_system(name)
    if spec is None:
        subs = all_parabolic_subgroups(system)
    else:
        subs = [parse_subgroup_spec(system, spec)]
    # conjugates have generators that are not simple reflections
    assert any(not sub.is_standard for sub in subs)
    for sub in subs:
        subels = sub.elements()
        for x in system.elements():
            phix = phi_root(sub, x)
            assert _coset_table(sub, x, phix) == [
                (system.multiply(u, x), system.multiply(u, phix))
                for u in subels]


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_parabolic_equalities_match_parabolic_equality(name):
    system = get_system(name)
    for sub in all_parabolic_subgroups(system):
        subels = sub.elements()
        for x in system.elements():
            if not standardness_holds(sub, x):
                with pytest.raises(HypothesisError):
                    next(parabolic_equalities(sub, (x,)))
                continue
            results = {w: res for _, w, res in
                       parabolic_equalities(sub, (x,))}
            assert set(results) == {system.multiply(u, x) for u in subels}
            assert len(results) == len(subels)
            phix = phi_root(sub, x)
            for w, res in results.items():
                assert res == parabolic_equality(sub, x, w)
                assert res.lhs == kl_polynomial(system, x, w)
                assert res.rhs == kl_polynomial(sub, phix, phi_root(sub, w))
                assert res.holds


def test_monotonicity_exhaustive(a3):
    for spec in ("standard:s1,s2", "refl:1-3,2-4", "trivial"):
        sub = parse_subgroup_spec(a3, spec)
        for w in a3.elements():
            rep = monotonicity_bound(sub, w)
            assert rep.holds
            assert rep.lhs >= rep.mid >= rep.rhs
            assert a3.multiply(rep.phi_w, rep.coset_min) == w


def test_brenti_simion_trivial_splits():
    res0 = brenti_simion("2143", "4231", 0)
    res4 = brenti_simion("2143", "4231", 4)
    expect = IntPolynomial((1, 1))
    for res in (res0, res4):
        assert res.holds
        assert res.lhs == expect and res.rhs == expect


def test_brenti_simion_nontrivial_factor():
    # low block is the fixed point 1, high block flattens to the
    # singular S4 pair, so the product must reproduce 1 + q
    res = brenti_simion("13254", "15342", 1)
    assert res.holds
    assert res.rhs == IntPolynomial((1, 1))
    assert res.lhs(1) == 2


def test_brenti_simion_small_identity_cases():
    assert brenti_simion("12", "21", 0).holds
    assert brenti_simion((2, 1, 3, 4), (2, 1, 4, 3), 2).holds
    res = brenti_simion("1234", "2134", 2)
    assert res.lhs == ONE and res.rhs == ONE


def test_brenti_simion_hypothesis_errors():
    with pytest.raises(HypothesisError):
        brenti_simion("213", "2143", 1)       # size mismatch
    with pytest.raises(HypothesisError):
        brenti_simion("2143", "4231", 9)      # split point out of range
    with pytest.raises(HypothesisError):
        brenti_simion("2143", "4231", 2)      # blocks not aligned


def test_brenti_simion_exhaustive_s4_splits():
    import itertools
    perms = list(itertools.permutations(range(1, 5)))
    checked = 0
    for u in perms:
        for v in perms:
            for i in (1, 2, 3):
                pos_u = {p for p, val in enumerate(u) if val <= i}
                pos_v = {p for p, val in enumerate(v) if val <= i}
                if pos_u != pos_v:
                    continue
                assert brenti_simion(u, v, i).holds
                checked += 1
    assert checked > 100


def _maxima_generic(sub, x, w):
    # the non-window scan, kept exercised on family A by this test
    from klbounds.bounds import _coset_below

    members = _coset_below(sub, x, w)
    members.sort(key=lambda pair: -sub.length(pair[1]))
    maxima = []
    for y, fy in members:
        if not any(sub.bruhat_leq(fy, fz) for _, fz in maxima):
            maxima.append((y, fy))
    maxima.sort(key=lambda pair: sub.ambient.sort_key(pair[0]))
    return maxima


def test_window_maxima_match_generic_scan_exhaustive(a3):
    from klbounds.bounds import _maxima_typeA

    els = a3.elements()
    for sub in all_parabolic_subgroups(a3):
        for x in els:
            for w in els:
                assert _maxima_typeA(sub, x, w) == _maxima_generic(sub, x, w)


def test_window_maxima_match_generic_scan_sampled(a4):
    import random

    from klbounds.bounds import _maxima_typeA

    rng = random.Random(20240816)
    els = a4.elements()
    subs = [parse_subgroup_spec(a4, spec) for spec in
            ("refl:1-3,2-4", "standard:s1,s3,s4", "refl:1-5,2-3",
             "positions:1,3,5", "full")]
    for sub in subs:
        for _ in range(40):
            x = rng.choice(els)
            w = rng.choice(els)
            assert _maxima_typeA(sub, x, w) == _maxima_generic(sub, x, w)


@pytest.mark.parametrize("name,spec", [
    ("A3", None), ("B3", None), ("A3", "refl:1-3,2-4"),
], ids=["A3-standard", "B3-standard", "A3-refl"])
def test_coefficientwise_bounds_over_many_x_match_single_x(name, spec):
    # the first x of a coset does the coset's work for the later ones,
    # so visit the cosets from both ends
    system = get_system(name)
    if spec is None:
        subs = standard_parabolic_subgroups(system)
    else:
        subs = [parse_subgroup_spec(system, spec)]
    els = system.elements()
    for sub in subs:
        xs = [x for x in els if standardness_holds(sub, x)]
        assert xs
        single = {x: list(coefficientwise_bounds(sub, (x,), els))
                  for x in xs}
        for order in (xs, xs[::-1]):
            assert list(coefficientwise_bounds(sub, order, els)) == [
                rep for x in order for rep in single[x]]


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_parabolic_equalities_over_many_x_match_single_x(name):
    system = get_system(name)
    for sub in all_parabolic_subgroups(system):
        xs = [x for x in system.elements() if standardness_holds(sub, x)]
        for order in (xs, xs[::-1]):
            many = list(parabolic_equalities(sub, order))
            assert [x for x, _, _ in many] == [
                x for x in order for _ in range(sub.order())]
            single = {(x, w): res for x in order
                      for _, w, res in parabolic_equalities(sub, (x,))}
            assert {(x, w): res for x, w, res in many} == single
            assert len(many) == len(single)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_standardness_is_constant_on_cosets(name):
    # constant along each generator step of W', hence on each coset
    system = get_system(name)
    for sub in all_parabolic_subgroups(system):
        for x in system.elements():
            held = standardness_holds(sub, x)
            for s in sub.simple_reflections:
                assert standardness_holds(sub, system.multiply(s, x)) == held


def test_many_x_with_a_nonstandard_x_raise(a3):
    sub = parse_subgroup_spec(a3, "refl:1-3,2-4")
    els = a3.elements()
    good = [x for x in els if standardness_holds(sub, x)]
    bad = [x for x in els if not standardness_holds(sub, x)]
    assert good and bad
    for xs in ([bad[0]], good + bad[:1], bad[:1] + good):
        with pytest.raises(HypothesisError):
            list(coefficientwise_bounds(sub, xs, els))
        with pytest.raises(HypothesisError):
            list(parabolic_equalities(sub, xs))
