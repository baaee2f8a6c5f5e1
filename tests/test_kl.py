import random

import pytest

from conftest import oracle_kl_table, subword_interval
from klbounds import build_system, get_system, kl_polynomial
from klbounds.cartan import parse_type
from klbounds.kl import KLEngine, get_engine
from klbounds.polynomials import ONE, ZERO, IntPolynomial


def test_trivial_pairs(a3):
    w = a3.parse_element("3412")
    assert kl_polynomial(a3, w, w) == ONE
    assert kl_polynomial(a3, a3.identity, a3.identity) == ONE
    x = a3.parse_element("2134")
    assert kl_polynomial(a3, w, x) == ZERO  # not below


def test_pinned_s4_values(a3):
    pairs = {
        ("2143", "4231"): (1, 1),
        ("1234", "4231"): (1, 1),
        ("1234", "3412"): (1, 1),
        ("1234", "4321"): (1,),  # the full flag variety is smooth
        ("2143", "4321"): (1,),
    }
    for (xs, ws), coeffs in pairs.items():
        poly = kl_polynomial(a3, a3.parse_element(xs), a3.parse_element(ws))
        assert poly == IntPolynomial(coeffs), (xs, ws)


def test_long_element_column_is_trivial(a3):
    w0 = a3.parse_element("4321")
    assert all(p == ONE for p in get_engine(a3).table(w0).values())


@pytest.mark.parametrize("name", ["A2", "A3", "B2"])
def test_engine_matches_inversion_oracle_exhaustive(name):
    system = get_system(name)
    for w in system.elements():
        table = oracle_kl_table(system, w)
        for x, coeffs in table.items():
            assert list(kl_polynomial(system, x, w).coeffs) == coeffs


@pytest.mark.parametrize("name", ["B3", "A4", "D3"])
def test_engine_matches_inversion_oracle_sampled(name):
    system = get_system(name)
    rng = random.Random(name)
    elements = system.elements()
    longest = max(elements, key=system.length)
    for w in rng.sample(elements, 4) + [longest]:
        table = oracle_kl_table(system, w)
        for x, coeffs in table.items():
            assert list(kl_polynomial(system, x, w).coeffs) == coeffs


def test_descent_rule_independence_exhaustive(a3):
    low = get_engine(a3, "lowest")
    high = get_engine(a3, "highest")
    for w in a3.elements():
        for x in a3.elements():
            assert low.polynomial(x, w) == high.polynomial(x, w)


@pytest.mark.parametrize("rule", ["lowest", "highest"])
@pytest.mark.parametrize("name", ["A4", "B3"])
def test_columns_share_one_pool_without_bruhat_tests(monkeypatch, name,
                                                     rule):
    system = build_system(parse_type(name))
    calls = []
    bruhat_leq = type(system).bruhat_leq

    def counted(self, x, w):
        calls.append((x, w))
        return bruhat_leq(self, x, w)

    monkeypatch.setattr(type(system), "bruhat_leq", counted)
    engine = KLEngine(system, rule)
    values = [p for w in system.elements()
              for p in engine.column(w).values()]
    assert calls == []
    assert all(engine._pool[p.coeffs] is p for p in values)
    assert len({id(p) for p in values}) == len(set(values))


@pytest.mark.parametrize("name, built, entries, pooled", [
    ("A5", 720, 98_407, 18),
    ("B4", 384, 40_249, 42),
])
def test_every_column_work_is_pinned(name, built, entries, pooled):
    system = build_system(parse_type(name))
    engine = KLEngine(system)
    for w in system.elements():
        engine.column(w)
    assert len(engine._columns) == built
    assert sum(map(len, engine._columns.values())) == entries
    # counting the zero polynomial, which no column holds
    assert len(engine._pool) == pooled


@pytest.mark.skipif(not __debug__, reason="the checks are asserts")
@pytest.mark.parametrize("wrong", [IntPolynomial((2,)), ZERO])
def test_corrupted_entry_fails_the_invariant_check(wrong):
    system = build_system(parse_type("A2"))
    engine = KLEngine(system)
    w = next(u for u in system.elements() if system.length(u) == 2)
    i = engine._choose_descent(w)
    v = system.left_mul(i, w)
    # P_{s_i, w} = P_{e, v}: no mu-term and no q P_{s_i, v} reaches it
    engine.column(v)[system.identity] = wrong
    with pytest.raises(AssertionError, match="KL invariant violated"):
        engine.column(w)


def test_inverse_symmetry(b2):
    for w in b2.elements():
        for x in b2.elements():
            assert kl_polynomial(b2, x, w) == \
                kl_polynomial(b2, b2.inverse(x), b2.inverse(w))


def test_table_agrees_with_single_queries(b3):
    w = b3.parse_element("-2,3,-1")
    table = get_engine(b3).table(w)
    assert set(table) == subword_interval(b3, w)
    for x, p in table.items():
        assert kl_polynomial(b3, x, w) == p


def test_mu_contract(a3):
    mu = get_engine(a3).mu
    e = a3.identity
    s1 = a3.parse_element("2134")
    w = a3.parse_element("4231")
    assert mu(e, s1) == 1
    assert mu(s1, w) == 0      # even length difference
    # l(4231) - l(2143) = 3 and P = 1 + q, so the q^1 coefficient counts
    assert mu(a3.parse_element("2143"), w) == 1
    with pytest.raises(ValueError):
        mu(w, w)
    with pytest.raises(ValueError):
        mu(w, e)
    incomparable = a3.parse_element("2143"), a3.parse_element("3124")
    assert mu(*incomparable) == 0


def test_r_polynomial_basics(a3):
    r_polynomial = get_engine(a3).r_polynomial
    e = a3.identity
    s1 = a3.parse_element("2134")
    assert r_polynomial(s1, s1) == ONE
    assert r_polynomial(e, s1) == IntPolynomial((-1, 1))  # q - 1
    w0 = a3.parse_element("4321")
    for x in a3.elements():
        r = r_polynomial(x, w0)
        ldiff = 6 - a3.length(x)
        assert r.degree == ldiff
        if ldiff:
            assert r(1) == 0


def test_inversion_identity_wrapper(a3):
    engine = get_engine(a3)
    w = a3.parse_element("4231")
    for x in a3.elements():
        lhs, rhs = engine.inversion_identity(x, w)
        assert lhs == rhs

