import pytest
from hypothesis import given, strategies as st

from klbounds.polynomials import ZERO, ONE, Q, IntPolynomial

coeff_lists = st.lists(st.integers(-50, 50), max_size=8)


def test_trailing_zeros_trimmed():
    assert IntPolynomial((1, 0, 0)) == ONE
    assert IntPolynomial((0, 0)) == ZERO
    assert IntPolynomial().coeffs == ()


def test_degree_and_bool():
    assert ZERO.degree == -1
    assert not ZERO
    assert ONE.degree == 0
    assert (Q * Q + ONE).degree == 2


def test_evaluation():
    p = IntPolynomial((1, 2, 3))
    assert p(0) == 1
    assert p(1) == 6
    assert p(2) == 17
    assert ZERO(5) == 0


def test_indexing_past_degree():
    p = ONE + Q
    assert p[0] == 1 and p[1] == 1 and p[7] == 0


def test_arithmetic():
    assert ONE + Q == IntPolynomial((1, 1))
    assert (ONE + Q) * (ONE - Q) == IntPolynomial((1, 0, -1))
    assert 1 - Q == IntPolynomial((1, -1))
    assert 3 * Q == Q * 3 == IntPolynomial((0, 3))
    assert Q - Q == ZERO


def test_shifted():
    assert ONE.shifted(3) == IntPolynomial((0, 0, 0, 1))
    assert ZERO.shifted(4) == ZERO


def test_reversed_to():
    p = ONE + Q  # 1 + q, degree 1
    assert p.reversed_to(1) == p
    assert p.reversed_to(3) == IntPolynomial((0, 0, 1, 1))
    assert ONE.reversed_to(0) == ONE
    with pytest.raises(ValueError):
        (Q * Q).reversed_to(1)


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(ONE + Q) == "1 + q"
    assert str(IntPolynomial((1, 0, 3))) == "1 + 3*q^2"
    assert str(IntPolynomial((0, -1))) == "-q"


@given(coeff_lists, coeff_lists, st.integers(-9, 9))
def test_evaluation_is_a_ring_map(a, b, t):
    pa, pb = IntPolynomial(a), IntPolynomial(b)
    assert (pa + pb)(t) == pa(t) + pb(t)
    assert (pa * pb)(t) == pa(t) * pb(t)


@given(coeff_lists, st.integers(0, 5))
def test_reversal_is_an_involution(coeffs, extra):
    p = IntPolynomial(coeffs)
    if p == ZERO:
        return
    n = p.degree + extra
    r = p.reversed_to(n)
    assert r.reversed_to(n) == p
