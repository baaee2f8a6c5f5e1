import math

import pytest

from klbounds.cartan import (CartanDatum, parse_type, parse_type_name,
                             positive_root_count, root_length_squares,
                             standard_cartan_matrix, weyl_group_order)
from klbounds.errors import InvalidCartanError


def test_a_series_matrix():
    assert standard_cartan_matrix("A", 1) == ((2,),)
    assert standard_cartan_matrix("A", 3) == (
        (2, -1, 0), (-1, 2, -1), (0, -1, 2))


def test_bc_matrices_are_transposes():
    for n in (2, 3, 4, 5):
        b = standard_cartan_matrix("B", n)
        c = standard_cartan_matrix("C", n)
        assert b == tuple(zip(*c))
        assert b != c


def test_d_matrix_branch():
    d4 = standard_cartan_matrix("D", 4)
    # node 4 attaches to node 2 of the chain 1-2-3
    assert d4[3][1] == d4[1][3] == -1
    assert d4[3][2] == d4[2][3] == 0


def test_g2_entries():
    g = standard_cartan_matrix("G2", 2)
    assert {g[0][1], g[1][0]} == {-1, -3}
    assert g[0][0] == g[1][1] == 2


def test_f4_asymmetry():
    f = standard_cartan_matrix("F4", 4)
    offdiag = sorted(f[i][j] for i in range(4) for j in range(4) if i != j)
    assert offdiag.count(-2) == 1
    assert offdiag.count(-1) == 5


def test_e8_shape():
    e8 = standard_cartan_matrix("E8", 8)
    degrees = [sum(1 for j in range(8) if i != j and e8[i][j] != 0)
               for i in range(8)]
    assert sorted(degrees) == [1, 1, 1, 2, 2, 2, 2, 3]


def test_invalid_ranks_rejected():
    with pytest.raises(InvalidCartanError):
        standard_cartan_matrix("A", 0)
    with pytest.raises(InvalidCartanError):
        standard_cartan_matrix("B", 1)
    with pytest.raises(InvalidCartanError):
        standard_cartan_matrix("G2", 3)
    with pytest.raises(InvalidCartanError):
        standard_cartan_matrix("Z", 4)


def test_length_squares():
    assert root_length_squares("A", 3) == (2, 2, 2)
    assert root_length_squares("B", 3) == (2, 2, 1)
    assert root_length_squares("C", 3) == (2, 2, 4)
    assert root_length_squares("G2", 2) == (2, 6)
    assert root_length_squares("F4", 4) == (2, 2, 1, 1)


def test_cartan_datum_symmetrizability():
    for fam, rank in (("A", 4), ("B", 3), ("C", 3), ("D", 4),
                      ("G2", 2), ("F4", 4), ("E6", 6)):
        datum = CartanDatum.standard(fam, rank)
        a = datum.matrix
        d = datum.length_squares
        n = datum.rank
        for i in range(n):
            for j in range(n):
                assert a[i][j] * d[j] == a[j][i] * d[i]


def test_parse_type_forms():
    assert parse_type("A3").family == "A"
    assert parse_type("A3").rank == 3
    assert parse_type("b", 3).family == "B"
    assert parse_type("E8").rank == 8
    assert parse_type("F4", 4).family == "F4"
    # the name alone, with no Cartan matrix built, even for huge ranks
    assert parse_type_name("b", 3) == ("B", 3)
    assert parse_type_name("A99999") == ("A", 99999)
    with pytest.raises(InvalidCartanError):
        parse_type_name("C1")
    with pytest.raises(InvalidCartanError):
        parse_type("A")
    with pytest.raises(InvalidCartanError):
        parse_type("A3", 4)
    with pytest.raises(InvalidCartanError):
        parse_type("Q5")


def test_weyl_group_order_closed_forms():
    assert weyl_group_order("A", 3) == math.factorial(4)
    assert weyl_group_order("B", 3) == 48
    assert weyl_group_order("C", 4) == 384
    assert weyl_group_order("D", 4) == 192
    assert weyl_group_order("G2", 2) == 12
    assert weyl_group_order("F4", 4) == 1152
    assert weyl_group_order("E8", 8) == 696729600


def test_positive_root_counts():
    assert positive_root_count("A", 3) == 6
    assert positive_root_count("B", 3) == 9
    assert positive_root_count("C", 3) == 9
    assert positive_root_count("D", 4) == 12
    assert positive_root_count("G2", 2) == 6
    assert positive_root_count("E6", 6) == 36
