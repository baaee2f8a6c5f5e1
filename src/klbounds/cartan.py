"""Cartan data for the finite crystallographic families.

The convention throughout is a[i][j] = 2(alpha_i, alpha_j) / (alpha_j, alpha_j)
with 0-based indices internally and 1-based node labels in user-facing text.
``root_length_squares`` returns integer squared lengths normalized so that
long roots in the simply laced families have squared length 2.

Supported families and ranks:

    A_n (n >= 1), B_n (n >= 2), C_n (n >= 2), D_n (n >= 2),
    G2, F4, E6, E7, E8.

B1 and C1 are rejected (they coincide with A1), D2 = A1 x A1 and D3 = A3 are
allowed since the signed one-line notation still applies to them.
"""

from collections import namedtuple
from math import factorial

from .errors import InvalidCartanError

CLASSICAL_FAMILIES = ("A", "B", "C", "D")
EXCEPTIONAL_RANKS = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}
FAMILIES = CLASSICAL_FAMILIES + tuple(EXCEPTIONAL_RANKS)

POSITIVE_ROOT_COUNTS = {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}
EXCEPTIONAL_ORDERS = {"G2": 12, "F4": 1152, "E6": 51840,
                      "E7": 2903040, "E8": 696729600}


def positive_root_count(family, rank):
    """Closed-form number of positive roots, used as a generation check."""
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    return POSITIVE_ROOT_COUNTS[family]


def weyl_group_order(family, rank):
    """Group order in closed form, cheap enough for gating decisions."""
    _check_family_rank(family, rank)
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return EXCEPTIONAL_ORDERS[family]


def _chain_matrix(rank):
    rows = []
    for i in range(rank):
        row = [0] * rank
        row[i] = 2
        if i > 0:
            row[i - 1] = -1
        if i + 1 < rank:
            row[i + 1] = -1
        rows.append(row)
    return rows


def _e_series_matrix(rank):
    # Nodes 1,3,4,...,rank form a chain and node 2 hangs off node 4.
    chain = [1] + list(range(3, rank + 1))
    edges = [(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
    edges.append((2, 4))
    rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for a, b in edges:
        rows[a - 1][b - 1] = -1
        rows[b - 1][a - 1] = -1
    return rows


def standard_cartan_matrix(family, rank):
    """The built-in Cartan matrix for the family, as a tuple of row tuples."""
    _check_family_rank(family, rank)
    if family == "A":
        rows = _chain_matrix(rank)
    elif family == "B":
        rows = _chain_matrix(rank)
        rows[rank - 2][rank - 1] = -2
    elif family == "C":
        rows = _chain_matrix(rank)
        rows[rank - 1][rank - 2] = -2
    elif family == "D":
        rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for i in range(rank - 2):
            if i + 1 < rank - 1:
                rows[i][i + 1] = rows[i + 1][i] = -1
        if rank >= 3:
            rows[rank - 3][rank - 1] = rows[rank - 1][rank - 3] = -1
        # rank == 2 leaves the two nodes disconnected (A1 x A1)
    elif family == "G2":
        rows = [[2, -1], [-3, 2]]
    elif family == "F4":
        rows = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    else:
        rows = _e_series_matrix(rank)
    return tuple(tuple(r) for r in rows)


def root_length_squares(family, rank):
    """Squared lengths of the simple roots, consistent with the matrix."""
    _check_family_rank(family, rank)
    if family == "B":
        return (2,) * (rank - 1) + (1,)
    if family == "C":
        return (2,) * (rank - 1) + (4,)
    if family == "G2":
        return (2, 6)
    if family == "F4":
        return (2, 2, 1, 1)
    return (2,) * rank


def _check_family_rank(family, rank):
    if family not in FAMILIES:
        raise InvalidCartanError(f"unknown family {family!r}")
    if not isinstance(rank, int) or rank < 1:
        raise InvalidCartanError(f"rank must be a positive int, got {rank!r}")
    if family in EXCEPTIONAL_RANKS:
        want = EXCEPTIONAL_RANKS[family]
        if rank != want:
            raise InvalidCartanError(f"{family} has fixed rank {want}, got {rank}")
    elif family == "A":
        pass
    elif rank < 2:
        raise InvalidCartanError(f"{family} requires rank >= 2 (B1/C1 are A1)")


class CartanDatum(namedtuple("CartanDatum", "family rank matrix")):
    """A validated (family, rank, Cartan matrix) triple.

    The matrix is always checked against the built-in table; arbitrary
    matrices are rejected so that every datum names a finite Weyl group.
    """

    __slots__ = ()

    def __new__(cls, family, rank, matrix):
        if matrix != standard_cartan_matrix(family, rank):
            raise InvalidCartanError(
                f"Cartan matrix does not match the standard table for "
                f"{family}{rank}")
        return super().__new__(cls, family, rank, matrix)

    @classmethod
    def standard(cls, family, rank=None):
        if rank is None:
            if family not in EXCEPTIONAL_RANKS:
                raise InvalidCartanError(f"family {family!r} needs a rank")
            rank = EXCEPTIONAL_RANKS[family]
        return cls(family, rank, standard_cartan_matrix(family, rank))

    @property
    def length_squares(self):
        return root_length_squares(self.family, self.rank)

    @property
    def is_classical(self):
        return self.family in CLASSICAL_FAMILIES

    def type_name(self):
        """'A3', 'B4'; the exceptional families already name their rank."""
        return type_name(self.family, self.rank)


def type_name(family, rank):
    """'A3', 'B4'; the exceptional families already name their rank."""
    if family in EXCEPTIONAL_RANKS:
        return family
    return f"{family}{rank}"


def parse_type(text, rank=None):
    """Parse a type string like 'A3', 'B', 'G2' into a CartanDatum.

    The rank may be embedded in the string or passed separately; when both
    are given they must agree.
    """
    return CartanDatum.standard(*parse_type_name(text, rank))


def parse_type_name(text, rank=None):
    """(family, rank) of a type string, validated as parse_type does.

    Builds no Cartan matrix, so callers can weigh the closed-form order
    and root count of a type before anything of rank size exists.
    """
    text = text.strip()
    head = ""
    for ch in text:
        if ch.isalpha():
            head += ch.upper()
        else:
            break
    tail = text[len(head):]
    embedded = None
    if tail:
        try:
            embedded = int(tail)
        except ValueError:
            raise InvalidCartanError(f"bad type string {text!r}") from None
    family = head
    if family in ("G", "F", "E"):
        # single-letter exceptional prefixes pick up the embedded rank
        if embedded is None and rank is None:
            raise InvalidCartanError(f"type {text!r} needs a rank")
        family = f"{family}{embedded if embedded is not None else rank}"
        embedded = EXCEPTIONAL_RANKS.get(family)
        if embedded is None:
            raise InvalidCartanError(f"unknown type {text!r}")
    if family not in FAMILIES:
        raise InvalidCartanError(f"unknown family {head!r} in {text!r}")
    if embedded is not None and rank is not None and embedded != rank:
        raise InvalidCartanError(
            f"type {text!r} conflicts with rank {rank}")
    use = embedded if embedded is not None else rank
    if use is None:
        raise InvalidCartanError(f"type {text!r} needs a rank")
    _check_family_rank(family, use)
    return family, use
