"""Small exact linear algebra over the rationals.

Only what the package needs: a row space with membership tests (for root
subspace computations) and inversion of a small square integer matrix
(for classical coordinate conversions).  Everything uses Fraction, so the
results are exact.  fractions is imported inside the two functions that
use it, so a family-A ``kl`` query, which needs neither, never loads it.
"""


class RowSpace:
    """Row space of a growing set of integer vectors, kept in echelon form."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = []  # echelon rows, Fraction entries, pivot columns ascending
        self.pivots = []

    def _reduce(self, vec):
        from fractions import Fraction
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p] / row[p]
                for j in range(p, self.dim):
                    v[j] -= f * row[j]
        return v

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the space."""
        v = self._reduce(vec)
        for p in range(self.dim):
            if v[p]:
                k = 0
                while k < len(self.pivots) and self.pivots[k] < p:
                    k += 1
                self.rows.insert(k, v)
                self.pivots.insert(k, p)
                return True
        return False

    def contains(self, vec):
        return not any(self._reduce(vec))

    @property
    def rank(self):
        return len(self.rows)


def invert_matrix(columns):
    """Inverse of a square matrix given by integer columns.

    Returns the inverse as a tuple of row tuples of Fractions, so that
    applying it to a column vector solves  M x = v  exactly.
    """
    from fractions import Fraction
    n = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(n)]
           + [Fraction(1 if k == i else 0) for k in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [x / f for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                g = aug[r][col]
                aug[r] = [x - g * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)
