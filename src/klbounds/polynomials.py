"""Exact polynomials in one variable q with integer coefficients.

Coefficients are stored ascending by power with trailing zeros stripped, so
the zero polynomial has an empty coefficient tuple and ``degree == -1``.
All arithmetic is done with Python ints and is exact at any size.
"""


class IntPolynomial:
    """Immutable integer polynomial in q.

    >>> p = IntPolynomial([1, 1])
    >>> str(p), p(1), p.degree
    ('1 + q', 2, 1)
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, power):
        """Coefficient of q**power (0 beyond the degree)."""
        if power < 0:
            raise IndexError("negative power")
        if power >= len(self.coeffs):
            return 0
        return self.coeffs[power]

    def __call__(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def _coerce(self, other):
        if isinstance(other, IntPolynomial):
            return other
        if isinstance(other, int):
            return IntPolynomial((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(
            [x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shifted(self, k):
        """Multiply by q**k."""
        if not self.coeffs:
            return ZERO
        return IntPolynomial((0,) * k + self.coeffs)

    def reversed_to(self, n):
        """q**n * P(1/q), defined when degree <= n."""
        if self.degree > n:
            raise ValueError("degree exceeds reversal bound")
        out = [0] * (n + 1)
        for i, c in enumerate(self.coeffs):
            out[n - i] = c
        return IntPolynomial(out)

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{k}" if mag == 1 else f"{mag}*q^{k}"
            terms.append(("-" if c < 0 else "+", body))
        sign, body = terms[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))
Q = IntPolynomial((0, 1))
