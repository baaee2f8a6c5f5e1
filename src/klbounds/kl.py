"""Kazhdan-Lusztig polynomials over any Coxeter context.

The engine works column by column: for a fixed w it computes P_{x,w} for
every x <= w at once, memoized per context.  With s the chosen left descent
of w and v = s w,

    P_{x,w} = P_{sx,w}                                   when s x > x,
    P_{x,w} = P_{sx,v} + q P_{x,v}
              - sum mu(z, v) q^{(l(w)-l(z))/2} P_{x,z}   when s x < x,

where the sum runs over x <= z <= v with s z < z, and mu(z, v) is the
coefficient of q^{(l(v)-l(z)-1)/2} in P_{z,v}.  The x to visit need no
search: by the lifting property [e, w] = [e, v] union s[e, v], so the
context lifts them from the keys of the column of v as tuples
(l(x), x, s x, s x < x), longest first, so the column makes no group call
of its own and x with s x > x finds P_{sx,w} already computed.  The
mu-list holds (l(z), z, mu(z, v), (l(w)-l(z))/2, column of z), longest
first, and each term P_{x,z} is read from the column of z, where a
missing x means x is not below z: building a column never tests the
Bruhat order.  Coefficients are summed in place in one list of ints; the
columns hold millions of entries but only a few distinct polynomials, so
each engine keeps a pool keyed by coefficient tuple and every entry is
the pool's one copy of its polynomial.  Because the context may be a
parabolic subgroup, the same engine computes the subgroup polynomials P'
using the subgroup's own length and Bruhat order.

R-polynomials and the inversion identity

    q^{l(w)-l(x)} P_{x,w}(1/q) = sum_{x <= z <= w} R_{x,z} P_{z,w}

are implemented as an independent cross-check of the recursion.
"""

from .polynomials import IntPolynomial, ONE, ZERO

_Q_MINUS_ONE = IntPolynomial((-1, 1))


class KLEngine:
    """Memoized Kazhdan-Lusztig computations for one Coxeter context."""

    def __init__(self, ctx, descent_rule="lowest"):
        if descent_rule not in ("lowest", "highest"):
            raise ValueError(f"unknown descent rule {descent_rule!r}")
        self.ctx = ctx
        self.descent_rule = descent_rule
        self._columns = {}
        self._pool = {(): ZERO, (1,): ONE}
        self._rpolys = {}

    def _choose_descent(self, w):
        ds = self.ctx.left_descents(w)
        return ds[0] if self.descent_rule == "lowest" else ds[-1]

    def column(self, w):
        """dict mapping each x <= w to P_{x,w}."""
        col = self._columns.get(w)
        if col is not None:
            return col
        ctx = self.ctx
        if w == ctx.identity:
            col = {w: ONE}
            self._columns[w] = col
            return col
        i = self._choose_descent(w)
        v = ctx.left_mul(i, w)
        colv = self.column(v)
        lw = ctx.length(w)
        interval = ctx.lower_interval(i, colv)

        mulist = []
        for lz, z, _, down in interval:
            pz = colv.get(z) if down else None
            if pz is None or (lw - lz) % 2:
                continue
            h = (lw - lz) // 2
            m = pz[h - 1]
            if m:
                # x = s_i reads every column with l(z) >= 2 and no x reads
                # one with l(z) = 1, so prefetching builds no extra column
                mulist.append((lz, z, m, h,
                               self.column(z) if lz >= 2 else None))

        pool = self._pool
        col = {}
        for lx, x, sx, down in interval:
            if not down:
                # l(sx) = l(x) + 1 and sx <= w by lifting, so it is done
                col[x] = col[sx]
                continue
            acc = [0] * ((lw - lx) // 2 + 1)
            acc[:len(colv[sx].coeffs)] = colv[sx].coeffs
            pxv = colv.get(x)
            if pxv is not None:
                for k, c in enumerate(pxv.coeffs, 1):
                    acc[k] += c
            for lz, z, m, h, colz in mulist:
                if lz < lx:
                    break
                if lz > lx:
                    pxz = colz.get(x)
                    if pxz is not None:
                        for k, c in enumerate(pxz.coeffs, h):
                            acc[k] -= m * c
                elif z is x:  # both taken from the same interval tuples
                    acc[h] -= m
            while acc and not acc[-1]:
                acc.pop()
            key = tuple(acc)
            if __debug__ and lx < lw:  # every x but w itself
                assert key[:1] == (1,) and min(key) >= 0, \
                    "KL invariant violated"
                assert 2 * len(key) <= lw - lx + 1, "KL degree bound violated"
            p = pool.get(key)
            if p is None:
                p = pool[key] = IntPolynomial(key)
            col[x] = p
        self._columns[w] = col
        return col

    def polynomial(self, x, w):
        """P_{x,w}; the zero polynomial when x is not below w."""
        ctx = self.ctx
        if x is w or x == w:
            return ONE
        col = self._columns.get(w)
        if col is not None:
            return col.get(x, ZERO)
        if not ctx.bruhat_leq(x, w):
            return ZERO
        return self.column(w).get(x, ZERO)

    def mu(self, x, w):
        """Top-degree coefficient mu(x, w).

        Raises ValueError when w <= x.  Incomparable pairs give 0, since
        P_{x,w} = 0 there.
        """
        ctx = self.ctx
        if x == w or ctx.bruhat_leq(w, x):
            raise ValueError("mu(x, w) needs x < w")
        diff = ctx.length(w) - ctx.length(x)
        if diff % 2 == 0:
            return 0
        return self.polynomial(x, w)[(diff - 1) // 2]

    def table(self, w):
        """All pairs of the column of w, ordered by (length, word) of x."""
        col = self.column(w)
        ctx = self.ctx
        return {x: col[x] for x in sorted(col, key=ctx.sort_key)}

    def r_polynomial(self, x, w):
        """R_{x,w} by the descent recursion; independent of the P engine."""
        ctx = self.ctx
        if x is w or x == w:
            return ONE
        if not ctx.bruhat_leq(x, w):
            return ZERO
        key = (x, w)
        memo = self._rpolys
        hit = memo.get(key)
        if hit is not None:
            return hit
        i = ctx.first_left_descent(w)
        v = ctx.left_mul(i, w)
        sx = ctx.left_mul(i, x)
        if ctx.left_descent(x, i):
            res = self.r_polynomial(sx, v)
        else:
            res = _Q_MINUS_ONE * self.r_polynomial(x, v) \
                + self.r_polynomial(sx, v).shifted(1)
        memo[key] = res
        return res

    def inversion_identity(self, x, w):
        """Both sides (q^{l(w)-l(x)} P_{x,w}(1/q), sum R_{x,z} P_{z,w})."""
        ctx = self.ctx
        if not ctx.bruhat_leq(x, w):
            return ZERO, ZERO
        col = self.column(w)
        rhs = ZERO
        for z in col:
            if ctx.bruhat_leq(x, z):
                rhs = rhs + self.r_polynomial(x, z) * col[z]
        n = ctx.length(w) - ctx.length(x)
        lhs = self.polynomial(x, w).reversed_to(n)
        return lhs, rhs


def get_engine(ctx, descent_rule="lowest"):
    """The shared engine of a context (one per descent rule)."""
    store = getattr(ctx, "_kl_engines", None)
    if store is None:
        store = ctx._kl_engines = {}
    eng = store.get(descent_rule)
    if eng is None:
        eng = store[descent_rule] = KLEngine(ctx, descent_rule)
    return eng


def kl_polynomial(ctx, x, w):
    """P_{x,w} in the given context."""
    return get_engine(ctx).polynomial(x, w)

