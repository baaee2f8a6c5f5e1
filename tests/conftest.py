"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own length, Bruhat
and Kazhdan-Lusztig code paths: lengths come from plain breadth-first
search, the Bruhat order from the subword property, KL polynomials from
the R-polynomial inversion identity solved as a triangular system.
Only the group arithmetic itself (element multiplication) is shared,
since there is no second way to multiply matrices worth maintaining.
The maxima oracle is the exception: it is independent of the bounds
module, not of the Bruhat order, and compares pairs with the library's
``bruhat_leq`` rather than reading KL columns.
"""

import functools
import itertools

import pytest

from klbounds import get_system
from klbounds.parabolic import phi_root


@pytest.fixture(scope="session")
def a2():
    return get_system("A2")


@pytest.fixture(scope="session")
def a3():
    return get_system("A3")


@pytest.fixture(scope="session")
def a4():
    return get_system("A4")


@pytest.fixture(scope="session")
def b2():
    return get_system("B2")


@pytest.fixture(scope="session")
def b3():
    return get_system("B3")


# -- independent oracles

def bfs_lengths(ctx):
    """Distance from the identity in the right Cayley graph."""
    dist = {ctx.identity: 0}
    frontier = [ctx.identity]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(ctx.num_simples):
                u = ctx.right_mul(w, i)
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def subword_interval(ctx, w, word=None):
    """The set {x : x <= w}, from the subword property.

    Products of arbitrary subwords of one fixed reduced word of w are
    exactly the lower Bruhat interval, so no order comparisons from the
    library are involved.
    """
    if word is None:
        word = ctx.canonical_word(w)
    cur = {ctx.identity}
    for i in word:
        cur = cur | {ctx.right_mul(x, i) for x in cur}
    return cur


def flatten_ref(values):
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def contains_ref(w, v):
    """Brute-force pattern containment over all position subsets."""
    w = tuple(w)
    v = tuple(v)
    return any(flatten_ref([w[p] for p in ps]) == v
               for ps in itertools.combinations(range(len(w)), len(v)))


def _padd(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _pscale(a, c):
    return [c * x for x in a]


def _pshift(a, k):
    return [0] * k + list(a) if a else []


def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ptrim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return list(a)


def oracle_kl_table(ctx, w):
    """KL polynomials P(x, w) for every x <= w, as coefficient lists.

    Computed from scratch: BFS lengths, subword-property order, the
    standard R-polynomial recursion, then the inversion identity
    q^(l(w)-l(x)) P(x,w)(1/q) = sum_z R(x,z) P(z,w) solved downward.
    The degree bound makes the lower half of each equation determine
    P(x,w) and the upper half a consistency check, asserted here.
    """
    lengths = bfs_lengths(ctx)
    below = subword_interval(ctx, w)
    down = {z: subword_interval(ctx, z) for z in below}

    def leq(x, z):
        return x in down[z]

    rmemo = {}

    def rpoly(x, z):
        if x == z:
            return [1]
        if not leq(x, z):
            return []
        key = (x, z)
        got = rmemo.get(key)
        if got is not None:
            return got
        i = next(i for i in range(ctx.num_simples)
                 if lengths[ctx.left_mul(i, z)] < lengths[z])
        sz = ctx.left_mul(i, z)
        sx = ctx.left_mul(i, x)
        if lengths[sx] < lengths[x]:
            val = rpoly(sx, sz)
        else:
            val = _padd(_pmul([-1, 1], rpoly(x, sz)),
                        _pshift(rpoly(sx, sz), 1))
        val = _ptrim(val)
        rmemo[key] = val
        return val

    table = {w: [1]}
    for x in sorted(below - {w}, key=lambda u: -lengths[u]):
        ldiff = lengths[w] - lengths[x]
        rhs = []
        for z in below:
            if z != x and leq(x, z) and leq(z, w):
                rhs = _padd(rhs, _pmul(rpoly(x, z), table[z]))
        rhs = _ptrim(rhs)
        half = (ldiff - 1) // 2
        coeffs = [-(rhs[k] if k < len(rhs) else 0) for k in range(half + 1)]
        coeffs = _ptrim(coeffs)
        for k in range(half + 1, ldiff + 1):
            upper = rhs[k] if k < len(rhs) else 0
            lower = coeffs[ldiff - k] if ldiff - k < len(coeffs) else 0
            assert upper == lower, "inversion system inconsistent"
        assert len(rhs) <= ldiff + 1, "inversion system inconsistent"
        table[x] = coeffs
    return table


@functools.lru_cache(maxsize=None)
def _phi(sub, y):
    return phi_root(sub, y)


def maxima_oracle(sub, x, w):
    """M(x, w; W') by brute force for one pair, sorted by sort_key.

    The members of W'x below w are found with the ambient ``bruhat_leq``
    on products u x; y is maximal when no other member's pattern-map
    image lies strictly above phi(y) in ``sub.bruhat_leq``.  Each image
    is phi_root of the member itself, not u phi(x).
    """
    amb = sub.ambient
    members = [y for y in (amb.multiply(u, x) for u in sub.elements())
               if amb.bruhat_leq(y, w)]
    images = {y: _phi(sub, y) for y in members}
    maxima = [y for y in members
              if not any(z != y and sub.bruhat_leq(images[y], images[z])
                         for z in members)]
    return tuple(sorted(maxima, key=amb.sort_key))
