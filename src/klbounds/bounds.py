"""Inequalities relating Kazhdan-Lusztig data to pattern-map images.

The central bound: for x, w in W and a parabolic subgroup W', the set
M(x, w; W') collects the maximal elements of [1, w] intersect W'x under
the order pulled back through the pattern map (ux <=_x u'x iff
phi(ux) <=' phi(u'x)).  Then

    P_{x,w}(1)  >=  sum over y in M of  P_{y,w}(1) * P'_{phi(x),phi(y)}(1)

with P' taken inside (W', S').  When W' (or its conjugate x^{-1}W'x) is
standard, M is a singleton {y} and the bound strengthens to hold
coefficient by coefficient against the product polynomial; when moreover
w lies in the coset W'x, it collapses to the equality
P_{x,w} = P'_{phi(x),phi(w)}.

Specializations at x = identity give the monotonicity of P_{1,w}(1)
under the pattern map, and the block-diagonal case in the symmetric
group gives the product factorization credited to Brenti and Simion.
"""

from dataclasses import dataclass
from itertools import permutations, product
from typing import NamedTuple

from .coxeter import _prefix_dominated, get_system
from .errors import HypothesisError
from .kl import kl_polynomial
from .parabolic import coset_minimum, describe_subgroup, phi_root
from .patterns import _coerce_perm, flatten
from .polynomials import ONE, IntPolynomial


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the main bound for one (x, w, W') triple."""

    x: object
    w: object
    subgroup: str
    maximal_set: tuple
    lhs: int
    rhs: int
    holds: bool
    per_term: tuple          # (y, P_{y,w}(1), P'_{phi(x),phi(y)}(1))
    comparable: bool         # x <= w in the ambient order


@dataclass(frozen=True)
class CoefficientwiseReport:
    """Per-degree comparison of P_{x,w} against the product bound."""

    x: object
    w: object
    subgroup: str
    y: object                # the singleton element of M, or None
    degrees: tuple           # (k, lhs_k, rhs_k, ok)
    holds: bool
    empty: bool              # [1,w] intersect W'x was empty


@dataclass(frozen=True)
class MonotonicityReport:
    """P_{1,w}(1) >= P_{x0,w}(1) >= P'_{1,phi(w)}(1) for the coset floor x0."""

    w: object
    subgroup: str
    lhs: int
    mid: int
    rhs: int
    holds: bool
    coset_min: object
    phi_w: object

    def __iter__(self):
        return iter((self.lhs, self.rhs, self.holds))


class EqualityResult(NamedTuple):
    """Both sides of a polynomial identity and whether they agree."""

    lhs: IntPolynomial
    rhs: IntPolynomial
    holds: bool


def _coset_below(sub, x, w):
    """Pairs (y, phi(y)) for the elements of W'x that lie below w.

    phi is evaluated once on x and propagated by equivariance, so the
    cost is one group multiplication per subgroup element.
    """
    amb = sub.ambient
    phix = phi_root(sub, x)
    out = []
    for u in sub.elements():
        y = amb.multiply(u, x)
        if amb.bruhat_leq(y, w):
            out.append((y, amb.multiply(u, phix)))
    return out


def _transposition_values(coords):
    # a family A positive root is a consecutive run of ones whose
    # reflection swaps the values at the run's endpoints
    nz = [i for i, c in enumerate(coords) if c]
    return nz[0] + 1, nz[-1] + 2


def _value_orbits_typeA(sub):
    """Orbits of size >= 2 of the one-line values moved by W' (family A)."""
    n = sub.ambient.rank + 1
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for coords in sub.simples_prime:
        a, b = _transposition_values(coords)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return [tuple(vs) for vs in groups.values() if len(vs) > 1]


def _dominance_tester(wv):
    """Compiled form of the tableau criterion against a fixed window.

    rows[k][v-1] counts values <= v among the first k+1 entries of wv;
    a window lies below wv exactly when its own running counts are
    everywhere at least these.
    """
    n = len(wv)
    rows = []
    cnt = [0] * (n + 1)
    for c in wv:
        for v in range(c, n + 1):
            cnt[v] += 1
        rows.append(tuple(cnt[1:]))
    rng = tuple(range(n))

    def leq(yv):
        cx = [0] * (n + 1)
        for k, c in enumerate(yv):
            for v in range(c, n + 1):
                cx[v] += 1
            row = rows[k]
            for v in rng:
                if cx[v + 1] < row[v]:
                    return False
        return True

    return leq


def _maxima_typeA(sub, x, w):
    """Window arithmetic version of the maxima scan for family A.

    Left multiplication by W' permutes one-line values within the orbits
    of its transpositions, so W'x is enumerated by rearranging each
    orbit's values over the slots x gives them.  Ambient comparisons use
    the tableau criterion, subgroup comparisons the product of per-orbit
    tableau tests on flattened windows, and only the maxima are
    converted back to group elements.
    """
    amb = sub.ambient
    xv = amb.oneline_cached(x)
    wv = amb.oneline_cached(w)
    below_w = _dominance_tester(wv)
    orbits = _value_orbits_typeA(sub)
    phiv = amb.oneline_cached(phi_root(sub, x))
    slot = {v: i for i, v in enumerate(xv)}
    slot_lists = [tuple(slot[v] for v in orb) for orb in orbits]
    arrangements = [tuple(permutations(orb)) for orb in orbits]
    rank_in = [{v: r for r, v in enumerate(orb)} for orb in orbits]

    entries = []
    template = list(xv)
    for combo in product(*arrangements):
        yv = template[:]
        for slots, vals in zip(slot_lists, combo):
            for i, v in zip(slots, vals):
                yv[i] = v
        if not below_w(yv):
            continue
        wins = []
        lsum = 0
        for orb, ranks in zip(orbits, rank_in):
            win = tuple(ranks[yv[slot[phiv[v - 1]]]] for v in orb)
            k = len(win)
            lsum += sum(1 for s in range(k) for t in range(s + 1, k)
                        if win[s] > win[t])
            wins.append(win)
        entries.append((lsum, tuple(wins), tuple(yv)))

    entries.sort(key=lambda e: (-e[0], e[2]))
    maxima = []
    for lsum, wins, yv in entries:
        if not any(all(_prefix_dominated(a, b) for a, b in zip(wins, zw))
                   for _, zw, _ in maxima):
            maxima.append((lsum, wins, yv))

    n = len(xv)
    out = []
    for _, _, yv in maxima:
        y = amb.parse_oneline(yv)
        fyv = tuple(yv[slot[phiv[v - 1]]] for v in range(1, n + 1))
        out.append((y, amb.parse_oneline(fyv)))
    out.sort(key=lambda pair: amb.sort_key(pair[0]))
    return out


def _maxima_with_images(sub, x, w):
    # scan in decreasing subgroup length: an element is maximal iff no
    # already-kept maximum dominates its pattern, since any dominator
    # is itself dominated by a strictly longer maximum
    if sub.ambient.datum.family == "A":
        return _maxima_typeA(sub, x, w)
    members = _coset_below(sub, x, w)
    members.sort(key=lambda pair: -sub.length(pair[1]))
    maxima = []
    for y, fy in members:
        if not any(sub.bruhat_leq(fy, fz) for _, fz in maxima):
            maxima.append((y, fy))
    maxima.sort(key=lambda pair: sub.ambient.sort_key(pair[0]))
    return maxima


def maximal_set(sub, x, w):
    """M(x, w; W'): maxima of [1,w] intersect W'x in the pulled-back order.

    Elements are compared through their pattern-map images in the
    subgroup's own Bruhat order.  Empty exactly when no coset element
    lies below w (possible only for x not below w).
    """
    return tuple(y for y, _ in _maxima_with_images(sub, x, w))


def main_bound(sub, x, w):
    """Evaluate the coset lower bound for P_{x,w}(1).

    Always returns a report; for x not below w every pattern-map factor
    vanishes, so both sides are zero and the report is trivially true
    (flagged through the ``comparable`` field).
    """
    amb = sub.ambient
    phix = phi_root(sub, x)
    maxima = _maxima_with_images(sub, x, w)
    lhs = kl_polynomial(amb, x, w)(1)
    per_term = []
    rhs = 0
    for y, fy in maxima:
        pyw = kl_polynomial(amb, y, w)(1)
        pprime = kl_polynomial(sub, phix, fy)(1)
        per_term.append((y, pyw, pprime))
        rhs += pyw * pprime
    return BoundReport(
        x=x, w=w, subgroup=describe_subgroup(sub),
        maximal_set=tuple(y for y, _ in maxima),
        lhs=lhs, rhs=rhs, holds=lhs >= rhs, per_term=tuple(per_term),
        comparable=amb.bruhat_leq(x, w))


def conjugate_is_standard(sub, x):
    """Whether x^{-1} W' x is a standard parabolic of the ambient system."""
    amb = sub.ambient
    moved = set()
    for v in sub.positives_prime:
        img = amb.act_inv(x, v)
        if all(c <= 0 for c in img):
            img = tuple(-c for c in img)
        moved.add(img)
    simple_set = set(amb.simple_root_vecs)
    for v in moved:
        decomposable = any(
            tuple(a - b for a, b in zip(v, u)) in moved
            for u in moved if u != v)
        if not decomposable and v not in simple_set:
            return False
    return True


def standardness_holds(sub, x):
    """The hypothesis of the degreewise bound and the coset equality:
    W' or x^{-1} W' x is a standard parabolic."""
    return sub.is_standard or conjugate_is_standard(sub, x)


def _require_standardness(sub, x, what):
    if not standardness_holds(sub, x):
        raise HypothesisError(
            f"{what} needs the subgroup, or its conjugate by the test "
            "element, to be standard")


def coefficientwise_bound(sub, x, w):
    """Degreewise form of the bound under the standardness hypothesis.

    Requires W' or x^{-1}W'x standard; the maximal set is then a single
    element y and every coefficient of P_{y,w} * P'_{phi(x),phi(y)} is
    compared against the matching coefficient of P_{x,w}.
    """
    _require_standardness(sub, x, "the coefficientwise bound")
    amb = sub.ambient
    maxima = _maxima_with_images(sub, x, w)
    desc = describe_subgroup(sub)
    if not maxima:
        return CoefficientwiseReport(x=x, w=w, subgroup=desc, y=None,
                                     degrees=(), holds=True, empty=True)
    assert len(maxima) == 1, "standard hypothesis should force |M| = 1"
    y, fy = maxima[0]
    lhs_poly = kl_polynomial(amb, x, w)
    prod = kl_polynomial(amb, y, w) * kl_polynomial(
        sub, phi_root(sub, x), fy)
    top = max(lhs_poly.degree, prod.degree)
    rows = []
    ok = True
    for k in range(top + 1):
        lk, rk = lhs_poly[k], prod[k]
        good = lk >= rk
        ok = ok and good
        rows.append((k, lk, rk, good))
    return CoefficientwiseReport(x=x, w=w, subgroup=desc, y=y,
                                 degrees=tuple(rows), holds=ok, empty=False)


def parabolic_equality(sub, x, w):
    """P_{x,w} equals P'_{phi(x),phi(w)} when w lies in the coset W'x.

    Requires the standardness hypothesis and w in W'x.  Returns both
    sides and whether they agree.
    """
    _require_standardness(sub, x, "the coset equality")
    amb = sub.ambient
    u = amb.multiply(w, amb.inverse(x))
    if not sub.contains(u):
        raise HypothesisError("the coset equality needs w in W'x")
    phix = phi_root(sub, x)
    lhs = kl_polynomial(amb, x, w)
    # phi(w) = phi(u x) = u phi(x) by equivariance, as in _coset_below
    rhs = kl_polynomial(sub, phix, amb.multiply(u, phix))
    return EqualityResult(lhs=lhs, rhs=rhs, holds=lhs == rhs)


def monotonicity_bound(sub, w):
    """P_{1,w}(1) >= P'_{1,phi(w)}(1), with the intermediate step recorded.

    The middle term is P_{x0,w}(1) for the minimal element x0 of the
    coset W'w, which is the unique coset element with trivial pattern.
    """
    amb = sub.ambient
    x0 = coset_minimum(sub, w)
    phiw = phi_root(sub, w)
    lhs = kl_polynomial(amb, amb.identity, w)(1)
    mid = kl_polynomial(amb, x0, w)(1)
    rhs = kl_polynomial(sub, sub.identity, phiw)(1)
    return MonotonicityReport(
        w=w, subgroup=describe_subgroup(sub), lhs=lhs, mid=mid, rhs=rhs,
        holds=lhs >= mid >= rhs, coset_min=x0, phi_w=phiw)


def brenti_simion(u, v, i):
    """Product factorization P_{u,v} = P_low * P_high at a value split.

    u and v are permutations (sequences or digit strings).  The split
    point i requires the values 1..i to occupy the same set of positions
    in u and in v; the low factor compares the subwords on values 1..i,
    the high factor the flattened subwords on values i+1..n.
    """
    u = _coerce_perm(u)
    v = _coerce_perm(v)
    n = len(u)
    if len(v) != n:
        raise HypothesisError("u and v must have the same size")
    if not 0 <= i <= n:
        raise HypothesisError(f"split point must lie in 0..{n}")
    low_pos_u = {p for p, val in enumerate(u) if val <= i}
    low_pos_v = {p for p, val in enumerate(v) if val <= i}
    if low_pos_u != low_pos_v:
        raise HypothesisError(
            f"values 1..{i} sit at different position sets in u and v")

    system = get_system("A", n - 1) if n >= 2 else None
    if system is None:
        lhs = ONE
    else:
        lhs = kl_polynomial(system, system.parse_oneline(u),
                            system.parse_oneline(v))

    def factor(su, sv):
        k = len(su)
        if k <= 1:
            return ONE
        sys_k = get_system("A", k - 1)
        return kl_polynomial(sys_k, sys_k.parse_oneline(su),
                             sys_k.parse_oneline(sv))

    low = factor(tuple(val for val in u if val <= i),
                 tuple(val for val in v if val <= i))
    high = factor(flatten(val for val in u if val > i),
                  flatten(val for val in v if val > i))
    rhs = low * high
    return EqualityResult(lhs=lhs, rhs=rhs, holds=lhs == rhs)
