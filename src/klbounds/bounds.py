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

Two ways of finding M serve the bounds.  main_bound scans the coset for
each pair through the Bruhat order, except in family A, where
_maxima_typeA enumerates W'x in one-line windows compared by the
tableau criterion.  The coefficientwise bound and the coset equality
work per coset instead (coefficientwise_bounds, parabolic_equalities):
M(x, w; W') and the hypothesis depend only on W'x and w, so each coset
is built once, by generator steps through the ambient's tabulated
left_mul, with its pattern images u phi(x), and scanned once per w,
reading both Bruhat orders from built KL columns, whose keys are
exactly the elements below their w.
"""

from bisect import insort
from collections import namedtuple
from itertools import permutations, product

from .coxeter import _cached_on, get_system
from .errors import HypothesisError
from .kl import get_engine, kl_polynomial
from .parabolic import (_normalize_positive, coset_minimum,
                        describe_subgroup, phi_root, simple_roots)
from .patterns import _coerce_perm, flatten
from .polynomials import ONE, ZERO


# the main bound for one (x, w, W') triple; per_term holds
# (y, P_{y,w}(1), P'_{phi(x),phi(y)}(1)) per maximum y, comparable says
# whether x <= w in the ambient order
BoundReport = namedtuple(
    "BoundReport",
    "x w subgroup maximal_set lhs rhs holds per_term comparable")

# P_{x,w} against the product bound degree by degree: y is the singleton
# element of M or None, degrees holds (k, lhs_k, rhs_k, ok), and empty
# says that [1, w] intersect W'x was empty
CoefficientwiseReport = namedtuple(
    "CoefficientwiseReport", "x w subgroup y degrees holds empty")

# P_{1,w}(1) >= P_{x0,w}(1) >= P'_{1,phi(w)}(1) for the coset floor x0:
# lhs, mid and rhs in that order, x0 as coset_min
MonotonicityReport = namedtuple(
    "MonotonicityReport", "w subgroup lhs mid rhs holds coset_min phi_w")

# both sides of a polynomial identity and whether they agree
EqualityResult = namedtuple("EqualityResult", "lhs rhs holds")


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
        # the reflection in e_a - e_b swaps the values a and b
        a, b = (t + 1 for t, c in enumerate(sub.ambient.to_evec(coords)) if c)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return [tuple(vs) for vs in groups.values() if len(vs) > 1]


def _orbit_plan_typeA(sub):
    """The value orbits of W', their arrangements and each value's rank."""
    orbits = _value_orbits_typeA(sub)
    return (orbits, [tuple(permutations(orb)) for orb in orbits],
            [{v: r for r, v in enumerate(orb)} for orb in orbits])


def _prefix_dominated(xv, wv):
    """Ehresmann's tableau criterion on one-line windows.

    x <= w in the Bruhat order of the symmetric group exactly when, for
    every k, the increasing rearrangement of the first k values of x is
    dominated entrywise by that of w (Bjorner-Brenti, GTM 231, Thm 2.6.3).
    Works for any totally ordered value alphabet, not just 1..n.
    """
    xs = []
    ws = []
    for xc, wc in zip(xv, wv):
        insort(xs, xc)
        insort(ws, wc)
        for a, b in zip(xs, ws):
            if a > b:
                return False
    return True


def _maxima_typeA(sub, x, w):
    """Window arithmetic version of the maxima scan for family A.

    Left multiplication by W' permutes one-line values within the orbits
    of its transpositions, so W'x is enumerated by rearranging each
    orbit's values over the slots x gives them.  Ambient comparisons use
    the tableau criterion, subgroup comparisons the product of per-orbit
    tableau tests on flattened windows, and only the maxima are
    converted back to group elements, through the ambient's window memo.
    The orbits, their arrangements and each value's rank in its orbit
    depend on W' alone, so they are computed once per subgroup.
    """
    amb = sub.ambient
    xv = amb.oneline_cached(x)
    wv = amb.oneline_cached(w)
    orbits, arrangements, rank_in = _cached_on(
        sub, "_orbit_plan_typeA", lambda: _orbit_plan_typeA(sub))
    phiv = amb.oneline_cached(phi_root(sub, x))
    slot = {v: i for i, v in enumerate(xv)}
    slot_lists = [tuple(slot[v] for v in orb) for orb in orbits]

    entries = []
    template = list(xv)
    for combo in product(*arrangements):
        yv = template[:]
        for slots, vals in zip(slot_lists, combo):
            for i, v in zip(slots, vals):
                yv[i] = v
        if not _prefix_dominated(yv, wv):
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
        fyv = tuple(yv[slot[phiv[v - 1]]] for v in range(1, n + 1))
        out.append((amb.parse_oneline_cached(yv),
                    amb.parse_oneline_cached(fyv)))
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
    moved = {_normalize_positive(amb.act_inv(x, v))
             for v in sub.positives_prime}
    return set(simple_roots(moved)) <= set(amb.simple_root_vecs)


def standardness_holds(sub, x):
    """The hypothesis of the degreewise bound and the coset equality:
    W' or x^{-1} W' x is a standard parabolic."""
    return sub.is_standard or conjugate_is_standard(sub, x)


def _check_standardness(sub, x, what, skip=False):
    """standardness_holds(sub, x); False only under skip, else raises."""
    holds = standardness_holds(sub, x)
    if not (holds or skip):
        raise HypothesisError(
            f"{what} needs the subgroup, or its conjugate by the test "
            "element, to be standard")
    return holds


def _coset_table(sub, x, phix):
    """The coset W'x as pairs (u x, phi(u x)), in sub.elements() order.

    phi(u x) = u phi(x) by equivariance.  Each u is s' u' with s' the
    first letter of its canonical word and u' the rest, so u' comes
    earlier in sub.elements(), which runs by length, and the pair of u
    is the pair of u' multiplied by s' on the left.  s' is applied as
    its ambient canonical word through the tabulated ``left_mul``: one
    lookup per step when s' is a simple reflection, as in a standard
    parabolic, and 2k+1 when it is a reflection of ambient length 2k+1.
    """
    amb = sub.ambient
    left_mul = amb.left_mul
    # each generator's ambient word, rightmost letter first
    steps = [amb.canonical_word(s)[::-1] for s in sub.simple_reflections]
    by_word = {}
    table = []
    for u in sub.elements():
        word = sub.canonical_word(u)
        if word:
            y, fy = by_word[word[1:]]
            for j in steps[word[0]]:
                y = left_mul(j, y)
                fy = left_mul(j, fy)
        else:
            y, fy = x, phix
        by_word[word] = y, fy
        table.append((y, fy))
    return table


def _by_coset(sub, xs, what, prepare, skip_nonstandard):
    """Each x of xs with phi(x) and prepare(table) for its coset W'x.

    (u x)^{-1} W' (u x) = x^{-1} W' x and phi(u x) = u phi(x), so the
    first x of a coset checks the hypothesis, evaluates phi and builds
    the table; later members read phi(x) from it.  A coset that fails
    the hypothesis raises, or is left out under skip_nonstandard.
    """
    seen = {}
    for x in xs:
        if x not in seen:
            holds = _check_standardness(sub, x, what, skip_nonstandard)
            table = _coset_table(sub, x, phi_root(sub, x))
            state = prepare(table) if holds else None
            for y, fy in table:
                seen[y] = fy, state
        fx, state = seen[x]
        if state is not None:
            yield x, fx, state


def _coset_maxima(sub, table, ws):
    """(column of w, y, subgroup column of phi(y)) per w of ws, with y the
    one element of M(x, w; W'), or None when no member lies below w."""
    # decreasing subgroup length: an element is maximal iff no kept
    # maximum dominates its pattern, as in _maxima_with_images
    table.sort(key=lambda pair: -sub.length(pair[1]))
    ambient_column = get_engine(sub.ambient).column
    sub_column = get_engine(sub).column
    out = []
    for w in ws:
        colw = ambient_column(w)
        maxima = []
        for y, fy in table:
            if y not in colw:
                continue
            for _, colz in maxima:
                if fy in colz:
                    break
            else:
                maxima.append((y, sub_column(fy)))
        assert len(maxima) <= 1, "standard hypothesis should force |M| = 1"
        y, coly = maxima[0] if maxima else (None, None)
        out.append((colw, y, coly))
    return out


def coefficientwise_bounds(sub, xs, ws, skip_nonstandard=False):
    """Degreewise form of the bound, one report per (x, w), x-major.

    Requires W' or x^{-1}W'x standard for each x (under
    skip_nonstandard, the xs that fail it are left out); the maximal
    set is then a single element y and every coefficient of
    P_{y,w} * P'_{phi(x),phi(y)} is compared against the matching
    coefficient of P_{x,w}.

    The work is done per coset (_by_coset): the maxima scan runs once
    per coset and w, where the members of [1, w] intersect W'x are the
    coset elements that key the KL column of w, and a pattern image fy
    lies below fz exactly when it keys the subgroup's column of fz.
    """
    ws = tuple(ws)
    desc = describe_subgroup(sub)
    cosets = _by_coset(sub, xs, "the coefficientwise bound",
                       lambda table: _coset_maxima(sub, table, ws),
                       skip_nonstandard)
    for x, phix, found in cosets:
        for w, (colw, y, coly) in zip(ws, found):
            rows = []
            if y is not None:
                lhs_poly = colw.get(x, ZERO)
                prod = colw[y] * coly.get(phix, ZERO)
                for k in range(max(lhs_poly.degree, prod.degree) + 1):
                    lk, rk = lhs_poly[k], prod[k]
                    rows.append((k, lk, rk, lk >= rk))
            yield CoefficientwiseReport(
                x=x, w=w, subgroup=desc, y=y, degrees=tuple(rows),
                holds=all(row[3] for row in rows), empty=y is None)


def coefficientwise_bound(sub, x, w):
    """The degreewise bound for one pair; see coefficientwise_bounds."""
    return next(coefficientwise_bounds(sub, (x,), (w,)))


def _coset_equality(sub, x, phix, w, fw):
    """Both sides of P_{x,w} = P'_{phi(x),phi(w)}, given phi(w) = fw."""
    lhs = kl_polynomial(sub.ambient, x, w)
    rhs = kl_polynomial(sub, phix, fw)
    return EqualityResult(lhs=lhs, rhs=rhs, holds=lhs == rhs)


def parabolic_equality(sub, x, w):
    """P_{x,w} equals P'_{phi(x),phi(w)} when w lies in the coset W'x.

    Requires the standardness hypothesis and w in W'x.  Returns both
    sides and whether they agree.
    """
    _check_standardness(sub, x, "the coset equality")
    amb = sub.ambient
    u = amb.multiply(w, amb.inverse(x))
    if not sub.contains(u):
        raise HypothesisError("the coset equality needs w in W'x")
    phix = phi_root(sub, x)
    # phi(w) = phi(u x) = u phi(x) by equivariance
    return _coset_equality(sub, x, phix, w, amb.multiply(u, phix))


def parabolic_equalities(sub, xs, skip_nonstandard=False):
    """Triples (x, w, parabolic_equality(sub, x, w)), x-major, for each x
    of xs and w in W'x; the coset work is done once per coset
    (_by_coset), and w runs over its table, so needs no membership check.
    Under skip_nonstandard, the xs that fail the hypothesis are left out.
    """
    for x, phix, table in _by_coset(sub, xs, "the coset equality",
                                    lambda table: table, skip_nonstandard):
        for w, fw in table:
            yield x, w, _coset_equality(sub, x, phix, w, fw)


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
