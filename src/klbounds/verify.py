"""Verification suites for the coset bound and its companion theorems.

Each suite walks a fixed collection of checks over one Weyl group and
emits a Verdict record per check.  The text form of a record is the
nine-token line

    THEOREM family rank subgroup x w lhs rhs HOLDS|FAILS

with every token whitespace-free, so reports diff cleanly between runs
and parse with ``str.split``.  The JSON form carries the same fields, a
versioned ``schema`` marker and structured detail (maximal sets,
per-term products, per-degree rows).

lhs and rhs hold the two sides of the theorem under test, rendered
compactly (integers for evaluations at q=1, strings like ``1+q`` for
polynomials).  The coset-theorem suite is the one exception: its
properties are quantified over the whole subgroup for each ambient
element, so those records put the number of subchecks in lhs and the
number of failures in rhs, with an equality record (COSET-AGREE) keeping
the usual two-sides reading.

Determinism.  Subgroups are visited in the order produced by
``all_parabolic_subgroups``; elements and element pairs run
lexicographically by one-line window for the classical families and by
(length, canonical word) for the exceptional ones, which have no window.
Randomized parts (the descent-rule cross-check) derive their seed from
the group type alone.  Suites split into independent units so a worker
pool can run them; results merge in unit order, making reports
independent of the job count.

A suite is one entry of ``SUITES`` plus its unit runners; the request
checks, the unit lists and the CLI choices all read that table.  A test
checks the README's suite table against it, so a new suite adds a row.
"""

from collections import namedtuple
from functools import lru_cache, partial
import time

from .bounds import (brenti_simion, coefficientwise_bounds, main_bound,
                     monotonicity_bound, parabolic_equalities)
from .cartan import weyl_group_order
from .coxeter import (DEFAULT_ENUM_CAP, _cached_on, get_system,
                      system_type)
from .errors import EnumerationCapError, ParseError
from .kl import get_engine
from .parabolic import (all_parabolic_subgroups, describe_subgroup,
                        parse_subgroup_spec, phi_coset, phi_root,
                        standard_parabolic_subgroups)
from .patterns import conjecture_p2_patterns, is_rationally_smooth_typeA
from .polynomials import IntPolynomial, ONE

VERDICT_SCHEMA = "klbounds.verdict/1"
SUMMARY_SCHEMA = "klbounds.summary/1"

# groups larger than this need an explicit slow=True
SLOW_ORDER_LIMIT = 1000

# part thresholds for the inversion-identity suite; the R-polynomial sum
# is quadratic in interval sizes, the symmetry check only needs lookups
INVERSION_ORDER_LIMIT = 100
SYMMETRY_ORDER_LIMIT = 400
DESCENT_SAMPLES = 1000


class Verdict(namedtuple(
        "Verdict", "theorem family rank subgroup x w lhs rhs holds detail",
        defaults=((),))):
    """One verified statement, in record form."""

    __slots__ = ()

    def text_line(self):
        tail = "HOLDS" if self.holds else "FAILS"
        return (f"{self.theorem} {self.family} {self.rank} {self.subgroup} "
                f"{self.x} {self.w} {self.lhs} {self.rhs} {tail}")

    def json_dict(self):
        return {
            "schema": VERDICT_SCHEMA,
            "theorem": self.theorem,
            "family": self.family,
            "rank": self.rank,
            "subgroup": self.subgroup,
            "x": self.x,
            "w": self.w,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "detail": {k: v for k, v in self.detail},
        }


class SuiteResult(namedtuple("SuiteResult",
                             "suite family rank records elapsed")):
    """The records of one suite run and its wall-clock time."""

    __slots__ = ()

    @property
    def checked(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if not r.holds)

    def summary_line(self):
        return format_summary(self.suite, self.checked, self.failed,
                              self.elapsed)


# a picklable slice of a suite, runnable in a worker process
Unit = namedtuple("Unit", "suite family rank kind arg")


def canonical_json(obj):
    """The one JSON rendering used everywhere: sorted keys, no spaces."""
    import json
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def format_summary(suite, checked, failed, elapsed, fmt="text"):
    """The summary line of a suite run, in text or JSON form."""
    if fmt == "text":
        return f"checked={checked} failed={failed} elapsed={elapsed:.2f}s"
    return canonical_json({"schema": SUMMARY_SCHEMA, "suite": suite,
                           "checked": checked, "failed": failed,
                           "elapsed": round(elapsed, 3)})


# -- element and token helpers

def _fmt(system, w):
    if system.datum.is_classical:
        return system.format_element(w, "auto")
    return system.format_element(w, "token")


def _poly_token(poly):
    return str(poly).replace(" ", "")


def _lex_elements(ctx):
    """Context elements in the suite iteration order."""
    system = ctx.system
    key = (system.oneline_cached if system.datum.is_classical
           else system.sort_key)
    return _cached_on(ctx, "_suite_order",
                      lambda: tuple(sorted(ctx.elements(), key=key)))


def _names(system):
    """Each element's record token, formatted once per system (classical
    tokens from the cached windows that order the suite)."""
    return _cached_on(system, "_suite_names", lambda: {
        w: (system.format_window(system.oneline_cached(w))
            if system.datum.is_classical else _fmt(system, w))
        for w in _lex_elements(system)})


def _suite_ranks(system):
    """Each element's position in the suite iteration order."""
    return _cached_on(system, "_suite_ranks", lambda: {
        w: k for k, w in enumerate(_lex_elements(system))})


# -- suite units

def _check_request(suite, fam, rank, slow, cap, limit):
    """Refuse a suite run from its type alone; return the group order.

    Every suite enumerates the whole group, so a group order above the
    enumeration cap (``cap`` or ``limit``, the cap of the system the
    units run on, whichever is lower) is refused.
    """
    if suite not in SUITES:
        raise ParseError(f"unknown suite {suite!r}; "
                         f"choose one of {', '.join(SUITE_NAMES)}")
    if SUITES[suite].a_only and fam != "A":
        raise ParseError(f"suite {suite} is about symmetric groups; "
                         f"it needs family A, not {fam}")
    order = weyl_group_order(fam, rank)
    if order > SLOW_ORDER_LIMIT and not slow:
        raise EnumerationCapError(
            f"group order {order} exceeds {SLOW_ORDER_LIMIT}; "
            "pass slow=True (--slow) to run anyway", SLOW_ORDER_LIMIT)
    name = "the shared system's enumeration cap"
    if cap is not None and cap < limit:
        limit, name = cap, "cap"
    if order > limit:
        raise EnumerationCapError(
            f"group order {order} exceeds {name} {limit}", limit)
    return order


def build_units(suite, system, parabolic=None, slow=False, cap=None):
    """The deterministic unit list for one suite run.

    Runs the checks of ``_check_request`` first, so an unknown suite, a
    family the suite does not cover or a group order over the limits is
    refused before any subgroup is listed.
    """
    fam = system.datum.family
    rank = system.datum.rank
    order = _check_request(suite, fam, rank, slow, cap, system.enum_cap)
    parts = SUITES[suite].parts
    if parabolic is not None:
        if parts[0][0] != "subgroup":
            raise ParseError(f"suite {suite} does not take a subgroup")
        spec = describe_subgroup(parse_subgroup_spec(system, parabolic))
        return [Unit(suite, fam, rank, "subgroup", spec)]
    return [Unit(suite, fam, rank, kind, arg)
            for kind, args, _ in parts for arg in args(system, order)]


# -- unit plans: the args of one kind of unit, given system and order

def _all_subgroups(system, order):
    return [describe_subgroup(s) for s in all_parabolic_subgroups(system)]


def _standard_subgroups(system, order):
    return [describe_subgroup(s) for s in standard_parabolic_subgroups(system)]


def _bs_splits(system, order):
    return [str(i) for i in range(1, system.datum.rank + 1)]


def _w_ranges(system, order, limit=None):
    """About 16 slices of the suite order; none when it exceeds limit."""
    if limit is not None and order > limit:
        return []
    step = max(1, -(-order // 16))
    return [f"{lo}:{min(lo + step, order)}" for lo in range(0, order, step)]


def _unit_main_theorem(sub, desc):
    system = sub.system
    fam, rank = system.datum.family, system.datum.rank
    els = _lex_elements(system)
    out = []
    for x in els:
        xs = _fmt(system, x)
        for w in els:
            rep = main_bound(sub, x, w)
            detail = (
                ("comparable", rep.comparable),
                ("maximal_set", [_fmt(system, y) for y in rep.maximal_set]),
                ("per_term", [[_fmt(system, y), py, pp]
                              for y, py, pp in rep.per_term]),
            )
            out.append(Verdict("MAIN", fam, rank, desc, xs, _fmt(system, w),
                               str(rep.lhs), str(rep.rhs), rep.holds, detail))
    return out


def _unit_coefficientwise(sub, desc):
    system = sub.system
    fam, rank = system.datum.family, system.datum.rank
    els = _lex_elements(system)
    names = _names(system)
    # few distinct polynomials, so each token is formatted once per unit
    token = lru_cache(maxsize=None)(
        lambda coeffs: _poly_token(IntPolynomial(coeffs)))
    out = []
    for rep in coefficientwise_bounds(sub, els, els, skip_nonstandard=True):
        detail = (
            ("degrees", [list(row) for row in rep.degrees]),
            ("empty", rep.empty),
            ("y", None if rep.y is None else names[rep.y]),
        )
        out.append(Verdict("COEFF", fam, rank, desc, names[rep.x],
                           names[rep.w],
                           token(tuple(r[1] for r in rep.degrees)),
                           token(tuple(r[2] for r in rep.degrees)),
                           rep.holds, detail))
    return out


def _unit_parabolic_equality(sub, desc):
    system = sub.system
    fam, rank = system.datum.family, system.datum.rank
    names = _names(system)
    ranks = _suite_ranks(system)
    results = sorted(parabolic_equalities(sub, _lex_elements(system),
                                          skip_nonstandard=True),
                     key=lambda item: (ranks[item[0]], ranks[item[1]]))
    return [Verdict("PARABOLIC-EQ", fam, rank, desc, names[x], names[w],
                    _poly_token(res.lhs), _poly_token(res.rhs), res.holds)
            for x, w, res in results]


def _unit_monotonicity(sub, desc):
    system = sub.system
    fam, rank = system.datum.family, system.datum.rank
    names = _names(system)
    out = []
    for w in _lex_elements(system):
        rep = monotonicity_bound(sub, w)
        detail = (
            ("coset_min", names[rep.coset_min]),
            ("mid", rep.mid),
            ("phi_w", names[rep.phi_w]),
        )
        out.append(Verdict("MONO", fam, rank, desc, names[rep.coset_min],
                           names[w], str(rep.lhs), str(rep.rhs), rep.holds,
                           detail))
    return out


def _unit_coset_theorem(sub, desc):
    system = sub.system
    fam, rank = system.datum.family, system.datum.rank
    els = _lex_elements(system)
    subels = _lex_elements(sub)
    names = _names(system)
    phi = {x: phi_root(sub, x) for x in els}
    out = []
    for x in els:
        xs = names[x]
        fx = phi[x]
        eq_fail = ord_fail = iff_fail = 0
        for u in subels:
            ux = system.multiply(u, x)
            if phi[ux] != system.multiply(u, fx):
                eq_fail += 1
            pattern_leq = sub.bruhat_leq(fx, phi[ux])
            bruhat = system.bruhat_leq(x, ux)
            if pattern_leq and not bruhat:
                ord_fail += 1
            if pattern_leq != bruhat:
                iff_fail += 1
        count = str(len(subels))
        out.append(Verdict("COSET-EQUIV", fam, rank, desc, xs, "-",
                           count, str(eq_fail), eq_fail == 0))
        out.append(Verdict("COSET-ORDER", fam, rank, desc, xs, "-",
                           count, str(ord_fail), ord_fail == 0))
        if sub.is_standard:
            out.append(Verdict("COSET-IFF", fam, rank, desc, xs, "-",
                               count, str(iff_fail), iff_fail == 0))
        other = phi_coset(sub, x)
        out.append(Verdict("COSET-AGREE", fam, rank, desc, xs, "-",
                           names[fx], names[other],
                           fx == other))
    fixed = sum(1 for u in subels if phi[u] == u)
    out.append(Verdict("COSET-RESTRICT", fam, rank, desc, "-", "-",
                       str(fixed), str(len(subels)), fixed == len(subels)))
    image = {phi[x] for x in els}
    out.append(Verdict("COSET-SURJ", fam, rank, desc, "-", "-",
                       str(len(image)), str(len(subels)),
                       image == set(subels)))
    return out


def _unit_bs_split(system, arg):
    i = int(arg)
    fam, rank = system.datum.family, system.datum.rank
    els = _lex_elements(system)
    windows = {w: system.oneline_cached(w) for w in els}
    names = _names(system)
    masks = {w: frozenset(p for p, v in enumerate(windows[w]) if v <= i)
             for w in els}
    out = []
    for u in els:
        mu_, wu = masks[u], windows[u]
        for v in els:
            if masks[v] != mu_:
                continue
            res = brenti_simion(wu, windows[v], i)
            out.append(Verdict("BS", fam, rank, f"split:{i}", names[u],
                               names[v], _poly_token(res.lhs),
                               _poly_token(res.rhs), res.holds,
                               (("split", i),)))
    return out


def _unit_smoothness(system, arg):
    lo, hi = (int(p) for p in arg.split(":"))
    fam, rank = system.datum.family, system.datum.rank
    engine = get_engine(system)
    ident = system.identity
    names = _names(system)
    out = []
    for w in _lex_elements(system)[lo:hi]:
        poly = engine.polynomial(ident, w)
        avoids = is_rationally_smooth_typeA(system.oneline_cached(w))
        smooth = poly == ONE
        detail = (("avoids_4231_3412", avoids),
                  ("poly", _poly_token(poly)))
        out.append(Verdict("SMOOTH", fam, rank, "-", names[ident], names[w],
                           str(poly(1)), "1" if avoids else "0",
                           smooth == avoids, detail))
    return out


def _unit_conjecture_p2(system, arg):
    lo, hi = (int(p) for p in arg.split(":"))
    fam, rank = system.datum.family, system.datum.rank
    engine = get_engine(system)
    ident = system.identity
    names = _names(system)
    out = []
    for w in _lex_elements(system)[lo:hi]:
        value = engine.polynomial(ident, w)(1)
        passes = conjecture_p2_patterns(system.oneline_cached(w))
        if value == 2:
            out.append(Verdict("P2", fam, rank, "-", names[ident], names[w],
                               "2", "1" if passes else "0", passes,
                               (("p_at_one", 2),)))
        elif passes and value > 2:
            # converse candidate: reported, never asserted
            out.append(Verdict("P2-CONVERSE", fam, rank, "-", names[ident],
                               names[w], str(value), "2", True,
                               (("note", "converse candidate"),)))
    return out


def _unit_inv_range(system, arg):
    lo, hi = (int(p) for p in arg.split(":"))
    fam, rank = system.datum.family, system.datum.rank
    engine = get_engine(system)
    els = _lex_elements(system)
    names = _names(system)
    out = []
    for x in els[lo:hi]:
        xs = names[x]
        for w in els:
            lhs, rhs = engine.inversion_identity(x, w)
            detail = (() if system.bruhat_leq(x, w)
                      else (("comparable", False),))
            out.append(Verdict("KL-INV", fam, rank, "-", xs, names[w],
                               _poly_token(lhs), _poly_token(rhs),
                               lhs == rhs, detail))
    return out


def _unit_sym_range(system, arg):
    lo, hi = (int(p) for p in arg.split(":"))
    fam, rank = system.datum.family, system.datum.rank
    engine = get_engine(system)
    els = _lex_elements(system)
    names = _names(system)
    out = []
    for x in els[lo:hi]:
        xs = names[x]
        xi = system.inverse(x)
        for w in els:
            direct = engine.polynomial(x, w)
            flipped = engine.polynomial(xi, system.inverse(w))
            out.append(Verdict("KL-SYM", fam, rank, "-", xs, names[w],
                               _poly_token(flipped), _poly_token(direct),
                               flipped == direct))
    return out


def _unit_descent_sample(system, arg):
    import random
    samples = int(arg)
    fam, rank = system.datum.family, system.datum.rank
    low = get_engine(system, "lowest")
    high = get_engine(system, "highest")
    els = system.elements()
    names = _names(system)
    rng = random.Random(f"{fam}{rank}:descent")
    out = []
    for _ in range(samples):
        x = els[rng.randrange(len(els))]
        w = els[rng.randrange(len(els))]
        a = low.polynomial(x, w)
        b = high.polynomial(x, w)
        out.append(Verdict("KL-DESCENT", fam, rank, "-", names[x],
                           names[w], _poly_token(a), _poly_token(b),
                           a == b, (("rules", ["lowest", "highest"]),)))
    return out


# -- the suite table

# one suite's facts: the theorem tags of its records, whether it is about
# symmetric groups only, and its unit plan, parts (kind, args, runner)
Suite = namedtuple("Suite", "tags a_only parts")

SUITES = {
    "main-theorem": Suite(("MAIN",), False, (
        ("subgroup", _all_subgroups, _unit_main_theorem),)),
    "coefficientwise": Suite(("COEFF",), False, (
        ("subgroup", _standard_subgroups, _unit_coefficientwise),)),
    "parabolic-equality": Suite(("PARABOLIC-EQ",), False, (
        ("subgroup", _standard_subgroups, _unit_parabolic_equality),)),
    "brenti-simion": Suite(("BS",), True, (
        ("bs-split", _bs_splits, _unit_bs_split),)),
    "monotonicity": Suite(("MONO",), False, (
        ("subgroup", _all_subgroups, _unit_monotonicity),)),
    "coset-theorem": Suite(
        ("COSET-EQUIV", "COSET-ORDER", "COSET-IFF", "COSET-AGREE",
         "COSET-RESTRICT", "COSET-SURJ"), False, (
            ("subgroup", _all_subgroups, _unit_coset_theorem),)),
    "smoothness": Suite(("SMOOTH",), True, (
        ("w-range", _w_ranges, _unit_smoothness),)),
    "inversion-identity": Suite(("KL-INV", "KL-SYM", "KL-DESCENT"), False, (
        ("inv-range", partial(_w_ranges, limit=INVERSION_ORDER_LIMIT),
         _unit_inv_range),
        ("sym-range", partial(_w_ranges, limit=SYMMETRY_ORDER_LIMIT),
         _unit_sym_range),
        ("descent-sample", lambda system, order: [str(DESCENT_SAMPLES)],
         _unit_descent_sample))),
    "conjecture-p2": Suite(("P2", "P2-CONVERSE"), True, (
        ("w-range", _w_ranges, _unit_conjecture_p2),)),
}

SUITE_NAMES = tuple(SUITES)

# looked up at call time, so a unit's runner can be swapped for a wrapper
_RUNNERS = {(name, kind): runner for name, suite in SUITES.items()
            for kind, _, runner in suite.parts}


def run_unit(unit):
    """Run one unit; the entry point of the serial path and of workers.
    A subgroup runner gets the parsed subgroup, any other the system."""
    ctx = get_system(unit.family, unit.rank)
    if unit.kind == "subgroup":
        ctx = parse_subgroup_spec(ctx, unit.arg)
    return _RUNNERS[(unit.suite, unit.kind)](ctx, unit.arg)


def suite_chunks(suite, type_text, rank=None, parabolic=None, slow=False,
                 jobs=1, cap=None):
    """Build the units of one named suite and return a generator that
    runs them, yielding each unit's record list in unit order.

    With jobs > 1 the units go to a pool of that many worker processes;
    closing the generator cancels those not yet started.  A bad request
    raises before this returns: EnumerationCapError for a cap below the
    group order, ParseError for jobs or a cap below 1.
    """
    if jobs < 1:
        raise ParseError(f"jobs must be at least 1, got {jobs}")
    if cap is not None and cap < 1:
        raise ParseError(f"cap must be at least 1, got {cap}")
    family, rank = system_type(type_text, rank)
    # the units run on the shared system, so its own cap bounds any cap
    _check_request(suite, family, rank, slow, cap, DEFAULT_ENUM_CAP)
    units = build_units(suite, get_system(family, rank),
                        parabolic=parabolic, slow=slow, cap=cap)
    if jobs == 1:
        return (run_unit(unit) for unit in units)
    return _pooled(units, jobs)


def _pooled(units, jobs):
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        yield from pool.map(run_unit, units)
    finally:
        pool.shutdown(cancel_futures=True)


def run_suite(suite, type_text, rank=None, parabolic=None, slow=False,
              jobs=1, cap=None):
    """Run one named suite and collect its SuiteResult; see suite_chunks."""
    chunks = suite_chunks(suite, type_text, rank, parabolic, slow, jobs, cap)
    start = time.perf_counter()
    records = tuple(rec for chunk in chunks for rec in chunk)
    elapsed = time.perf_counter() - start
    family, rank = system_type(type_text, rank)
    return SuiteResult(suite, family, rank, records, elapsed)
