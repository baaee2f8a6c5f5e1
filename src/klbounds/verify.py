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
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import json
import random
import time

from .bounds import (brenti_simion, coefficientwise_bound, main_bound,
                     monotonicity_bound, parabolic_equality,
                     standardness_holds)
from .cartan import weyl_group_order
from .coxeter import get_system
from .errors import EnumerationCapError, ParseError
from .kl import get_engine
from .parabolic import (all_parabolic_subgroups, describe_subgroup,
                        parse_subgroup_spec, phi_coset, phi_root,
                        standard_parabolic_subgroups)
from .patterns import conjecture_p2_patterns, is_rationally_smooth_typeA
from .polynomials import IntPolynomial, ONE

SUITE_NAMES = (
    "main-theorem",
    "coefficientwise",
    "parabolic-equality",
    "brenti-simion",
    "monotonicity",
    "coset-theorem",
    "smoothness",
    "inversion-identity",
    "conjecture-p2",
)

VERDICT_SCHEMA = "klbounds.verdict/1"
SUMMARY_SCHEMA = "klbounds.summary/1"

# groups larger than this need an explicit slow=True
SLOW_ORDER_LIMIT = 1000

# part thresholds for the inversion-identity suite; the R-polynomial sum
# is quadratic in interval sizes, the symmetry check only needs lookups
INVERSION_ORDER_LIMIT = 100
SYMMETRY_ORDER_LIMIT = 400
DESCENT_SAMPLES = 1000

_A_ONLY = ("brenti-simion", "smoothness", "conjecture-p2")


@dataclass(frozen=True)
class Verdict:
    """One verified statement, in record form."""

    theorem: str
    family: str
    rank: int
    subgroup: str
    x: str
    w: str
    lhs: str
    rhs: str
    holds: bool
    detail: tuple = ()

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


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    family: str
    rank: int
    records: tuple
    elapsed: float

    @property
    def checked(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if not r.holds)

    def summary_line(self):
        return (f"checked={self.checked} failed={self.failed} "
                f"elapsed={self.elapsed:.2f}s")


@dataclass(frozen=True)
class Unit:
    """A picklable slice of a suite, runnable in a worker process."""

    suite: str
    family: str
    rank: int
    kind: str
    arg: str


def canonical_json(obj):
    """The one JSON rendering used everywhere: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- element and token helpers

def _fmt(system, w):
    if system.datum.is_classical:
        return system.format_element(w, "auto")
    return system.format_element(w, "token")


def _poly_token(poly):
    return str(poly).replace(" ", "")


def _lex_sorted(system, elements):
    if system.datum.is_classical:
        return tuple(sorted(elements, key=system.to_oneline))
    return tuple(sorted(elements, key=system.sort_key))


def _lex_elements(ctx):
    """Context elements in the suite iteration order."""
    cached = getattr(ctx, "_suite_order", None)
    if cached is None:
        cached = _lex_sorted(ctx.system, ctx.elements())
        ctx._suite_order = cached
    return cached


def _ranges(count, pieces=16):
    step = max(1, -(-count // pieces))
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _subgroup_specs(system, suite, parabolic):
    if parabolic is not None:
        return [describe_subgroup(parse_subgroup_spec(system, parabolic))]
    if suite in ("coefficientwise", "parabolic-equality"):
        subs = standard_parabolic_subgroups(system)
    else:
        subs = all_parabolic_subgroups(system)
    return [describe_subgroup(s) for s in subs]


# -- suite units

def build_units(suite, system, parabolic=None, slow=False, cap=None):
    """The deterministic unit list for one suite run.

    Every suite enumerates the whole group, so a group order above the
    enumeration cap (``cap`` or the system's own, whichever is lower) is
    refused here, before any unit runs or any subgroup is listed.
    """
    if suite not in SUITE_NAMES:
        raise ParseError(f"unknown suite {suite!r}; "
                         f"choose one of {', '.join(SUITE_NAMES)}")
    fam = system.datum.family
    rank = system.datum.rank
    if suite in _A_ONLY and fam != "A":
        raise ParseError(f"suite {suite} is about symmetric groups; "
                         f"it needs family A, not {fam}")
    order = weyl_group_order(fam, rank)
    if order > SLOW_ORDER_LIMIT and not slow:
        raise EnumerationCapError(
            f"group order {order} exceeds {SLOW_ORDER_LIMIT}; "
            "pass slow=True (--slow) to run anyway", SLOW_ORDER_LIMIT)
    # the units run on the shared system, so its own cap bounds any --cap
    limit = system.enum_cap
    name = "the shared system's enumeration cap"
    if cap is not None and cap < limit:
        limit, name = cap, "cap"
    if order > limit:
        raise EnumerationCapError(
            f"group order {order} exceeds {name} {limit}", limit)

    def unit(kind, arg):
        return Unit(suite, fam, rank, kind, arg)

    if suite in ("main-theorem", "coefficientwise", "parabolic-equality",
                 "monotonicity", "coset-theorem"):
        return [unit("subgroup", spec)
                for spec in _subgroup_specs(system, suite, parabolic)]
    if parabolic is not None:
        raise ParseError(f"suite {suite} does not take a subgroup")
    if suite == "brenti-simion":
        points = rank + 1
        return [unit("bs-split", str(i)) for i in range(1, points)]
    if suite in ("smoothness", "conjecture-p2"):
        return [unit("w-range", f"{lo}:{hi}") for lo, hi in _ranges(order)]
    # inversion-identity: three parts, each sized to what it costs
    units = []
    if order <= INVERSION_ORDER_LIMIT:
        units.extend(unit("inv-range", f"{lo}:{hi}")
                     for lo, hi in _ranges(order))
    if order <= SYMMETRY_ORDER_LIMIT:
        units.extend(unit("sym-range", f"{lo}:{hi}")
                     for lo, hi in _ranges(order))
    units.append(unit("descent-sample", str(DESCENT_SAMPLES)))
    return units


def _unit_main_theorem(system, arg):
    sub = parse_subgroup_spec(system, arg)
    desc = describe_subgroup(sub)
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


def _unit_coefficientwise(system, arg):
    sub = parse_subgroup_spec(system, arg)
    desc = describe_subgroup(sub)
    fam, rank = system.datum.family, system.datum.rank
    els = _lex_elements(system)
    out = []
    for x in els:
        if not standardness_holds(sub, x):
            continue
        xs = _fmt(system, x)
        for w in els:
            rep = coefficientwise_bound(sub, x, w)
            lhs = IntPolynomial(tuple(r[1] for r in rep.degrees))
            rhs = IntPolynomial(tuple(r[2] for r in rep.degrees))
            detail = (
                ("degrees", [list(row) for row in rep.degrees]),
                ("empty", rep.empty),
                ("y", None if rep.y is None else _fmt(system, rep.y)),
            )
            out.append(Verdict("COEFF", fam, rank, desc, xs, _fmt(system, w),
                               _poly_token(lhs), _poly_token(rhs),
                               rep.holds, detail))
    return out


def _unit_parabolic_equality(system, arg):
    sub = parse_subgroup_spec(system, arg)
    desc = describe_subgroup(sub)
    fam, rank = system.datum.family, system.datum.rank
    out = []
    for x in _lex_elements(system):
        if not standardness_holds(sub, x):
            continue
        xs = _fmt(system, x)
        coset = _lex_sorted(system,
                            (system.multiply(u, x) for u in sub.elements()))
        for w in coset:
            res = parabolic_equality(sub, x, w)
            out.append(Verdict("PARABOLIC-EQ", fam, rank, desc, xs,
                               _fmt(system, w), _poly_token(res.lhs),
                               _poly_token(res.rhs), res.holds))
    return out


def _unit_monotonicity(system, arg):
    sub = parse_subgroup_spec(system, arg)
    desc = describe_subgroup(sub)
    fam, rank = system.datum.family, system.datum.rank
    out = []
    for w in _lex_elements(system):
        rep = monotonicity_bound(sub, w)
        detail = (
            ("coset_min", _fmt(system, rep.coset_min)),
            ("mid", rep.mid),
            ("phi_w", _fmt(system, rep.phi_w)),
        )
        out.append(Verdict("MONO", fam, rank, desc,
                           _fmt(system, rep.coset_min), _fmt(system, w),
                           str(rep.lhs), str(rep.rhs), rep.holds, detail))
    return out


def _unit_coset_theorem(system, arg):
    sub = parse_subgroup_spec(system, arg)
    desc = describe_subgroup(sub)
    fam, rank = system.datum.family, system.datum.rank
    els = _lex_elements(system)
    subels = _lex_elements(sub)
    phi = {x: phi_root(sub, x) for x in els}
    out = []
    for x in els:
        xs = _fmt(system, x)
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
                           _fmt(system, fx), _fmt(system, other),
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
    windows = {w: system.to_oneline(w) for w in els}
    masks = {w: frozenset(p for p, v in enumerate(windows[w]) if v <= i)
             for w in els}
    out = []
    for u in els:
        mu_, wu = masks[u], windows[u]
        us = _fmt(system, u)
        for v in els:
            if masks[v] != mu_:
                continue
            res = brenti_simion(wu, windows[v], i)
            out.append(Verdict("BS", fam, rank, f"split:{i}", us,
                               _fmt(system, v), _poly_token(res.lhs),
                               _poly_token(res.rhs), res.holds,
                               (("split", i),)))
    return out


def _unit_smoothness(system, arg):
    lo, hi = (int(p) for p in arg.split(":"))
    fam, rank = system.datum.family, system.datum.rank
    engine = get_engine(system)
    ident = system.identity
    ids = _fmt(system, ident)
    out = []
    for w in _lex_elements(system)[lo:hi]:
        poly = engine.polynomial(ident, w)
        avoids = is_rationally_smooth_typeA(system.to_oneline(w))
        smooth = poly == ONE
        detail = (("avoids_4231_3412", avoids),
                  ("poly", _poly_token(poly)))
        out.append(Verdict("SMOOTH", fam, rank, "-", ids, _fmt(system, w),
                           str(poly(1)), "1" if avoids else "0",
                           smooth == avoids, detail))
    return out


def _unit_conjecture_p2(system, arg):
    lo, hi = (int(p) for p in arg.split(":"))
    fam, rank = system.datum.family, system.datum.rank
    engine = get_engine(system)
    ident = system.identity
    ids = _fmt(system, ident)
    out = []
    for w in _lex_elements(system)[lo:hi]:
        value = engine.polynomial(ident, w)(1)
        passes = conjecture_p2_patterns(system.to_oneline(w))
        if value == 2:
            out.append(Verdict("P2", fam, rank, "-", ids, _fmt(system, w),
                               "2", "1" if passes else "0", passes,
                               (("p_at_one", 2),)))
        elif passes and value > 2:
            # converse candidate: reported, never asserted
            out.append(Verdict("P2-CONVERSE", fam, rank, "-", ids,
                               _fmt(system, w), str(value), "2", True,
                               (("note", "converse candidate"),)))
    return out


def _unit_inv_range(system, arg):
    lo, hi = (int(p) for p in arg.split(":"))
    fam, rank = system.datum.family, system.datum.rank
    engine = get_engine(system)
    els = _lex_elements(system)
    out = []
    for x in els[lo:hi]:
        xs = _fmt(system, x)
        for w in els:
            lhs, rhs = engine.inversion_identity(x, w)
            detail = (() if system.bruhat_leq(x, w)
                      else (("comparable", False),))
            out.append(Verdict("KL-INV", fam, rank, "-", xs, _fmt(system, w),
                               _poly_token(lhs), _poly_token(rhs),
                               lhs == rhs, detail))
    return out


def _unit_sym_range(system, arg):
    lo, hi = (int(p) for p in arg.split(":"))
    fam, rank = system.datum.family, system.datum.rank
    engine = get_engine(system)
    els = _lex_elements(system)
    out = []
    for x in els[lo:hi]:
        xs = _fmt(system, x)
        xi = system.inverse(x)
        for w in els:
            direct = engine.polynomial(x, w)
            flipped = engine.polynomial(xi, system.inverse(w))
            out.append(Verdict("KL-SYM", fam, rank, "-", xs, _fmt(system, w),
                               _poly_token(flipped), _poly_token(direct),
                               flipped == direct))
    return out


def _unit_descent_sample(system, arg):
    samples = int(arg)
    fam, rank = system.datum.family, system.datum.rank
    low = get_engine(system, "lowest")
    high = get_engine(system, "highest")
    els = system.elements()
    rng = random.Random(f"{fam}{rank}:descent")
    out = []
    for _ in range(samples):
        x = els[rng.randrange(len(els))]
        w = els[rng.randrange(len(els))]
        a = low.polynomial(x, w)
        b = high.polynomial(x, w)
        out.append(Verdict("KL-DESCENT", fam, rank, "-", _fmt(system, x),
                           _fmt(system, w), _poly_token(a), _poly_token(b),
                           a == b, (("rules", ["lowest", "highest"]),)))
    return out


_RUNNERS = {
    ("main-theorem", "subgroup"): _unit_main_theorem,
    ("coefficientwise", "subgroup"): _unit_coefficientwise,
    ("parabolic-equality", "subgroup"): _unit_parabolic_equality,
    ("monotonicity", "subgroup"): _unit_monotonicity,
    ("coset-theorem", "subgroup"): _unit_coset_theorem,
    ("brenti-simion", "bs-split"): _unit_bs_split,
    ("smoothness", "w-range"): _unit_smoothness,
    ("conjecture-p2", "w-range"): _unit_conjecture_p2,
    ("inversion-identity", "inv-range"): _unit_inv_range,
    ("inversion-identity", "sym-range"): _unit_sym_range,
    ("inversion-identity", "descent-sample"): _unit_descent_sample,
}


def run_unit(unit):
    """Run one unit; the entry point of the serial path and of workers."""
    system = get_system(unit.family, unit.rank)
    return _RUNNERS[(unit.suite, unit.kind)](system, unit.arg)


def run_suite(suite, type_text, rank=None, parabolic=None, slow=False,
              jobs=1, cap=None):
    """Run one named suite and return its SuiteResult.

    With jobs > 1 the units go to a pool of that many worker processes.
    A cap below the group order raises EnumerationCapError.
    """
    if jobs < 1:
        raise ParseError(f"jobs must be at least 1, got {jobs}")
    system = get_system(type_text, rank)
    units = build_units(suite, system, parabolic=parabolic, slow=slow,
                        cap=cap)
    start = time.perf_counter()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(run_unit, units))
    else:
        chunks = [run_unit(u) for u in units]
    records = tuple(rec for chunk in chunks for rec in chunk)
    elapsed = time.perf_counter() - start
    return SuiteResult(suite, system.datum.family, system.datum.rank,
                       records, elapsed)
