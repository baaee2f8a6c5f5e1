"""Command line front end.

Three subcommands:

    klbounds kl --type A3 --x 2143 --w 4231
    klbounds phi --type B4 --w -4,2,1,-3 --parabolic unsigned
    klbounds verify main-theorem --type A3

Elements are one-line windows for the classical families (``2143``,
``-4,2,1,-3``) with reduced words (``s1 s2 s1`` or ``s1.s2.s1``) as the
universal fallback; the exceptional families take words only.  Types are
compact (``B3``) or split (``--type B --rank 3``).

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource cap (group too large without --slow, or enumeration cap hit).

Large groups are gated: computations that enumerate elements or Bruhat
intervals refuse to start when the group order exceeds 1000 unless
--slow is passed.  The pattern map itself never enumerates the ambient
group, so ``phi`` runs ungated and takes neither --slow nor --cap.  For
``kl`` and ``verify``, --cap N refuses any enumeration beyond N elements;
``verify`` enumerates the whole group, so it refuses at once when the
group order exceeds N or the shared system's own cap, whichever is lower.

Formats: text (default), json (one canonical object per line, every
record carrying a versioned ``schema`` field), csv.  Record streams are
deterministic for identical inputs; the text and json summaries carry a
wall-clock elapsed field, which is the one intentionally nondeterministic
output.  csv flattens the per-term detail of main-theorem records one row
per (y, term) pair.
"""

import argparse
import csv
import os
import sys

from .cartan import weyl_group_order
from .coxeter import build_system, get_system
from .cartan import CartanDatum, parse_type
from .errors import EnumerationCapError, KlboundsError, ParseError
from .kl import kl_polynomial
from .parabolic import (coset_minimum, describe_subgroup, flatten_element,
                        parse_subgroup_spec, phi_coset, phi_root,
                        _root_descriptor)
from .verify import (SLOW_ORDER_LIMIT, SUITE_NAMES, SUMMARY_SCHEMA,
                     canonical_json, run_suite)


def _add_common(sub, element_args=()):
    sub.add_argument("--type", required=True, metavar="TYPE",
                     help="group type, compact like A3 or a family "
                          "letter combined with --rank")
    sub.add_argument("--rank", type=int, default=None,
                     help="rank when --type is a bare family letter")
    for name in element_args:
        sub.add_argument(f"--{name}", required=True,
                         help=f"element {name} (one-line or reduced word)")
    sub.add_argument("--format", choices=("text", "json", "csv"),
                     default="text", dest="fmt", help="output format")


def _add_limits(sub):
    """Options of the subcommands that enumerate elements."""
    sub.add_argument("--slow", action="store_true",
                     help="allow groups with more than "
                          f"{SLOW_ORDER_LIMIT} elements")
    sub.add_argument("--cap", type=int, default=None, metavar="N",
                     help="override the enumeration cap")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="klbounds",
        description="Kazhdan-Lusztig polynomials, pattern maps, and "
                    "lower-bound verification for finite Weyl groups")
    commands = parser.add_subparsers(dest="command", required=True)

    kl = commands.add_parser("kl", help="one Kazhdan-Lusztig polynomial")
    _add_common(kl, element_args=("x", "w"))
    _add_limits(kl)
    kl.set_defaults(func=cmd_kl)

    phi = commands.add_parser("phi", help="pattern map into a parabolic")
    _add_common(phi, element_args=("w",))
    phi.add_argument("--parabolic", required=True, metavar="SPEC",
                     help="subgroup spec: refl:1-3,2-4 standard:s1,s2 "
                          "conj:WORD|s1,s2 positions:1,4/2,5 signed:1,3 "
                          "unsigned rootidx:0,4 trivial full")
    phi.set_defaults(func=cmd_phi)

    verify = commands.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES, metavar="SUITE",
                        help="one of: " + ", ".join(SUITE_NAMES))
    _add_common(verify)
    _add_limits(verify)
    verify.add_argument("--parabolic", default=None, metavar="SPEC",
                        help="restrict to one subgroup spec (default: "
                             "every subgroup the suite sweeps)")
    verify.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (records merge "
                             "deterministically)")
    verify.set_defaults(func=cmd_verify)

    return parser


# -- shared plumbing

def _system_for(args):
    if args.cap is not None:
        datum = parse_type(args.type, args.rank)
        return build_system(CartanDatum.standard(datum.family, datum.rank),
                            enum_cap=args.cap)
    return get_system(args.type, args.rank)


def _gate_slow(system, slow):
    order = weyl_group_order(system.datum.family, system.datum.rank)
    if order > SLOW_ORDER_LIMIT and not slow:
        raise EnumerationCapError(
            f"{system.datum.type_name()} has {order} elements; "
            "pass --slow to compute anyway", SLOW_ORDER_LIMIT)


def _emit_csv(header, rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# -- subcommands

def cmd_kl(args):
    system = _system_for(args)
    _gate_slow(system, args.slow)
    x = system.parse_element(args.x)
    w = system.parse_element(args.w)
    poly = kl_polynomial(system, x, w)
    if args.fmt == "json":
        print(canonical_json({
            "schema": "klbounds.kl/1",
            "family": system.datum.family,
            "rank": system.datum.rank,
            "x": system.format_element(x, "token"),
            "w": system.format_element(w, "token"),
            "coeffs": list(poly.coeffs),
            "poly": str(poly).replace(" ", ""),
            "at_one": poly(1),
        }))
    elif args.fmt == "csv":
        _emit_csv(("family", "rank", "x", "w", "poly", "at_one"),
                  [(system.datum.family, system.datum.rank,
                    system.format_element(x, "token"),
                    system.format_element(w, "token"),
                    str(poly).replace(" ", ""), poly(1))])
    else:
        print(f"{poly} ; P(1)={poly(1)}")
    return 0


def _flat_text(flat):
    """Compact text for a flattened pattern (tuple or tuple of tuples)."""
    if flat and isinstance(flat[0], tuple):
        return "/".join(_flat_text(block) for block in flat)
    if all(1 <= v <= 9 for v in flat):
        return "".join(str(v) for v in flat)
    return ",".join(str(v) for v in flat)


def _refl_token(system, coords):
    if system.datum.is_classical:
        try:
            desc = _root_descriptor(system, coords)
        except ParseError:
            pass
        else:
            if "-" in desc:
                a, b = desc.split("-")
                if len(a) == 1 and len(b) == 1:
                    return f"r{a}{b}"
            return f"r[{desc}]"
    return f"r[{system._pos_index[coords]}]"


def _reflection_word(sub, u):
    """phi(w) as a product of subgroup generators, like r46*r14."""
    word = sub.canonical_word(u)
    if not word:
        return "e"
    return "*".join(_refl_token(sub.ambient, sub.simples_prime[i])
                    for i in word)


def cmd_phi(args):
    system = get_system(args.type, args.rank)
    w = system.parse_element(args.w)
    sub = parse_subgroup_spec(system, args.parabolic)
    image = phi_root(sub, w)
    other = phi_coset(sub, w)
    if image != other:
        raise AssertionError("phi_root and phi_coset disagree; "
                             "this is a bug, please report it")
    flat = None
    if sub._blocks is not None or sub._signed_blocks is not None:
        flat = flatten_element(sub, image)
    word = _reflection_word(sub, image)
    if args.fmt == "json":
        print(canonical_json({
            "schema": "klbounds.phi/1",
            "family": system.datum.family,
            "rank": system.datum.rank,
            "subgroup": describe_subgroup(sub),
            "w": system.format_element(w, "token"),
            "phi": system.format_element(image, "token"),
            "flattened": None if flat is None else _flat_text(flat),
            "word": word,
            "coset_min": system.format_element(coset_minimum(sub, w),
                                               "token"),
        }))
    elif args.fmt == "csv":
        _emit_csv(("family", "rank", "subgroup", "w", "phi",
                   "flattened", "word"),
                  [(system.datum.family, system.datum.rank,
                    describe_subgroup(sub),
                    system.format_element(w, "token"),
                    system.format_element(image, "token"),
                    "" if flat is None else _flat_text(flat), word)])
    else:
        print(_flat_text(flat) if flat is not None else word)
    return 0


def cmd_verify(args):
    result = run_suite(args.suite, args.type, args.rank,
                       parabolic=args.parabolic, slow=args.slow,
                       jobs=args.jobs, cap=args.cap)
    if args.fmt == "json":
        for record in result.records:
            print(canonical_json(record.json_dict()))
        print(canonical_json({
            "schema": SUMMARY_SCHEMA,
            "suite": result.suite,
            "checked": result.checked,
            "failed": result.failed,
            "elapsed": round(result.elapsed, 3),
        }))
    elif args.fmt == "csv":
        rows = []
        for r in result.records:
            detail = dict(r.detail)
            base = (r.theorem, r.family, r.rank, r.subgroup, r.x, r.w,
                    r.lhs, r.rhs, "HOLDS" if r.holds else "FAILS")
            terms = detail.get("per_term")
            if terms:
                rows.extend(base + tuple(term) for term in terms)
            else:
                rows.append(base + ("", "", ""))
        _emit_csv(("theorem", "family", "rank", "subgroup", "x", "w",
                   "lhs", "rhs", "verdict", "y", "p_y_w", "p_prime"), rows)
    else:
        for record in result.records:
            print(record.text_line())
        print(result.summary_line())
    return 0 if result.failed == 0 else 1


def _protect_negatives(argv):
    """Glue element flags to their values so signed windows like
    ``--w -4,2,1,-3`` survive argparse option detection."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--x", "--w"):
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_protect_negatives(list(argv)))
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except KlboundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed early (verify ... | head); die quietly with
        # the conventional SIGPIPE status instead of a traceback
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
        return 141


if __name__ == "__main__":
    sys.exit(main())
