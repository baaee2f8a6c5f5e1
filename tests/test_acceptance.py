"""Acceptance gate: the ten headline checks, one test each.

Each test prints a single CRITERION line (visible with -s, and mirrored
by the PASSED/FAILED status under -v) and enforces the stated runtime
budget.  Criteria 2 and 4 compute deep Kazhdan-Lusztig polynomials in
S7 and S8 from scratch, under budgets of 600 s and 1800 s.  Criterion 8
also sweeps S7 under --slow for its 1552 smooth permutations, within
120 s.
"""

import time

from klbounds import get_system, kl_polynomial, run_suite
from klbounds.bounds import brenti_simion, main_bound, maximal_set
from klbounds.parabolic import (coset_minimum, flatten_element,
                                parse_subgroup_spec, phi_root)
from klbounds.polynomials import IntPolynomial


def report(num, ok, note):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {note}")
    assert ok, f"criterion {num}: {note}"


def test_criterion_01_s4_worked_example():
    start = time.perf_counter()
    a3 = get_system("A3")
    sub = parse_subgroup_spec(a3, "refl:1-3,2-4")
    x = a3.parse_element("2143")
    w = a3.parse_element("4231")
    rep = main_bound(sub, x, w)
    names = sorted(a3.format_element(y) for y in rep.maximal_set)
    poly = kl_polynomial(a3, x, w)
    elapsed = time.perf_counter() - start
    ok = (names == ["2341", "4123"] and rep.rhs == 2
          and poly == IntPolynomial((1, 1)) and rep.holds
          and elapsed < 1.0)
    report(1, ok, f"M={names} rhs={rep.rhs} P={poly} ({elapsed:.2f}s)")


def test_criterion_02_s7_value_and_s9_pattern_map():
    start = time.perf_counter()
    a8 = get_system("A8")
    sub = parse_subgroup_spec(a8, "positions:1,3,4,5,7,8,9")
    x = a8.parse_element("163457289")
    w = a8.parse_element("869457213")
    fx = flatten_element(sub, phi_root(sub, x))
    fw = flatten_element(sub, phi_root(sub, w))
    m = maximal_set(sub, x, w)
    fast_elapsed = time.perf_counter() - start
    fast_ok = (fx == (1, 2, 3, 4, 5, 6, 7)
               and fw == (6, 7, 3, 4, 5, 1, 2)
               and m == (w,) and fast_elapsed < 1.0)

    kl_start = time.perf_counter()
    a6 = get_system("A6")
    value = kl_polynomial(a6, a6.parse_element("1234567"),
                          a6.parse_element("6734512"))(1)
    kl_elapsed = time.perf_counter() - kl_start
    ok = fast_ok and value == 44 and kl_elapsed < 600
    report(2, ok, f"phi/M ok ({fast_elapsed:.2f}s), "
                  f"P(1)={value} ({kl_elapsed:.1f}s)")


def test_criterion_03_coset_floor_and_flattening():
    start = time.perf_counter()
    a6 = get_system("A6")
    sub = parse_subgroup_spec(a6, "positions:1,4,6,7")
    w = a6.parse_element("6213475")
    floor = a6.format_element(coset_minimum(sub, w))
    image = phi_root(sub, w)
    r46 = a6.reflection_for_root(a6.classical_root(4, 6, "diff"))
    r14 = a6.reflection_for_root(a6.classical_root(1, 4, "diff"))
    flat = flatten_element(sub, image)
    elapsed = time.perf_counter() - start
    ok = (floor == "1243675"
          and image == a6.multiply(r46, r14)
          and flat == (3, 1, 2, 4) and elapsed < 1.0)
    report(3, ok, f"floor={floor} phi=r46*r14:{image == a6.multiply(r46, r14)} "
                  f"flat={''.join(map(str, flat))} ({elapsed:.2f}s)")


def test_criterion_04_factorization_s8():
    start = time.perf_counter()
    res = brenti_simion("25174683", "48273561", 4)
    a3 = get_system("A3")
    low = kl_polynomial(a3, a3.parse_element("2143"),
                        a3.parse_element("4231"))
    high = kl_polynomial(a3, a3.parse_element("1324"),
                         a3.parse_element("4312"))
    elapsed = time.perf_counter() - start
    ok = res.holds and res.rhs == low * high and elapsed < 1800
    report(4, ok, f"P={res.lhs} = ({low})*({high}) ({elapsed:.1f}s)")


def test_criterion_05_main_theorem_suites():
    start = time.perf_counter()
    results = [run_suite("main-theorem", name) for name in ("A3", "B3")]
    elapsed = time.perf_counter() - start
    failed = sum(r.failed for r in results)
    checked = sum(r.checked for r in results)
    ok = failed == 0 and checked > 0 and elapsed < 300
    report(5, ok, f"checked={checked} failed={failed} ({elapsed:.1f}s)")


def test_criterion_06_coset_theorem_suites():
    start = time.perf_counter()
    results = {name: run_suite("coset-theorem", name)
               for name in ("A3", "B3", "D4")}
    elapsed = time.perf_counter() - start
    failed = sum(r.failed for r in results.values())
    checked = sum(r.checked for r in results.values())
    kinds = {rec.theorem for r in results.values() for rec in r.records}
    wanted = {"COSET-EQUIV", "COSET-ORDER", "COSET-IFF", "COSET-AGREE",
              "COSET-RESTRICT", "COSET-SURJ"}
    ok = failed == 0 and wanted <= kinds and elapsed < 600
    report(6, ok, f"checked={checked} failed={failed} "
                  f"kinds={len(kinds)} ({elapsed:.1f}s)")


def test_criterion_07_coefficientwise_suites():
    start = time.perf_counter()
    results = [run_suite("coefficientwise", name) for name in ("A3", "A4")]
    elapsed = time.perf_counter() - start
    failed = sum(r.failed for r in results)
    checked = sum(r.checked for r in results)
    ok = failed == 0 and checked > 0 and elapsed < 60
    report(7, ok, f"checked={checked} failed={failed} ({elapsed:.1f}s)")


def test_criterion_08_smoothness_equivalence():
    start = time.perf_counter()
    orders = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720}
    # the classical counts of smooth permutations of S2..S6
    smooth = {"A1": 2, "A2": 6, "A3": 22, "A4": 88, "A5": 366}
    failed = checked = 0
    for name, order in orders.items():
        result = run_suite("smoothness", name)
        failed += result.failed
        checked += result.checked
        assert result.checked == order
        assert sum(1 for r in result.records if r.theorem == "SMOOTH"
                   and r.lhs == "1") == smooth[name], name
    elapsed = time.perf_counter() - start

    # S7 under --slow: 5040 elements, of which 1552 are smooth
    a6_start = time.perf_counter()
    a6 = run_suite("smoothness", "A6", slow=True)
    a6_elapsed = time.perf_counter() - a6_start
    a6_smooth = sum(1 for r in a6.records if r.theorem == "SMOOTH"
                    and r.lhs == "1")
    ok = (failed == 0 and checked == 872 and elapsed < 900
          and a6.failed == 0 and a6.checked == 5040 and a6_smooth == 1552
          and a6_elapsed < 120)
    report(8, ok, f"checked={checked} failed={failed} ({elapsed:.1f}s); "
                  f"A6 smooth={a6_smooth} failed={a6.failed} "
                  f"({a6_elapsed:.1f}s)")


def test_criterion_09_kl_engine_oracles():
    start = time.perf_counter()
    inv_a3 = run_suite("inversion-identity", "A3")
    inv_b3 = run_suite("inversion-identity", "B3")
    sym_a4 = run_suite("inversion-identity", "A4")
    desc_a5 = run_suite("inversion-identity", "A5")
    elapsed = time.perf_counter() - start

    def count(result, token):
        return sum(1 for r in result.records if r.theorem == token)

    failed = sum(r.failed for r in (inv_a3, inv_b3, sym_a4, desc_a5))
    ok = (failed == 0
          and count(inv_a3, "KL-INV") == 24 * 24
          and count(inv_b3, "KL-INV") == 48 * 48
          and count(sym_a4, "KL-SYM") == 120 * 120
          and count(desc_a5, "KL-DESCENT") == 1000
          and elapsed < 300)
    report(9, ok, f"inv={count(inv_a3, 'KL-INV') + count(inv_b3, 'KL-INV')} "
                  f"sym={count(sym_a4, 'KL-SYM')} "
                  f"descent={count(desc_a5, 'KL-DESCENT')} "
                  f"failed={failed} ({elapsed:.1f}s)")


def test_criterion_10_p2_pattern_sweep():
    start = time.perf_counter()
    result = run_suite("conjecture-p2", "A5")
    elapsed = time.perf_counter() - start
    proven = [r for r in result.records if r.theorem == "P2"]
    ok = (result.failed == 0 and len(proven) == 224
          and all(r.holds for r in proven) and elapsed < 900)
    report(10, ok, f"p2_elements={len(proven)} failed={result.failed} "
                   f"({elapsed:.1f}s)")
