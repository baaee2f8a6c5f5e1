from concurrent.futures import ProcessPoolExecutor
import json
from pathlib import Path

import pytest

from klbounds import get_system, run_suite
from klbounds.bounds import main_bound, monotonicity_bound
from klbounds.cartan import CartanDatum
from klbounds.coxeter import CoxeterSystem, build_system
from klbounds.errors import EnumerationCapError, ParseError
from klbounds.parabolic import all_parabolic_subgroups, parse_subgroup_spec
from klbounds import bounds
from klbounds.verify import (SUITE_NAMES, SUITES, _unit_bs_split,
                             _unit_coefficientwise, _unit_conjecture_p2,
                             _unit_coset_theorem, _unit_descent_sample,
                             _unit_inv_range,
                             _unit_monotonicity, _unit_parabolic_equality,
                             _unit_smoothness, _unit_sym_range,
                             canonical_json, suite_chunks)


def _lines(result):
    return [r.text_line() for r in result.records]


def test_suite_names_frozen():
    assert SUITE_NAMES == (
        "main-theorem", "coefficientwise", "parabolic-equality",
        "brenti-simion", "monotonicity", "coset-theorem", "smoothness",
        "inversion-identity", "conjecture-p2")


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_green_on_small_group(suite):
    # S3 is too small to exhibit any P(1) = 2 element, so that suite
    # gets the next rank up
    type_text = "A3" if suite == "conjecture-p2" else "A2"
    result = run_suite(suite, type_text)
    assert result.failed == 0
    assert result.checked == len(result.records) > 0
    assert result.summary_line().startswith(
        f"checked={result.checked} failed=0 elapsed=")
    assert {rec.theorem for rec in result.records} <= set(SUITES[suite].tags)


def _readme_suite_rows():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Verification suites")[1]
    rows = []
    for line in section.split("\n## ")[0].splitlines():
        if line.startswith("| `"):
            suite, records, sweep = (c.strip() for c in line.split("|")[1:4])
            rows.append((suite.strip("`"),
                         [t.strip("`") for t in records.split(", ")], sweep))
    return rows


def test_readme_suite_table_matches_the_suite_table():
    rows = _readme_suite_rows()
    assert [suite for suite, _, _ in rows] == list(SUITE_NAMES)
    for suite, records, sweep in rows:
        entry = SUITES[suite]
        assert sweep.endswith("(family A)") == entry.a_only, suite
        assert sweep.count("(family A)") == int(entry.a_only), suite
        if records[-1].endswith("*"):
            prefix = records[0][:-1]
            assert records == [prefix + "*"], suite
            assert all(tag.startswith(prefix) for tag in entry.tags), suite
        else:
            assert records == list(entry.tags), suite


def test_records_have_nine_clean_tokens():
    result = run_suite("main-theorem", "A2")
    for line in _lines(result):
        parts = line.split(" ")
        assert len(parts) == 9
        assert parts[0] == "MAIN"
        assert parts[8] in ("HOLDS", "FAILS")
        assert all(p for p in parts)


def test_determinism_across_runs():
    a = _lines(run_suite("coset-theorem", "B2"))
    b = _lines(run_suite("coset-theorem", "B2"))
    assert a == b


def test_parallel_merge_matches_serial():
    # each worker fills its own per-system name cache
    for suite, type_text in (("main-theorem", "B2"),
                             ("coefficientwise", "A3"),
                             ("coefficientwise", "B3"),
                             ("parabolic-equality", "A3"),
                             ("parabolic-equality", "B3")):
        serial = run_suite(suite, type_text, jobs=1)
        parallel = run_suite(suite, type_text, jobs=2)
        assert _lines(serial) == _lines(parallel), (suite, type_text)
        assert serial.checked == parallel.checked > 0


def test_coefficientwise_unit_work_counts(monkeypatch):
    # a fresh system, so no memo from another test hides the work
    system = build_system(CartanDatum.standard("A", 3))
    counts = {"multiply": 0, "format_element": 0}
    for attr in counts:
        original = getattr(CoxeterSystem, attr)

        def counted(self, *args, _original=original, _attr=attr):
            counts[_attr] += 1
            return _original(self, *args)

        monkeypatch.setattr(CoxeterSystem, attr, counted)
    records = _unit_coefficientwise(parse_subgroup_spec(system, "full"),
                                    "full")
    assert len(records) == 24 * 24
    assert all(rec.holds for rec in records)
    assert counts["multiply"] == 0
    assert counts["format_element"] <= 24


@pytest.mark.parametrize("unit", [_unit_coefficientwise,
                                  _unit_parabolic_equality])
@pytest.mark.parametrize("arg, cosets", [("full", 1), ("standard:s1", 12)])
def test_coset_units_work_once_per_coset(monkeypatch, unit, arg, cosets):
    # a fresh system, so no memo from another test hides the work
    system = build_system(CartanDatum.standard("A", 3))
    counts = {"_coset_table": 0, "phi_root": 0}
    for attr in counts:
        original = getattr(bounds, attr)

        def counted(*args, _original=original, _attr=attr):
            counts[_attr] += 1
            return _original(*args)

        monkeypatch.setattr(bounds, attr, counted)
    records = unit(parse_subgroup_spec(system, arg), arg)
    assert records and all(rec.holds for rec in records)
    assert counts == {"_coset_table": cosets, "phi_root": cosets}


@pytest.mark.parametrize("unit", [_unit_coefficientwise,
                                  _unit_parabolic_equality])
def test_coset_units_check_standardness_once_per_coset(monkeypatch, unit):
    system = build_system(CartanDatum.standard("A", 4))
    calls = []
    original = bounds.conjugate_is_standard

    def counted(sub, x):
        calls.append(x)
        return original(sub, x)

    monkeypatch.setattr(bounds, "conjugate_is_standard", counted)
    records = unit(parse_subgroup_spec(system, "conj:s2|s1,s3"),
                   "conj:s2|s1,s3")
    assert records and all(rec.holds for rec in records)
    # W' has 4 elements, so the 120 elements of A4 form 30 cosets
    assert len(calls) == len(set(calls)) == 30


def test_closing_a_pooled_run_cancels_its_pending_units(monkeypatch):
    futures = []
    submit = ProcessPoolExecutor.submit

    def recorded(self, *args, **kwargs):
        futures.append(submit(self, *args, **kwargs))
        return futures[-1]

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recorded)
    chunks = suite_chunks("main-theorem", "B3", jobs=2)
    assert len(next(chunks)) == 48 * 48
    chunks.close()
    # 24 subgroup units; only the few already handed to a worker run on
    assert len(futures) == 24
    assert sum(f.cancelled() for f in futures) >= 12


@pytest.mark.parametrize("unit, arg", [
    pytest.param(_unit_conjecture_p2, "0:120", id="_unit_conjecture_p2"),
    pytest.param(_unit_smoothness, "0:120", id="_unit_smoothness"),
    pytest.param(_unit_bs_split, "2", id="_unit_bs_split"),
    pytest.param(_unit_monotonicity, "standard:s1,s2",
                 id="_unit_monotonicity"),
    pytest.param(_unit_coset_theorem, "standard:s1,s2",
                 id="_unit_coset_theorem"),
    pytest.param(_unit_inv_range, "0:8", id="_unit_inv_range"),
    pytest.param(_unit_sym_range, "0:8", id="_unit_sym_range"),
    pytest.param(_unit_descent_sample, "50", id="_unit_descent_sample"),
])
def test_window_units_compute_each_window_once(monkeypatch, unit, arg):
    system = build_system(CartanDatum.standard("A", 4))
    calls = []
    to_oneline = CoxeterSystem.to_oneline

    def counted(self, w):
        calls.append(w)
        return to_oneline(self, w)

    monkeypatch.setattr(CoxeterSystem, "to_oneline", counted)
    # as run_unit calls them: a subgroup runner gets the parsed subgroup
    subgroup = unit in (_unit_monotonicity, _unit_coset_theorem)
    records = unit(parse_subgroup_spec(system, arg) if subgroup else system,
                   arg)
    assert records and all(rec.holds for rec in records)
    assert len(calls) == len(set(calls)) == 120


def test_main_records_match_direct_evaluation(a3):
    result = run_suite("main-theorem", "A3",
                       parabolic="refl:1-3,2-4")
    sub = parse_subgroup_spec(a3, "refl:1-3,2-4")
    by_pair = {}
    for rec in result.records:
        by_pair[(rec.x, rec.w)] = rec
    assert len(by_pair) == 24 * 24
    probes = [("2143", "4231"), ("1234", "4321"), ("3124", "2143")]
    for xs, ws in probes:
        rec = by_pair[(xs, ws)]
        rep = main_bound(sub, a3.parse_element(xs), a3.parse_element(ws))
        assert int(rec.lhs) == rep.lhs
        assert int(rec.rhs) == rep.rhs
        assert rec.holds == rep.holds


def test_monotonicity_records_match_direct(a3):
    result = run_suite("monotonicity", "A3", parabolic="standard:s1,s2")
    sub = parse_subgroup_spec(a3, "standard:s1,s2")
    assert len(result.records) == 24
    for rec in result.records:
        rep = monotonicity_bound(sub, a3.parse_element(rec.w))
        assert int(rec.lhs) == rep.lhs and int(rec.rhs) == rep.rhs


def test_subgroup_sweep_covers_all_parabolics(a3):
    result = run_suite("main-theorem", "A3")
    subs = {rec.subgroup for rec in result.records}
    assert len(subs) == len(all_parabolic_subgroups(a3))


def test_coset_suite_has_aggregate_records():
    result = run_suite("coset-theorem", "B2")
    kinds = {rec.theorem for rec in result.records}
    assert {"COSET-EQUIV", "COSET-ORDER", "COSET-AGREE",
            "COSET-RESTRICT", "COSET-SURJ"} <= kinds
    for rec in result.records:
        if rec.theorem in ("COSET-RESTRICT", "COSET-SURJ"):
            assert rec.x == "-" and rec.w == "-"


def test_smoothness_records_shape():
    result = run_suite("smoothness", "A3")
    assert len(result.records) == 24
    assert result.failed == 0
    nontrivial = [r for r in result.records if r.lhs != "1"]
    # exactly the two singular permutations of S4
    assert sorted(r.w for r in nontrivial) == ["3412", "4231"]
    for rec in nontrivial:
        assert rec.rhs == "0" and rec.holds


def test_conjecture_p2_on_s4():
    result = run_suite("conjecture-p2", "A3")
    p2 = [r for r in result.records if r.theorem == "P2"]
    assert sorted(r.w for r in p2) == ["3412", "4231"]
    assert all(r.holds for r in result.records)


def test_inversion_identity_suite_counts():
    result = run_suite("inversion-identity", "A2")
    kinds = {rec.theorem for rec in result.records}
    assert kinds == {"KL-INV", "KL-SYM", "KL-DESCENT"}
    inv = [r for r in result.records if r.theorem == "KL-INV"]
    assert len(inv) == 36  # all ordered pairs of S3
    assert result.failed == 0


def test_descent_samples_are_reproducible():
    a = [r.text_line() for r in run_suite("inversion-identity", "A2").records
         if r.theorem == "KL-DESCENT"]
    b = [r.text_line() for r in run_suite("inversion-identity", "A2").records
         if r.theorem == "KL-DESCENT"]
    assert a == b and len(a) > 0


def test_family_guards():
    with pytest.raises(ParseError):
        run_suite("smoothness", "B3")
    with pytest.raises(ParseError):
        run_suite("brenti-simion", "D4")
    with pytest.raises(ParseError):
        run_suite("no-such-suite", "A3")


def test_slow_gate():
    with pytest.raises(EnumerationCapError):
        run_suite("main-theorem", "A6")
    # explicitly opting in clears the gate (rank small enough to finish)
    assert run_suite("main-theorem", "A2", slow=True).failed == 0


def test_cap_above_system_cap_fails_before_enumerating(monkeypatch):
    import klbounds.verify as verify

    def refuse(*_):
        raise AssertionError("enumerated the parabolic subgroups of E7")

    monkeypatch.setattr(verify, "all_parabolic_subgroups", refuse)
    # E7 has 2,903,040 elements, above the shared system's own cap
    with pytest.raises(EnumerationCapError, match="enumeration cap 1000000"):
        verify.build_units("main-theorem", get_system("E7"), slow=True,
                           cap=5_000_000)


def test_cap_below_one_is_rejected():
    with pytest.raises(ParseError, match="cap must be at least 1"):
        run_suite("smoothness", "A2", cap=0)


def test_parabolic_and_suite_mismatch():
    with pytest.raises(ParseError):
        run_suite("smoothness", "A3", parabolic="standard:s1")


def test_json_records_round_trip():
    result = run_suite("coset-theorem", "A2", parabolic="standard:s1")
    for rec in result.records:
        blob = canonical_json(rec.json_dict())
        again = canonical_json(json.loads(blob))
        assert again == blob
        parsed = json.loads(blob)
        assert parsed["schema"] == "klbounds.verdict/1"
        assert parsed["holds"] == rec.holds
