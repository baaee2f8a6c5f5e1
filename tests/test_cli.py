import json

import pytest

from klbounds.cli import main
from klbounds.verify import SuiteResult, Verdict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kl_pinned_example(capsys):
    code, out, err = run(capsys, "kl", "--type", "A3",
                         "--x", "2143", "--w", "4231")
    assert code == 0
    assert out == "1 + q ; P(1)=2\n"
    assert err == ""


def test_kl_reflexive_pair(capsys):
    code, out, _ = run(capsys, "kl", "--type", "A3",
                       "--x", "4231", "--w", "4231")
    assert code == 0
    assert out == "1 ; P(1)=1\n"


def test_kl_json_round_trip(capsys):
    code, out, _ = run(capsys, "kl", "--type", "A3",
                       "--x", "2143", "--w", "4231", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "klbounds.kl/1"
    assert record["coeffs"] == [1, 1]
    assert record["at_one"] == 2
    redone = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert redone == out.strip()


def test_kl_split_type_and_rank(capsys):
    code, out, _ = run(capsys, "kl", "--type", "A", "--rank", "3",
                       "--x", "2143", "--w", "4231")
    assert code == 0 and out.startswith("1 + q")


def test_phi_value_blocks(capsys):
    code, out, _ = run(capsys, "phi", "--type", "A6", "--w", "6213475",
                       "--parabolic", "positions:1,4,6,7")
    assert code == 0
    assert out == "3124\n"


def test_phi_signed_window(capsys):
    code, out, _ = run(capsys, "phi", "--type", "B4", "--w", "-4,2,1,-3",
                       "--parabolic", "unsigned")
    assert code == 0
    assert out == "1432\n"


def test_phi_json_details(capsys):
    code, out, _ = run(capsys, "phi", "--type", "A6", "--w", "6213475",
                       "--parabolic", "positions:1,4,6,7",
                       "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "klbounds.phi/1"
    assert record["flattened"] == "3124"
    assert record["word"] == "r46*r14"
    assert record["coset_min"] == "1,2,4,3,6,7,5"


def test_phi_fixes_subgroup_element(capsys):
    code, out, _ = run(capsys, "phi", "--type", "A3", "--w", "2134",
                       "--parabolic", "standard:s1")
    assert code == 0
    # an element of the subgroup maps to itself; its word has one letter
    assert out.strip() == "r12"


def test_verify_text_output(capsys):
    code, out, _ = run(capsys, "verify", "main-theorem", "--type", "A2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1].startswith("checked=180 failed=0 elapsed=")
    assert all(line.split()[0] == "MAIN" for line in lines[:-1])


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "coset-theorem", "--type", "A2",
                       "--format", "json")
    assert code == 0
    lines = out.strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary["schema"] == "klbounds.summary/1"
    assert summary["failed"] == 0
    for line in lines[:-1]:
        record = json.loads(line)
        assert record["schema"] == "klbounds.verdict/1"
        redone = json.dumps(record, sort_keys=True, separators=(",", ":"))
        assert redone == line


def test_verify_records_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "monotonicity", "--type", "A3",
                     "--format", "json")
    _, out2, _ = run(capsys, "verify", "monotonicity", "--type", "A3",
                     "--format", "json")
    # identical except for the elapsed field on the summary line
    assert out1.strip().split("\n")[:-1] == out2.strip().split("\n")[:-1]


def test_verify_csv_output(capsys):
    code, out, _ = run(capsys, "verify", "main-theorem", "--type", "A2",
                       "--parabolic", "standard:s1", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("theorem,family,rank,subgroup,x,w,lhs,rhs,"
                        "verdict,y,p_y_w,p_prime")
    assert all(line.startswith("MAIN,A,2,") for line in lines[1:])


def test_verify_failure_exit_code(capsys, monkeypatch):
    bad = Verdict("MAIN", "A", "2", "trivial", "123", "123", "0", "1",
                  False)
    fake = SuiteResult(suite="main-theorem", family="A", rank=2,
                       records=(bad,), elapsed=0.0)
    monkeypatch.setattr("klbounds.cli.run_suite",
                        lambda *a, **k: fake)
    code, out, _ = run(capsys, "verify", "main-theorem", "--type", "A2")
    assert code == 1
    assert "FAILS" in out


@pytest.mark.parametrize("argv", [
    ("verify", "main-theorem", "--type", "A2", "--all"),
    ("phi", "--type", "A3", "--w", "2134", "--parabolic", "full", "--slow"),
    ("phi", "--type", "A3", "--w", "2134", "--parabolic", "full",
     "--cap", "5"),
], ids=["verify-all", "phi-slow", "phi-cap"])
def test_removed_options_are_usage_errors(argv):
    # verify sweeps every subgroup by default, and phi never enumerates,
    # so these options would change nothing; they are refused, not ignored
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "bogus", "--type", "A2"])
    assert info.value.code == 2


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "kl", "--type", "A3",
                       "--x", "9999", "--w", "4231")
    assert code == 2
    assert err.startswith("error:")


def test_resource_cap_exit_code(capsys):
    code, _, err = run(capsys, "kl", "--type", "A6",
                       "--x", "1234567", "--w", "7654321")
    assert code == 3
    assert "resource cap" in err
    # and the same computation goes through with --slow on a small group
    code, out, _ = run(capsys, "kl", "--type", "A3",
                       "--x", "1234", "--w", "4321", "--slow")
    assert code == 0


def test_verify_honours_cap(capsys):
    code, out, err = run(capsys, "verify", "smoothness", "--type", "A3",
                         "--cap", "5")
    assert code == 3
    assert out == ""
    assert "group order 24 exceeds cap 5" in err
    code, out, _ = run(capsys, "verify", "smoothness", "--type", "A3",
                       "--cap", "24")
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("checked=24 failed=0")
    # a cap above the shared system's own cap cannot raise it, but a
    # group below both still runs
    code, out, _ = run(capsys, "verify", "smoothness", "--type", "A3",
                       "--cap", "2000000")
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("checked=24 failed=0")


def test_kl_honours_cap(capsys):
    # [e, 4321] is all 24 elements of A3
    code, out, err = run(capsys, "kl", "--type", "A3",
                         "--x", "1234", "--w", "4321", "--cap", "5")
    assert code == 3
    assert out == ""
    assert "resource cap" in err
    code, out, _ = run(capsys, "kl", "--type", "A3",
                       "--x", "1234", "--w", "4321", "--cap", "24")
    assert code == 0
    assert out == "1 ; P(1)=1\n"


def test_exceptional_type_named_once(capsys):
    code, _, err = run(capsys, "kl", "--type", "E8", "--x", "s1", "--w", "s2")
    assert code == 3
    assert "E8 has 696729600 elements" in err


def test_verify_with_jobs_flag(capsys):
    code, out, _ = run(capsys, "verify", "coset-theorem", "--type", "A2",
                       "--jobs", "2")
    assert code == 0
    assert "failed=0" in out.strip().split("\n")[-1]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    code, out, err = run(capsys, "verify", "coset-theorem", "--type", "A2",
                         "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "jobs must be at least 1" in err


def test_broken_pipe_exits_quietly(monkeypatch):
    import sys

    class ClosedPipe:
        def write(self, *_):
            raise BrokenPipeError

        def flush(self):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    rc = main(["verify", "main-theorem", "--type", "A2",
               "--format", "csv"])
    assert rc == 141
