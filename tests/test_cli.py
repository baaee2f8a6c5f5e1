import io
import json
import os
from pathlib import Path
import re
import resource
import subprocess
import sys

import pytest

from klbounds.cli import main
from klbounds import verify
from klbounds.verify import SUITE_NAMES, Verdict

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize("type_, w, spec", [("A3", "4231", "positions:"),
                                             ("B3", "1,2,3", "signed:")])
def test_phi_empty_block_spec_is_trivial(capsys, type_, w, spec):
    # no blocks is the trivial subgroup, whose flattening is empty
    code, out, err = run(capsys, "phi", "--type", type_, "--w", w,
                         "--parabolic", spec, "--format", "json")
    assert code == 0, err
    record = json.loads(out)
    assert record["subgroup"] == "trivial"
    assert record["flattened"] == "" and record["word"] == "e"


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
    monkeypatch.setattr("klbounds.cli.suite_chunks",
                        lambda *a, **k: (chunk for chunk in [[bad]]))
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


@pytest.mark.parametrize("argv", [
    ("phi", "--type", "A3", "--w", "2143", "--parabolic", spec)
    for spec in ("rootidx:99", "rootidx:-1", "rootidx:a", "positions:x",
                 "standard:sx", "refl:x-2", "refl:1-2-3")
] + [
    ("phi", "--type", "B3", "--w", "1,2,3", "--parabolic", spec)
    for spec in ("signed:x", "refl:1+2+3")
] + [
    ("verify", "main-theorem", "--type", "A2", "--parabolic", "rootidx:7"),
], ids=lambda argv: argv[0] + "-" + argv[-1])
def test_malformed_subgroup_spec_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec", ["standard:s1,s1", "standard:s2,s2,s1", "conj:e|s1,s1"])
@pytest.mark.parametrize("command", [
    ("phi", "--type", "A3", "--w", "2143"),
    ("verify", "coefficientwise", "--type", "A3"),
], ids=["phi", "verify"])
def test_repeated_generator_is_usage_error(capsys, command, spec):
    code, out, err = run(capsys, *command, "--parabolic", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "listed twice" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("kl", "--type", "A3", "--x", "1234", "--w", "4321", "--cap", "-5"),
    ("kl", "--type", "A3", "--x", "1234", "--w", "4321", "--cap", "0"),
    ("verify", "smoothness", "--type", "A3", "--cap", "0"),
], ids=["kl-neg", "kl-zero", "verify-zero"])
def test_cap_below_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "cap must be at least 1" in err


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


def _strip_elapsed(out):
    return re.sub(r'elapsed=[0-9.]+s|"elapsed":[0-9.]+', "", out)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_output_is_the_same_for_any_job_count(capsys, fmt):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "verify", "main-theorem", "--type", "A3",
                           "--format", fmt, "--jobs", jobs)
        assert code == 0
        outs.append(_strip_elapsed(out))
    assert outs[0] == outs[1]
    assert outs[0].count("\n") > 15 * 24 * 24


def test_verify_help_lists_the_suites_in_order(capsys, monkeypatch):
    # wide enough that argparse keeps the choices on one line
    monkeypatch.setenv("COLUMNS", "300")
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--help"])
    assert exit_.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    suite_line = next(line for line in lines if "one of:" in line)
    assert suite_line.split("one of: ")[1] == ", ".join(SUITE_NAMES)


def test_verify_writes_each_unit_before_the_next_runs(monkeypatch):
    out = io.StringIO()
    key = ("monotonicity", "subgroup")
    runner = verify._RUNNERS[key]
    lines_at_start = []

    def wrapped(sub, desc):
        lines_at_start.append(out.getvalue().count("\n"))
        return runner(sub, desc)

    monkeypatch.setitem(verify._RUNNERS, key, wrapped)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["verify", "monotonicity", "--type", "A2"]) == 0
    # one record per element of A2 in each subgroup's unit
    assert len(lines_at_start) > 1
    assert lines_at_start == [6 * k for k in range(len(lines_at_start))]


def test_broken_pipe_exits_quietly(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, *_):
            raise BrokenPipeError

        def flush(self):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    for jobs in ("1", "2"):
        for fmt in ("text", "json", "csv"):
            rc = main(["verify", "main-theorem", "--type", "A2",
                       "--format", fmt, "--jobs", jobs])
            assert rc == 141, (jobs, fmt)
            assert capsys.readouterr().err == "", (jobs, fmt)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_reader_closing_early_ends_the_run(jobs):
    # like verify ... | head -1: B3 has 24 units, one line is enough
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "klbounds.cli", "verify", "main-theorem",
         "--type", "B3", "--jobs", jobs],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"MAIN B 3 ")
    proc.stdout.close()
    try:
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
    assert proc.stderr.read() == b""
    proc.stderr.close()


def _limit_address_space():
    # 1 GB: a type built before it is refused fails here, not the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ("kl", "--type", "A99999", "--x", "e", "--w", "e"),
    ("phi", "--type", "A99999", "--w", "e", "--parabolic", "standard:s1"),
    ("verify", "smoothness", "--type", "A99999"),
    ("kl", "--type", "A200", "--x", "e", "--w", "e"),
    ("kl", "--type", "A200", "--x", "e", "--w", "e", "--slow"),
    ("verify", "main-theorem", "--type", "B1000", "--slow"),
], ids=["kl-A99999", "phi-A99999", "verify-A99999", "kl-A200",
        "kl-A200-slow", "verify-B1000-slow"])
def test_oversize_type_refused_before_building(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "klbounds.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=10, preexec_fn=_limit_address_space)
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("resource cap:")
    assert "Traceback" not in done.stderr


# modules no `kl`, `phi` or serial `verify` run needs: the process pool
# (only --jobs above 1 uses it) and the stdlib modules that the package
# imports inside the functions that use them, or not at all
UNUSED_AT_IMPORT = ("concurrent.futures.process", "dataclasses", "inspect",
                    "typing", "fractions", "decimal", "json", "random",
                    "csv")


def test_cli_import_loads_no_unused_module():
    # a fresh interpreter, and only the modules the import itself adds,
    # so what site or the test runner preloads does not count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = ("import sys; before = set(sys.modules); import klbounds.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "klbounds.cli" in loaded
    assert loaded.isdisjoint(UNUSED_AT_IMPORT), \
        sorted(loaded & set(UNUSED_AT_IMPORT))
