"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from workloads import Invocation

KL_ARGS = ("kl", "--type", "A3", "--x", "2143", "--w", "4231")
KL_OUT = b"1 + q ; P(1)=2\n"


def kl_invocation():
    return Invocation(KL_ARGS, hashlib.sha256(KL_OUT).hexdigest(), "P(1)=2")


class Fake:
    def __init__(self, stdout, code=0):
        self.stdout = stdout
        self.code = code


def test_digest_ignores_only_the_elapsed_field():
    text = b"MAIN A 2 - 1 1 1 1 HOLDS\nchecked=1 failed=0 elapsed=0.02s\n"
    slower = text.replace(b"0.02s", b"13.50s")
    assert run.digest(text) == run.digest(slower)
    assert run.digest(text) != run.digest(text.replace(b"MAIN A 2 - 1",
                                                       b"MAIN A 2 - 2"))
    summary = b'{"checked":1,"elapsed":0.021,"failed":0}\n'
    assert run.digest(b'{"a":1}\n' + summary) == \
        run.digest(b'{"a":1}\n' + summary.replace(b"0.021", b"7.5"))
    assert run.digest(b'{"a":1}\n' + summary) != \
        run.digest(b'{"a":2}\n' + summary)


def test_problems_flags_each_kind_of_wrong_output():
    inv = kl_invocation()
    assert run.problems(inv, Fake(KL_OUT)) == []
    assert run.problems(inv, Fake(KL_OUT, code=1)) == ["exit 1"]
    assert "record digest mismatch" in run.problems(
        inv, Fake(b"1 + 2*q ; P(1)=3\n"))
    assert any(p.startswith("known value") for p in run.problems(
        inv, Fake(b"1 + 2*q ; P(1)=3\n")))
    fails = Invocation(("verify",), hashlib.sha256(b"X FAILS\n").hexdigest())
    assert run.problems(fails, Fake(b"X FAILS\n")) == ["FAILS record"]
    assert run.problems(Invocation(KL_ARGS, None), Fake(KL_OUT)) == \
        ["no pinned digest"]


def test_corrupted_stream_is_reported_as_a_failure(monkeypatch):
    good = run.measure([kl_invocation()], seconds=0, trace=False)
    assert good["correct"] and good["failed"] == 0
    assert good["attempted"] == run.SETUP_TRIALS + 1

    real = run.run_child

    def corrupting(argv, deadline):
        outcome = real(argv, deadline)
        if "klbounds.cli" in argv:
            outcome.stdout = outcome.stdout.replace(b"q", b"q^2")
        return outcome

    monkeypatch.setattr(run, "run_child", corrupting)
    bad = run.measure([kl_invocation()], seconds=0, trace=False)
    assert not bad["correct"]
    assert bad["failed"] == 1 and bad["attempted"] == good["attempted"]


def test_work_counters_repeat_exactly():
    invs = [Invocation(("verify", "main-theorem", "--type", "A2"), None),
            Invocation(("verify", "conjecture-p2", "--type", "A3"), None)]
    run.build()
    first, second = (run.Run(invs, run.monotonic() + 120).iteration(True)
                     for _ in range(2))
    assert first["layers"]["counts"] == second["layers"]["counts"]
    assert first["layers"]["bytes"] == second["layers"]["bytes"]
    counts = first["layers"]["counts"]
    for name in ("kl.column.built", "coxeter.lower_interval.members",
                 "coxeter.bruhat.memo_entries", "parabolic.phi_root.calls",
                 "parabolic.phi_root.distinct_inputs", "bounds.maxima.calls",
                 "patterns.calls", "verify.records"):
        assert counts[name] > 0, name
    assert counts["verify.records"] == 180 + 2


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_seed_draws_pinned_inputs(name):
    assert workloads.invocations(name, 3) == workloads.invocations(name, 3)
    for seed in range(40):
        for inv in workloads.invocations(name, seed):
            assert inv.digest is not None, (seed, inv.key)


def test_kl_deep_seed_zero_checks_the_known_values():
    a6, a7 = workloads.invocations("kl-deep", 0)
    assert a6.known.endswith("P(1)=44")
    assert a7.known.startswith("1 + q ;")


def test_refuses_to_run_without_the_program():
    bare = run.BUILD / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "p2-A5",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert b"{" not in proc.stdout
