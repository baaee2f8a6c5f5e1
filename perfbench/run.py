"""Fresh-process benchmark of the klbounds CLI.

    python3 perfbench/run.py --workload p2-A5 --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout.  Each iteration runs the
workload's invocation sequence (see workloads.py), one fresh
single-threaded process per invocation, and checks every output against
its pinned digest and known values.  Iterations repeat until --seconds
have passed (at least one).  Before them, the set-up probe (probe.py)
runs the sequence's set-up several times.

--trace 0 reports the end-to-end metrics, medians over the iterations:

    wall_s        spawn to exit of the whole sequence
    cpu_s         user + system CPU time of its processes (wait4 rusage)
    setup_s       interpreter start to the first suite unit, summed over
                  the sequence; median of the probe trials
    peak_rss_mb   largest peak RSS among the sequence's processes

--trace 1 alternates untraced iterations with traced ones (tracer.py)
and reports the per-layer metrics of the traced ones, plus the tracing
overhead: traced minus untraced median wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts every
process run (probes, untraced and traced invocations); one fails when it
exits non-zero, when its record digest or a pinned known value is wrong,
or when it prints a FAILS record.  Progress goes to stderr.
"""

import argparse
import compileall
import hashlib
import json
import os
from pathlib import Path
import re
import select
import statistics
import subprocess
import sys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

from tracer import monotonic  # noqa: E402
from workloads import WORKLOADS, invocations  # noqa: E402

SETUP_TRIALS = 7
# a run ends well inside the 180 s a caller may allow it
HARD_LIMIT_S = 165.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# per-layer metric -> unit; counts come from one traced iteration (they
# repeat exactly), times are medians over the traced iterations
PER_LAYER = {
    "coxeter.system.self_s": "s",
    "coxeter.elements.self_s": "s",
    "coxeter.lower_interval.calls": "count",
    "coxeter.lower_interval.members": "count",
    "coxeter.lower_interval.self_s": "s",
    "coxeter.bruhat.memo_entries": "count",
    "coxeter.interned_elements": "count",
    "kl.column.built": "count",
    "kl.column.entries": "count",
    "kl.column.self_s": "s",
    "kl.polynomial.calls": "count",
    "kl.polynomial.column_hit_ratio": "ratio",
    "kl.polynomial.self_s": "s",
    "parabolic.subgroups_built": "count",
    "parabolic.subgroup_build.self_s": "s",
    "parabolic.phi_root.calls": "count",
    "parabolic.phi_root.distinct_inputs": "count",
    "parabolic.phi_root.useful_ratio": "ratio",
    "parabolic.phi_root.self_s": "s",
    "bounds.maxima.calls": "count",
    "bounds.maxima.size_total": "count",
    "bounds.maxima.singleton_share": "ratio",
    "bounds.maxima.self_s": "s",
    "bounds.bound.self_s": "s",
    "patterns.calls": "count",
    "patterns.self_s": "s",
    "verify.units": "count",
    "verify.records": "count",
    "verify.unit.self_s": "s",
    "verify.suite.self_s": "s",
    "cli.render.self_s": "s",
    "cli.render.bytes": "bytes",
    "other.self_s": "s",
    "trace.overhead_s": "s",
}

_TEXT_ELAPSED = re.compile(rb" elapsed=[0-9.]+s$")


class BenchError(Exception):
    """The benchmark cannot run here."""


# -- outputs

def normalized(stdout):
    """stdout with the summary's elapsed field removed, the one output
    that legitimately differs between runs."""
    body = stdout[:-1] if stdout.endswith(b"\n") else stdout
    head, sep, last = body.rpartition(b"\n")
    if last.startswith(b"{") and b'"elapsed"' in last:
        summary = json.loads(last)
        summary.pop("elapsed", None)
        last = json.dumps(summary, sort_keys=True,
                          separators=(",", ":")).encode()
    else:
        last = _TEXT_ELAPSED.sub(b"", last)
    return head + sep + last + stdout[len(body):]


def digest(stdout):
    return hashlib.sha256(normalized(stdout)).hexdigest()


def problems(inv, outcome):
    """Why an invocation's result is wrong; empty when it is right."""
    out = []
    if outcome.code != 0:
        out.append(f"exit {outcome.code}")
    stdout = outcome.stdout
    if re.search(rb" FAILS$", stdout, re.M) or b'"holds":false' in stdout:
        out.append("FAILS record")
    if inv.known is not None and inv.known.encode() not in stdout:
        out.append(f"known value {inv.known!r} missing")
    if inv.digest is None:
        out.append("no pinned digest")
    elif digest(stdout) != inv.digest:
        out.append("record digest mismatch")
    return out


# -- processes

class Outcome:
    """What one child process did."""

    def __init__(self, code, stdout, stderr, spawn, wall, cpu, rss_mb):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.spawn = spawn        # CLOCK_MONOTONIC stamp before the spawn
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def run_child(argv, deadline):
    """Run argv to completion, reading its output as it comes; a child
    still running at `deadline` is killed and reported with code None."""
    spawn = monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    open_fds = [out_fd, err_fd]
    timed_out = False
    try:
        while open_fds:
            left = deadline - monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select(open_fds, [], [], left)
            for fd in ready:
                data = os.read(fd, 1 << 16)
                if data:
                    chunks[fd].append(data)
                else:
                    open_fds.remove(fd)
    finally:
        if open_fds:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = monotonic() - spawn
    return Outcome(None if timed_out else proc.returncode,
                   b"".join(chunks[out_fd]), b"".join(chunks[err_fd]),
                   spawn, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024)


def python(*args):
    return [sys.executable, *args]


# -- one workload run

class Run:
    """Counts and measurements of one benchmark run."""

    def __init__(self, invs, deadline):
        self.invs = invs
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def _account(self, what, outcome, wrong):
        self.attempted += 1
        if wrong:
            self.failed += 1
            tail = outcome.stderr.decode(errors="replace").strip()[-400:]
            print(f"FAILED {what}: {'; '.join(wrong)}"
                  + (f"\n{tail}" if tail else ""), file=sys.stderr)

    def setup_trial(self):
        """Set-up seconds of the whole sequence, from the probe."""
        total = 0.0
        for inv in self.invs:
            outcome = run_child(python(str(HERE / "probe.py"), *inv.args),
                                self.deadline)
            try:
                stamp = float(outcome.stdout.decode().split()[-1])
            except (IndexError, ValueError):
                stamp = None
            wrong = [] if outcome.code == 0 and stamp else \
                [f"probe exit {outcome.code}"]
            self._account(f"probe {inv.key}", outcome, wrong)
            if wrong:
                return None
            total += stamp - outcome.spawn
        return total

    def iteration(self, traced):
        """Run the sequence once; returns its measurements."""
        wall = cpu = rss = 0.0
        layers = {"self_s": {}, "counts": {}, "other": 0.0, "bytes": 0}
        for inv in self.invs:
            trace_path = BUILD / f"trace-{os.getpid()}.json"
            argv = python(str(HERE / "tracer.py"), str(trace_path), "--",
                          *inv.args) if traced \
                else python("-m", "klbounds.cli", *inv.args)
            outcome = run_child(argv, self.deadline)
            wrong = problems(inv, outcome)
            if traced:
                try:
                    trace = json.loads(trace_path.read_text())
                    trace_path.unlink()
                except (OSError, ValueError):
                    wrong.append("no trace written")
                else:
                    _add_trace(layers, trace, outcome)
            self._account(("traced " if traced else "") + inv.key,
                          outcome, wrong)
            wall += outcome.wall
            cpu += outcome.cpu
            rss = max(rss, outcome.rss_mb)
        return {"wall": wall, "cpu": cpu, "rss": rss, "layers": layers}


def _add_trace(layers, trace, outcome):
    for name, value in trace["self_s"].items():
        layers["self_s"][name] = layers["self_s"].get(name, 0.0) + value
    for name, value in trace["counts"].items():
        layers["counts"][name] = layers["counts"].get(name, 0) + value
    layers["other"] += trace["main_end"] - outcome.spawn - trace["top_s"]
    layers["bytes"] += len(normalized(outcome.stdout))
    if trace["missing"]:
        print("tracer could not wrap: " + ", ".join(trace["missing"]),
              file=sys.stderr)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(traced, untraced):
    """Per-layer metrics from the traced iterations."""
    counts = traced[0]["layers"]["counts"]

    def self_s(name):
        return statistics.median(it["layers"]["self_s"].get(name, 0.0)
                                 for it in traced)

    values = {name: counts.get(name, 0) for name in PER_LAYER
              if PER_LAYER[name] == "count"}
    for name, unit in PER_LAYER.items():
        if unit == "s" and name.endswith(".self_s"):
            values[name] = self_s(name[:-len(".self_s")])
    values.update({
        "kl.polynomial.column_hit_ratio": _ratio(
            counts["kl.polynomial.column_hits"], counts["kl.polynomial.calls"]),
        "parabolic.phi_root.useful_ratio": _ratio(
            counts["parabolic.phi_root.distinct_inputs"],
            counts["parabolic.phi_root.calls"]),
        "bounds.maxima.singleton_share": _ratio(
            counts["bounds.maxima.singletons"], counts["bounds.maxima.calls"]),
        "cli.render.bytes": traced[0]["layers"]["bytes"],
        "other.self_s": statistics.median(it["layers"]["other"]
                                          for it in traced),
        "trace.overhead_s": statistics.median(it["wall"] for it in traced)
        - statistics.median(it["wall"] for it in untraced),
    })
    return values


def end_to_end(setups, untraced):
    return {
        "wall_s": statistics.median(it["wall"] for it in untraced),
        "cpu_s": statistics.median(it["cpu"] for it in untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(it["rss"] for it in untraced),
    }


def measure(invs, seconds, trace):
    """Run one workload for about `seconds`; returns the result object."""
    started = monotonic()
    run = Run(invs, started + HARD_LIMIT_S)
    setups = [run.setup_trial() for _ in range(SETUP_TRIALS)]
    setups = [s for s in setups if s is not None]
    modes = (False, True) if trace else (False,)
    done = {mode: [] for mode in modes}
    loop_start = monotonic()
    k = 0
    while monotonic() < run.deadline:
        mode = modes[k % len(modes)]
        last = done[mode][-1]["wall"] if done[mode] else None
        if all(done.values()) and \
                monotonic() - loop_start + last > seconds:
            break
        it = run.iteration(mode)
        done[mode].append(it)
        print(f"{'traced' if mode else 'untraced'} iteration: "
              f"wall {it['wall']:.3f} s, cpu {it['cpu']:.3f} s, "
              f"rss {it['rss']:.1f} MB", file=sys.stderr)
        k += 1
    if not setups or not all(done.values()):
        raise BenchError("the run measured nothing")
    if trace:
        values = per_layer(done[True], done[False])
        units = PER_LAYER
    else:
        values = end_to_end(setups, done[False])
        units = END_TO_END
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def build():
    """Byte-compile the package, so no process pays for compiling it."""
    if not (ROOT / "src" / "klbounds" / "cli.py").is_file():
        raise BenchError(f"no klbounds sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        raise BenchError("klbounds does not compile")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        build()
        result = measure(invocations(args.workload, args.seed),
                         args.seconds, args.trace == 1)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
