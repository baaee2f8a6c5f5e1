"""Per-layer tracing of one klbounds CLI invocation, from outside the package.

Run as a child process of ``run.py``:

    python3 perfbench/tracer.py OUT.json -- verify main-theorem --type A2

It imports klbounds, wraps the public entry points of each module (and the
few private ones the suites call directly), runs ``klbounds.cli.main`` on
the given arguments, and writes one JSON object to OUT.json:

    {"exit": 0, "main_end": ..., "top_s": ..., "self_s": {...},
     "counts": {...}, "missing": [...]}

``self_s`` is the self time per span name: each span's duration minus the
time its direct child spans cover.  ``top_s`` is the time the outermost
spans cover, so the caller can attribute the rest of the process lifetime
(interpreter start, imports, argument parsing) to ``other``.  ``main_end``
is a CLOCK_MONOTONIC stamp, comparable with the parent's spawn stamp.

Spans are kept in flat arrays (name, parent, start, end) and reduced when
the command has returned.  Hot recursive helpers (``bruhat_leq``,
``multiply``) get no spans; memo sizes are read from the contexts instead,
when they die or when the command ends.

``from ... import`` binds the same function object under several module
names (``verify`` and ``cli`` import ``phi_root``, for instance), so every
wrapper replaces the original wherever a klbounds module or module-level
dict refers to it.  A target that no longer exists is listed in
``missing`` rather than failing the run, so the tracer keeps working on
later versions of the package.
"""

from array import array
import functools
import gc
import json
import sys
import time
import weakref

COUNT_NAMES = (
    "coxeter.lower_interval.calls",
    "coxeter.lower_interval.members",
    "coxeter.bruhat.memo_entries",
    "coxeter.interned_elements",
    "kl.column.built",
    "kl.column.entries",
    "kl.polynomial.calls",
    "kl.polynomial.column_hits",
    "parabolic.subgroups_built",
    "parabolic.phi_root.calls",
    "parabolic.phi_root.distinct_inputs",
    "bounds.maxima.calls",
    "bounds.maxima.size_total",
    "bounds.maxima.singletons",
    "patterns.calls",
    "verify.units",
    "verify.records",
)

SPAN_NAMES = (
    "cli.render",
    "verify.suite",
    "verify.unit",
    "bounds.bound",
    "bounds.maxima",
    "parabolic.phi_root",
    "parabolic.subgroup_build",
    "kl.polynomial",
    "kl.column",
    "coxeter.system",
    "coxeter.elements",
    "coxeter.lower_interval",
    "patterns",
)


def monotonic():
    """A clock shared by all processes of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.missing = []
        self._finalizers = []
        self._phi_inputs = set()

    def span(self, name, fn, skip=(), before=None, after=None):
        """Wrap fn so each call records a span named `name`.

        A call made while the innermost open span is one of `skip` runs
        unwrapped: it is internal work of that span, not a new entry into
        the layer.  `before(args)` runs at span start and its result goes
        to `after(args, result, token)` at span end.
        """
        nid = self.names.index(name)
        skip_ids = frozenset(self.names.index(s) for s in skip)
        stack = self.stack
        names = self.span_name
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and names[stack[-1]] in skip_ids:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            token = before(args) if before is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    # -- memo sizes, read when a context dies or when the run ends

    def watch_memo(self, owner, attr, counter):
        memo = getattr(owner, attr, None)
        if isinstance(memo, dict):
            self._finalizers.append(
                weakref.finalize(owner, self._add_len, counter, memo))

    def _add_len(self, counter, memo):
        self.counts[counter] += len(memo)

    def close_memos(self):
        gc.collect()
        for fin in self._finalizers:
            if fin.alive:
                fin()

    # -- reduction

    def reduce(self):
        """Self time per span name and the time the outermost spans cover."""
        starts, ends = self.span_start, self.span_end
        parents, names = self.span_parent, self.span_name
        own = [e - s for s, e in zip(starts, ends)]
        top = 0.0
        for i, p in enumerate(parents):
            if p >= 0:
                own[p] -= ends[i] - starts[i]
            else:
                top += ends[i] - starts[i]
        self_s = dict.fromkeys(self.names, 0.0)
        for i, nid in enumerate(names):
            self_s[self.names[nid]] += own[i]
        return self_s, top


def _klbounds_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "klbounds" or name.startswith("klbounds."))]


def _rebind(original, wrapper):
    """Point every module global and module-level dict entry at wrapper."""
    for mod in _klbounds_namespaces():
        space = vars(mod)
        for key, value in list(space.items()):
            if value is original:
                space[key] = wrapper
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


def _classes_defining(attr):
    seen = []
    for mod in _klbounds_namespaces():
        for value in vars(mod).values():
            if (isinstance(value, type) and attr in vars(value)
                    and value.__module__.startswith("klbounds")
                    and value not in seen):
                seen.append(value)
    return seen


def install(tracer):
    """Wrap the klbounds layers; the package must already be imported."""
    from klbounds import bounds, coxeter, kl, parabolic, patterns, verify, cli

    counts = tracer.counts

    def wrap_function(module, attr, name, **hooks):
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            tracer.missing.append(f"{module.__name__}.{attr}")
            return False
        _rebind(original, tracer.span(name, original, **hooks))
        return True

    def wrap_method(attr, name, owner_module=None, **hooks):
        classes = _classes_defining(attr)
        if owner_module is not None:
            classes = [c for c in classes
                       if c.__module__ == owner_module.__name__]
        if not classes:
            tracer.missing.append(f"*.{attr}")
        for cls in classes:
            setattr(cls, attr, tracer.span(name, vars(cls)[attr], **hooks))

    # coxeter: system construction, enumeration, intervals, memo sizes
    def after_system(args, result, token):
        tracer.watch_memo(args[0], "_bruhat", "coxeter.bruhat.memo_entries")
        tracer.watch_memo(args[0], "_intern", "coxeter.interned_elements")

    system_cls = getattr(coxeter, "CoxeterSystem", None)
    if system_cls is None:
        tracer.missing.append("klbounds.coxeter.CoxeterSystem")
    else:
        system_cls.__init__ = tracer.span(
            "coxeter.system", system_cls.__init__, after=after_system)
    wrap_method("elements", "coxeter.elements")

    def after_interval(args, result, token):
        counts["coxeter.lower_interval.calls"] += 1
        counts["coxeter.lower_interval.members"] += len(result)

    wrap_method("lower_interval", "coxeter.lower_interval",
                owner_module=coxeter, after=after_interval)

    # parabolic: subgroup construction and the pattern map
    def after_subgroup(args, result, token):
        counts["parabolic.subgroups_built"] += 1
        tracer.watch_memo(args[0], "_bruhat", "coxeter.bruhat.memo_entries")

    sub_cls = getattr(parabolic, "ParabolicSubgroup", None)
    if sub_cls is None:
        tracer.missing.append("klbounds.parabolic.ParabolicSubgroup")
    else:
        sub_cls.__init__ = tracer.span(
            "parabolic.subgroup_build", sub_cls.__init__,
            after=after_subgroup)
    for attr in ("parse_subgroup_spec", "parabolic_from_reflections",
                 "parabolic_conjugate", "standard_parabolic",
                 "position_subgroup", "unsigned_subgroup",
                 "standard_parabolic_subgroups", "all_parabolic_subgroups"):
        wrap_function(parabolic, attr, "parabolic.subgroup_build")

    phi_inputs = tracer._phi_inputs

    def after_phi(args, result, token):
        sub, w = args[0], args[1]
        counts["parabolic.phi_root.calls"] += 1
        key = (id(sub.ambient), getattr(sub, "fingerprint", None), w)
        if key not in phi_inputs:
            phi_inputs.add(key)
            counts["parabolic.phi_root.distinct_inputs"] += 1

    wrap_function(parabolic, "phi_root", "parabolic.phi_root",
                  after=after_phi)

    # bounds: the maxima scan and the bound evaluations around it
    def after_maxima(args, result, token):
        counts["bounds.maxima.calls"] += 1
        counts["bounds.maxima.size_total"] += len(result)
        if len(result) == 1:
            counts["bounds.maxima.singletons"] += 1

    if not wrap_function(bounds, "_maxima_with_images", "bounds.maxima",
                         after=after_maxima):
        wrap_function(bounds, "maximal_set", "bounds.maxima",
                      after=after_maxima)
    for attr in ("main_bound", "coefficientwise_bound", "parabolic_equality",
                 "monotonicity_bound", "brenti_simion",
                 "conjugate_is_standard"):
        wrap_function(bounds, attr, "bounds.bound")

    # kl: polynomial lookups from outside the engine, and columns built
    def before_polynomial(args):
        return counts["kl.column.built"]

    def after_polynomial(args, result, built_before):
        counts["kl.polynomial.calls"] += 1
        if counts["kl.column.built"] == built_before:
            counts["kl.polynomial.column_hits"] += 1

    internal = ("kl.polynomial", "kl.column")
    wrap_function(kl, "kl_polynomial", "kl.polynomial", skip=internal,
                  before=before_polynomial, after=after_polynomial)
    wrap_method("polynomial", "kl.polynomial", owner_module=kl,
                skip=internal, before=before_polynomial,
                after=after_polynomial)

    def before_column(args):
        columns = getattr(args[0], "_columns", None)
        return columns is None or args[1] not in columns

    def after_column(args, result, built):
        if built:
            counts["kl.column.built"] += 1
            counts["kl.column.entries"] += len(result)

    wrap_method("column", "kl.column", owner_module=kl,
                before=before_column, after=after_column)

    # patterns: outermost calls only (the predicates nest)
    for attr in ("flatten", "pattern_witness", "contains_pattern",
                 "avoids_patterns", "is_rationally_smooth_typeA",
                 "is_321_hexagon_avoiding", "conjecture_p2_patterns"):
        wrap_function(patterns, attr, "patterns", skip=("patterns",),
                      after=_count(counts, "patterns.calls"))

    # verify: run_suite and the units it runs
    def after_unit(args, result, token):
        counts["verify.units"] += 1
        counts["verify.records"] += len(result)

    runners = getattr(verify, "_RUNNERS", None)
    if not isinstance(runners, dict):
        tracer.missing.append("klbounds.verify._RUNNERS")
    else:
        for fn in set(runners.values()):
            _rebind(fn, tracer.span("verify.unit", fn, after=after_unit))
    wrap_function(verify, "run_suite", "verify.suite")

    # cli: a command's self time is what it does besides the layers above,
    # which is rendering and printing the records
    for attr in ("cmd_kl", "cmd_phi", "cmd_verify", "cmd_cache"):
        wrap_function(cli, attr, "cli.render")


def _count(counts, key):
    def after(args, result, token):
        counts[key] += 1
    return after


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    import klbounds.cli
    tracer = Tracer()
    install(tracer)
    try:
        code = klbounds.cli.main(cli_args)
    finally:
        sys.stdout.flush()
    main_end = monotonic()
    tracer.close_memos()
    self_s, top = tracer.reduce()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "main_end": main_end, "top_s": top,
                   "self_s": self_s, "counts": tracer.counts,
                   "missing": tracer.missing}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
