"""Set-up probe: the work one klbounds CLI invocation does before its first
suite unit (or its one query), and nothing after.

    python3 perfbench/probe.py verify main-theorem --type B3 --format json

takes the same arguments as the CLI and repeats, through the public API,
what the command does before it starts computing: import the CLI, build
the system (``get_system``), build the subgroup list the suite will sweep,
and enumerate the elements; for ``kl``, build the system and parse both
elements.  It prints a CLOCK_MONOTONIC stamp taken at that point, so the
caller measures from its own spawn stamp, interpreter start included and
interpreter exit excluded.
"""

import sys
import time


def _option(args, name, default=None):
    if name in args:
        return args[args.index(name) + 1]
    return default


def setup(args):
    import klbounds.cli  # noqa: F401  (the CLI's own import cost)
    from klbounds import (all_parabolic_subgroups, describe_subgroup,
                          get_system, parse_subgroup_spec,
                          standard_parabolic_subgroups)
    system = get_system(_option(args, "--type"))
    if args[0] == "kl":
        system.parse_element(_option(args, "--x"))
        system.parse_element(_option(args, "--w"))
        return
    if args[0] != "verify":
        raise SystemExit(f"probe: unsupported command {args[0]!r}")
    suite = args[1]
    spec = _option(args, "--parabolic")
    if spec is not None:
        subs = [parse_subgroup_spec(system, spec)]
    elif suite in ("coefficientwise", "parabolic-equality"):
        subs = standard_parabolic_subgroups(system)
    elif suite in ("main-theorem", "monotonicity", "coset-theorem"):
        subs = all_parabolic_subgroups(system)
    else:
        subs = []
    for sub in subs:
        describe_subgroup(sub)
    system.elements()


if __name__ == "__main__":
    setup(sys.argv[1:])
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
