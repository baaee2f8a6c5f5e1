"""Contract digests: the sha256 of every record stream on the small groups.

    python3 perfbench/contract.py          # compare with contract_digests.json
    python3 perfbench/contract.py --emit   # print the current digests

Run from the root of a source checkout.  Untimed.  Each suite runs in
text and JSON format on A2, A3, B2 and G2, the family-A suites on A2 and
A3 only, followed by the README's ``kl`` and ``phi`` examples in both
formats.  Digests are taken as in run.py, with the summary's elapsed
removed, so two versions of the package that print the same records give
the same digests.  Every invocation must also exit 0.  Exits 1 when any
stream differs from its pinned digest.
"""

import contextlib
import io
import json
from pathlib import Path
import sys

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import digest  # noqa: E402

PINNED = HERE / "contract_digests.json"

SUITES = ("main-theorem", "coefficientwise", "parabolic-equality",
          "brenti-simion", "monotonicity", "coset-theorem", "smoothness",
          "inversion-identity", "conjecture-p2")
FAMILY_A_SUITES = ("brenti-simion", "smoothness", "conjecture-p2")
GROUPS = ("A2", "A3", "B2", "G2")
README_EXAMPLES = (
    ("kl", "--type", "A3", "--x", "2143", "--w", "4231"),
    ("phi", "--type", "A6", "--w", "6213475", "--parabolic",
     "positions:1,4,6,7"),
    ("phi", "--type", "B4", "--w", "-4,2,1,-3", "--parabolic", "unsigned"),
)


def invocations():
    for suite in SUITES:
        for group in GROUPS:
            if suite in FAMILY_A_SUITES and not group.startswith("A"):
                continue
            for fmt in ("text", "json"):
                yield ("verify", suite, "--type", group, "--format", fmt)
    for example in README_EXAMPLES:
        for fmt in ("text", "json"):
            yield example + ("--format", fmt)


def current():
    """Digest of every contract stream, run in this process."""
    from klbounds.cli import main
    out = {}
    for args in invocations():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(args))
        key = " ".join(args)
        out[key] = digest(buf.getvalue().encode()) if code == 0 \
            else f"exit {code}"
    return out


def main(argv):
    digests = current()
    if argv == ["--emit"]:
        print(json.dumps(digests, indent=1, sort_keys=True))
        return 0
    pinned = json.loads(PINNED.read_text())
    wrong = sorted(key for key in pinned.keys() | digests.keys()
                   if pinned.get(key) != digests.get(key))
    for key in wrong:
        print(f"differs: {key}", file=sys.stderr)
    print(f"{len(digests) - len(wrong)} of {len(digests)} contract streams "
          "match their pinned digests")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
