"""Workload inputs, drawn from a seed, with their pinned outputs.

A workload is a fixed sequence of klbounds CLI invocations, each run in
a fresh single-threaded process.  Seed 0 gives the pinned inputs below;
another seed draws inputs of the same shape, and every input any seed can
draw has its output pinned here.

coeff-A4   ``verify coefficientwise --type A4`` on a four-element standard
           slice and on ``full``.  phi and the maxima scan dominate; the
           kl layer does little.  In ``full`` the scan walks all 120 coset
           members of every pair.  Other seeds swap ``standard:s1,s3`` for
           another commuting pair (same slice size, same cost).
main-B3    ``verify main-theorem --type B3 --format json``: the generic
           root-system path (multiply, descent-recursion Bruhat order,
           coset scans, subgroup KL), all 24 parabolics in set-up, and
           heavy JSON rendering.  No family-A window arithmetic.
p2-A5      ``verify conjecture-p2 --type A5``: intervals and KL columns of
           a whole group, pattern search, no phi and no maxima.
kl-deep    one deep ``kl --slow`` query in A6 and one in A7, groups that
           are never enumerated.  Seed 0 runs the pinned queries with the
           known values P(1)=44 (A6) and 1 + q (A7).  Other seeds draw, for
           each group, a query with w of the pinned length from a pool of
           random queries whose interval members and KL column entries
           (counted by tracer.py) lie within 10% of the pinned query's, and
           whose peak RSS agrees within 2% across the A7 pool.
           Random w of one length differ up to fourfold in cost, which would
           swamp the run-to-run spread.

main-B3 and p2-A5 sweep whole groups, so the seed does not change them.
"""

from dataclasses import dataclass
import random

COEFF_SLICES = ("standard:s1,s3", "standard:s1,s4", "standard:s2,s4")

KL_A6_PINNED = ("1234567", "6734512")
KL_A7_PINNED = ("25174683", "48273561")
# (x, w) pools with w of the pinned lengths 16 (A6) and 17 (A7)
KL_A6_POOL = (
    ("1234567", "7426531"),  # 1 + 2*q + q^2 ; P(1)=4
    ("1234567", "4762531"),  # 1 + 2*q + q^2 ; P(1)=4
    ("1234567", "7614532"),  # 1 + q + q^2 ; P(1)=3
    ("1234567", "7625143"),  # 1 + q ; P(1)=2
    ("1234567", "7641523"),  # 1 + 2*q + q^2 ; P(1)=4
    ("1234567", "7632514"),  # 1 + q ; P(1)=2
    ("1234567", "7542361"),  # 1 + 2*q + q^2 ; P(1)=4
)
KL_A7_POOL = (
    ("25174683", "28643751"),  # 1 ; P(1)=1
    ("25174683", "36584712"),  # 1 ; P(1)=1
    ("25174683", "82543761"),  # 1 ; P(1)=1
)

# sha256 of each invocation's stdout with the summary's elapsed removed
DIGESTS = {
    "verify coefficientwise --type A4 --parabolic standard:s1,s3":
        "eb6ced43e5ee9d6596d4be8e6630f98b02c7ef880c93c7c700ee0b729b3e16de",
    "verify coefficientwise --type A4 --parabolic standard:s1,s4":
        "8ff64b21bd111b27616180c7e965c285656743f53b69a4a984e0cea363703335",
    "verify coefficientwise --type A4 --parabolic standard:s2,s4":
        "d736b269e7f4b7598bd539f331192a98f5968d799840f8574cebe1ebb7c62f2a",
    "verify coefficientwise --type A4 --parabolic full":
        "d892c95ca7f65399b9cbf17c83caf63f8e60d0555f9cb5f214a30b0d72526901",
    "verify main-theorem --type B3 --format json":
        "65d7d22353a73596fff3015367b7d99fcccbb12e684f9f5c9e972b41eec04834",
    "verify conjecture-p2 --type A5":
        "a8c834e4a470b17765ccf5613144b31a11564257db816219e812fd5c50675ead",
    "kl --type A6 --x 1234567 --w 6734512 --slow":
        "294f4ec95c904836a67d4f94251b52a8f73a820cfa863b03f7c104e34f531049",
    "kl --type A7 --x 25174683 --w 48273561 --slow":
        "3c065edead94150538ec8f54e379ee884e4e6b8b339a36c2df10aea4fd5466b2",
    "kl --type A6 --x 1234567 --w 7426531 --slow":
        "56a439639d106345894d4d7fc9c7387dd7f9c00c59e3cf48bf4aa94fba33340d",
    "kl --type A6 --x 1234567 --w 4762531 --slow":
        "56a439639d106345894d4d7fc9c7387dd7f9c00c59e3cf48bf4aa94fba33340d",
    "kl --type A6 --x 1234567 --w 7614532 --slow":
        "dcf5ce4c6144f0a9959092a0938cca8182a55aa3387e98049efafc21bb30dda3",
    "kl --type A6 --x 1234567 --w 7625143 --slow":
        "3c065edead94150538ec8f54e379ee884e4e6b8b339a36c2df10aea4fd5466b2",
    "kl --type A6 --x 1234567 --w 7641523 --slow":
        "56a439639d106345894d4d7fc9c7387dd7f9c00c59e3cf48bf4aa94fba33340d",
    "kl --type A6 --x 1234567 --w 7632514 --slow":
        "3c065edead94150538ec8f54e379ee884e4e6b8b339a36c2df10aea4fd5466b2",
    "kl --type A6 --x 1234567 --w 7542361 --slow":
        "56a439639d106345894d4d7fc9c7387dd7f9c00c59e3cf48bf4aa94fba33340d",
    "kl --type A7 --x 25174683 --w 28643751 --slow":
        "a7b2bbd2f3a2b57a52d41d1b2f74be9a02c6bf5bd1e52fbd1f64e91641f5236a",
    "kl --type A7 --x 25174683 --w 36584712 --slow":
        "a7b2bbd2f3a2b57a52d41d1b2f74be9a02c6bf5bd1e52fbd1f64e91641f5236a",
    "kl --type A7 --x 25174683 --w 82543761 --slow":
        "a7b2bbd2f3a2b57a52d41d1b2f74be9a02c6bf5bd1e52fbd1f64e91641f5236a",
}

# values from the literature that the pinned queries must reproduce
KNOWN = {
    "kl --type A6 --x 1234567 --w 6734512 --slow":
        "1 + 6*q + 14*q^2 + 15*q^3 + 7*q^4 + q^5 ; P(1)=44",
    "kl --type A7 --x 25174683 --w 48273561 --slow": "1 + q ; P(1)=2",
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call and what its output must be."""

    args: tuple
    digest: str          # pinned sha256 of the normalized stdout
    known: str = None    # text the stdout must contain

    @property
    def key(self):
        return " ".join(self.args)


def pinned(args):
    key = " ".join(args)
    return Invocation(tuple(args), DIGESTS.get(key), KNOWN.get(key))


def _verify(*args):
    return pinned(("verify",) + args)


def _kl(type_name, x, w):
    return pinned(("kl", "--type", type_name, "--x", x, "--w", w, "--slow"))


def coeff_a4(rng, seed):
    mid = COEFF_SLICES[0] if seed == 0 else rng.choice(COEFF_SLICES[1:])
    return [_verify("coefficientwise", "--type", "A4", "--parabolic", spec)
            for spec in (mid, "full")]


def main_b3(rng, seed):
    return [_verify("main-theorem", "--type", "B3", "--format", "json")]


def p2_a5(rng, seed):
    return [_verify("conjecture-p2", "--type", "A5")]


def kl_deep(rng, seed):
    if seed == 0:
        a6, a7 = KL_A6_PINNED, KL_A7_PINNED
    else:
        a6, a7 = rng.choice(KL_A6_POOL), rng.choice(KL_A7_POOL)
    return [_kl("A6", *a6), _kl("A7", *a7)]


WORKLOADS = {
    "coeff-A4": coeff_a4,
    "main-B3": main_b3,
    "p2-A5": p2_a5,
    "kl-deep": kl_deep,
}


def invocations(workload, seed):
    """The invocation sequence of a workload for one seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), seed)
