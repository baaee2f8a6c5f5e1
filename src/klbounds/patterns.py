"""Classical permutation patterns and avoidance predicates.

Permutations are one-line tuples of 1-based values.  Containment is by
value subsequence: w contains v when some subsequence of w's entries has
the same relative order as v.  This is the position-selection notion; the
value-set flattening used by the pattern map lives in the parabolic module
and the two are related by a duality covered in the tests.
"""


def flatten(seq):
    """The permutation with the same relative order as seq.

    >>> flatten((4, 6, 1, 2))
    (3, 4, 1, 2)
    """
    seq = tuple(seq)
    rank = {v: i + 1 for i, v in enumerate(sorted(seq))}
    return tuple(rank[v] for v in seq)


def _coerce_perm(w):
    if isinstance(w, str):
        w = tuple(int(ch) for ch in w.strip())
    else:
        w = tuple(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{w!r} is not a permutation of 1..{len(w)}")
    return w


def pattern_witness(w, v):
    """Position witness (1-based, increasing) for v inside w, else None.

    Backtracking over positions, keeping a partial selection only while its
    relative order matches the corresponding prefix of v; returns the
    lexicographically first witness.
    """
    w = _coerce_perm(w)
    v = _coerce_perm(v)
    n, k = len(w), len(v)
    if k > n:
        return None
    chosen = []

    def search(start):
        m = len(chosen)
        if m == k:
            return True
        for p in range(start, n - (k - m) + 1):
            chosen.append(p)
            vals = [w[q] for q in chosen]
            # only the new entry needs checking against the prefix
            ok = all((vals[i] < vals[-1]) == (v[i] < v[m])
                     for i in range(m))
            if ok and search(p + 1):
                return True
            chosen.pop()
        return False

    if search(0):
        return tuple(p + 1 for p in chosen)
    return None


def contains_pattern(w, v, return_witness=False):
    """Does w contain the pattern v?

    >>> contains_pattern("4536172", "3412")
    True
    >>> contains_pattern("4536172", "4321")
    False
    """
    wit = pattern_witness(w, v)
    if return_witness:
        return (wit is not None), wit
    return wit is not None


def avoids_patterns(w, patterns):
    """True when w contains none of the given patterns."""
    return all(not contains_pattern(w, v) for v in patterns)


SMOOTHNESS_PATTERNS = ((4, 2, 3, 1), (3, 4, 1, 2))

HEXAGON_PATTERNS = (
    (3, 2, 1),
    (5, 6, 7, 8, 1, 2, 3, 4),
    (4, 6, 7, 8, 1, 2, 3, 5),
    (5, 6, 7, 1, 8, 2, 3, 4),
    (4, 6, 7, 1, 8, 2, 3, 5),
)

P2_PATTERNS = (
    (5, 2, 6, 4, 1, 3),
    (5, 4, 6, 2, 1, 3),
    (4, 6, 3, 1, 5, 2),
    (4, 6, 5, 1, 3, 2),
    (6, 3, 2, 5, 4, 1),
    (6, 5, 3, 4, 2, 1),
)


def is_rationally_smooth_typeA(w):
    """True iff w avoids 4231 and 3412 (equivalent to P_{1,w} = 1)."""
    return avoids_patterns(w, SMOOTHNESS_PATTERNS)


def is_321_hexagon_avoiding(w):
    """True iff w avoids 321 and the four hexagon patterns of length 8."""
    return avoids_patterns(w, HEXAGON_PATTERNS)


def conjecture_p2_patterns(w):
    """True iff w avoids the six patterns required when P_{1,w}(1) = 2."""
    return avoids_patterns(w, P2_PATTERNS)
