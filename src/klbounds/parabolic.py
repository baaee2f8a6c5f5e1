"""Parabolic subgroups and the pattern map into them.

A reflection subgroup W' of a finite Weyl group W is parabolic exactly when
it is generated by all reflections whose roots lie in the subspace V'
spanned by its generators' roots.  The roots Phi' = Phi intersect V' then
form a root system with positive system Pi' = Pi intersect V' and a
canonical simple system S' (the indecomposable positives), making (W', S')
a Coxeter system in its own right.  ParabolicSubgroup implements the same
context protocol as CoxeterSystem, so lengths, descents, Bruhat order and
Kazhdan-Lusztig polynomials inside W' all come from the shared machinery,
with l' and <=' computed from Pi' rather than Pi.

The pattern map phi: W -> W' is computed two ways and cross-checked:

  phi_root:  the unique u in W' with u Pi' = w Pi intersect V', found by a
             greedy walk on the positive system;
  phi_coset: w x0^{-1} where x0 is the unique minimal element of the coset
             W'w, found by length-decreasing left multiplications from R'.

For type A position subgroups (and signed variants in B/C/D) the map
agrees with classical flattening of one-line notation, which is exposed
through position_subgroup, flatten_element and flatten_matches_phi.
"""

from .coxeter import CoxeterContext, get_system, _vec_is_negative
from .errors import NonParabolicError, ParseError
from .exactlin import RowSpace
from .patterns import flatten


def _negate(vec):
    return tuple(-c for c in vec)


def _normalize_positive(vec):
    return _negate(vec) if _vec_is_negative(vec) else vec


def simple_roots(positives):
    """The roots of a positive system that are not a difference of two
    of its roots, in the given order: its simple roots."""
    pos = set(positives)
    return tuple(v for v in positives
                 if not any(tuple(a - b for a, b in zip(v, u)) in pos
                            for u in pos))


class ParabolicSubgroup(CoxeterContext):
    """A parabolic reflection subgroup, usable as a Coxeter context.

    Elements of the subgroup are plain ambient elements; only the length
    function, descents and Bruhat order are the subgroup's own.
    """

    def __init__(self, ambient, root_indices):
        self.ambient = ambient
        self.system = ambient
        self.enum_cap = ambient.enum_cap
        self.identity = ambient.identity
        self._init_context()

        # Pi' as ambient positive-root indices, ascending
        self.root_indices = tuple(sorted(root_indices))
        self.positives_prime = tuple(
            ambient.positive_root_vecs[i] for i in self.root_indices)
        self.positive_root_vecs = self.positives_prime
        self.reflections = tuple(
            ambient.reflections[i] for i in self.root_indices)
        self._refl_data = tuple(
            ambient._refl_data[i] for i in self.root_indices)

        simples = simple_roots(self.positives_prime)  # ambient index order
        self.simples_prime = self.simple_root_vecs = simples
        self.num_simples = len(simples)
        self._simple_rdata = tuple(
            ambient.reflection_data_for(v) for v in simples)
        self.simple_reflections = tuple(
            rd.element for rd in self._simple_rdata)

        ambient_simples = set(ambient.simple_root_vecs)
        self.is_standard = all(v in ambient_simples for v in simples)
        self.fingerprint = frozenset(self.root_indices)
        self._blocks = None
        self._signed_blocks = None

    def __eq__(self, other):
        if isinstance(other, ParabolicSubgroup):
            return (self.ambient is other.ambient
                    and self.fingerprint == other.fingerprint)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ambient), self.fingerprint))

    def __repr__(self):
        return (f"ParabolicSubgroup({self.ambient.datum.type_name()}, "
                f"{describe_subgroup(self)!r})")

    def contains(self, w):
        """Membership in W', via the minimal element of the coset W'w."""
        return coset_minimum(self, w) == self.identity


def _reflection_closure(system, gen_coords):
    """Close a set of positive roots under each other's reflections.

    The result is the full root set (positive representatives) of the
    reflection subgroup generated by the inputs.
    """
    roots = set()
    work = []
    for g in gen_coords:
        g = _normalize_positive(g)
        if g not in roots:
            roots.add(g)
            work.append(g)
    while work:
        g = work.pop()
        rd_g = system.reflection_data_for(g)
        for d in list(roots):
            for nd in (rd_g.apply(d), system.reflection_data_for(d).apply(g)):
                nd = _normalize_positive(nd)
                if nd not in roots:
                    roots.add(nd)
                    work.append(nd)
    return roots


def parabolic_from_reflections(system, refl_set):
    """Build the parabolic subgroup generated by a set of reflections.

    Rejects non-parabolic reflection sets: the generated subgroup must
    contain every reflection whose root lies in the span V' of the
    generators' roots.  The witness on rejection is one missing reflection.
    """
    gen_coords = []
    for r in refl_set:
        if isinstance(r, tuple):
            gen_coords.append(system.reflection_data_for(r).coords)
        else:
            idx = system.reflection_root_index.get(r)
            if idx is None:
                raise ParseError("generator is not a reflection")
            gen_coords.append(system.positive_root_vecs[idx])

    basis_space = RowSpace(system.rank)
    for v in gen_coords:
        basis_space.add(v)

    prime_indices = [i for i, v in enumerate(system.positive_root_vecs)
                     if basis_space.contains(v)]
    closure = _reflection_closure(system, gen_coords) if gen_coords else set()
    for i in prime_indices:
        v = system.positive_root_vecs[i]
        if v not in closure:
            raise NonParabolicError(
                "reflection set is not parabolic: the reflection with root "
                f"{v} lies in the span but not in the generated subgroup",
                witness=system.reflections[i])
    return ParabolicSubgroup(system, prime_indices)


def parabolic_conjugate(system, x, gen_indices):
    """The parabolic x W_I x^{-1} for I a set of 0-based generator indices."""
    xinv = system.inverse(x)
    gens = [system.multiply(system.multiply(x, system.simple_reflections[i]),
                            xinv)
            for i in sorted(set(gen_indices))]
    return parabolic_from_reflections(system, gens)


def standard_parabolic(system, gen_indices):
    """The standard parabolic generated by the listed simple reflections."""
    gens = [system.simple_reflections[i] for i in sorted(set(gen_indices))]
    return parabolic_from_reflections(system, gens)


# -- the pattern map


def phi_root(sub, w):
    """The unique u in W' whose positive system is w(Pi) intersect V'."""
    sys = sub.ambient
    target = frozenset(sub.positives_prime)
    current = set()
    for g in sub.positives_prime:
        # g belongs to w(Pi) iff w^{-1} g is positive
        if _vec_is_negative(sys.act_inv(w, g)):
            current.add(_negate(g))
        else:
            current.add(g)
    word = []
    simples = sub.simple_root_vecs
    limit = len(sub.positives_prime) + 1
    while current != target:
        for i, g in enumerate(simples):
            if _negate(g) in current:
                rd = sub._simple_rdata[i]
                current = {rd.apply(v) for v in current}
                word.append(i)
                break
        else:
            raise AssertionError("positive system walk is stuck")
        if len(word) > limit:
            raise AssertionError("positive system walk did not terminate")
    u = sub.identity
    for i in word:
        u = sub.right_mul(u, i)
    return u


def coset_minimum(sub, w):
    """The unique minimal element of the coset W'w in ambient Bruhat order.

    Repeatedly applies the first available length-decreasing left
    multiplication by a reflection of W': r x < x exactly when x^{-1}(root)
    is a negative root.
    """
    sys = sub.ambient
    x = w
    moved = True
    while moved:
        moved = False
        for rd in sub._refl_data:
            if _vec_is_negative(sys.act_inv(x, rd.coords)):
                x = sys.reflect_mul_left(rd, x)
                moved = True
                break
    return x


def phi_coset(sub, w):
    """The pattern map via the minimal coset element: w * min(W'w)^{-1}."""
    x0 = coset_minimum(sub, w)
    return sub.ambient.multiply(w, sub.ambient.inverse(x0))


# -- position subgroups and classical flattening


def _check_blocks(points, blocks):
    seen = set()
    out = []
    for block in blocks:
        b = tuple(sorted(set(block)))
        if not b:
            continue
        if b[0] < 1 or b[-1] > points:
            raise ParseError(f"positions must lie in 1..{points}")
        if seen & set(b):
            raise ParseError("position blocks must be disjoint")
        seen |= set(b)
        out.append(b)
    return tuple(out)


def position_subgroup(system, blocks, signed=False):
    """Subgroup permuting the values inside each block of positions.

    For family A the subgroup is generated by the transpositions within
    each block.  For B/C/D, signed=True adds the sign-change structure on
    the block (giving a type B/C/D subsystem), while signed=False keeps
    only unsigned value permutations.
    """
    fam = system.datum.family
    if not system.datum.is_classical:
        raise ParseError("position subgroups need a classical family")
    if fam == "A" and signed:
        raise ParseError("family A has no signed position subgroups")
    points = system.classical_points()
    blocks = _check_blocks(points, blocks)
    gens = []
    for block in blocks:
        for a, b in zip(block, block[1:]):
            gens.append(system.classical_root(a, b, "diff"))
        if signed and len(block) >= 1:
            if fam == "D":
                if len(block) < 2:
                    raise ParseError(
                        "family D signed blocks need at least 2 positions")
                gens.append(system.classical_root(block[-2], block[-1],
                                                  "sum"))
            else:
                gens.append(system.classical_root(block[-1], kind="sign"))
    sub = parabolic_from_reflections(system, gens)
    if signed:
        sub._signed_blocks = blocks
    else:
        sub._blocks = blocks
    return sub


def unsigned_subgroup(system):
    """The unsigned-permutation subgroup of a B/C/D system."""
    if system.datum.family not in ("B", "C", "D"):
        raise ParseError("unsigned subgroup needs family B, C or D")
    points = system.classical_points()
    return position_subgroup(system, [tuple(range(1, points + 1))],
                             signed=False)


def flatten_element(sub, u):
    """Per-block flattened one-line form of an element of a position
    subgroup; a single tuple for one block, a tuple of tuples otherwise."""
    signed = sub._signed_blocks is not None
    blocks = sub._signed_blocks if signed else sub._blocks
    if blocks is None:
        raise ParseError("subgroup was not built from position blocks")
    values = sub.ambient.to_oneline(u)
    out = []
    for block in blocks:
        vals = [values[a - 1] for a in block]
        if signed:
            rank = {a: i + 1 for i, a in enumerate(block)}
            flat = tuple((1 if v > 0 else -1) * rank[abs(v)] for v in vals)
        else:
            flat = flatten(vals)
        out.append(flat)
    return out[0] if len(out) == 1 else tuple(out)


def embed_pattern(sub, flat, block_index=0):
    """Inverse of flatten_element on one block: the element of W' whose
    flattened form on that block is `flat`, fixing everything else."""
    signed = sub._signed_blocks is not None
    blocks = sub._signed_blocks if signed else sub._blocks
    if blocks is None:
        raise ParseError("subgroup was not built from position blocks")
    if not 0 <= block_index < len(blocks):
        raise ParseError(f"no block {block_index}: the subgroup has "
                         f"{len(blocks)} position blocks")
    block = blocks[block_index]
    k = len(block)
    if sorted(abs(v) if signed else v for v in flat) != list(range(1, k + 1)):
        kind = "a signed" if signed else "a"
        raise ParseError(f"pattern {tuple(flat)!r} is not {kind} "
                         f"permutation of 1..{k}")
    points = sub.ambient.classical_points()
    values = list(range(1, points + 1))
    for pos, v in zip(block, flat):
        if signed:
            values[pos - 1] = (1 if v > 0 else -1) * block[abs(v) - 1]
        else:
            values[pos - 1] = block[v - 1]
    return sub.ambient.parse_oneline(tuple(values))


def flatten_classical(n, sigma, w):
    """Value-set flattening fl_sigma of a permutation of size n.

    Keeps the entries of w whose values lie in sigma, in position order,
    and flattens the result to a permutation of size len(sigma).
    """
    w = tuple(w)
    if len(w) != n or sorted(w) != list(range(1, n + 1)):
        raise ParseError(f"w must be a permutation of 1..{n}")
    sig = set(sigma)
    if not sig <= set(range(1, n + 1)):
        raise ParseError(f"sigma must be a subset of 1..{n}")
    return flatten([v for v in w if v in sig])


def flatten_matches_phi(n, sigma, w):
    """Check iota(fl_sigma(w)) == phi_root on the position subgroup.

    iota is the conjugation isomorphism sending the pattern v to the
    element of W' acting on the positions of sigma the way v acts on
    1..k.
    """
    sigma = tuple(sorted(set(sigma)))
    w = tuple(w)
    system = get_system("A", n - 1)
    sub = position_subgroup(system, [sigma])
    wel = system.parse_oneline(w)
    u = phi_root(sub, wel)
    return embed_pattern(sub, flatten_classical(n, sigma, w)) == u


# -- subgroup spec strings (CLI grammar, also used by the suites)


def _root_descriptor(system, coords):
    """Readable descriptor of a classical root: 'a-b', 'a+b' or 'a'."""
    ev = system.to_evec(coords)
    pos = [t + 1 for t, v in enumerate(ev) if v > 0]
    neg = [t + 1 for t, v in enumerate(ev) if v < 0]
    if len(pos) == 1 and len(neg) == 1:
        # a descriptor names a reflection, so the sign of the root does
        # not matter; print the smaller point first
        a, b = sorted((pos[0], neg[0]))
        return f"{a}-{b}"
    if len(pos) == 2:
        return f"{pos[0]}+{pos[1]}"
    if len(pos) == 1:
        return str(pos[0])
    raise ParseError("root has no classical descriptor")


def _spec_int(text, what):
    """int(text) for a subgroup spec, a ParseError when it is not one."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text.strip()!r} in subgroup spec") \
            from None


def _parse_root_descriptor(system, text):
    text = text.strip()
    for sep, kind in (("+", "sum"), ("-", "diff")):
        if sep in text:
            parts = text.split(sep)
            if len(parts) != 2:
                raise ParseError(f"bad root descriptor {text!r}")
            a, b = (_spec_int(p, "position") for p in parts)
            return system.classical_root(a, b, kind)
    return system.classical_root(_spec_int(text, "position"), kind="sign")


def describe_subgroup(sub):
    """Canonical spec string; parse_subgroup_spec inverts it."""
    system = sub.ambient
    if not sub.simples_prime:
        return "trivial"
    if sub.is_standard:
        idx = sorted(system.simple_root_vecs.index(v)
                     for v in sub.simples_prime)
        return "standard:" + ",".join(f"s{i + 1}" for i in idx)
    if system.datum.is_classical:
        try:
            parts = [_root_descriptor(system, v) for v in sub.simples_prime]
            return "refl:" + ",".join(parts)
        except ParseError:
            pass
    idx = sorted(system._pos_index[v] for v in sub.simples_prime)
    return "rootidx:" + ",".join(str(i) for i in idx)


def parse_subgroup_spec(system, spec):
    """Parabolic subgroup from a spec string.

    Grammar:
      refl:1-3,2-4        reflections by classical root descriptors
      standard:s1,s2      standard parabolic (empty list for trivial)
      conj:WORD|s1,s2     conjugate of a standard parabolic by an element
      positions:1,4/2,5   value-permuting blocks (family A; '/' separates)
      signed:1,3          signed position blocks (families B/C/D)
      unsigned            all-position unsigned subgroup (B/C/D)
      rootidx:0,4,7       reflections by positive-root index
      trivial | full      the two extremes
    """
    spec = spec.strip()
    if spec == "trivial":
        return parabolic_from_reflections(system, [])
    if spec == "full":
        return standard_parabolic(system, range(system.rank))
    if spec == "unsigned":
        return unsigned_subgroup(system)
    if ":" not in spec:
        raise ParseError(f"bad subgroup spec {spec!r}")
    head, _, body = spec.partition(":")
    body = body.strip()
    if head == "refl":
        if not body:
            return parabolic_from_reflections(system, [])
        roots = [_parse_root_descriptor(system, tok)
                 for tok in body.split(",")]
        return parabolic_from_reflections(system, roots)
    if head == "rootidx":
        if not body:
            return parabolic_from_reflections(system, [])
        count = len(system.reflections)
        gens = []
        for tok in body.split(","):
            k = _spec_int(tok, "root index")
            if not 0 <= k < count:
                raise ParseError(f"root index {k} outside 0..{count - 1}")
            gens.append(system.reflections[k])
        return parabolic_from_reflections(system, gens)
    if head == "standard":
        return standard_parabolic(system, _parse_gen_list(system, body))
    if head == "conj":
        xtext, _, gtext = body.partition("|")
        x = system.parse_element(xtext.strip())
        return parabolic_conjugate(system, x,
                                   _parse_gen_list(system, gtext))
    if head in ("positions", "signed"):
        blocks = [[_spec_int(p, "position") for p in tok.split(",")
                   if p.strip()] for tok in body.split("/")]
        return position_subgroup(system, blocks, signed=head == "signed")
    raise ParseError(f"unknown subgroup spec kind {head!r}")


def _parse_gen_list(system, body):
    body = body.strip()
    if not body:
        return []
    out = []
    for tok in body.split(","):
        tok = tok.strip().lower()
        if tok.startswith("s"):
            tok = tok[1:]
        k = _spec_int(tok, "generator")
        if not 1 <= k <= system.rank:
            raise ParseError(f"generator s{k} outside 1..{system.rank}")
        if k - 1 in out:
            raise ParseError(f"generator s{k} listed twice in subgroup spec")
        out.append(k - 1)
    return out


# -- enumeration of all parabolic subgroups of a small system


def standard_parabolic_subgroups(system):
    """All 2^rank standard parabolics, by ascending generator subsets."""
    n = system.rank
    subs = []
    for mask in range(1 << n):
        gens = [i for i in range(n) if mask >> i & 1]
        subs.append(standard_parabolic(system, gens))
    subs.sort(key=lambda s: (len(s.root_indices), s.root_indices))
    return subs


def all_parabolic_subgroups(system):
    """Every parabolic subgroup (all conjugates of standard ones).

    Deduplicated by the set of reflections; sorted by (size, root index
    set) so iteration order is reproducible.
    """
    n = system.rank
    seen = set()
    for mask in range(1 << n):
        gens = [i for i in range(n) if mask >> i & 1]
        base = [v for v in system.positive_root_vecs
                if all(c == 0 for i, c in enumerate(v) if i not in gens)]
        for x in system.elements():
            fp = frozenset(
                system._pos_index[_normalize_positive(system.act(x, v))]
                for v in base)
            seen.add(fp)
    out = []
    for fp in sorted(seen, key=lambda f: (len(f), sorted(f))):
        gens = [system.reflections[i] for i in fp]
        out.append(parabolic_from_reflections(system, gens))
    return out
