"""Finite Weyl groups through their reflection representations.

Roots are integer coordinate vectors in the basis of simple roots.  The
Cartan convention is a[i][j] = 2(alpha_i, alpha_j)/(alpha_j, alpha_j), so a
simple reflection acts on coordinates by

    s_i(v) = v - (sum_j a[j][i] v_j) alpha_i.

A group element stores the images of all simple roots under the element and
under its inverse.  That makes inversion free, left and right descent tests
linear in the rank, and keeps every computation in exact integers.

A product by a generator s_i goes through CoxeterSystem._simple_step: s_i
changes only coordinate i of each image and only the inverse-tuple entries
at the neighbours of node i, read from one table per generator.  Any other
reflection goes through the dense kernel CoxeterSystem._reflect, kept as it
is for the parabolic subgroups' generators and the pattern map (a sparse
form is deferred, ROADMAP item 3).  Inverting an element swaps its two
tuples, so w t = (t w^{-1})^{-1} is either kernel on the swapped tuples of
w, with the result swapped back.

One-line notation: family A of rank n acts on n+1 letters and w = w_1...w_n+1
maps i to w_i.  Families B, C, D act on signed coordinate vectors and use
signed windows with entries separated by commas ("-4,2,1,-3"); the entry t_i
names the signed slot that position i draws from, so t_i = -j means the
element carries e_j to -e_i (the window of w lists the values of w^{-1}).
Family D requires an even number of negative entries.  Exceptional families
have no one-line notation and use reduced words such as "s1 s3 s2" (dots
also accepted as separators).

Products compose left to right on points: (u v)(i) = u(v(i)), so in family A
left multiplication by a transposition swaps values in one-line notation.
In the signed families the source-window convention means the flattening of
a window by integer rank agrees with the pattern map onto the subgroup of
unsigned permutations, matching the classical combinatorics.

Every classical system keeps one realization table, ``_emat_cols``: the
simple roots in e-coordinates (alpha_i = e_i - e_(i+1) in family A, the
branch node at e_1 in B/C/D).  ``to_evec`` and its inverse ``from_evec``
(prefix sums in family A, the table of 2 e_i in B/C/D) are the only
conversions between root and e-coordinates: parsing windows, the family-A
window, classical_root and the root descriptors of subgroup specs all go
through them.  The one exception is the B/C/D loop of to_oneline, which
formats every record of a signed-family sweep; it forms the e-coordinates
of w^{-1}(e_i) entry by entry and stops at the first nonzero one, which
saves building the whole vector.
"""

from functools import lru_cache
from itertools import accumulate
from operator import itemgetter, mul

from .cartan import (CartanDatum, parse_type_name, positive_root_count,
                     type_name)
from .errors import EnumerationCapError, InvalidCartanError, ParseError
from .exactlin import invert_matrix

DEFAULT_ENUM_CAP = 1_000_000


def _dot(a, b):
    return sum(map(mul, a, b))


def _combine(cols, vec):
    """Sum of vec[k] * cols[k]: the vector vec under the matrix whose
    columns are cols (an element's images or inv_images)."""
    total = None
    for c, col in zip(vec, cols):
        if not c:
            continue
        if total is None:
            if c == 1:
                total = list(col)
            else:
                total = [c * x for x in col]
        elif c == 1:
            for t, x in enumerate(col):
                total[t] += x
        else:
            for t, x in enumerate(col):
                total[t] += c * x
    if total is None:
        return (0,) * len(vec)
    return tuple(total)


def _cached_on(ctx, attr, build):
    """ctx.attr, set to build() on first use; lives as long as ctx."""
    value = getattr(ctx, attr, None)
    if value is None:
        value = build()
        setattr(ctx, attr, value)
    return value


def _vec_is_negative(vec):
    """True when the first nonzero coordinate is negative.

    Roots never mix signs, so this decides negativity for any root vector.
    """
    for c in vec:
        if c:
            return c < 0
    return False


class GroupElement:
    """A Weyl group element; construct through a CoxeterSystem.

    ``images[j]`` is the coordinate vector of w(alpha_j) and ``inv_images[j]``
    that of w^{-1}(alpha_j).  Elements are interned per system, and equality
    and hashing look only at ``images``.
    """

    __slots__ = ("images", "inv_images", "_hash")

    def __init__(self, images, inv_images):
        self.images = images
        self.inv_images = inv_images
        self._hash = hash(images)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, GroupElement):
            return self.images == other.images
        return NotImplemented

    def __repr__(self):
        return f"GroupElement(images={self.images!r})"


class ReflectionData:
    """Precomputed data for fast multiplication by one reflection."""

    __slots__ = ("index", "coords", "gvec", "norm", "coefs", "element")

    def __init__(self, index, coords, gvec, norm, coefs):
        self.index = index
        self.coords = coords
        self.gvec = gvec    # 2 * (scaled Gram) @ coords
        self.norm = norm    # coords^T (scaled Gram) coords
        self.coefs = coefs  # coefs[j]: s(alpha_j) = alpha_j - coefs[j] * coords
        self.element = None

    def apply(self, vec):
        c = _dot(self.gvec, vec)
        if not c:
            return vec
        c //= self.norm
        return tuple([x - c * y for x, y in zip(vec, self.coords)])


class CoxeterContext:
    """Shared behavior for a Coxeter system and its parabolic subgroups.

    Subclasses provide ``system``, ``identity``, ``simple_root_vecs``,
    ``positive_root_vecs``, ``num_simples``, ``enum_cap`` and
    ``_simple_rdata``, the reflection data of the simple generators;
    everything here (generator products, length, descents, Bruhat order,
    enumeration, canonical words) is derived from those.  Intervals are not
    searched for: each [e, w] is lifted from the interval [e, s w] that the
    KL engine already holds.  ``CoxeterSystem.left_mul`` keeps a lazily
    filled product table per generator, so the lifting, the Bruhat descent
    recursion and canonical words look up s_i w instead of recomputing it
    from root images.  The Bruhat order is that descent recursion in every
    family; family A has no order of its own on one-line windows.
    """

    def _init_context(self):
        self._length = {}
        self._ldesc = {}
        self._bruhat = {}
        self._words = {}
        self._all_elements = None

    # -- generator multiplications, as products by simple reflections

    def left_mul(self, i, w):
        return self.system.reflect_mul_left(self._simple_rdata[i], w)

    def right_mul(self, w, i):
        return self.system.reflect_mul_right(w, self._simple_rdata[i])

    # -- length and descents (generic; CoxeterSystem overrides the hot ones)

    def length(self, w):
        l = self._length.get(w)
        if l is None:
            act = self.system.act
            l = sum(1 for g in self.positive_root_vecs
                    if _vec_is_negative(act(w, g)))
            self._length[w] = l
        return l

    def left_descent(self, w, i):
        """True when l(s_i w) < l(w) for the i-th context generator."""
        return _vec_is_negative(
            self.system.act_inv(w, self.simple_root_vecs[i]))

    def left_descents(self, w):
        ds = self._ldesc.get(w)
        if ds is None:
            ds = tuple(i for i in range(self.num_simples)
                       if self.left_descent(w, i))
            self._ldesc[w] = ds
        return ds

    def first_left_descent(self, w):
        ds = self.left_descents(w)
        return ds[0] if ds else None

    # -- Bruhat order

    def bruhat_leq(self, x, w):
        """x <= w in the Bruhat order of this context.

        Memoized descent recursion: with s the lowest-index left descent of
        w, x <= w iff (sx < x and sx <= sw) or (sx > x and x <= sw).
        """
        if x is w or x == w:
            return True
        lw = self.length(w)
        lx = self.length(x)
        if lx >= lw:
            return False
        if lx == 0:
            return True
        memo = self._bruhat
        key = (x, w)
        hit = memo.get(key)
        if hit is not None:
            return hit
        i = self.first_left_descent(w)
        sw = self.left_mul(i, w)
        if self.left_descent(x, i):
            res = self.bruhat_leq(self.left_mul(i, x), sw)
        else:
            res = self.bruhat_leq(x, sw)
        memo[key] = res
        return res

    def lower_interval(self, i, below):
        """[e, s_i v] from below = [e, v], longest first; needs s_i v > v.

        Lifting property (Bjorner-Brenti, GTM 231, Prop. 2.2.7):
        [e, s v] = [e, v] union s[e, v].  When s z < z, s z already lies in
        [e, v], so only the ascents z of below add members.  Each member x
        comes as (l(x), x, s_i x, s_i x < x), read from one group call of
        each kind per z in below; members run below first, then the added
        ones in the order of below, stably sorted by decreasing length.
        """
        members, added = [], []
        for z in below:
            lz, sz, down = (self.length(z), self.left_mul(i, z),
                            self.left_descent(z, i))
            members.append((lz, z, sz, down))
            if not down and sz not in below:
                added.append((lz + 1, sz, z, True))
        members += added
        cap = self.enum_cap
        if len(members) > cap:
            raise EnumerationCapError(
                f"interval of {len(members)} elements exceeds cap {cap}", cap)
        members.sort(key=itemgetter(0), reverse=True)
        return members

    def elements(self):
        """Every element of the context group, sorted by sort_key."""
        if self._all_elements is None:
            cap = self.enum_cap
            identity = self.identity
            self._length.setdefault(identity, 0)
            seen = {identity}
            frontier = [identity]
            depth = 0
            while frontier:
                depth += 1
                nxt = []
                for x in frontier:
                    for i in range(self.num_simples):
                        y = self.right_mul(x, i)
                        if y not in seen:
                            seen.add(y)
                            self._length.setdefault(y, depth)
                            nxt.append(y)
                            if len(seen) > cap:
                                raise EnumerationCapError(
                                    f"group order exceeds cap {cap}", cap)
                frontier = nxt
            self._all_elements = tuple(sorted(seen, key=self.sort_key))
        return self._all_elements

    def order(self):
        return len(self.elements())

    def canonical_word(self, w):
        """Lexicographically smallest reduced word (lowest descent walk)."""
        word = self._words.get(w)
        if word is None:
            parts = []
            x = w
            while True:
                i = self.first_left_descent(x)
                if i is None:
                    break
                parts.append(i)
                x = self.left_mul(i, x)
            word = tuple(parts)
            self._words[w] = word
        return word

    def sort_key(self, w):
        return (self.length(w), self.canonical_word(w))


class CoxeterSystem(CoxeterContext):
    """A finite Weyl group with a fixed Cartan datum."""

    def __init__(self, datum, enum_cap=DEFAULT_ENUM_CAP):
        if not isinstance(datum, CartanDatum):
            raise InvalidCartanError("build_system expects a CartanDatum")
        self.datum = datum
        self.rank = datum.rank
        self.num_simples = datum.rank
        self.enum_cap = enum_cap
        self.system = self
        self._init_context()

        n = self.rank
        A = datum.matrix
        L = datum.length_squares
        # gram[i][j] = a[i][j] * L[j] = 2 (alpha_i, alpha_j); must be symmetric
        self.gram = tuple(tuple(A[i][j] * L[j] for j in range(n))
                          for i in range(n))
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise InvalidCartanError(
                        "length table inconsistent with Cartan matrix")

        units = tuple(tuple(1 if t == i else 0 for t in range(n))
                      for i in range(n))
        self.simple_root_vecs = units
        # _nbrs[i]: (j, a[j][i]) for each alpha_j that s_i moves, that is
        # alpha_i and its neighbours in the Dynkin diagram
        self._nbrs = tuple(tuple((j, A[j][i]) for j in range(n) if A[j][i])
                           for i in range(n))
        self._intern = {}
        self._lmul = tuple({} for _ in range(n))
        self._oneline_memo = {}
        self._window_memo = {}
        self.identity = self._make(units, units)
        self._length[self.identity] = 0

        self._generate_roots()
        self._build_reflections()
        if datum.is_classical:
            self._build_classical_tables()

    # -- elements

    def _make(self, images, inv_images):
        el = self._intern.get(images)
        if el is None:
            el = GroupElement(images, inv_images)
            self._intern[images] = el
        return el

    def act(self, w, vec):
        """Coordinates of w applied to a root-lattice vector."""
        return _combine(w.images, vec)

    def act_inv(self, w, vec):
        return _combine(w.inv_images, vec)

    def multiply(self, u, v):
        images = tuple(_combine(u.images, col) for col in v.images)
        inv_images = tuple(_combine(v.inv_images, col) for col in u.inv_images)
        return self._make(images, inv_images)

    def inverse(self, w):
        el = self._make(w.inv_images, w.images)
        lw = self._length.get(w)
        if lw is not None:
            self._length.setdefault(el, lw)
        return el

    def left_descent(self, w, i):
        return _vec_is_negative(w.inv_images[i])

    def oneline_cached(self, w):
        vals = self._oneline_memo.get(w)
        if vals is None:
            vals = self.to_oneline(w)
            self._oneline_memo[w] = vals
        return vals

    def parse_oneline_cached(self, values):
        """parse_oneline for a tuple of values, memoized per system."""
        el = self._window_memo.get(values)
        if el is None:
            el = self._window_memo[values] = self.parse_oneline(values)
        return el

    def left_mul(self, i, w):
        """s_i w, tabulated lazily with one table per generator.

        The first call for (i, w) computes s_i w by _simple_step, not by
        the general kernel _reflect that other reflections take,
        propagates the length when known, and stores both w -> s_i w and
        s_i w -> w (s_i is an involution), so every later call for either
        element is one dict lookup.
        """
        table = self._lmul[i]
        el = table.get(w)
        if el is None:
            el = self._make(*self._simple_step(i, w.images, w.inv_images))
            self._step_length(w, el, w.inv_images[i])
            table[w] = el
            table[el] = w
        return el

    def right_mul(self, w, i):
        """w s_i, with the new length propagated when known."""
        new_inv, new_images = self._simple_step(i, w.inv_images, w.images)
        el = self._make(new_images, new_inv)
        self._step_length(w, el, w.images[i])
        return el

    def _step_length(self, w, el, root):
        # el is w times s_i on one side; it is shorter exactly when root,
        # w^{-1}(alpha_i) for s_i w or w(alpha_i) for w s_i, is negative
        lw = self._length.get(w)
        if lw is not None:
            self._length.setdefault(
                el, lw - 1 if _vec_is_negative(root) else lw + 1)

    def _simple_step(self, i, images, inv_images):
        """Image tuples (of s_i w, of (s_i w)^{-1}) for w given by its tuples.

        s_i v = v - (sum_j a[j][i] v_j) alpha_i changes coordinate i only,
        and w^{-1} s_i (alpha_j) = w^{-1}(alpha_j) - a[j][i] w^{-1}(alpha_i)
        changes only the neighbours j of i, with gamma = w^{-1}(alpha_i)
        read off the tuple.
        """
        nbrs = self._nbrs[i]
        new_images = []
        for col in images:
            c = 0
            for j, a in nbrs:
                c += a * col[j]
            if c:
                col = list(col)
                col[i] -= c
                col = tuple(col)
            new_images.append(col)
        gamma = inv_images[i]
        new_inv = list(inv_images)
        for j, a in nbrs:
            new_inv[j] = tuple([x - a * y for x, y in zip(new_inv[j], gamma)])
        return tuple(new_images), tuple(new_inv)

    @staticmethod
    def _reflect(rdata, images, inv_images):
        """Image tuples (of t w, of (t w)^{-1}) for w given by its tuples."""
        apply = rdata.apply
        new_images = tuple([apply(col) for col in images])
        gamma = _combine(inv_images, rdata.coords)  # w^{-1} of the root
        new_inv = tuple([
            col if not c else tuple([x - c * y for x, y in zip(col, gamma)])
            for col, c in zip(inv_images, rdata.coefs)])
        return new_images, new_inv

    def reflect_mul_left(self, rdata, w):
        """t w for the reflection t described by rdata."""
        return self._make(*self._reflect(rdata, w.images, w.inv_images))

    def reflect_mul_right(self, w, rdata):
        """w t = (t w^{-1})^{-1} for the reflection t described by rdata."""
        new_inv, new_images = self._reflect(rdata, w.inv_images, w.images)
        return self._make(new_images, new_inv)

    # -- roots and reflections

    def _generate_roots(self):
        current = set(self.simple_root_vecs)
        frontier = list(current)
        while frontier:
            nxt = []
            for v in frontier:
                for i, nbrs in enumerate(self._nbrs):
                    c = sum(a * v[j] for j, a in nbrs)
                    if not c:
                        continue
                    u = list(v)
                    u[i] -= c
                    u = tuple(u)
                    if u not in current:
                        current.add(u)
                        nxt.append(u)
            frontier = nxt
        pos = sorted((v for v in current if not _vec_is_negative(v)),
                     key=lambda v: (sum(v), v))
        want = positive_root_count(self.datum.family, self.rank)
        if len(pos) != want or 2 * len(pos) != len(current):
            raise InvalidCartanError(
                f"root generation produced {len(pos)} positive roots, "
                f"expected {want}")
        self.positive_root_vecs = tuple(pos)
        self._pos_index = {v: k for k, v in enumerate(pos)}

    def _build_reflections(self):
        n = self.rank
        gram = self.gram
        data = []
        elements = []
        for idx, gamma in enumerate(self.positive_root_vecs):
            gv = tuple(2 * _dot(gram[j], gamma) for j in range(n))
            norm = _dot(gv, gamma) // 2
            coefs = []
            for j in range(n):
                num = gv[j]
                if num % norm:
                    raise InvalidCartanError("non-crystallographic datum")
                coefs.append(num // norm)
            rd = ReflectionData(idx, gamma, gv, norm, tuple(coefs))
            images = tuple(rd.apply(u) for u in self.simple_root_vecs)
            el = self._make(images, images)
            rd.element = el
            data.append(rd)
            elements.append(el)
        self._refl_data = tuple(data)
        self.reflections = tuple(elements)
        self.reflection_root_index = {}
        for k, el in enumerate(elements):
            self.reflection_root_index.setdefault(el, k)
        self._simple_rdata = tuple(
            self._refl_data[self._pos_index[u]] for u in self.simple_root_vecs)
        self.simple_reflections = tuple(
            rd.element for rd in self._simple_rdata)

    def reflection_data_for(self, coords):
        """ReflectionData for the root with the given coordinates."""
        key = coords if not _vec_is_negative(coords) else \
            tuple(-c for c in coords)
        idx = self._pos_index.get(key)
        if idx is None:
            raise ParseError(f"{coords!r} is not a root of "
                             f"{self.datum.type_name()}")
        return self._refl_data[idx]

    def reflection_for_root(self, coords):
        return self.reflection_data_for(coords).element

    # -- classical coordinate tables and one-line notation

    def _build_classical_tables(self):
        fam = self.datum.family
        n = self.rank
        pts = n + 1 if fam == "A" else n
        self._points = pts
        # simple roots in e-coordinates.  Family A: alpha_i = e_i - e_(i+1).
        # B/C/D put the branch node at e_1: the chain runs down
        # alpha_i = e_(n+1-i) - e_(n-i), and the last root is e_1 (B),
        # 2 e_1 (C) or e_1 + e_2 (D); diffs e_b - e_a with a < b are then
        # positive, which lines the Bruhat combinatorics up with integer
        # order on window entries
        cols = []
        for i in range(n):
            ev = [0] * pts
            if fam == "A":
                ev[i], ev[i + 1] = 1, -1
            elif i < n - 1:
                ev[n - 1 - i], ev[n - 2 - i] = 1, -1
            elif fam == "D":
                ev[0] = ev[1] = 1
            else:
                ev[0] = 2 if fam == "C" else 1
            cols.append(tuple(ev))
        self._emat_cols = tuple(cols)
        if fam == "A":
            return  # from_evec takes prefix sums
        two_e = []
        for col in zip(*invert_matrix(cols)):
            twice = [2 * val for val in col]
            if any(val.denominator != 1 for val in twice):
                raise InvalidCartanError("coordinate table not integral")
            two_e.append(tuple(map(int, twice)))
        self._two_e_coords = tuple(two_e)  # coords of 2 e_i

    def classical_points(self):
        """Number of one-line entries (n+1 for A, n for B/C/D)."""
        if not self.datum.is_classical:
            raise ParseError(f"{self.datum.type_name()} has no one-line form")
        return self._points

    def to_evec(self, coords):
        """e-coordinates of a vector given in simple-root coordinates."""
        ev = [0] * self._points
        for c, col in zip(coords, self._emat_cols):
            if c:
                for t, x in enumerate(col):
                    ev[t] += c * x
        return tuple(ev)

    def from_evec(self, ev):
        """Simple-root coordinates of the vector with e-coordinates ev."""
        if self.datum.family == "A":
            # alpha_i = e_i - e_(i+1): coordinate i is ev_1 + ... + ev_i
            if sum(ev):
                raise ParseError("vector is outside the root lattice")
            return tuple(accumulate(ev[:-1]))
        twice = _combine(self._two_e_coords, ev)
        if any(x % 2 for x in twice):
            raise ParseError("vector is outside the root lattice")
        return tuple(x // 2 for x in twice)

    def _images_of(self, perm):
        """Simple-root images under e_j -> sign(perm_j) e_|perm_j|."""
        images = []
        for col in self._emat_cols:
            ev = [0] * self._points
            for c, v in zip(col, perm):
                if c:
                    ev[abs(v) - 1] += c if v > 0 else -c
            images.append(self.from_evec(ev))
        return tuple(images)

    def parse_oneline(self, values):
        """Element from one-line values (signed for B/C/D)."""
        fam = self.datum.family
        if not self.datum.is_classical:
            raise ParseError(f"{self.datum.type_name()} has no one-line form")
        values = tuple(values)
        pts = self._points
        if len(values) != pts:
            raise ParseError(f"expected {pts} one-line entries, "
                             f"got {len(values)}")
        if fam == "A" and sorted(values) != list(range(1, pts + 1)):
            raise ParseError(
                f"{values!r} is not a permutation of 1..{pts} "
                "(family A takes no signs)")
        if sorted(abs(v) for v in values) != list(range(1, pts + 1)):
            raise ParseError(f"{values!r} entry magnitudes must be a "
                             f"permutation of 1..{pts}")
        if fam == "D" and sum(1 for v in values if v < 0) % 2:
            raise ParseError("family D needs an even number of signs")
        inverse = [0] * pts
        for i, v in enumerate(values, 1):
            inverse[abs(v) - 1] = i if v > 0 else -i
        if fam != "A":
            # the signed window lists the source slot of each position, so
            # it is the value list of the inverse
            values, inverse = inverse, values
        el = self._make(self._images_of(values), self._images_of(inverse))
        if fam == "A":
            self._length.setdefault(el, sum(
                1 for i in range(pts) for j in range(i + 1, pts)
                if values[i] > values[j]))
        return el

    def to_oneline(self, w):
        """One-line values of a classical element (signed for B/C/D)."""
        fam = self.datum.family
        if not self.datum.is_classical:
            raise ParseError(f"{self.datum.type_name()} has no one-line form")
        n = self.rank
        if fam == "A":
            # w(alpha_j) = e_w(j) - e_w(j+1)
            evs = [self.to_evec(img) for img in w.images]
            values = [ev.index(1) + 1 for ev in evs]
            values.append(evs[-1].index(-1) + 1)
            return tuple(values)
        values = []
        for i in range(n):
            # window entry i is the signed slot feeding position i, which
            # is where the inverse sends e_i
            img = self.act_inv(w, self._two_e_coords[i])
            # back to e-coordinates: ev = E @ img
            pos = sign = None
            for t in range(n):
                acc = 0
                for j in range(n):
                    cj = self._emat_cols[j][t]
                    if cj:
                        acc += cj * img[j]
                if acc:
                    pos, sign = t + 1, (1 if acc > 0 else -1)
                    break
            values.append(sign * pos)
        return tuple(values)

    # -- text parsing and formatting

    def parse_element(self, text):
        """Element from one-line text, a reduced word, or 'e'."""
        t = text.strip()
        if not t:
            raise ParseError("empty element text")
        if t in ("e", "id", "identity"):
            return self.identity
        low = t.lower()
        if "s" in low:
            return self._parse_word(low)
        if "," in t:
            try:
                values = tuple(int(p) for p in t.split(","))
            except ValueError:
                raise ParseError(f"bad one-line text {t!r}") from None
            return self.parse_oneline(values)
        if any(ch in t for ch in " ."):
            return self._parse_word(low)
        if t.lstrip("-").isdigit():
            if t.startswith("-"):
                raise ParseError(
                    "signed one-line entries need commas, like -2,1,-3")
            if not self.datum.is_classical:
                raise ParseError(
                    f"{self.datum.type_name()} takes reduced words "
                    "like 's1 s2', not one-line text")
            values = tuple(int(ch) for ch in t)
            return self.parse_oneline(values)
        raise ParseError(f"cannot parse element text {t!r}")

    def _parse_word(self, text):
        tokens = text.replace(".", " ").split()
        w = self.identity
        for tok in tokens:
            body = tok[1:] if tok.startswith("s") else tok
            try:
                k = int(body)
            except ValueError:
                raise ParseError(f"bad word token {tok!r}") from None
            if not 1 <= k <= self.rank:
                raise ParseError(f"generator index {k} outside 1..{self.rank}")
            w = self.right_mul(w, k - 1)
        return w

    def format_word(self, w, sep=" "):
        word = self.canonical_word(w)
        if not word:
            return "e"
        return sep.join(f"s{i + 1}" for i in word)

    def format_element(self, w, style="auto"):
        """Render an element.

        style 'auto': one-line for classical families (compact digits when
        unsigned and at most 9 letters), reduced word otherwise.
        style 'oneline', 'word', 'token' force a specific form; 'token' is
        whitespace-free and round-trips through parse_element.
        """
        if style == "word":
            return self.format_word(w)
        if style == "token":
            if self.datum.is_classical:
                return ",".join(str(v) for v in self.to_oneline(w))
            return self.format_word(w, sep=".")
        if not self.datum.is_classical:
            if style == "oneline":
                raise ParseError(
                    f"{self.datum.type_name()} has no one-line form")
            return self.format_word(w)
        return self.format_window(self.to_oneline(w))

    def format_window(self, values):
        """The 'auto' rendering of a classical one-line window."""
        sep = "" if self.datum.family == "A" and self._points <= 9 else ","
        return sep.join(str(v) for v in values)

    # -- classical root builders (for subgroup specs)

    def classical_root(self, a, b=None, kind="diff"):
        """Root coordinates for e_a - e_b ('diff'), e_a + e_b ('sum'), or
        the sign-change root at position a ('sign': e_a in family B, 2 e_a
        in family C)."""
        fam = self.datum.family
        if not self.datum.is_classical:
            raise ParseError("classical roots need a classical family")
        pts = self._points
        if not 1 <= a <= pts or (b is not None and not 1 <= b <= pts):
            raise ParseError(f"positions must lie in 1..{pts}")
        if fam == "A" and (kind != "diff" or b is None or a == b):
            raise ParseError("family A has only e_a - e_b roots")
        ev = [0] * pts
        if kind in ("diff", "sum"):
            if b is None or a == b:
                raise ParseError("need two distinct positions")
            ev[b - 1] = -1 if kind == "diff" else 1
        elif kind == "sign":
            if fam == "D":
                raise ParseError("family D has no sign-change roots")
        else:
            raise ParseError(f"unknown root kind {kind!r}")
        ev[a - 1] = 2 if kind == "sign" and fam == "C" else 1
        return self.from_evec(ev)


def build_system(datum, enum_cap=DEFAULT_ENUM_CAP):
    """CoxeterSystem from a validated CartanDatum."""
    return CoxeterSystem(datum, enum_cap)


@lru_cache(maxsize=None)
def _cached_system(family, rank):
    return CoxeterSystem(CartanDatum.standard(family, rank))


def system_type(type_text, rank=None):
    """(family, rank) of a type string, refusing types too big to build.

    A system holds every positive root as a vector of rank coordinates,
    so a type whose positive roots times rank exceed the shared
    enumeration cap is refused here, in closed form, before its Cartan
    matrix or any root is built.
    """
    family, rank = parse_type_name(type_text, rank)
    roots = positive_root_count(family, rank)
    if roots * rank > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(
            f"{type_name(family, rank)} has {roots} positive roots of "
            f"{rank} coordinates each, more than the shared enumeration "
            f"cap {DEFAULT_ENUM_CAP}", DEFAULT_ENUM_CAP)
    return family, rank


def get_system(type_text, rank=None):
    """Shared, cached system for a type string like 'A3' or ('B', 3)."""
    return _cached_system(*system_type(type_text, rank))


def parse_element(system, text):
    return system.parse_element(text)


def format_element(system, w, style="auto"):
    return system.format_element(w, style)
