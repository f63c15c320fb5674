"""Permutation backend.

Permutations on n points are stored as image tuples over 0..n-1 and act
from the left: ``pmul(p, q)`` is the map x -> p(q(x)), so a product
written left to right applies its right factor first.  Cycle notation at
the API boundary is 1-based; ``format_cycles`` can also print 0-based.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
import re
from operator import itemgetter

from .core import CapacityExceeded, Group, PreconditionError, orbit, prime_divisors

# Most orbit maps ``conjugator_search`` places before it gives up.
DEFAULT_CONJUGATOR_CAP = 10**6


def identity_perm(n: int) -> tuple:
    return tuple(range(n))


def pmul(p: tuple, q: tuple) -> tuple:
    """Composition applying q first: (p*q)(x) = p(q(x)).

    ``itemgetter(*q)`` reads p at q's entries in one C call; below degree
    2 it would return a scalar or raise, so those take the list form."""
    if len(q) < 2:
        return tuple([p[i] for i in q])
    return itemgetter(*q)(p)


def pinv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def is_perm(p: tuple, n: int) -> bool:
    return len(p) == n and set(p) == set(range(n))


def cycles_of(p: tuple, include_fixed: bool = False) -> list:
    """Disjoint cycles, each starting at its minimum, sorted by start."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        if len(cyc) > 1 or include_fixed:
            out.append(cyc)
    return out


def _cycle_lengths(p: tuple) -> list:
    """Lengths of the cycles of p with two or more points, in the order
    of ``cycles_of``, with no cycle built."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        seen[i] = True
        j, k = p[i], 1
        while j != i:
            seen[j] = True
            j = p[j]
            k += 1
        if k > 1:
            out.append(k)
    return out


def cycle_type(p: tuple) -> tuple:
    """Sorted tuple of cycle lengths >= 2; identity has type ()."""
    return tuple(sorted(_cycle_lengths(p)))


@functools.lru_cache(maxsize=1024)
def _divisors(m: int) -> tuple:
    """The divisors of an element order m >= 1, by trial division; the
    labels of every power of an element read them."""
    out, q = [1], 2
    while m > 1:
        if q * q > m:
            q = m
        e = 0
        while m % q == 0:
            m //= q
            e += 1
        out = [d * q**i for d in out for i in range(e + 1)]
        q += 1
    return tuple(out)


def _power_types(lengths: list, m: int) -> dict:
    """The lengths >= 2 of the cycles of x^d, sorted, for each divisor d
    of m = ord x, from the cycle lengths of x: an L-cycle splits into
    gcd(L, d) cycles of length L / gcd(L, d)."""
    gcd, out = math.gcd, {}
    for d in _divisors(m):
        parts = []
        for length in lengths:
            g = gcd(length, d)
            if g < length:
                parts += [length // g] * g
        parts.sort()
        out[d] = tuple(parts)
    return out


@functools.cache
def _length_primes(length: int) -> tuple:
    """The primes dividing a cycle length, factored once per length."""
    return tuple(prime_divisors(length))


def _jacobi(k: int, n: int) -> int:
    """The Jacobi symbol (k / n) for odd n > 0 prime to k."""
    k, out = k % n, 1
    while k:
        while k % 2 == 0:
            k //= 2
            if n % 8 in (3, 5):
                out = -out
        k, n = n, k
        if k % 4 == 3 and n % 4 == 3:
            out = -out
        k %= n
    return out


def perm_order(p: tuple) -> int:
    return math.lcm(*_cycle_lengths(p), 1)


def parity(p: tuple) -> int:
    """0 for even, 1 for odd."""
    lengths = _cycle_lengths(p)
    return (sum(lengths) - len(lengths)) % 2


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)?\s*\)")


def parse_cycles(text: str, n: int) -> tuple:
    """Parse "(i,j,k)(l,m)..." into a permutation on n points.

    Cycles may overlap; they compose left-to-right as maps applied from
    the left (the leftmost cycle is applied last).
    """
    stripped = text.strip()
    if not stripped:
        raise PreconditionError("empty permutation literal")
    pos = 0
    cycles = []
    for m in _CYCLE_RE.finditer(stripped):
        if stripped[pos:m.start()].strip():
            raise PreconditionError(f"malformed cycle notation: {text!r}")
        pos = m.end()
        body = m.group(1)
        if body is None:
            continue
        entries = [int(tok) for tok in body.split(",")]
        if any(e < 1 for e in entries):
            raise PreconditionError(f"cycle entry below 1 in {text!r}")
        entries = [e - 1 for e in entries]
        if any(not (0 <= e < n) for e in entries):
            raise PreconditionError(f"cycle entry out of range 1..{n} in {text!r}")
        if len(set(entries)) != len(entries):
            raise PreconditionError(f"repeated point within a cycle in {text!r}")
        cycles.append(entries)
    if pos != len(stripped) and stripped[pos:].strip():
        raise PreconditionError(f"malformed cycle notation: {text!r}")
    out = identity_perm(n)
    for cyc in reversed(cycles):
        out = pmul(cycle_to_perm(cyc, n), out)
    return out


def cycle_to_perm(cycle: list, n: int) -> tuple:
    images = list(range(n))
    for a, b in zip(cycle, cycle[1:]):
        images[a] = b
    if cycle:
        images[cycle[-1]] = cycle[0]
    return tuple(images)


def format_cycles(p: tuple, zero_based: bool = False) -> str:
    shift = 0 if zero_based else 1
    cycles = cycles_of(p)
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(x + shift) for x in c) + ")" for c in cycles)


# -- stabilizer chain (base and strong generating set) -------------------


class _Chain:
    """Stabilizer chain of a group H with grow-only transversals.

    Level i has base point ``base[i]``, the strong generators first
    attached there (``gens[i]``) and a transversal of the orbit of
    ``base[i]`` under the strong generators of levels i and deeper, which
    fix ``base[:i]``.  They all lie in H, so ``size``, the product of the
    orbit sizes, never exceeds |H|; after ``complete()`` it equals |H|.

    A strong generator is tagged with the level whose Schreier generator
    produced it, or -1 if it was inserted.  One tagged t lies in the group
    the other generators of levels t and deeper generate, so levels 0..t
    never use it.
    """

    def __init__(self, n: int):
        self.ident = identity_perm(n)
        self.base: list = []
        self.gens: list = []  # per level: (tag, generator) first attached there
        self.trans: list = []  # per level: orbit point -> u with u(base) = point
        self.trans_inv: list = []
        self.size = 1

    def sift(self, x: tuple, start: int = 0):
        """(level, residue): where x, sifted from level ``start`` down,
        leaves the chain and what is left of it.

        A residue that passes every level is returned at level
        ``len(self.base)``; it is the identity iff x is in the chain.
        """
        for i in range(start, len(self.base)):
            y = x[self.base[i]]
            if y != self.base[i]:
                u_inv = self.trans_inv[i].get(y)
                if u_inv is None:
                    return i, x
                x = pmul(u_inv, x)
        return len(self.base), x

    def insert(self, x: tuple) -> bool:
        """Sift x, an element of H, into the chain; False iff it was in it."""
        level, residue = self.sift(x)
        if residue == self.ident:
            return False
        self.add(level, residue, -1)
        return True

    def add(self, level: int, h: tuple, tag: int):
        if level == len(self.base):
            b = next(i for i, y in enumerate(h) if y != i)
            self.base.append(b)
            self.gens.append([])
            self.trans.append({b: self.ident})
            self.trans_inv.append({b: self.ident})
        self.gens[level].append((tag, h))
        for i in range(tag + 1, level + 1):
            self._extend_orbit(i, h)
        self.size = math.prod(len(t) for t in self.trans)

    def _extend_orbit(self, i: int, h: tuple):
        # Not core.orbit: the search records a transversal, not only points.
        # The orbit is closed under the older generators: images under h
        # come first, then the new points under every generator of the level.
        trans, trans_inv = self.trans[i], self.trans_inv[i]
        level_gens = [g for gens in self.gens[i:] for tag, g in gens if tag < i]
        frontier, gens = list(trans), [h]
        while frontier:
            new = []
            for x in frontier:
                ux = trans[x]
                for g in gens:
                    y = g[x]
                    if y not in trans:
                        u = pmul(g, ux)
                        trans[y] = u
                        trans_inv[y] = pinv(u)
                        new.append(y)
            frontier, gens = new, level_gens

    def complete(self):
        """Make the chain a base and strong generating set (deterministic
        Schreier-Sims; Holt, Eick and O'Brien, Handbook of Computational
        Group Theory, 4.4).

        From the deepest level up, each Schreier generator
        u_{g(x)}^-1 g u_x of a level is sifted from the next level down; a
        nontrivial residue is added where it drops out, and the walk goes
        back to that level.  Transversals and generator lists only grow, so
        ``done`` counts, per level and generator, the orbit points whose
        Schreier generator is already in the chain.
        """
        done: dict = {}
        i = len(self.base) - 1
        while i >= 0:
            i = self._check_level(i, done)

    def _check_level(self, i: int, done: dict) -> int:
        """The next level to check after the Schreier generators of level i."""
        trans, trans_inv = self.trans[i], self.trans_inv[i]
        points = list(trans)
        for j in range(i, len(self.gens)):
            for k, (tag, g) in enumerate(self.gens[j]):
                if tag >= i:
                    continue
                for m in range(done.get((i, j, k), 0), len(points)):
                    x = points[m]
                    level, residue = self.sift(pmul(trans_inv[g[x]], pmul(g, trans[x])), i + 1)
                    if residue != self.ident:
                        done[i, j, k] = m + 1
                        self.add(level, residue, i)
                        return level
                done[i, j, k] = len(points)
        return i - 1


def bsgs_order(gens: list) -> int:
    """Exact order of <gens>: the chain of the sifted inputs, completed."""
    gens = [tuple(g) for g in gens]
    if not gens:
        return 1
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise PreconditionError("generators have mixed degree")
    chain = _Chain(n)
    for g in gens:
        chain.insert(g)
    chain.complete()
    return chain.size


# -- known-order generation certificate: Jordan's theorem -----------------

# Product replacement draws its choices from a fixed seed, once, into
# ``_SCHEDULE``, so every input takes the same steps.  The seed only
# decides how soon a Jordan element is found: no answer rests on it.
_CERT_SEED = 2004
_CERT_SLOTS = 10
_CERT_BURN_IN = 40
# Elements of the walk (the pair, then the stream) searched for a Jordan
# element before the block test, and in all.  An imprimitive group has
# none, so the first limit bounds what such a pair pays before it is
# refuted.
_JORDAN_BEFORE_BLOCKS = 20
_JORDAN_WALK = 200


def _draw_schedule() -> tuple:
    """The (s, t, left) choice of each product-replacement step: slot s
    becomes state[s] * state[t] if left, else state[t] * state[s].  The
    burn-in, then one step per stream element, seeded by ``_CERT_SEED``."""
    rng = random.Random(_CERT_SEED)
    out = []
    for _ in range(_CERT_BURN_IN + _JORDAN_WALK):
        s = rng.randrange(_CERT_SLOTS)
        t = rng.randrange(_CERT_SLOTS - 1)
        t += t >= s
        out.append((s, t, rng.random() < 0.5))
    return tuple(out)


_SCHEDULE = _draw_schedule()


def _product_replacement(gens: list):
    """Stream of ``_JORDAN_WALK`` elements of <gens>: product replacement
    with an accumulator on the steps of ``_SCHEDULE``, after a burn-in.
    The walk reads at most ``_JORDAN_WALK - len(gens)`` of them."""
    state = [gens[i % len(gens)] for i in range(_CERT_SLOTS)]
    acc = identity_perm(len(gens[0]))
    for step, (s, t, left) in enumerate(_SCHEDULE, 1 - _CERT_BURN_IN):
        state[s] = pmul(state[s], state[t]) if left else pmul(state[t], state[s])
        acc = pmul(acc, state[s])
        if step > 0:
            yield acc


@functools.cache
def _jordan_primes(n: int) -> frozenset:
    """The primes p <= n - 3, the cycle lengths Jordan's theorem accepts
    on n points."""
    return frozenset(p for p in range(2, n - 2) if all(p % d for d in range(2, math.isqrt(p) + 1)))


def _jordan_element(x: tuple, least: int) -> bool:
    """Whether x has a cycle of prime length p, least <= p <= n - 3, that
    is the only cycle of x whose length p divides.

    The power of x by the lcm of its other cycle lengths is then a
    p-cycle.  For p > n/2 no second cycle can have a length p divides.
    """
    lengths = _cycle_lengths(x)
    primes = _jordan_primes(len(x))
    return any(least <= p and p in primes and sum(k % p == 0 for k in lengths) == 1
               for p in set(lengths))


def _imprimitive(gens: list) -> bool:
    """Whether the transitive group <gens> has a block of imprimitivity
    with more than one point and fewer than all.

    For each x != 0 in turn, the least block holding 0 and x (Atkinson
    1975; Holt, Eick and O'Brien, 4.1): union-find joins 0 and x, and
    each join of two classes (u, v) joins the classes of g(u) and g(v)
    for every generator g.  The classes of a transitive group have one
    size, so that block is everything iff the joins number n - 1.  A
    primitive answer tries every x; ``generates_known_order`` asks only
    after the first ``_JORDAN_BEFORE_BLOCKS`` elements of its walk.
    """
    n = len(gens[0])
    for x in range(1, n):
        root = list(range(n))
        root[x] = 0
        joins = [(0, x)]
        for y, z in joins:
            for g in gens:
                u, v = g[y], g[z]
                while root[u] != u:
                    root[u] = u = root[root[u]]
                while root[v] != v:
                    root[v] = v = root[root[v]]
                if u != v:
                    root[max(u, v)] = min(u, v)
                    joins.append((u, v))
        if len(joins) < n - 1:
            return True
    return False


def generates_known_order(gens: list, order: int) -> bool:
    """True iff |<gens>| = ``order``, where ``gens`` lie in a primitive
    group of that order on their points (S_n and A_n).

    Each answer is exact.  A primitive group that holds a cycle of prime
    length p <= n - 3 contains A_n (Jordan 1873; Wielandt, Finite
    Permutation Groups, Thm 13.9), and a transitive group that holds one
    with p > n/2 is primitive.  <gens> is then A_n or S_n, as some
    generator is odd or none is, and is compared with ``order``.  In turn:

    * a point outside the orbit of 0 makes <gens> intransitive, hence a
      proper subgroup (False);
    * an element among the first ``_JORDAN_BEFORE_BLOCKS`` of the walk
      (``gens``, then the scheduled product-replacement stream) with a power
      that is a p-cycle, n/2 < p <= n - 3, decides by Jordan's theorem;
    * a block system (``_imprimitive``, Atkinson 1975) makes <gens>
      imprimitive, hence a proper subgroup (False);
    * the walk, continued to ``_JORDAN_WALK`` elements, decides by Jordan's
      theorem on an element with a power that is a p-cycle, p <= n - 3:
      <gens> is now primitive, and p = 2, 3 cover degrees 5 to 7;
    * otherwise ``bsgs_order`` decides: a stabilizer chain of ``gens``,
      completed by deterministic Schreier-Sims.
    """
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    if len(orbit([0], lambda x: [g[x] for g in gens], n, "point orbit")) < n:
        return False
    walk = itertools.chain(gens, _product_replacement(gens))
    giant = any(_jordan_element(x, n // 2 + 1)
                for x in itertools.islice(walk, _JORDAN_BEFORE_BLOCKS))
    if not giant:
        if _imprimitive(gens):
            return False
        giant = any(_jordan_element(x, 2)
                    for x in itertools.islice(walk, _JORDAN_WALK - _JORDAN_BEFORE_BLOCKS))
    if giant:
        return math.factorial(n) // (1 if any(parity(g) for g in gens) else 2) == order
    return bsgs_order(gens) == order


# -- conjugator search ----------------------------------------------------


class DegeneratePair(Exception):
    """a, c and both targets are the identity: every ambient element works."""


def _orbit_map(b: int, x: int, edges) -> dict | None:
    """The map g on the orbit of b with g(b) = x and g(s(y)) = t(g(y)) for
    (s, t) in ``edges``, or None if a step conflicts or g is not injective."""
    g, queue = {b: x}, [b]
    for y in queue:
        for s, t in edges:
            z, w = s[y], t[g[y]]
            if z not in g:
                queue.append(z)
            if g.setdefault(z, w) != w:
                return None
    return g if len(set(g.values())) == len(g) else None


def conjugator_search(a: tuple, a_target: tuple, c: tuple, c_target: tuple) -> list:
    """Sorted list of all g in S_n with g a g^-1 = a_target, g c g^-1 = c_target.

    The image x of its least point fixes g on an orbit of <a, c>: one walk
    per x (the Cayley-walk test of Holt, Eick and O'Brien).  Orbits mapping
    onto the same orbits of the targets form a block, unsolvable when it has
    more orbits than images.  A solution takes one map per orbit, images
    disjoint, placed fewest maps first.  Raises PreconditionError on mixed
    degrees, DegeneratePair when all four are the identity and
    CapacityExceeded past ``DEFAULT_CONJUGATOR_CAP`` placed maps.
    """
    n = len(a)
    if any(len(x) != n for x in (a_target, c, c_target)):
        raise PreconditionError("permutations have mixed degree")
    if a == c == a_target == c_target == identity_perm(n):
        raise DegeneratePair()
    edges = ((a, a_target), (c, c_target))
    maps = []
    for b in range(n):
        if not any(b in found[0] for found in maps):
            found = [g for g in (_orbit_map(b, x, edges) for x in range(n)) if g]
            if not found:
                return []
            maps.append(found)
    blocks = collections.Counter(frozenset(min(g.values()) for g in found) for found in maps)
    if any(len(images) != k for images, k in blocks.items()):
        return []
    maps.sort(key=len)
    out, g, used, placed, chosen, stack = [], {}, set(), 0, [], [iter(maps[0])]
    while stack:
        if len(chosen) == len(stack):  # release the map placed at the top
            used.difference_update(chosen.pop().values())
        m = next(stack[-1], None)
        if m is None:
            stack.pop()
        elif used.isdisjoint(m.values()):
            placed += 1
            if placed > DEFAULT_CONJUGATOR_CAP:
                raise CapacityExceeded("conjugator search", DEFAULT_CONJUGATOR_CAP)
            g.update(m)
            used.update(m.values())
            chosen.append(m)
            if len(chosen) == len(maps):
                out.append(tuple(g[y] for y in range(n)))
            else:
                stack.append(iter(maps[len(chosen)]))
    return sorted(out)


# -- group contexts -------------------------------------------------------


class PermGroup(Group):
    """A group of permutations of n points, given by its generators
    ``self._gens``: what S_n and A_n share."""

    generation_certificate = "bsgs"

    @property
    def identity(self):
        return identity_perm(self.n)

    def mul(self, x, y):
        return pmul(x, y)

    def inv(self, x):
        return pinv(x)

    def conjugation(self, g):
        """x -> g x g^-1, read as g at x at g^-1's entries: each read is
        one ``itemgetter`` call, as in ``pmul``."""
        gi = pinv(g)
        if len(gi) < 2:
            return lambda x: tuple([g[x[j]] for j in gi])
        read = itemgetter(*gi)
        return lambda x: itemgetter(*read(x))(g)

    @property
    def generators(self):
        return list(self._gens)

    def element_order(self, g) -> int:
        return perm_order(g)

    def prime_labels(self, x) -> set:
        """(q, k) for each prime q dividing m = ord x, with no power formed.

        The elements of order q in <x> are the powers of x^(m/q).  It
        splits each L-cycle of x with L not dividing m/q, those with
        v_q(L) = v_q(m), into L/q cycles of length q and fixes the rest:
        its cycle type is q^k.  Elements of prime order are conjugate in
        S_n iff their (q, k) agree, and <x^(m/q)> meets both halves of a
        split A_n class (see ``AlternatingGroup.power_labels``), so two
        words on either group share a label iff their powers share a class.
        """
        lengths = _cycle_lengths(x)
        m = math.lcm(*lengths, 1)
        return {(q, sum(length for length in lengths if (m // q) % length) // q)
                for q in {q for length in lengths for q in _length_primes(length)}}

    def matching_powers(self, x, labels) -> list:
        """The powers x^k, 0 < k < ord x, whose ``class_label`` is in
        ``labels``, in order of k.

        x^k has the label of x^d, d = gcd(k, ord x).  In a split A_n class
        a unit k instead moves x to the other half iff the Jacobi symbol
        (k / product of the parts) is -1.  So no power is labelled; the
        walk x^(k+1) = x^k * x is one ``itemgetter`` call a step.
        """
        m, by_divisor, prod = self._divisor_labels(x)
        hits = {d for d, label in by_divisor.items() if label in labels}
        halves = set()
        if prod is not None:
            hits.discard(1)
            parts, half = by_divisor[1]
            halves = {h for h in (half, 1 - half) if (parts, h) in labels}
        if not (hits or halves):
            return []
        step, out, acc = itemgetter(*x), [], x
        for k in range(1, m):
            d = math.gcd(k, m)
            if d in hits or (d == 1 and halves and (half ^ (_jacobi(k, prod) < 0)) in halves):
                out.append(acc)
            acc = step(acc)
        return out

    def descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n}


class SymmetricGroup(PermGroup):
    kind = "sym"

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("degree must be >= 1")
        self.n = n
        self._gens = [cycle_to_perm([0, 1], n)] if n >= 2 else []
        if n >= 2:
            self._gens.append(cycle_to_perm(list(range(n)), n))

    @property
    def order(self) -> int:
        return math.factorial(self.n)

    def contains(self, x) -> bool:
        return isinstance(x, tuple) and is_perm(x, self.n)

    def generates_pair(self, a, c) -> bool:
        # Two even permutations lie in A_n, a proper subgroup for n >= 2.
        if self.n >= 2 and not (parity(a) or parity(c)):
            return False
        return generates_known_order([a, c], self.order)

    def class_label(self, x) -> tuple:
        """Conjugate in S_n iff of equal cycle type."""
        return cycle_type(x)

    def _divisor_labels(self, x) -> tuple:
        """(ord x, the label of x^d for each divisor d of ord x, None);
        no class of S_n splits."""
        lengths = _cycle_lengths(x)
        m = math.lcm(*lengths, 1)
        return m, _power_types(lengths, m), None

    def power_labels(self, x) -> set:
        """x^k has the cycle type of x^d, d = gcd(ord x, k): one label
        per divisor d of ord x, with no power formed."""
        return set(self._divisor_labels(x)[1].values())


def _alt_label(cycles: list) -> tuple:
    """The A_n class label of the element with these cycles, 1-cycles included."""
    cycles = sorted(cycles, key=len)
    parts = tuple(len(c) for c in cycles)
    if len(set(parts)) < len(parts) or not all(k % 2 for k in parts):
        return parts
    return parts, parity(tuple(point for c in cycles for point in c))


class AlternatingGroup(PermGroup):
    kind = "alt"

    def __init__(self, n: int):
        if n < 3:
            raise PreconditionError("alternating degree must be >= 3")
        self.n = n
        long_cycle = list(range(n)) if n % 2 == 1 else list(range(1, n))
        self._gens = [cycle_to_perm([0, 1, 2], n), cycle_to_perm(long_cycle, n)]

    @property
    def order(self) -> int:
        return math.factorial(self.n) // 2

    def contains(self, x) -> bool:
        return isinstance(x, tuple) and is_perm(x, self.n) and parity(x) == 0

    def generates_pair(self, a, c) -> bool:
        return generates_known_order([a, c], self.order)

    def class_label(self, x) -> tuple:
        """Conjugate in A_n iff equal labels (James-Kerber, section 1.2).

        An S_n class splits in A_n exactly when its parts, 1-cycles
        included, are distinct and odd; the halves differ in the parity
        of the conjugator to x from the element of that type whose
        cycles run over consecutive points.  That conjugator lists the
        cycles of x by length.
        """
        return _alt_label(cycles_of(x, include_fixed=True))

    def _divisor_labels(self, x) -> tuple:
        """(ord x, the label of x^d for each divisor d of ord x, the
        product of the parts if the class of x splits, else None).

        A class splits iff its parts, 1-cycles included, are distinct and
        odd.  For d > 1 some cycle splits into equal parts, so only d = 1
        can give a split class; its label is that of x.
        """
        n, lengths = self.n, _cycle_lengths(x)
        m = math.lcm(*lengths, 1)
        by_divisor = {d: (1,) * (n - sum(t)) + t for d, t in _power_types(lengths, m).items()}
        if n - sum(lengths) > 1 or len(set(lengths)) < len(lengths) or not all(k % 2 for k in lengths):
            return m, by_divisor, None
        by_divisor[1] = self.class_label(x)
        return m, by_divisor, math.prod(lengths)

    def power_labels(self, x) -> set:
        """The labels of the x^d, d dividing ord x, as on S_n, 1-cycles
        included, plus the other half of a split class of x.

        A unit k gives x^k = s x s^-1, where s multiplies by k along each
        cycle and so has sign (k / prod parts), a Jacobi symbol
        (Zolotarev's lemma).  Both halves occur iff that character is
        nontrivial, i.e. prod parts is not a square.
        """
        _, by_divisor, prod = self._divisor_labels(x)
        out = set(by_divisor.values())
        if prod is not None and math.isqrt(prod) ** 2 != prod:
            parts, half = by_divisor[1]
            out.add((parts, 1 - half))
        return out
