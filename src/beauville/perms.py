"""Permutation backend.

Permutations on n points are stored as image tuples over 0..n-1 and act
from the left: ``pmul(p, q)`` is the map x -> p(q(x)), so a product
written left to right applies its right factor first.  Cycle notation at
the API boundary is 1-based; ``format_cycles`` can also print 0-based.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
import re

from .core import CapacityExceeded, Group, PreconditionError, orbit

# Most orbit maps ``conjugator_search`` places before it gives up.
DEFAULT_CONJUGATOR_CAP = 10**6


def identity_perm(n: int) -> tuple:
    return tuple(range(n))


def pmul(p: tuple, q: tuple) -> tuple:
    """Composition applying q first: (p*q)(x) = p(q(x))."""
    return tuple([p[i] for i in q])


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


def cycle_type(p: tuple) -> tuple:
    """Sorted tuple of cycle lengths >= 2; identity has type ()."""
    return tuple(sorted(len(c) for c in cycles_of(p)))


def perm_order(p: tuple) -> int:
    return math.lcm(*(len(c) for c in cycles_of(p)), 1)


def parity(p: tuple) -> int:
    """0 for even, 1 for odd."""
    return sum(len(c) - 1 for c in cycles_of(p)) % 2


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


# -- known-order generation certificate ------------------------------------

# Product replacement starts from a fixed seed, so one input always takes
# one path.  The seed only decides how soon a True is proved: no answer
# rests on it.
_CERT_SEED = 2004
_CERT_SLOTS = 10
_CERT_BURN_IN = 40
# Trivial sifts in a row before the deterministic chain decides.  A sift
# of a uniform element of G is trivial with probability |chain| / |G|,
# which is at most 1/2 while the certificate is incomplete.
_CERT_PATIENCE = 12


def _product_replacement(gens: list, rng: random.Random):
    """Endless stream of elements of <gens> (product replacement with an
    accumulator, after a burn-in)."""
    state = [gens[i % len(gens)] for i in range(_CERT_SLOTS)]
    acc = identity_perm(len(gens[0]))
    step = 0
    while True:
        s = rng.randrange(_CERT_SLOTS)
        t = rng.randrange(_CERT_SLOTS - 1)
        t += t >= s
        if rng.random() < 0.5:
            state[s] = pmul(state[s], state[t])
        else:
            state[s] = pmul(state[t], state[s])
        acc = pmul(acc, state[s])
        step += 1
        if step > _CERT_BURN_IN:
            yield acc


def generates_known_order(gens: list, order: int) -> bool:
    """True iff |<gens>| = ``order``, where ``gens`` lie in a transitive
    group of that order on their points (S_n and A_n).

    Each answer is exact:

    * a point outside the orbit of 0 makes <gens> intransitive, hence a
      proper subgroup (False);
    * a ``_Chain`` into which ``gens`` and then product-replacement
      elements are inserted proves |<gens>| >= ``order`` as soon as the
      product of its orbit sizes reaches it (True);
    * after ``_CERT_PATIENCE`` trivial sifts in a row, ``bsgs_order``
      decides: a fresh chain of ``gens``, completed by deterministic
      Schreier-Sims.
    """
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    if len(orbit([0], lambda x: [g[x] for g in gens], n, "point orbit")) < n:
        return False
    chain = _Chain(n)
    idle = 0
    elements = itertools.chain(gens, _product_replacement(gens, random.Random(_CERT_SEED)))
    while chain.size < order and idle < _CERT_PATIENCE:
        idle = 0 if chain.insert(next(elements)) else idle + 1
    if chain.size >= order:
        return True
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


class SymmetricGroup(Group):
    kind = "sym"
    generation_certificate = "bsgs"

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("degree must be >= 1")
        self.n = n
        self._gens = [cycle_to_perm([0, 1], n)] if n >= 2 else []
        if n >= 2:
            self._gens.append(cycle_to_perm(list(range(n)), n))

    @property
    def identity(self):
        return identity_perm(self.n)

    def mul(self, x, y):
        return pmul(x, y)

    def inv(self, x):
        return pinv(x)

    @property
    def order(self) -> int:
        return math.factorial(self.n)

    @property
    def generators(self):
        return list(self._gens)

    def contains(self, x) -> bool:
        return isinstance(x, tuple) and is_perm(x, self.n)

    def element_order(self, g) -> int:
        return perm_order(g)

    def generates_pair(self, a, c) -> bool:
        # Two even permutations lie in A_n, a proper subgroup for n >= 2.
        if self.n >= 2 and not (parity(a) or parity(c)):
            return False
        return generates_known_order([a, c], self.order)

    def class_label(self, x) -> tuple:
        """Conjugate in S_n iff of equal cycle type."""
        return cycle_type(x)

    def descriptor(self) -> dict:
        return {"kind": "sym", "n": self.n}


class AlternatingGroup(Group):
    kind = "alt"
    generation_certificate = "bsgs"

    def __init__(self, n: int):
        if n < 3:
            raise PreconditionError("alternating degree must be >= 3")
        self.n = n
        self.perfect = n >= 5
        long_cycle = list(range(n)) if n % 2 == 1 else list(range(1, n))
        self._gens = [cycle_to_perm([0, 1, 2], n), cycle_to_perm(long_cycle, n)]

    @property
    def identity(self):
        return identity_perm(self.n)

    def mul(self, x, y):
        return pmul(x, y)

    def inv(self, x):
        return pinv(x)

    @property
    def order(self) -> int:
        return math.factorial(self.n) // 2

    @property
    def generators(self):
        return list(self._gens)

    def contains(self, x) -> bool:
        return isinstance(x, tuple) and is_perm(x, self.n) and parity(x) == 0

    def element_order(self, g) -> int:
        return perm_order(g)

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
        cycles = sorted(cycles_of(x, include_fixed=True), key=len)
        parts = tuple(len(c) for c in cycles)
        if len(set(parts)) < len(parts) or not all(k % 2 for k in parts):
            return parts
        return parts, parity(tuple(point for c in cycles for point in c))

    def descriptor(self) -> dict:
        return {"kind": "alt", "n": self.n}
