"""Permutation backend.

Permutations on n points are stored as image tuples over 0..n-1 and act
from the left: ``pmul(p, q)`` is the map x -> p(q(x)), so a product
written left to right applies its right factor first.  Cycle notation at
the API boundary is 1-based by default with a zero-based switch.
"""

from __future__ import annotations

import itertools
import math
import random
import re

from .core import CapacityExceeded, Group, PreconditionError, orbit

DEFAULT_CENTRALIZER_CAP = 10**7


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


def parse_cycles(text: str, n: int, zero_based: bool = False) -> tuple:
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
        if not zero_based:
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


class _ChainNode:
    """One level of a stabilizer chain.

    ``gens`` holds only the strong generators first attached here; the
    group fixing all shallower base points is generated by this node's
    gens together with every deeper node's (``all_gens``).
    """

    __slots__ = ("n", "base", "gens", "transversal", "_trans_inv", "_tree_edge", "stab")

    def __init__(self, n: int):
        self.n = n
        self.base: int | None = None
        self.gens: list = []
        self.transversal: dict = {}
        self._trans_inv: dict = {}
        self._tree_edge: dict = {}
        self.stab: _ChainNode | None = None

    def all_gens(self) -> list:
        out = list(self.gens)
        if self.stab is not None:
            out.extend(self.stab.all_gens())
        return out

    def sift(self, p: tuple) -> tuple:
        node = self
        ident = identity_perm(self.n)
        while node is not None and node.base is not None:
            u_inv = node._trans_inv.get(p[node.base])
            if u_inv is None:
                return p
            p = pmul(u_inv, p)
            if p == ident:
                return p
            node = node.stab
        return p

    def add_gen(self, p: tuple):
        residue = self.sift(p)
        if residue != identity_perm(self.n):
            self._add_nonmember(residue)

    def _add_nonmember(self, p: tuple):
        if self.base is None:
            self.base = next(i for i in range(self.n) if p[i] != i)
            self.stab = _ChainNode(self.n)
        if p[self.base] == self.base:
            self.stab.add_gen(p)
        else:
            self.gens.append(p)
        self._rebuild_orbit()
        # Verify every Schreier generator of this level against the
        # chain below; non-members recurse downward.  Tree edges are
        # skipped: their Schreier generator is the identity by
        # construction of the transversal.
        gens_snapshot = self.all_gens()
        ident = identity_perm(self.n)
        for x in sorted(self.transversal):
            ux = self.transversal[x]
            for g in gens_snapshot:
                y = g[x]
                edge = self._tree_edge.get(y)
                if edge is not None and edge[0] == x and edge[1] is g:
                    continue
                schreier = pmul(self._trans_inv[y], pmul(g, ux))
                if schreier != ident:
                    self.stab.add_gen(schreier)

    def _rebuild_orbit(self):
        # Not core.orbit: the search records a transversal and tree edges, not only points.
        ident = identity_perm(self.n)
        self.transversal = {self.base: ident}
        self._trans_inv = {self.base: ident}
        self._tree_edge = {}
        frontier = [self.base]
        gens = self.all_gens()
        while frontier:
            new = []
            for x in frontier:
                ux = self.transversal[x]
                for g in gens:
                    y = g[x]
                    if y not in self.transversal:
                        u = pmul(g, ux)
                        self.transversal[y] = u
                        self._trans_inv[y] = pinv(u)
                        self._tree_edge[y] = (x, g)
                        new.append(y)
            frontier = new

    @property
    def order(self) -> int:
        if self.base is None:
            return 1
        return len(self.transversal) * self.stab.order


class StabilizerChain:
    """Deterministic incremental Schreier-Sims."""

    def __init__(self, gens: list):
        if not gens:
            raise PreconditionError("empty generator list")
        self.n = len(gens[0])
        if any(len(g) != self.n for g in gens):
            raise PreconditionError("generators have mixed degree")
        self.root = _ChainNode(self.n)
        for g in gens:
            self.root.add_gen(g)

    @property
    def order(self) -> int:
        return self.root.order

    def contains(self, g: tuple) -> bool:
        return self.root.sift(g) == identity_perm(self.n)


def bsgs_order(gens: list) -> int:
    """Exact order of <gens> via a base and strong generating set."""
    gens = [tuple(g) for g in gens]
    if not gens:
        return 1
    return StabilizerChain(gens).order


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


class _PartialChain:
    """Stabilizer chain grown from sifted elements of a group H.

    Every strong generator lies in H and fixes the base points of the
    levels above the one it is attached to, so the orbit of each level
    lies in one orbit of a point stabilizer of H and ``size``, the
    product of the orbit sizes, never exceeds |H|.
    """

    def __init__(self, n: int):
        self.ident = identity_perm(n)
        self.base: list = []
        self.gens: list = []  # strong generators first attached per level
        self.trans: list = []  # per level: orbit point -> u with u(base) = point
        self.trans_inv: list = []
        self.size = 1

    def sift(self, x: tuple):
        """(level, residue): where x leaves the chain and what is left of it.

        A residue that passes every level is returned at level
        ``len(self.base)``; it is the identity iff x is in the chain.
        """
        for i, b in enumerate(self.base):
            u_inv = self.trans_inv[i].get(x[b])
            if u_inv is None:
                return i, x
            x = pmul(u_inv, x)
        return len(self.base), x

    def add(self, level: int, h: tuple):
        if level == len(self.base):
            b = next(i for i, y in enumerate(h) if y != i)
            self.base.append(b)
            self.gens.append([])
            self.trans.append({b: self.ident})
            self.trans_inv.append({b: self.ident})
        self.gens[level].append(h)
        for i in range(level + 1):
            self._extend_orbit(i, h)
        self.size = math.prod(len(t) for t in self.trans)

    def _extend_orbit(self, i: int, h: tuple):
        # Not core.orbit: the search records a transversal, not only points.
        # The orbit is closed under the older generators: images under h
        # come first, then the new points under every generator of the level.
        trans, trans_inv = self.trans[i], self.trans_inv[i]
        level_gens = [g for gens in self.gens[i:] for g in gens]
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
    * a ``_PartialChain`` fed with ``gens`` and then with sifted
      product-replacement elements proves |<gens>| >= ``order`` as soon
      as the product of its orbit sizes reaches it (True);
    * after ``_CERT_PATIENCE`` trivial sifts in a row, the deterministic
      chain ``bsgs_order`` decides.
    """
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    if len(orbit([0], lambda x: [g[x] for g in gens], n, "point orbit")) < n:
        return False
    chain = _PartialChain(n)
    idle = 0
    elements = itertools.chain(gens, _product_replacement(gens, random.Random(_CERT_SEED)))
    while chain.size < order and idle < _CERT_PATIENCE:
        level, residue = chain.sift(next(elements))
        if residue == chain.ident:
            idle += 1
        else:
            idle = 0
            chain.add(level, residue)
    if chain.size >= order:
        return True
    return bsgs_order(gens) == order


# -- centralizer and conjugator machinery --------------------------------


def centralizer_size(a: tuple) -> int:
    """|C_{S_n}(a)| from the cycle structure (fixed points included)."""
    counts: dict[int, int] = {}
    for c in cycles_of(a, include_fixed=True):
        counts[len(c)] = counts.get(len(c), 0) + 1
    size = 1
    for length, mult in counts.items():
        size *= length**mult * math.factorial(mult)
    return size


def iter_centralizer(a: tuple, cap: int = DEFAULT_CENTRALIZER_CAP):
    """Yield all elements of C_{S_n}(a), deterministically.

    The centralizer is the direct product over cycle lengths of
    (cyclic shifts per cycle) wreath (permutations of equal-length
    cycles).  Raises CapacityExceeded if its size is over ``cap``.
    """
    n = len(a)
    if centralizer_size(a) > cap:
        raise CapacityExceeded("centralizer enumeration", cap)
    by_len: dict[int, list] = {}
    for c in cycles_of(a, include_fixed=True):
        by_len.setdefault(len(c), []).append(c)
    lengths = sorted(by_len)
    per_length_choices = []
    for length in lengths:
        block = by_len[length]
        m = len(block)
        choices = list(
            itertools.product(
                itertools.permutations(range(m)),
                itertools.product(range(length), repeat=m),
            )
        )
        per_length_choices.append((block, choices))
    for combo in itertools.product(*(c for _, c in per_length_choices)):
        images = list(range(n))
        for (block, _), (pi, shifts) in zip(per_length_choices, combo):
            length = len(block[0])
            for j, src in enumerate(block):
                dst = block[pi[j]]
                k = shifts[j]
                for t in range(length):
                    images[src[t]] = dst[(t + k) % length]
        yield tuple(images)


class DegeneratePair(Exception):
    """Both constraint elements are the identity: every ambient element works."""


def find_aligning_conjugator(a: tuple, target: tuple):
    """One x with x a x^-1 = target, or None if cycle types differ."""
    if cycle_type(a) != cycle_type(target):
        return None
    n = len(a)
    src = sorted(cycles_of(a, include_fixed=True), key=lambda c: (len(c), c))
    dst = sorted(cycles_of(target, include_fixed=True), key=lambda c: (len(c), c))
    images = [0] * n
    for cs, cd in zip(src, dst):
        for t in range(len(cs)):
            images[cs[t]] = cd[t]
    return tuple(images)


def conjugator_search(
    a: tuple,
    a_target: tuple,
    c: tuple,
    c_target: tuple,
) -> list:
    """Complete list of g in S_n with g a g^-1 = a_target, g c g^-1 = c_target.

    Solutions of the first equation form a coset g0 * C(a); the
    centralizer is enumerated from the cycle structure and filtered by
    the second equation.  Raises DegeneratePair when both a and c are
    the identity (the solution set would be the whole of S_n) and
    CapacityExceeded past ``DEFAULT_CENTRALIZER_CAP``.
    """
    n = len(a)
    ident = identity_perm(n)
    if a == ident and c == ident:
        if a_target == ident and c_target == ident:
            raise DegeneratePair()
        return []
    if a == ident:
        # Align on the non-identity element; its centralizer is smaller.
        a, a_target, c, c_target = c, c_target, a, a_target
    g0 = find_aligning_conjugator(a, a_target)
    if g0 is None:
        return []
    if cycle_type(c) != cycle_type(c_target):
        return []
    out = []
    for z in iter_centralizer(a):
        g = pmul(g0, z)
        if pmul(g, pmul(c, pinv(g))) == c_target:
            assert pmul(g, pmul(a, pinv(g))) == a_target
            out.append(g)
    out.sort()
    return out


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
