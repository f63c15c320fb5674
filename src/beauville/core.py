"""Uniform finite-group abstraction.

Every backend (permutations, 2x2 matrices over a prime field, abelian
rank-2 groups, semidirect constructions) exposes the same small surface:
canonical hashable element values, ``mul``/``inv``/``identity``, a
generator list and a known order.  All higher layers (sigma sets,
structure checkers, searches) operate through this interface only.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable


DEFAULT_CLOSURE_CAP = 10**6
DEFAULT_CLASS_CAP = 10**6


class MalformedElementError(ValueError):
    """Element value does not belong to the group context it was used with."""


class CapacityExceeded(RuntimeError):
    """A closure/class/orbit computation grew past its configured cap."""

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} exceeded cap {cap}")
        self.what = what
        self.cap = cap


class UndecidedError(RuntimeError):
    """A verdict could not be decided within budget (never guessed)."""


class PreconditionError(ValueError):
    """A named input constraint was violated."""


class InconsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not a user error."""


class Group:
    """Base class for executable finite groups.

    Subclasses must set ``kind`` and implement ``identity``, ``mul``,
    ``inv``, ``order``, ``generators`` and ``contains``.  A backend with
    its own exact test of "<a, c> = G" implements ``generates_pair`` and
    names it in ``generation_certificate``.  A backend with a known
    conjugacy rule implements ``class_label(x)``: a hashable label, equal
    for two elements exactly when they are conjugate; sigma-set
    disjointness then compares labels instead of searching classes.
    ``power_labels(x)`` is the set of labels of the powers of x, and
    ``matching_powers(x, labels)`` the nontrivial powers of x whose label
    is in ``labels``; the defaults walk the powers, and S_n and A_n read
    both off the cycle type.  ``prime_labels(x)`` labels the elements of
    prime order in <x>; two sigma sets whose words have disjoint prime
    labels are disjoint.  The default label is the order; S_n and A_n
    add the number of cycles, which makes the test exact there.
    ``conjugation(g)`` is the map x -> g x g^-1 as one callable, with
    g^-1 computed once; a backend overrides it with a fused product.
    Contexts are immutable after construction; all operations are pure.
    """

    kind: str = "abstract"
    generation_certificate: str = "closure"

    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    @property
    def order(self) -> int:
        raise NotImplementedError

    @property
    def generators(self) -> list:
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    # -- derived helpers ------------------------------------------------

    def check_element(self, x) -> None:
        if not self.contains(x):
            raise MalformedElementError(f"{x!r} is not an element of {self!r}")

    def power(self, x, k: int):
        if k < 0:
            return self.power(self.inv(x), -k)
        acc = self.identity
        base = x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def power_labels(self, x) -> set:
        """The ``class_label`` of every power of x, the identity's included."""
        label, e = self.class_label, self.identity
        out, acc = {label(e)}, x
        while acc != e:
            out.add(label(acc))
            acc = self.mul(acc, x)
        return out

    def matching_powers(self, x, labels) -> list:
        """The powers x^k, 0 < k < ord x, whose ``class_label`` is in
        ``labels``, in order of k: one walk of the powers."""
        label, e = self.class_label, self.identity
        out, acc = [], x
        while acc != e:
            if label(acc) in labels:
                out.append(acc)
            acc = self.mul(acc, x)
        return out

    def prime_labels(self, x) -> set:
        """The orders of the elements of prime order in <x>: the primes
        dividing ord x."""
        return set(prime_divisors(self.element_order(x)))

    def element_order(self, g) -> int:
        """Smallest k >= 1 with g^k = 1; direct iteration capped at |G|."""
        cap = self.order
        acc = g
        k = 1
        e = self.identity
        while acc != e:
            acc = self.mul(acc, g)
            k += 1
            if k > cap:
                raise InconsistencyError("element order exceeds group order")
        return k

    def conjugation(self, g) -> Callable:
        """The map x -> g x g^-1."""
        gi, mul = self.inv(g), self.mul
        return lambda x: mul(g, mul(x, gi))

    def commutes(self, x, y) -> bool:
        return self.mul(x, y) == self.mul(y, x)

    def elements(self, cap: int = DEFAULT_CLOSURE_CAP) -> frozenset:
        """All elements, as the closure of the generator list."""
        got = generated_subgroup(self, self.generators, cap=cap)
        if len(got) != self.order:
            raise InconsistencyError(
                f"generator closure has {len(got)} elements, order says {self.order}"
            )
        return got

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor()}>"


# -- operations ---------------------------------------------------------


def prime_divisors(m: int) -> list:
    """The primes dividing m >= 1, increasing, by trial division."""
    out, q = [], 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    return out + [m] if m > 1 else out


def element_order(G: Group, g) -> int:
    G.check_element(g)
    return G.element_order(g)


def conjugate(G: Group, g, h):
    """h g h^-1."""
    return G.conjugation(h)(g)


def orbit(start: Iterable, images: Callable, cap: int, what: str) -> set:
    """Breadth-first orbit of the points ``start`` under ``images(x)``,
    the points one step away from x.

    Raises CapacityExceeded(what, cap) exactly when the orbit has more
    than ``cap`` points (an explicit overflow signal, never a silent
    truncation).
    """
    seen = set(start)
    if len(seen) > cap:
        raise CapacityExceeded(what, cap)
    queue = deque(seen)
    while queue:
        for y in images(queue.popleft()):
            if y not in seen:
                if len(seen) >= cap:
                    raise CapacityExceeded(what, cap)
                seen.add(y)
                queue.append(y)
    return seen


def generated_subgroup(G: Group, gens: Iterable, cap: int = DEFAULT_CLOSURE_CAP) -> frozenset:
    """Closure of ``gens`` under multiplication; past ``cap`` elements
    CapacityExceeded("subgroup closure", cap) is raised."""
    gens = list(gens)
    mul = G.mul
    return frozenset(orbit([G.identity], lambda x: [mul(x, s) for s in gens],
                           cap, "subgroup closure"))


def generates(G: Group, a, c, cap: int = DEFAULT_CLOSURE_CAP) -> bool:
    """True iff <a, c> = G.

    A backend's ``generates_pair`` decides exactly, named by its
    ``generation_certificate``: a Jordan element (a power that is a
    prime cycle) and Jordan's theorem for S_n and A_n
    (``perms.generates_known_order``), Dickson's subgroup list
    read off the trace triple for SL(2,p) and PSL(2,p), a determinant
    for (Z/n)^2.  The other backends compare a closure against the known
    order; only they use ``cap``, and past it an UndecidedError is raised
    (never a wrong boolean).
    """
    G.check_element(a)
    G.check_element(c)
    strategy = getattr(G, "generates_pair", None)
    if strategy is not None:
        return strategy(a, c)
    if G.order > cap:
        raise UndecidedError(
            f"cannot decide generation: |G| = {G.order} exceeds closure cap {cap}"
        )
    closure = generated_subgroup(G, [a, c], cap=cap)
    return len(closure) == G.order


def conjugacy_class(G: Group, g, cap: int = DEFAULT_CLASS_CAP) -> frozenset:
    """Orbit of g under conjugation by the context generators (BFS)."""
    G.check_element(g)
    # Inline, not orbit(): a callback per node cost 20% here (SL(2,31) class 1.83 -> 2.21 ms).
    maps = [G.conjugation(h) for h in G.generators]
    seen = {g}
    queue = deque([g])
    while queue:
        x = queue.popleft()
        for f in maps:
            y = f(x)
            if y not in seen:
                if len(seen) >= cap:
                    raise CapacityExceeded("conjugacy class", cap)
                seen.add(y)
                queue.append(y)
    return frozenset(seen)

