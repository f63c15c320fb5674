"""Pair transformations, orbit machinery and reality decisions.

The six standard transformations of generating pairs, componentwise
inversion (the algebraic shadow of complex conjugation), orbits under
inner automorphisms, and the decision procedures for "biholomorphic to
the conjugate surface", "real" and "strongly real".

Automorphisms are described once per backend (``backend_for``): a case
solver that names the outer class of each solution, and the outer maps
that generate Aut(G) with the inner automorphisms.  Symmetric and
alternating groups reduce to conjugator search in the ambient symmetric
group (with the parity of the conjugator as outer label), SL/PSL to one
linear solve for the conjugating matrices in GL(2,p) (with the square
class of the determinant as outer label), rank-2 abelian groups to a
single GL(2) solve, and swap products over SL to componentwise solves
with a shared outer-class condition.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain

from .constructions import H4
from .core import (
    CapacityExceeded,
    Group,
    InconsistencyError,
    PreconditionError,
    generated_subgroup,
    orbit,
)
from .matgroups import (
    Mat2Group,
    SL2Group,
    _prime_factors,
    gl2_conjugators,
    inv_mod,
    is_prime,
    is_square,
    mdet,
    mmul,
    mneg,
    mtrace,
)
from .perms import (
    AlternatingGroup,
    DegeneratePair,
    PermGroup,
    SymmetricGroup,
    conjugator_search,
    parity,
)
from .structures import MixedQuadruple, UnmixedStructure, pair_metrics


# -- sigma operations and inversion ---------------------------------------


def apply_sigma(G: Group, i: int, pair: tuple) -> tuple:
    """The i-th standard transformation of a generating pair, i in 0..5."""
    a, c = pair
    inv, mul = G.inv, G.mul
    if i == 0:
        return (a, c)
    if i == 1:
        return (mul(inv(a), inv(c)), a)
    if i == 2:
        return (c, mul(inv(a), inv(c)))
    if i == 3:
        return (c, a)
    if i == 4:
        return (mul(inv(c), inv(a)), c)
    if i == 5:
        return (a, mul(inv(c), inv(a)))
    raise PreconditionError(f"sigma index {i} out of range 0..5")


def iota_pair(G: Group, pair: tuple) -> tuple:
    a, c = pair
    return (G.inv(a), G.inv(c))


def _class_table(start, maps: list, cap: int) -> tuple:
    """The conjugacy class of ``start`` indexed under the conjugation
    maps ``maps``: (elements, index, rows), the elements by id, the id
    of each element, and ``rows[k][i]`` the id of ``maps[k]`` of element
    i.  Raises CapacityExceeded("pair orbit", cap) past ``cap`` elements.
    """
    elements, index = [start], {start: 0}
    rows: list = [[] for _ in maps]
    lo = 0
    while lo < len(elements):
        frontier = elements[lo:]
        lo = len(elements)
        for f, row in zip(maps, rows):
            for z in map(f, frontier):
                i = index.get(z)
                if i is None:
                    i = index[z] = len(elements)
                    elements.append(z)
                    if len(elements) > cap:
                        raise CapacityExceeded("pair orbit", cap)
                row.append(i)
    return elements, index, rows


# The six images of a pair Q = (x, y) as (first, second) columns of
# (x, y, u), u = (yx)^-1; see ``it_orbit``.
_IMAGES = ((0, 1), (2, 0), (1, 2), (1, 0), (2, 1), (0, 2))


def it_orbit(G: Group, pair: tuple, cap: int = 10**6) -> frozenset:
    """Orbit of the pair under inner automorphisms and the six
    transformations.

    The six transformations are words in a and c, so they commute with
    conjugation: sigma_i(g Q g^-1) = g sigma_i(Q) g^-1.  Up to inner
    automorphisms they form a copy of S_3: sigma_1 has order 3, sigma_3
    order 2, and sigma_3 sigma_1 sigma_3 = sigma_2, sigma_3 sigma_1 =
    sigma_5, sigma_1 sigma_3 = sigma_4.  So the orbit is {sigma_i(Q) :
    Q in Inn P, i = 0..5}, the six images of each member Q = (x, y) of
    the inner orbit of P, with u = (yx)^-1 and w = (xy)^-1: (x, y),
    (u, x), (y, u), (y, x), (w, y), (x, w), as in ``apply_sigma``.  The last two may be replaced by (u, y) and (x, u),
    which are sigma_4(y Q y^-1) and sigma_5(x^-1 Q x): the orbit is the
    set of ordered pairs of two of x, y, u over the inner orbit.  It is
    k inner orbits, for k = 6 / s and s the number of the six images of
    P that lie in the inner orbit of P (orbit and stabilizer in S_3).

    The walk conjugates no pair.  The conjugacy class of each of x, y
    and u of P is indexed once (``_class_table``): every class element
    is conjugated once per generator, and a start already in a finished
    table reuses it.  The walk then runs on id triples (x, y, u), where
    a neighbour is three row reads and ``seen`` holds ints, and the id
    columns are decoded into the orbit at the end.  A central pair,
    fixed by every generator's conjugation, is its own inner orbit: its
    six images are the orbit, and no table is built.

    CapacityExceeded("pair orbit", cap) is raised exactly when the orbit
    has more than ``cap`` pairs, by three checks, each before the orbit
    is built:
    - a class table grows past ``cap``: x -> g x g^-1 maps the inner
      orbit onto the class of x, and the inner orbit lies in the orbit;
    - d times the members walked exceeds ``cap``, for d the number of
      distinct (class, class) pairs among the six images of P: images
      in different class pairs lie in different inner orbits, so k >= d;
    - once the inner orbit is walked, k times its size exceeds ``cap``.
    x and y are checked to be elements of G (MalformedElementError
    otherwise).
    """
    x, y = pair
    G.check_element(x)
    G.check_element(y)
    maps = [G.conjugation(g) for g in G.generators]
    u = G.inv(G.mul(y, x))
    if all(f(x) == x and f(y) == y for f in maps):
        # A central pair is its own inner orbit: no tables.
        out = frozenset(((x, y), (u, x), (y, u), (y, x), (u, y), (x, u)))
        if len(out) > cap:
            raise CapacityExceeded("pair orbit", cap)
        return out
    tables: list = []
    ids = []
    for z in (x, y, u):
        for t, (_, index, _) in enumerate(tables):
            i = index.get(z)
            if i is not None:
                break
        else:
            t, i = len(tables), 0
            tables.append(_class_table(z, maps, cap))
        ids.append((t, i))
    (tx, ix), (ty, iy), (tu, iu) = ids
    d = len({(ids[s][0], ids[t][0]) for s, t in _IMAGES})
    limit = cap // d  # d * members > cap iff members > limit

    # The walk: column X holds the x id of each member, Y its y id and U
    # its u id; seen holds x id * |class of y| + y id.
    (ex, _, rx), (ey, _, ry), (eu, _, ru) = tables[tx], tables[ty], tables[tu]
    steps = list(zip(rx, ry, ru))
    width = len(ey)
    X, Y, U = [ix], [iy], [iu]
    seen = {ix * width + iy}
    j = 0
    while j < len(X):
        if len(X) > limit:
            raise CapacityExceeded("pair orbit", cap)
        a, b, c = X[j], Y[j], U[j]
        j += 1
        for sx, sy, su in steps:
            p, q = sx[a], sy[b]
            key = p * width + q
            if key not in seen:
                seen.add(key)
                X.append(p)
                Y.append(q)
                U.append(su[c])

    # s of the docstring: the images of P that lie in its inner orbit.
    fixed = sum(ids[s][0] == tx and ids[t][0] == ty and ids[s][1] * width + ids[t][1] in seen
                for s, t in _IMAGES)
    if 6 // fixed * len(X) > cap:
        raise CapacityExceeded("pair orbit", cap)
    cols = (list(map(ex.__getitem__, X)), list(map(ey.__getitem__, Y)),
            list(map(eu.__getitem__, U)))
    return frozenset(chain.from_iterable(zip(cols[s], cols[t]) for s, t in _IMAGES))


# -- case patterns ---------------------------------------------------------


# Case i sends (a, c) to (w[j], w[k]) for (j, k) = _CASES[i] and
# w = (a^-1, c^-1, ac), whose orders are the type triple of (a, c).
_CASES = ((0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2))

# Cases whose square fixes the pair.  Cases 1, 2, 4 and 5 square to the
# identity too when a and c commute, but they change no verdict on a
# structure: its group is then abelian, inversion solves case 0, and no
# inner automorphism meets them on a nontrivial, noncyclic pair.
_REAL_CASES = (0, 3)


def case_targets(G: Group, i: int, a, c) -> tuple:
    """Images (psi(a), psi(c)) required so that psi after sigma_i inverts
    the pair.  Re-derived from the sigma algebra; matches the printed
    case table."""
    if i not in range(6):
        raise PreconditionError(f"case index {i} out of range 0..5")
    w = (G.inv(a), G.inv(c), G.mul(a, c))
    j, k = _CASES[i]
    return w[j], w[k]


# -- automorphism backends --------------------------------------------------


@dataclass
class CaseSolution:
    """Solvability of one case pattern: the set of outer labels realized
    by solutions, and decidability."""

    labels: frozenset
    decided: bool  # False when the backend could not settle the case


@dataclass
class AutBackend:
    """What is known of Aut(G); ``backend_for`` builds it.

    ``solve(G, a, c, u, v)`` gives the labels of the automorphisms psi
    with psi(a) = u, psi(c) = v.  A solver that does not cover all of
    Aut(G) can certify existence but never absence, so it marks every
    case it returns undecided.  ``outer`` lists maps that generate
    Aut(G) together with the inner automorphisms, or is None where they
    are unknown.
    """

    solve: Callable
    outer: list | None


def _perm_solver(labels, G, a, c, u, v) -> CaseSolution:
    """The labels ``labels[parity(g)]`` of the g in S_n that solve the case."""
    try:
        sols = conjugator_search(a, u, c, v)
    except DegeneratePair:
        return CaseSolution(frozenset(labels), True)  # all of S_n solves it
    except CapacityExceeded:
        return CaseSolution(frozenset(), False)
    return CaseSolution(frozenset(labels[parity(g)] for g in sols), True)


def _linear_solver(lifts, G, a, c, u, v) -> CaseSolution:
    """Label "sl" for a conjugating matrix of square determinant (an inner
    psi), else "slw"; ``lifts(x)`` are the det-1 matrices that stand for x.

    Conjugation keeps traces, so a lift pair (su, sv) can be reached
    only when (tr su, tr sv, tr su sv) is (tr a, tr c, tr ac); the others
    are skipped unsolved.  The products are the raw matrix products: the
    sign rule of PSL(2,p) would flip their traces.
    """
    p = G.p

    def traces(x, y):
        return mtrace(x, p), mtrace(y, p), mtrace(mmul(x, y, p), p)

    want = traces(a, c)
    dets = (mdet(x, p) for su in lifts(u) for sv in lifts(v) if traces(su, sv) == want
            for x in gl2_conjugators(p, a, su, c, sv))
    labels: set = set()
    for det in dets:
        labels.add("sl" if is_square(p, det) else "slw")
        if len(labels) == 2:
            break
    return CaseSolution(frozenset(labels), True)


def _ab2_solver(G, a, c, u, v) -> CaseSolution:
    n = G.n
    if math.gcd(a[0] * c[1] - a[1] * c[0], n) != 1:
        return CaseSolution(frozenset(), False)
    # M [a c] = [u v]; the generating pair is a basis so M is unique, and
    # it is invertible exactly when det [u v] is a unit.
    invertible = math.gcd(u[0] * v[1] - u[1] * v[0], n) == 1
    return CaseSolution(frozenset(["gl2"] if invertible else []), True)


# Largest group the inner-only backend sweeps for a conjugator.
_INNER_CAP = 20000


def _inner_solver(elements, G, a, c, u, v) -> CaseSolution:
    """Label "inner" when conjugation by one of ``elements()`` solves the
    case; exhausting inner automorphisms proves nothing about outer ones."""
    for g in elements():
        f = G.conjugation(g)
        if f(a) == u and f(c) == v:
            return CaseSolution(frozenset(["inner"]), False)
    return CaseSolution(frozenset(), False)


def _matrix_map(m, n):
    """The automorphism x -> m x of (Z/n)^2."""
    return lambda x: ((m[0] * x[0] + m[1] * x[1]) % n, (m[2] * x[0] + m[3] * x[1]) % n)


def backend_for(G: Group) -> AutBackend:
    """The automorphism backend of G: the one description of Aut(G).

    - S_n (n != 6): every automorphism is inner.
    - A_n (n != 6): Aut(A_n) = S_n; the outer map is conjugation by a
      transposition.
    - SL(2,p), PSL(2,p): Aut = PGL(2,p); the outer map is conjugation by
      diag(nu, 1), of non-square determinant nu, the least mod p.
    - (Z/n)^2: Aut = GL(2,n); generators are known for prime n only.
    - Anything else: inner automorphisms only, every case undecided; the
      elements are listed once per backend when |G| <= ``_INNER_CAP``.
    """
    if isinstance(G, PermGroup) and G.n == 6:
        raise PreconditionError("S_6 and A_6 have an exceptional outer automorphism")
    if isinstance(G, SymmetricGroup):
        return AutBackend(partial(_perm_solver, ("inner", "inner")), [])
    if isinstance(G, AlternatingGroup):
        # A_n is normal in S_n: an odd conjugator is an outer automorphism.
        s = tuple([1, 0] + list(range(2, G.n)))
        return AutBackend(partial(_perm_solver, ("even", "odd")), [G.conjugation(s)])
    if isinstance(G, Mat2Group):
        p = G.p
        nu = next(x for x in range(2, p) if not is_square(p, x))
        d, di = (nu, 0, 0, 1), (inv_mod(nu, p), 0, 0, 1)

        def outer(x):
            return G.mul(mmul(d, x, p), di)

        lifts = (lambda x: (x,)) if isinstance(G, SL2Group) else (lambda x: (x, mneg(x, p)))
        return AutBackend(partial(_linear_solver, lifts), [outer])
    if G.kind == "ab2":
        n = G.n
        if not is_prime(n):
            return AutBackend(_ab2_solver, None)
        # GL(2,n) is generated by the two transvections and diag(g, 1)
        # for a primitive root g.
        g = next(g for g in range(1, n)
                 if all(pow(g, (n - 1) // q, n) != 1 for q in _prime_factors(n - 1)))
        return AutBackend(_ab2_solver, [_matrix_map(m, n) for m in
                                        ((1, 1, 0, 1), (1, 0, 1, 1), (g, 0, 0, 1))])
    # Listed at the first case solved: a caller may want only ``outer``.
    elements = cache(lambda: generated_subgroup(G, G.generators, cap=_INNER_CAP)
                     if G.order <= _INNER_CAP else ())
    return AutBackend(partial(_inner_solver, elements), None)


# -- case tables -------------------------------------------------------------


@dataclass
class CaseTable:
    """Per-case solvability for one pair."""

    entries: dict  # i -> CaseSolution | None (None = order-impossible)

    def labels(self, cases) -> frozenset:
        return frozenset().union(*(self.entries[i].labels for i in cases if self.entries.get(i)))

    def decided(self, cases) -> bool:
        return all(self.entries.get(i) is None or self.entries[i].decided for i in cases)

    def to_json(self) -> dict:
        out = {}
        for i in range(6):
            sol = self.entries.get(i)
            if sol is None:
                out[str(i)] = {"possible": False, "labels": []}
            else:
                out[str(i)] = {
                    "possible": True,
                    "labels": sorted(sol.labels),
                    "decided": sol.decided,
                }
        return out


def _case_table(G: Group, pair: tuple, onto: tuple, backend: AutBackend,
                triple: tuple, onto_triple: tuple) -> CaseTable:
    """Entry i solves ``pair`` onto ``case_targets(G, i, *onto)``, or is
    None when an automorphism cannot: the target orders, entries
    ``_CASES[i]`` of the type triple of ``onto``, differ from those of
    ``pair``, the first two of its type triple."""
    return CaseTable({i: backend.solve(G, *pair, *case_targets(G, i, *onto))
                      if (onto_triple[j], onto_triple[k]) == triple[:2] else None
                      for i, (j, k) in enumerate(_CASES)})


def lemma_case_table(G: Group, pair: tuple) -> CaseTable:
    """Solvability of the six inversion patterns for a pair; the case
    orders come from its type triple."""
    triple = pair_metrics(G, *pair).triple
    return _case_table(G, pair, pair, backend_for(G), triple, triple)


# -- verdicts ----------------------------------------------------------------


@dataclass
class RealityVerdict:
    biholo_conjugate: bool | None
    real: bool | None
    strongly_real: bool | None
    tables: tuple
    decided_by: str

    def __post_init__(self):
        if self.real is True and self.biholo_conjugate is False:
            raise InconsistencyError("real structure without conjugate biholomorphism")
        if self.strongly_real is True and self.real is False:
            raise InconsistencyError("strongly real structure that is not real")

    def to_json(self) -> dict:
        return {
            "biholo_conjugate": self.biholo_conjugate,
            "real": self.real,
            "strongly_real": self.strongly_real,
            "decided_by": self.decided_by,
            "cases": [t.to_json() for t in self.tables],
        }


def _settle(*sides) -> bool | None:
    """The verdict rule over (table, cases) sides: one automorphism acts
    on every side, so a label realized on each gives True.  Otherwise an
    undecided entry gives None, and else False.
    """
    if frozenset.intersection(*(table.labels(cases) for table, cases in sides)):
        return True
    if not all(table.decided(cases) for table, cases in sides):
        return None
    return False


def reality_unmixed(G: Group, v: UnmixedStructure) -> RealityVerdict:
    """Reality decisions for a checked unmixed structure.

    The direct route settles the per-pair case tables, joined by a
    shared outer label.  When the two pairs have equal order multisets
    and the direct route fails, the swap route asks for one psi with
    psi sigma_i(P1) ~ iota(P2) and psi sigma_j(P2) ~ iota(P1).  The
    sigmas are words in a and c, so they commute with psi, and
    ``case_targets`` of P2 run over the six sigma-images of iota(P2) up
    to an inner automorphism: the route is settled by the same rule
    over the two cross tables, P1 onto P2 and P2 onto P1.
    """
    backend = backend_for(G)
    p1, p2 = (v.a1, v.c1), (v.a2, v.c2)
    m1, m2 = pair_metrics(G, *p1), pair_metrics(G, *p2)
    t1 = _case_table(G, p1, p1, backend, m1.triple, m1.triple)
    t2 = _case_table(G, p2, p2, backend, m2.triple, m2.triple)
    swap_possible = m1.order_multiset() == m2.order_multiset()

    all_cases = tuple(range(6))
    biholo = _settle((t1, all_cases), (t2, all_cases))
    real = _settle((t1, _REAL_CASES), (t2, _REAL_CASES))
    strong = _settle((t1, (0,)), (t2, (0,)))

    if swap_possible and biholo is False:
        biholo = _settle((_case_table(G, p1, p2, backend, m1.triple, m2.triple), all_cases),
                         (_case_table(G, p2, p1, backend, m2.triple, m1.triple), all_cases))
    if swap_possible and real is False and biholo is not False:
        # A swap-type rho(v) = iota(v) with rho^2(v) = v is not excluded
        # by the per-pair tables.
        real = None

    if biholo is False:
        real = False
    if real is False:
        strong = False
    return RealityVerdict(
        biholo_conjugate=biholo, real=real, strongly_real=strong,
        tables=(t1, t2), decided_by="case-table",
    )


class StructureKeys:
    """Orbits of unmixed structures under the equivalence group, taken
    over keys.

    The group acts on v = (P1, P2) by the six transformations and an
    inner twist on each side independently, by one automorphism phi on
    both sides, and by the swap; phi S(P) = S(phi P) for the side orbit
    S = ``it_orbit``.  So the orbit of v is the union of the products
    S(Q1) x S(Q2) over the keys (min S(Q1), min S(Q2)) by repr in the
    orbit of v's key under the outer automorphism generators and the
    swap (inner automorphisms fix every key).  Each side orbit computed
    fills the memo of side minima.  ``cap`` bounds every side orbit
    ("pair orbit") and every key orbit ("structure orbit").
    """

    def __init__(self, G: Group, cap: int = 10**6):
        self._G = G
        self._cap = cap
        outer = backend_for(G).outer
        if outer is None:
            raise PreconditionError(
                f"the outer automorphisms of {G.descriptor()} are not known")
        self._outer = outer
        self._side_min: dict = {}

    def side(self, pair: tuple) -> tuple:
        m = self._side_min.get(pair)
        if m is None:
            pairs = it_orbit(self._G, pair, self._cap)
            # Element reprs are self-delimiting, so the least pair by repr
            # is the least first element, then the least second beside it.
            x0 = min({x for x, _ in pairs}, key=repr)
            m = (x0, min((y for x, y in pairs if x == x0), key=repr))
            self._side_min.update(dict.fromkeys(pairs, m))
        return m

    def key(self, v: UnmixedStructure) -> tuple:
        return (self.side((v.a1, v.c1)), self.side((v.a2, v.c2)))

    def _images(self, key: tuple) -> list:
        (a1, c1), (a2, c2) = key
        side = self.side
        images = [(side((f(a1), f(c1))), side((f(a2), f(c2)))) for f in self._outer]
        images.append((key[1], key[0]))
        return images

    def orbit(self, v: UnmixedStructure) -> set:
        """The keys of the orbit of v."""
        return orbit([self.key(v)], self._images, self._cap, "structure orbit")


# -- mixed reality ------------------------------------------------------------


def reality_mixed(G: Group, u: MixedQuadruple) -> RealityVerdict:
    """Reality decisions for a mixed structure on a swap product over SL.

    Automorphisms preserve the even-twist subgroup, which is
    H x H x <z> for the central z = (I, I, 2), and split over the two
    components, directly or crossing them (swap type), with each
    component image multiplied by a central sign.  The sign is shared:
    psi(z) = psi(g)^2 for g = (I, I, 1), and the square (y1 y2, y2 y1, 2)
    of an odd-twist element has conjugate components, so psi(z) is
    (s, s, 2) for one sign s.  The components must also agree on one
    outer label.  Over any other group only inner automorphisms are
    tried, and the verdict is never negative.

    On H4(SL(2,p)) both a and c must have twist 2 (``_swap_solver``
    raises PreconditionError otherwise), although ``check_mixed`` also
    passes pairs with a twist-0 generator.
    """
    if isinstance(G, H4) and isinstance(G.inner, SL2Group):
        backend = AutBackend(partial(_swap_solver, backend_for(G.inner).solve), None)
        decided_by = "component-coset"
    else:
        backend = backend_for(G)
        decided_by = "inner-only (incomplete)"
    pair = (u.a, u.c)
    triple = pair_metrics(G, *pair).triple
    table = _case_table(G, pair, pair, backend, triple, triple)
    biholo = _settle((table, range(6)))
    real = _settle((table, _REAL_CASES))
    return RealityVerdict(biholo, real, None, (table,), decided_by=decided_by)


def _swap_solver(solve, G, a, c, u, v) -> CaseSolution | None:
    """One case of a twist-2 pair on H4(SL(2,p)) from the component
    solves ``solve`` of SL(2,p).

    The case is solved by a (route, sign) whose two component solves
    share a label.  A (route, sign) is tried only when every source
    element has the order of its signed target, and a case that none
    passes is impossible (None).  An automorphism keeps twist 2, so a
    twist-0 target, such as a*c in cases 1, 2, 4 and 5, is impossible
    too.

    Precondition: a and c both have twist 2; a pair with a twist-0
    generator raises PreconditionError, even when it passes
    ``check_mixed``.
    """
    if a[2] != 2 or c[2] != 2:
        raise PreconditionError("expected twist-2 structure elements on the swap product")
    if u[2] != 2 or v[2] != 2:
        return None
    H = G.inner
    p = H.p
    order = cache(H.element_order)  # each element recurs across signs and routes
    routes = (((a[0], c[0]), (a[1], c[1])), ((a[1], c[1]), (a[0], c[0])))  # direct, swap type
    targets = ((u[0], v[0]), (u[1], v[1]))
    labels, possible = frozenset(), False
    for signed in (targets, tuple(tuple(mneg(x, p) for x in t) for t in targets)):
        for sources in routes:
            if any(order(x) != order(y) for pair, images in zip(sources, signed)
                   for x, y in zip(pair, images)):
                continue
            possible = True
            ((x1, y1), (x2, y2)), ((s1, t1), (s2, t2)) = sources, signed
            got = solve(H, x1, y1, s1, t1).labels
            if got:
                labels |= got & solve(H, x2, y2, s2, t2).labels
    return CaseSolution(labels, True) if possible else None
