"""Pair transformations, orbit machinery and reality decisions.

The six standard transformations of generating pairs, componentwise
inversion (the algebraic shadow of complex conjugation), orbits under
inner automorphisms, and the decision procedures for "biholomorphic to
the conjugate surface", "real" and "strongly real".

Automorphisms are described once per backend (``backend_for``): a case
solver that names the outer class of each solution, and the outer maps
that generate Aut(G) with the inner automorphisms.  Symmetric and
alternating groups reduce to conjugator search in the ambient symmetric
group (with the parity of the conjugator as outer label), SL/PSL to the
linear conjugation solver before and after the outer map, rank-2
abelian groups to a single GL(2) solve, and swap products over SL to
componentwise solves with a shared outer-class condition.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial

from .core import (
    CapacityExceeded,
    Group,
    InconsistencyError,
    PreconditionError,
    conjugate,
    generated_subgroup,
    orbit,
)
from .matgroups import (
    PSL2Group,
    SL2Group,
    _prime_factors,
    inv_mod,
    is_prime,
    is_square,
    mmul,
    mneg,
    solve_conjugation_sl2,
)
from .perms import (
    AlternatingGroup,
    DegeneratePair,
    SymmetricGroup,
    conjugator_search,
    parity,
    pmul,
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


def it_orbit(G: Group, pair: tuple, cap: int = 10**6) -> frozenset:
    """Orbit of the pair under inner automorphisms and the six
    transformations.

    The six transformations are words in a and c, so they commute with
    conjugation: sigma_i(g Q g^-1) = g sigma_i(Q) g^-1.  They also
    compose to one another up to an inner automorphism.  So the orbit is
    {sigma_i(Q) : Q in Inn P, i = 0..5}: one walk over the inner orbit
    of P, which emits the six images of each member Q = (x, y), with
    u = (yx)^-1 and w = (xy)^-1: (x, y), (u, x), (y, u), (y, x),
    (w, y), (x, w), as in ``apply_sigma``.

    The inner orbit lies in the orbit, and the set of images is checked
    against ``cap`` each time it grows, so CapacityExceeded("pair orbit",
    cap) is raised exactly when the orbit has more than ``cap`` pairs.
    """
    mul, inv = G.mul, G.inv
    gens = [(g, inv(g)) for g in G.generators]
    out: set = set()

    def images(q):
        x, y = q
        u, w = inv(mul(y, x)), inv(mul(x, y))
        out.update(((x, y), (u, x), (y, u), (y, x), (w, y), (x, w)))
        if len(out) > cap:
            raise CapacityExceeded("pair orbit", cap)
        return [(mul(g, mul(x, gi)), mul(g, mul(y, gi))) for g, gi in gens]

    orbit([pair], images, cap, "pair orbit")
    return frozenset(out)


# -- case patterns ---------------------------------------------------------


def case_targets(G: Group, i: int, a, c) -> tuple:
    """Images (psi(a), psi(c)) required so that psi after sigma_i inverts
    the pair.  Re-derived from the sigma algebra; matches the printed
    case table."""
    if i not in range(6):
        raise PreconditionError(f"case index {i} out of range 0..5")
    ai, ci, ac = G.inv(a), G.inv(c), G.mul(a, c)
    return ((ai, ci), (ci, ac), (ac, ai), (ci, ai), (ac, ci), (ai, ac))[i]


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


def _sym_solver(G, a, c, u, v) -> CaseSolution:
    try:
        sols = conjugator_search(a, u, c, v)
    except DegeneratePair:
        return CaseSolution(frozenset(["inner"]), True)
    except CapacityExceeded:
        return CaseSolution(frozenset(), False)
    return CaseSolution(frozenset(["inner"] if sols else []), True)


def _alt_solver(G, a, c, u, v) -> CaseSolution:
    # A_n is normal in S_n: an odd conjugator is an outer automorphism.
    try:
        sols = conjugator_search(a, u, c, v)
    except DegeneratePair:
        return CaseSolution(frozenset(["even", "odd"]), True)
    except CapacityExceeded:
        return CaseSolution(frozenset(), False)
    return CaseSolution(frozenset("odd" if parity(g) else "even" for g in sols), True)


def _linear_solver(lifts, outer, G, a, c, u, v) -> CaseSolution:
    """Label "sl" for an inner psi, "slw" for psi = inner after ``outer``.

    ``lifts(x)`` are the matrices of determinant 1 that stand for x.
    """
    p = G.p
    return CaseSolution(frozenset(
        label for label, (x, y) in (("sl", (a, c)), ("slw", (outer(a), outer(c))))
        if any(solve_conjugation_sl2(p, x, su, y, sv, "sl") is not None
               for su in lifts(u) for sv in lifts(v))), True)


def _ab2_solver(G, a, c, u, v) -> CaseSolution:
    n = G.n
    det = (a[0] * c[1] - a[1] * c[0]) % n
    if math.gcd(det, n) != 1:
        return CaseSolution(frozenset(), False)
    # M [a c] = [u v]; the generating pair is a basis so M is unique.
    dinv = pow(det, -1, n)
    ia = ((c[1] * dinv) % n, (-a[1] * dinv) % n)
    ic = ((-c[0] * dinv) % n, (a[0] * dinv) % n)
    m00 = (u[0] * ia[0] + v[0] * ic[0]) % n
    m01 = (u[0] * ia[1] + v[0] * ic[1]) % n
    m10 = (u[1] * ia[0] + v[1] * ic[0]) % n
    m11 = (u[1] * ia[1] + v[1] * ic[1]) % n
    invertible = math.gcd((m00 * m11 - m01 * m10) % n, n) == 1
    return CaseSolution(frozenset(["gl2"] if invertible else []), True)


# Largest group the inner-only backend sweeps for a conjugator.
_INNER_CAP = 20000


def _inner_solver(G, a, c, u, v) -> CaseSolution:
    # Exhausting inner automorphisms proves nothing about outer ones.
    if G.order <= _INNER_CAP:
        for g in generated_subgroup(G, G.generators, cap=_INNER_CAP):
            if conjugate(G, a, g) == u and conjugate(G, c, g) == v:
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
    - Anything else: inner automorphisms only, every case undecided.
    """
    if isinstance(G, (SymmetricGroup, AlternatingGroup)) and G.n == 6:
        raise PreconditionError("S_6 and A_6 have an exceptional outer automorphism")
    if isinstance(G, SymmetricGroup):
        return AutBackend(_sym_solver, [])
    if isinstance(G, AlternatingGroup):
        s = tuple([1, 0] + list(range(2, G.n)))
        return AutBackend(_alt_solver, [lambda x: pmul(s, pmul(x, s))])
    if isinstance(G, (SL2Group, PSL2Group)):
        p = G.p
        nu = next(x for x in range(2, p) if not is_square(p, x))
        d, di = (nu, 0, 0, 1), (inv_mod(nu, p), 0, 0, 1)

        def outer(x):
            return G.mul(mmul(d, x, p), di)

        lifts = (lambda x: (x,)) if isinstance(G, SL2Group) else (lambda x: (x, mneg(x, p)))
        return AutBackend(partial(_linear_solver, lifts, outer), [outer])
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
    return AutBackend(_inner_solver, None)


# -- case tables -------------------------------------------------------------


@dataclass
class CaseTable:
    """Per-case solvability for one pair."""

    entries: dict  # i -> CaseSolution | None (None = order-impossible)
    commuting: bool

    def labels(self, cases) -> frozenset:
        out = set()
        for i in cases:
            sol = self.entries.get(i)
            if sol is not None:
                out |= sol.labels
        return frozenset(out)

    def decided(self, cases) -> bool:
        return all(
            self.entries.get(i) is None or self.entries[i].decided
            for i in cases
        )

    def real_cases(self) -> tuple:
        """Cases whose square fixes the pair: 0 and 3 always; the others
        only when the pair commutes."""
        return tuple(range(6)) if self.commuting else (0, 3)

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


def _case_table(G: Group, pair: tuple, onto: tuple, backend: AutBackend) -> CaseTable:
    """Entry i solves ``pair`` onto ``case_targets(G, i, *onto)``."""
    a, c = pair
    orders = {x: G.element_order(x) for x in (a, c)}
    entries: dict = {}
    for i in range(6):
        u, v = case_targets(G, i, *onto)
        # An automorphism preserves element orders.
        if G.element_order(u) != orders[a] or G.element_order(v) != orders[c]:
            entries[i] = None
            continue
        entries[i] = backend.solve(G, a, c, u, v)
    return CaseTable(entries=entries, commuting=G.commutes(a, c))


def lemma_case_table(G: Group, pair: tuple) -> CaseTable:
    """Solvability of the six inversion patterns for a pair."""
    return _case_table(G, pair, pair, backend_for(G))


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
    t1 = _case_table(G, p1, p1, backend)
    t2 = _case_table(G, p2, p2, backend)
    swap_possible = (pair_metrics(G, *p1).order_multiset()
                     == pair_metrics(G, *p2).order_multiset())

    all_cases = tuple(range(6))
    biholo = _settle((t1, all_cases), (t2, all_cases))
    real = _settle((t1, t1.real_cases()), (t2, t2.real_cases()))
    strong = _settle((t1, (0,)), (t2, (0,)))

    if swap_possible and biholo is False:
        biholo = _settle((_case_table(G, p1, p2, backend), all_cases),
                         (_case_table(G, p2, p1, backend), all_cases))
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
    """
    from .constructions import H4

    if not isinstance(G, H4) or not isinstance(G.inner, SL2Group):
        table = lemma_case_table(G, (u.a, u.c))
        decided_by = "inner-only (incomplete)"
    else:
        table = _swap_case_table(G, u)
        decided_by = "component-coset"
    biholo = _settle((table, range(6)))
    real = _settle((table, table.real_cases()))
    return RealityVerdict(biholo, real, None, (table,), decided_by=decided_by)


def _swap_case_table(G, u: MixedQuadruple) -> CaseTable:
    """Case table of a twist-2 pair on H4(SL(2,p)) from component solves.

    Case 0 or 3 is solved by a (route, sign) whose two component solves
    share a label.  A (route, sign) is tried only when every source
    element has the order of its signed target, and a case that none
    passes is impossible.  Cases 1, 2, 4 and 5 send a twist-2 element
    to the twist-0 element a*c, which no automorphism does.
    """
    H = G.inner
    p = H.p
    solve = backend_for(H).solve
    order = cache(H.element_order)  # each element recurs across cases and signs
    (a1, a2, ta), (c1, c2, tc) = u.a, u.c
    if ta != 2 or tc != 2:
        raise PreconditionError("expected twist-2 structure elements on the swap product")
    routes = (((a1, c1), (a2, c2)), ((a2, c2), (a1, c1)))  # direct, swap type
    entries: dict = dict.fromkeys(range(6))
    for case in (0, 3):
        targets = (case_targets(H, case, a1, c1), case_targets(H, case, a2, c2))
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
        if possible:
            entries[case] = CaseSolution(labels, True)
    return CaseTable(entries=entries, commuting=G.commutes(u.a, u.c))
