"""Pair transformations, orbit machinery and reality decisions.

The six standard transformations of generating pairs, componentwise
inversion (the algebraic shadow of complex conjugation), orbits under
inner automorphisms, and the decision procedures for "biholomorphic to
the conjugate surface", "real" and "strongly real".

Automorphism solving is backend-specific: symmetric and alternating
groups reduce to conjugator search in the ambient symmetric group (with
the parity of the conjugator as outer label), SL/PSL reduce to the
linear conjugation solver over the two determinant cosets, rank-2
abelian groups to a single GL(2) solve, and swap products over SL to
componentwise coset solves with a shared-coset compatibility condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

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
    mneg,
    psl_canon,
    solve_conjugation_sl2,
)
from .perms import (
    AlternatingGroup,
    DegeneratePair,
    SymmetricGroup,
    conjugator_search,
    parity,
    pinv,
    pmul,
)
from .structures import MixedQuadruple, UnmixedStructure, pair_metrics


# -- sigma operations and iota ------------------------------------------


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


def iota(x):
    """Componentwise inversion of a pair carrier."""
    if isinstance(x, UnmixedStructure) or isinstance(x, MixedQuadruple):
        return x.inverted()
    raise PreconditionError(f"iota undefined for {type(x).__name__}")


def _conjugates(mul, gens: list, pair: tuple) -> list:
    """Conjugates g a g^-1, g c g^-1 of a pair by each (g, g^-1) in ``gens``."""
    a, c = pair
    return [(mul(g, mul(a, gi)), mul(g, mul(c, gi))) for g, gi in gens]


def it_orbit(G: Group, pair: tuple, cap: int = 10**6) -> frozenset:
    """Orbit of the pair under inner automorphisms and the six
    transformations.

    The six transformations are words in a and c, so they commute with
    conjugation and compose to one another up to an inner automorphism:
    the orbit is the inner-automorphism orbit of the six images of the
    pair, and the search takes only conjugation steps from them.
    """
    gens = [(g, G.inv(g)) for g in G.generators]
    seeds = [apply_sigma(G, i, pair) for i in range(6)]
    return frozenset(orbit(seeds, partial(_conjugates, G.mul, gens), cap, "pair orbit"))


# -- case patterns ---------------------------------------------------------


def case_targets(G: Group, i: int, a, c) -> tuple:
    """Images (psi(a), psi(c)) required so that psi after sigma_i inverts
    the pair.  Re-derived from the sigma algebra; matches the printed
    case table."""
    inv, mul = G.inv, G.mul
    ac = mul(a, c)
    table = {
        0: (inv(a), inv(c)),
        1: (inv(c), ac),
        2: (ac, inv(a)),
        3: (inv(c), inv(a)),
        4: (ac, inv(c)),
        5: (inv(a), ac),
    }
    if i not in table:
        raise PreconditionError(f"case index {i} out of range 0..5")
    return table[i]


# -- automorphism backends --------------------------------------------------


@dataclass
class CaseSolution:
    """Solvability of one case pattern: the set of outer labels realized
    by solutions, a sample witness per label, and decidability."""

    labels: frozenset
    witnesses: dict
    decided: bool  # False when the backend could not settle the case


@dataclass
class AutBackend:
    """How automorphisms of a context are enumerated or solved.

    ``complete`` records whether the backend covers all of Aut(G); an
    incomplete backend can certify existence but never absence.
    """

    kind: str
    complete: bool
    _solver: object

    def solve(self, G: Group, a, c, u, v) -> CaseSolution:
        """Labels of automorphisms psi with psi(a) = u, psi(c) = v."""
        return self._solver(G, a, c, u, v)


def _sym_solver(G, a, c, u, v) -> CaseSolution:
    try:
        sols = conjugator_search(a, u, c, v, ambient="sym")
    except DegeneratePair:
        return CaseSolution(frozenset(["inner"]), {"inner": G.identity}, True)
    except CapacityExceeded:
        return CaseSolution(frozenset(), {}, False)
    if not sols:
        return CaseSolution(frozenset(), {}, True)
    return CaseSolution(frozenset(["inner"]), {"inner": sols[0]}, True)


def _alt_solver(G, a, c, u, v) -> CaseSolution:
    try:
        sols = conjugator_search(a, u, c, v, ambient="sym")
    except DegeneratePair:
        return CaseSolution(frozenset(["even", "odd"]),
                            {"even": G.identity}, True)
    except CapacityExceeded:
        return CaseSolution(frozenset(), {}, False)
    labels = {}
    for g in sols:
        name = "even" if parity(g) == 0 else "odd"
        labels.setdefault(name, g)
    return CaseSolution(frozenset(labels), labels, True)


def _sl2_solver(G, a, c, u, v) -> CaseSolution:
    p = G.p
    labels = {}
    for coset in ("sl", "slw"):
        g = solve_conjugation_sl2(p, a, u, c, v, coset)
        if g is not None:
            labels[coset] = g
    return CaseSolution(frozenset(labels), labels, True)


def _psl2_solver(G, a, c, u, v) -> CaseSolution:
    # Projective targets lift to the matrix group up to sign.
    p = G.p
    labels = {}
    for su in (u, mneg(u, p)):
        for sv in (v, mneg(v, p)):
            for coset in ("sl", "slw"):
                if coset in labels:
                    continue
                g = solve_conjugation_sl2(p, a, su, c, sv, coset)
                if g is not None:
                    labels[coset] = g
    return CaseSolution(frozenset(labels), labels, True)


def _ab2_solver(G, a, c, u, v) -> CaseSolution:
    import math

    n = G.n
    det = (a[0] * c[1] - a[1] * c[0]) % n
    if math.gcd(det, n) != 1:
        return CaseSolution(frozenset(), {}, False)
    # M [a c] = [u v]; the generating pair is a basis so M is unique.
    dinv = pow(det, -1, n)
    ia = ((c[1] * dinv) % n, (-a[1] * dinv) % n)
    ic = ((-c[0] * dinv) % n, (a[0] * dinv) % n)
    m00 = (u[0] * ia[0] + v[0] * ic[0]) % n
    m01 = (u[0] * ia[1] + v[0] * ic[1]) % n
    m10 = (u[1] * ia[0] + v[1] * ic[0]) % n
    m11 = (u[1] * ia[1] + v[1] * ic[1]) % n
    if math.gcd((m00 * m11 - m01 * m10) % n, n) != 1:
        return CaseSolution(frozenset(), {}, True)
    return CaseSolution(frozenset(["gl2"]), {"gl2": (m00, m01, m10, m11)}, True)


# Largest group the inner-only backend sweeps for a conjugator.
_INNER_CAP = 20000


def _inner_solver(G, a, c, u, v) -> CaseSolution:
    if G.order > _INNER_CAP:
        return CaseSolution(frozenset(), {}, False)
    for g in sorted(generated_subgroup(G, G.generators, cap=_INNER_CAP), key=repr):
        if conjugate(G, a, g) == u and conjugate(G, c, g) == v:
            return CaseSolution(frozenset(["inner"]), {"inner": g}, False)
    # Exhausting inner automorphisms proves nothing about outer ones.
    return CaseSolution(frozenset(), {}, False)


def backend_for(G: Group) -> AutBackend:
    if isinstance(G, SymmetricGroup):
        if G.n == 6:
            raise PreconditionError("degree-6 symmetric group has an exceptional outer automorphism")
        return AutBackend("sym-conjugation", True, _sym_solver)
    if isinstance(G, AlternatingGroup):
        if G.n == 6:
            raise PreconditionError("degree-6 alternating group has an exceptional outer automorphism")
        return AutBackend("sym-conjugation", True, _alt_solver)
    if isinstance(G, SL2Group):
        return AutBackend("slpm-conjugation", True, _sl2_solver)
    if isinstance(G, PSL2Group):
        return AutBackend("slpm-conjugation", True, _psl2_solver)
    if G.kind == "ab2":
        return AutBackend("gl2-action", True, _ab2_solver)
    return AutBackend("inner-only", False, _inner_solver)


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


def lemma_case_table(G: Group, pair: tuple, backend: AutBackend | None = None) -> CaseTable:
    """Solvability of the six inversion patterns for a pair."""
    if backend is None:
        backend = backend_for(G)
    a, c = pair
    orders = {x: G.element_order(x) for x in (a, c)}
    entries: dict = {}
    for i in range(6):
        u, v = case_targets(G, i, a, c)
        # An automorphism preserves element orders.
        if G.element_order(u) != orders[a] or G.element_order(v) != orders[c]:
            entries[i] = None
            continue
        entries[i] = backend.solve(G, a, c, u, v)
    return CaseTable(entries=entries, commuting=G.commutes(a, c))


# -- verdicts ----------------------------------------------------------------


@dataclass
class RealityVerdict:
    biholo_conjugate: bool | None
    real: bool | None
    strongly_real: bool | None
    tables: tuple
    decided_by: str
    witnesses: dict = field(default_factory=dict)

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


def _common_label(t1: CaseTable, cases1, t2: CaseTable, cases2):
    """(found, witness_info): a label realized for some case on each side."""
    for i in cases1:
        s1 = t1.entries.get(i)
        if s1 is None or not s1.labels:
            continue
        for j in cases2:
            s2 = t2.entries.get(j)
            if s2 is None:
                continue
            common = s1.labels & s2.labels
            if common:
                label = sorted(common)[0]
                return True, {
                    "case_pair": (i, j),
                    "label": label,
                    "conjugators": (s1.witnesses.get(label), s2.witnesses.get(label)),
                }
    return False, None


def reality_unmixed(G: Group, v: UnmixedStructure,
                    backend: AutBackend | None = None,
                    orbit_cap: int = 10**6) -> RealityVerdict:
    """Reality decisions for a checked unmixed structure.

    When the two pairs have distinct order multisets, the pair-swap
    operation is excluded and the verdict reduces to per-pair case
    tables joined by outer-label compatibility.  Equal multisets fall
    back to an orbit search for the conjugate question: is the key of
    iota(v) in the key orbit of v (``StructureKeys``)?  ``orbit_cap``
    bounds each side orbit and the key orbit, not the 4-tuples of the
    orbit; past it the question stays undecided.  Whatever the case
    tables prove positively still stands.
    """
    if backend is None:
        backend = backend_for(G)
    m1 = pair_metrics(G, v.a1, v.c1)
    m2 = pair_metrics(G, v.a2, v.c2)
    t1 = lemma_case_table(G, (v.a1, v.c1), backend)
    t2 = lemma_case_table(G, (v.a2, v.c2), backend)
    swap_possible = m1.order_multiset() == m2.order_multiset()

    all_cases = tuple(range(6))
    found_biholo, wit_b = _common_label(t1, all_cases, t2, all_cases)
    found_real, wit_r = _common_label(t1, t1.real_cases(), t2, t2.real_cases())
    found_strong, wit_s = _common_label(t1, (0,), t2, (0,))

    def settle(found: bool, cases1, cases2) -> bool | None:
        if found:
            return True
        if not backend.complete:
            return None
        if not (t1.decided(cases1) and t2.decided(cases2)):
            return None
        return False

    biholo = settle(found_biholo, all_cases, all_cases)
    real = settle(found_real, t1.real_cases(), t2.real_cases())
    strong = settle(found_strong, (0,), (0,))
    decided_by = "case-table"

    if swap_possible and biholo is False:
        # The swap route could still produce an equivalence; try a full
        # orbit search when affordable, otherwise leave undecided.
        try:
            keys = StructureKeys(G, orbit_cap)
            orbit_keys = keys.orbit(v)
            biholo = keys.key(v.inverted()) in orbit_keys
            decided_by = "orbit-search"
            if biholo is False:
                real = False
        except (CapacityExceeded, PreconditionError):
            biholo = None
            real = None if real is False else real
    if swap_possible and real is False and biholo is not False:
        # A swap-type rho(v) = iota(v) with rho^2(v) = v is not excluded
        # by the per-pair tables.
        real = None

    if biholo is False:
        real = False
    if real is False:
        strong = False
    verdict = RealityVerdict(
        biholo_conjugate=biholo, real=real, strongly_real=strong,
        tables=(t1, t2), decided_by=decided_by,
        witnesses={k: w for k, w in (("biholo", wit_b), ("real", wit_r),
                                     ("strongly_real", wit_s)) if w},
    )
    return verdict


def aut_generator_maps(G: Group) -> list:
    """Maps element -> element generating Aut(G), for orbit searches.

    Supported backends only; raises otherwise (orbit reductions must
    not silently degrade to an incomplete automorphism set).
    """
    outer = _outer_generator_maps(G)
    return [lambda x, g=g: conjugate(G, x, g) for g in G.generators] + outer


def _outer_generator_maps(G: Group) -> list:
    """Maps that generate Aut(G) together with the inner automorphisms."""
    if isinstance(G, SymmetricGroup):
        if G.n == 6:
            raise PreconditionError("degree-6 symmetric group unsupported")
        return []
    if isinstance(G, AlternatingGroup):
        if G.n == 6:
            raise PreconditionError("degree-6 alternating group unsupported")
        swap = tuple([1, 0] + list(range(2, G.n)))
        return [lambda x, s=swap: pmul(s, pmul(x, pinv(s)))]
    if isinstance(G, SL2Group):
        w = (0, 1, 1, 0)
        return [lambda x, w=w: G.mul(w, G.mul(x, (0, 1, 1, 0)))]
    if isinstance(G, PSL2Group):
        w = (0, 1, 1, 0)
        return [lambda x, w=w: psl_canon(G.mul(w, G.mul(x, w)), G.p)]
    if G.kind == "ab2":
        from .matgroups import is_prime

        n = G.n
        if not is_prime(n):
            raise PreconditionError(
                "automorphism generators implemented for prime moduli only")
        prim = _primitive_root(n)
        mats = [(1, 1, 0, 1), (1, 0, 1, 1), (prim, 0, 0, 1)]
        return [lambda x, m=m, n=n: (
            (m[0] * x[0] + m[1] * x[1]) % n,
            (m[2] * x[0] + m[3] * x[1]) % n,
        ) for m in mats]
    raise PreconditionError(f"no automorphism backend for context kind {G.kind!r}")


def _primitive_root(p: int) -> int:
    from .matgroups import _prime_factors

    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise InconsistencyError(f"no primitive root mod {p}")


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
        self._outer = _outer_generator_maps(G)
        self._side_min: dict = {}

    def side(self, pair: tuple) -> tuple:
        m = self._side_min.get(pair)
        if m is None:
            pairs = it_orbit(self._G, pair, self._cap)
            m = min(pairs, key=repr)
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

    Automorphisms preserve the even-twist subgroup and split over the
    two components up to a swap and central signs; case patterns whose
    targets leave the twist-2 coset are structurally impossible.  The
    verdict reduces to per-component coset solves that must agree on
    one determinant coset.
    """
    from .constructions import H4

    if not isinstance(G, H4) or not isinstance(G.inner, SL2Group):
        table = _generic_mixed_table(G, u)
        found = any(sol is not None and sol.labels for sol in table.entries.values())
        biholo = True if found else None
        real = biholo if biholo else None
        return RealityVerdict(biholo, real, None, (table,),
                              decided_by="inner-only (incomplete)")

    p = G.inner.p
    a1, a2, ta = u.a
    c1, c2, tc = u.c
    if ta != 2 or tc != 2:
        raise PreconditionError("expected twist-2 structure elements on the swap product")
    entries: dict = {}
    witnesses = {}
    for case in (0, 3):
        if case == 0:
            first = ((a1, c1), (_sl_inv(a1, p), _sl_inv(c1, p)))
            second = ((a2, c2), (_sl_inv(a2, p), _sl_inv(c2, p)))
        else:
            # psi(a) = c^-1, psi(c) = a^-1 componentwise
            first = ((a1, c1), (_sl_inv(c1, p), _sl_inv(a1, p)))
            second = ((a2, c2), (_sl_inv(c2, p), _sl_inv(a2, p)))
        labels = {}
        direct_possible = _orders_match(G.inner, first) and _orders_match(G.inner, second)
        if direct_possible:
            for coset in _shared_coset_labels(p, first, second):
                labels[coset] = coset
        # Swap-type automorphisms cross the components.
        cross_first = ((a2, c2), first[1])
        cross_second = ((a1, c1), second[1])
        cross_possible = (_orders_match(G.inner, cross_first)
                          and _orders_match(G.inner, cross_second))
        if cross_possible:
            for coset in _shared_coset_labels(p, cross_first, cross_second):
                labels.setdefault(coset, coset)
        if not direct_possible and not cross_possible:
            entries[case] = None
            continue
        entries[case] = CaseSolution(frozenset(labels), dict(labels), True)
        if labels:
            witnesses[f"case-{case}"] = sorted(labels)
    for case in (1, 2, 4, 5):
        # Targets involve the twist-0 element a*c: impossible images for
        # twist-2 elements under subgroup-preserving automorphisms.
        entries[case] = None
    table = CaseTable(entries=entries, commuting=G.commutes(u.a, u.c))
    solvable = [c for c in (0, 3) if entries[c] is not None and entries[c].labels]
    biholo = bool(solvable)
    real = biholo  # cases 0 and 3 square to the identity transformation
    return RealityVerdict(biholo, real, None, (table,),
                          decided_by="component-coset", witnesses=witnesses)


def _sl_inv(x, p):
    return (x[3] % p, (-x[1]) % p, (-x[2]) % p, x[0] % p)


def _orders_match(H: Group, spec) -> bool:
    (x1, x2), (u1, u2) = spec
    return (H.element_order(x1) == H.element_order(u1)
            and H.element_order(x2) == H.element_order(u2))


def _component_solvable(p, spec, coset, sign) -> bool:
    (x1, x2), (u1, u2) = spec
    su1 = u1 if sign == 1 else mneg(u1, p)
    su2 = u2 if sign == 1 else mneg(u2, p)
    return solve_conjugation_sl2(p, x1, su1, x2, su2, coset) is not None


def _shared_coset_labels(p, first, second) -> list:
    """Cosets admitting solutions for both components with one shared
    central sign (the sign comes from a single central involution, so
    it cannot differ between the components)."""
    out = []
    for coset in ("sl", "slw"):
        if any(
            _component_solvable(p, first, coset, sign)
            and _component_solvable(p, second, coset, sign)
            for sign in (1, -1)
        ):
            out.append(coset)
    return out


def _generic_mixed_table(G: Group, u: MixedQuadruple) -> CaseTable:
    backend = backend_for(G)
    return lemma_case_table(G, (u.a, u.c), backend)
