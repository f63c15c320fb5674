"""Structure data and condition checkers.

Type triples, the hyperbolicity measure, sigma sets (the union of
conjugates of the cyclic groups generated by a, c and ac), genus of the
associated covering curve, and the unmixed/mixed verdict machinery with
its strategy ladder (order coprimality, then an exact test: class labels
where the backend has them, conjugacy-class sets elsewhere).

Sigma sets meet on prime-order classes.  A sigma set is a union of
conjugacy classes and is closed under powers.  So if z != 1 lies in two
of them, so does z^(m/q) for m = ord z and a prime q | m: the two meet
outside 1 iff they share an element of prime order.  On S_n the
elements of order q in <x>, m = ord x, are the powers of x^(m/q); each
has the cycle type q^k, with k the sum of L/q over the cycles of length
L with v_q(L) = v_q(m), i.e. L not dividing m/q.  Elements of prime
order are conjugate iff their (q, k) agree, so the sets are disjoint
iff the words of the two pairs share no (q, k), read off the cycle
lengths (``prime_labels``).  The same holds on A_n.  Its split classes
have distinct odd parts, 1-cycles included, so a split class of order
q is a q-cycle with q = n or n - 1.  The q - 1 generators x^(jm/q) of
<x^(m/q)> are conjugate to x^(m/q) under an element of S_n of sign
(j / q) (Zolotarev's lemma), and that Legendre symbol takes both signs:
<x^(m/q)> meets both halves.  So two words with the same (q, k) share
an A_n class as well.  A failure's witness is the least by ``repr`` of
the ``matching_powers`` of a1, c1 and a1c1; on S_n and A_n x^k has the
label of x^gcd(k, ord x), or in a split class a half picked by a Jacobi
symbol, so no power is labelled there either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .constructions import H4
from .core import (
    CapacityExceeded,
    DEFAULT_CLASS_CAP,
    DEFAULT_CLOSURE_CAP,
    Group,
    InconsistencyError,
    PreconditionError,
    UndecidedError,
    conjugacy_class,
    generated_subgroup,
    generates,
    orbit,
)
from .matgroups import SL2Group, gl2_conjugators, mneg


# -- pair metrics -----------------------------------------------------------


@dataclass(frozen=True)
class PairMetrics:
    """Type triple (ord a, ord c, ord ac) with derived classification."""

    r: int
    s: int
    t: int
    mu: Fraction
    nu: int
    normalized: bool
    shape: str  # strict | critical | subcritical
    hyperbolic: bool

    @property
    def triple(self) -> tuple:
        return (self.r, self.s, self.t)

    def order_multiset(self) -> tuple:
        return tuple(sorted((self.r, self.s, self.t)))


def pair_metrics(G: Group, a, c) -> PairMetrics:
    r = G.element_order(a)
    s = G.element_order(c)
    t = G.element_order(G.mul(a, c))
    mu = Fraction(1, r) + Fraction(1, s) + Fraction(1, t)
    distinct = len({r, s, t})
    shape = "strict" if distinct == 3 else ("critical" if distinct == 1 else "subcritical")
    # Normalized means ord(a) <= ord(b) <= ord(c) with b = (ca)^-1, and
    # ord(b) equals ord(ac).
    return PairMetrics(
        r=r, s=s, t=t, mu=mu, nu=r * s * t,
        normalized=(r <= t <= s),
        shape=shape,
        hyperbolic=(mu < 1),
    )


def genus(G: Group, a, c) -> int:
    """Genus of the covering curve attached to the pair, 1 + (1-mu)/2 * |G|.

    The value is guaranteed integral for genuine data; a fractional
    result signals an order-computation bug and raises.
    """
    m = pair_metrics(G, a, c)
    val = 1 + (1 - m.mu) * G.order / 2
    if val.denominator != 1:
        raise InconsistencyError(f"genus formula gave non-integer {val}")
    return int(val)


# -- sigma sets -------------------------------------------------------------


def _nontrivial_powers(G: Group, x) -> list:
    """x, x^2, ... up to the last power before the identity."""
    out, acc = [], x
    while acc != G.identity:
        out.append(acc)
        acc = G.mul(acc, x)
    return out


def _powers(G: Group, a, c) -> list:
    """The powers of a, c and ac; their conjugacy classes make up the sigma set."""
    G.check_element(a)
    G.check_element(c)
    return [G.identity] + [y for x in (a, c, G.mul(a, c)) for y in _nontrivial_powers(G, x)]


def sigma_set(G: Group, a, c, class_cap: int = DEFAULT_CLASS_CAP) -> frozenset:
    """The sigma set of (a, c) as elements, by conjugacy-class search."""
    elements: set = set()
    for y in _powers(G, a, c):
        if y not in elements:
            elements |= conjugacy_class(G, y, cap=class_cap)
    return frozenset(elements)


def sigma_naive(G: Group, a, c, elements) -> frozenset:
    """Literal double-loop definition; test oracle for small groups."""
    out = set()
    inv = G.inv
    mul = G.mul
    for g in elements:
        gi = inv(g)
        for x in (a, c, mul(a, c)):
            acc = G.identity
            out.add(acc)
            while True:
                acc = mul(acc, x)
                if acc == G.identity:
                    break
                out.add(mul(g, mul(acc, gi)))
    return frozenset(out)


# -- structures and reports -------------------------------------------------


@dataclass(frozen=True, slots=True, init=False)
class UnmixedStructure:
    group: Group
    a1: object
    c1: object
    a2: object
    c2: object

    def __init__(self, group: Group, a1, c1, a2, c2):
        # One slot write per field, where the generated __init__ of a frozen
        # dataclass pays one object.__setattr__; searches build thousands.
        _set_group(self, group)
        _set_a1(self, a1)
        _set_c1(self, c1)
        _set_a2(self, a2)
        _set_c2(self, c2)

    def pairs(self):
        return ((self.a1, self.c1), (self.a2, self.c2))

    def inverted(self) -> "UnmixedStructure":
        inv = self.group.inv
        return UnmixedStructure(self.group, inv(self.a1), inv(self.c1),
                                inv(self.a2), inv(self.c2))


_set_group, _set_a1, _set_c1, _set_a2, _set_c2 = (
    UnmixedStructure.__dict__[name].__set__ for name in ("group", "a1", "c1", "a2", "c2"))


@dataclass(frozen=True)
class MixedQuadruple:
    """A mixed structure (a, c, g) on a swap product H4(H); the index-2
    subgroup is its even-twist subgroup."""

    group: H4
    a: object
    c: object
    g: object

    def inverted(self) -> "MixedQuadruple":
        inv = self.group.inv
        return MixedQuadruple(self.group, inv(self.a), inv(self.c), self.g)


@dataclass
class ConditionResult:
    id: str
    ok: bool | None
    strategy: str | None = None
    detail: str | None = None

    def to_json(self) -> dict:
        return {"id": self.id, "ok": self.ok, "strategy": self.strategy,
                "detail": self.detail}


@dataclass
class CheckReport:
    verdict: str  # pass | fail | undecided
    conditions: list = field(default_factory=list)
    witness: object | None = None

    def to_json(self, element_formatter=None) -> dict:
        witness = self.witness
        if witness is not None and element_formatter is not None:
            witness = element_formatter(witness)
        return {
            "verdict": self.verdict,
            "conditions": [c.to_json() for c in self.conditions],
            "witness": witness,
        }

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _condition(report: CheckReport, cid: str, ok, strategy=None, detail=None):
    report.conditions.append(ConditionResult(cid, ok, strategy, detail))
    return ok


def _settle(report: CheckReport):
    oks = [c.ok for c in report.conditions]
    if any(ok is False for ok in oks):
        report.verdict = "fail"
    elif any(ok is None for ok in oks):
        report.verdict = "undecided"
    else:
        report.verdict = "pass"
    return report


# -- sigma intersection strategies ------------------------------------------


def _intersection_exact(G: Group, p1, p2, class_cap):
    """(disjoint, witness) for the sigma sets of two pairs.

    With ``class_label``, each sigma set is a union of classes closed
    under powers, so two of them meet outside the identity only if they
    share an element of prime order.  Words whose ``prime_labels`` are
    disjoint therefore give disjoint sets, with no power formed.  Else
    the witness is the least by ``repr`` of the ``matching_powers`` of
    a1, c1 and a1c1: their nontrivial powers that carry the label of a
    power of a2, c2 or a2c2.  If there are none, the sets are disjoint
    after all; on S_n and A_n, where prime labels are exact, there always
    are.  Other backends intersect the class-search sets, capped at
    ``class_cap``.
    """
    label = getattr(G, "class_label", None)
    if label is None:
        common = sigma_set(G, *p1, class_cap) & sigma_set(G, *p2, class_cap)
        extra = common - {G.identity}
        return (False, min(extra, key=repr)) if extra else (True, None)
    for x in (*p2, *p1):
        G.check_element(x)
    (a1, c1), (a2, c2) = p1, p2
    ours, theirs = (a1, c1, G.mul(a1, c1)), (a2, c2, G.mul(a2, c2))
    if set().union(*map(G.prime_labels, ours)).isdisjoint(
            set().union(*map(G.prime_labels, theirs))):
        return True, None
    labels = set().union(*map(G.power_labels, theirs))
    labels.discard(label(G.identity))
    extra = [y for x in ours for y in G.matching_powers(x, labels)]
    return (False, _least_by_repr(extra)) if extra else (True, None)


def _least_by_repr(elements: list):
    """``min(elements, key=repr)`` for tuples of ints of one length, the
    elements of every backend with ``class_label``.

    Such reprs compare as the tuples of the entries' decimal strings,
    since the separators ", " and ")" sort below every digit.  So the
    least is found entry by entry, from one str per surviving element.
    """
    for i in range(len(elements[0])):
        if len(elements) == 1:
            break
        tokens = [str(y[i]) for y in elements]
        least = min(tokens)
        elements = [y for y, token in zip(elements, tokens) if token == least]
    return elements[0]


def _require_sigma_strategy(strategy: str) -> None:
    if strategy not in ("auto", "coprime", "exact"):
        raise PreconditionError(f"unknown sigma strategy {strategy!r}")


def try_sigma_disjoint(G: Group, p1, p2, strategy: str = "auto",
                       class_cap: int = DEFAULT_CLASS_CAP, *, _metrics=None):
    """(verdict, strategy, witness): verdict None means inconclusive.

    ``auto`` runs cheapest-first: coprimality of the nu values is a
    sufficient criterion ("coprime-nu"), then the exact test decides
    everything it can afford ("exact").  ``coprime`` and ``exact`` run
    one rung each.  ``check_unmixed`` hands in the ``pair_metrics`` of
    both pairs, which it has already computed, as ``_metrics``.
    """
    _require_sigma_strategy(strategy)
    if strategy != "exact":
        m1, m2 = _metrics or (pair_metrics(G, *p1), pair_metrics(G, *p2))
        if math.gcd(m1.nu, m2.nu) == 1:
            return True, "coprime-nu", None
        if strategy == "coprime":
            return None, "coprime-nu", None
    try:
        ok, witness = _intersection_exact(G, p1, p2, class_cap)
        return ok, "exact", witness
    except CapacityExceeded:
        return None, "exact", None


# -- checkers ---------------------------------------------------------------


def check_unmixed(G: Group, v: UnmixedStructure, strategy: str = "auto",
                  class_cap: int = DEFAULT_CLASS_CAP,
                  closure_cap: int = DEFAULT_CLOSURE_CAP) -> CheckReport:
    """Verify the unmixed conditions: both pairs generate, sigma sets
    meet only in the identity; hyperbolicity is recorded for both pairs."""
    _require_sigma_strategy(strategy)
    report = CheckReport(verdict="undecided")
    gen_strategy = G.generation_certificate
    for idx, (a, c) in enumerate(v.pairs(), start=1):
        try:
            ok = generates(G, a, c, cap=closure_cap)
        except UndecidedError as exc:
            ok = None
            _condition(report, f"generates-{idx}", None, gen_strategy, str(exc))
            continue
        _condition(report, f"generates-{idx}", ok, gen_strategy,
                   None if ok else "pair generates a proper subgroup")
    metrics = [pair_metrics(G, a, c) for (a, c) in v.pairs()]
    for idx, m in enumerate(metrics, start=1):
        _condition(report, f"hyperbolic-{idx}", m.hyperbolic, "order-arithmetic",
                   f"mu = {m.mu}")
    if any(c.ok is False for c in report.conditions):
        return _settle(report)
    verdict, used, witness = try_sigma_disjoint(G, (v.a1, v.c1), (v.a2, v.c2),
                                                strategy=strategy, class_cap=class_cap,
                                                _metrics=metrics)
    if verdict is None:
        detail = "all affordable strategies inconclusive"
    elif verdict:
        detail = None
    else:
        detail = "sigma sets meet outside the identity"
    _condition(report, "sigma-intersection", verdict, used, detail)
    report.witness = witness
    return _settle(report)


def check_mixed(G: Group, M: MixedQuadruple,
                class_cap: int = DEFAULT_CLASS_CAP,
                subgroup_cap: int = 10**6) -> CheckReport:
    """Verify the four mixed conditions on a swap product, over its
    even-twist subgroup.

    An abelian index-2 subgroup fails outright (no mixed structure has
    one).  Condition 3 runs over the nontrivial coset: the squares of
    its elements must avoid the sigma set; condition 4 intersects the
    sigma set with its image under conjugation by g.  H4(SL(2,p)),
    p >= 5, is decided by class labels; other groups by the closure of
    (a, c), capped at ``subgroup_cap`` elements.
    """
    if not isinstance(G, H4):
        raise PreconditionError("mixed structures are checked on swap products H4(H)")
    in_sub, order = G.in_index2, G.index2_order
    if in_sub(M.g):
        raise PreconditionError("coset representative g lies in the index-2 subgroup")
    if isinstance(G.inner, SL2Group) and G.inner.p >= 5:
        return _mixed_by_labels(G, M)
    report = CheckReport(verdict="undecided")

    if order > subgroup_cap:
        _condition(report, "generates-subgroup", None, "closure",
                   f"index-2 subgroup has {order} elements, over the subgroup "
                   f"cap {subgroup_cap}")
        return _settle(report)
    # With a and c in the subgroup, their closure lies in it and stays
    # under the cap; it is also the element list of the coset scan.
    elements = None
    if in_sub(M.a) and in_sub(M.c):
        elements = generated_subgroup(G, [M.a, M.c], cap=subgroup_cap)
    gen_ok = elements is not None and len(elements) == order
    _condition(report, "generates-subgroup", gen_ok, "closure",
               None if gen_ok else "pair does not generate the index-2 subgroup")
    if not gen_ok:
        return _settle(report)

    # A commuting generating pair makes the subgroup abelian, which no
    # mixed structure allows.
    abelian = G.commutes(M.a, M.c)
    _condition(report, "nonabelian-subgroup", not abelian, "commutator",
               "index-2 subgroup is abelian; no mixed structure exists on it"
               if abelian else None)
    if abelian:
        return _settle(report)

    # Sigma of (a, c) inside the subgroup: conjugation by a and c
    # generates its whole conjugation action.
    mul = G.mul
    conjugators = [(x, G.inv(x)) for x in (M.a, M.c)]

    def conjugates(y):
        return [mul(h, mul(y, hi)) for h, hi in conjugators]

    sigma: set = set()
    try:
        for y in _powers(G, M.a, M.c):
            if y not in sigma:
                sigma |= orbit([y], conjugates, class_cap, "conjugacy class")
    except CapacityExceeded:
        _condition(report, "coset-squares", None, "exact",
                   "sigma set over class cap")
        _condition(report, "conjugate-sigma-intersection", None, "exact", None)
        return _settle(report)

    g = M.g
    bad = None
    for gamma in elements:
        x = mul(g, gamma)
        if mul(x, x) in sigma:
            bad = gamma
            break
    _condition(report, "coset-squares", bad is None, "coset-scan",
               None if bad is None else "some (g*gamma)^2 lies in the sigma set")
    if bad is not None:
        report.witness = bad
        return _settle(report)

    conj_sigma = frozenset(map(G.conjugation(g), sigma))
    common = (sigma & conj_sigma) - {G.identity}
    _condition(report, "conjugate-sigma-intersection", not common, "exact",
               None if not common else "sigma meets its g-conjugate nontrivially")
    if common:
        report.witness = min(common, key=repr)
    return _settle(report)


def _mixed_by_labels(G: H4, M: MixedQuadruple) -> CheckReport:
    """The mixed conditions on H4(H), H = SL(2,p) with p >= 5, from H.

    The subgroup is H x H x <z>, z = (I, I, 2) central (README, "Notes
    on strategy").  H is perfect with {+-I} its only proper nontrivial
    normal subgroup, so by Goursat's lemma <a, c> is the subgroup iff
    both components generate H, no automorphism sends (a1, c1) to
    (+-a2, +-c2), and the twists are even, not both 0.  A class is a
    label triple (label(x), label(y), t).  The odd-twist squares are
    the (w, w', 2) with w ~ w', and conjugation by g swaps the labels.
    """
    H = G.inner
    p, label = H.p, H.class_label
    report = CheckReport(verdict="undecided")
    powers = _powers(G, M.a, M.c)
    (a1, a2, ta), (c1, c2, tc) = M.a, M.c
    gen_ok = ({ta, tc} in ({2}, {0, 2})
              and H.generates_pair(a1, c1) and H.generates_pair(a2, c2))
    if gen_ok:
        # Aut(H) = PGL(2,p): conjugation by some X in GL(2,p).
        gen_ok = not any(next(gl2_conjugators(p, a1, u, c1, v), None)
                         for u in (a2, mneg(a2, p)) for v in (c2, mneg(c2, p)))
    _condition(report, "generates-subgroup", gen_ok, "goursat",
               None if gen_ok else "pair does not generate the index-2 subgroup")
    if not gen_ok:
        return _settle(report)

    # The subgroup contains H x H, which is not abelian.
    _condition(report, "nonabelian-subgroup", True, "goursat")

    triples = [(label(x), label(y), t) for x, y, t in powers]
    sigma = set(triples)
    square = next((y for y, (k1, k2, t) in zip(powers, triples) if k1 == k2 and t == 2),
                  None)
    _condition(report, "coset-squares", square is None, "class-labels",
               None if square is None else "some (g*gamma)^2 lies in the sigma set")
    if square is not None:
        # gamma = g^-1 (y1, I, 1) gives (g gamma)^2 = (y1, y1, 2).
        report.witness = G.mul(G.inv(M.g), (square[0], H.identity, 1))
        return _settle(report)

    common = [y for y, (k1, k2, t) in zip(powers[1:], triples[1:]) if (k2, k1, t) in sigma]
    _condition(report, "conjugate-sigma-intersection", not common, "class-labels",
               None if not common else "sigma meets its g-conjugate nontrivially")
    if common:
        report.witness = min(common, key=repr)
    return _settle(report)
