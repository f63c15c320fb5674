"""Deterministic constructors for the explicit generator systems.

Each constructor builds its elements from the defining data (never from
pre-evaluated cycle expansions), re-verifies the asserted orders,
generation certificates and witness identities before returning, and
raises on any mismatch.  Permutation families printed on a 0-based
point set are built 0-based and returned on the usual 1..n points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Group, InconsistencyError, PreconditionError, generates
from .constructions import H4
from .matgroups import (
    SL2Group,
    companion_mat,
    diag_mat,
    e_invariant,
    is_prime,
    is_square,
    mat_order,
    minv,
    mmul,
    mneg,
    mult_order_element,
    sl2_constants,
    split_conjugator,
)
from .perms import (
    AlternatingGroup,
    SymmetricGroup,
    cycle_to_perm,
    identity_perm,
    parity,
    pinv,
    pmul,
)
from .structures import (
    MixedQuadruple,
    UnmixedStructure,
    pair_metrics,
)


@dataclass(frozen=True)
class PairWithWitness:
    """A generating pair plus an optional conjugating witness.

    ``relation`` records what the witness does: "inverts" means
    w a w^-1 = a^-1 and w c w^-1 = c^-1; "skew" means w a w^-1 = a^-1
    and w c w^-1 = a c.
    """

    group: Group
    a: object
    c: object
    witness: object | None = None
    relation: str | None = None


def _expect_type(G: Group, a, c, triple: tuple, what: str) -> None:
    got = pair_metrics(G, a, c).triple
    if got != triple:
        raise InconsistencyError(f"{what}: expected type {triple}, computed {got}")


def _expect_generates(G: Group, a, c, what: str) -> None:
    if not generates(G, a, c):
        raise InconsistencyError(f"{what}: pair does not generate the group")


def _expect_conj(G: Group, w, x, target, what: str) -> None:
    if G.mul(w, G.mul(x, G.inv(w))) != target:
        raise InconsistencyError(f"{what}: witness conjugation identity failed")


# -- symmetric groups ---------------------------------------------------------


def sym_structure(n: int) -> UnmixedStructure:
    """The symmetric-group structure: a = (5,4,1)(2,6),
    c = (1,2,3)(4,5,...,n) against a' = s^-1, c' = t s^2 with t = (1,2),
    s = (1,...,n).  Requires n >= 8 and n = 2 mod 3."""
    if n < 8:
        raise PreconditionError("degree must be >= 8")
    if n % 3 != 2:
        raise PreconditionError(f"degree must be 2 mod 3, got {n} = {n % 3} mod 3")
    G = SymmetricGroup(n)
    a = pmul(cycle_to_perm([4, 3, 0], n), cycle_to_perm([1, 5], n))
    c = pmul(cycle_to_perm([0, 1, 2], n), cycle_to_perm(list(range(3, n)), n))
    s = cycle_to_perm(list(range(n)), n)
    t = cycle_to_perm([0, 1], n)
    a2 = pinv(s)
    c2 = pmul(t, pmul(s, s))
    _expect_type(G, a, c, (6, 3 * (n - 3), math.lcm(3, n - 4)), "first pair")
    ord_c2 = n if n % 2 == 0 else (n * n - 1) // 4
    _expect_type(G, a2, c2, (n, ord_c2, n - 1), "second pair")
    _expect_generates(G, a, c, "first pair")
    _expect_generates(G, a2, c2, "second pair")
    return UnmixedStructure(G, a, c, a2, c2)


# -- alternating groups -------------------------------------------------------


def alt_pair_qp(n: int, p: int, q: int) -> PairWithWitness:
    """Generators of the alternating group of type (q, p(n-q), n-p+2),
    with no simultaneous inverting conjugation in the full symmetric
    group.  Requires n even >= 16, primes 3 <= p <= q <= n-3 and
    n - q nonzero mod p."""
    if n < 16 or n % 2 != 0:
        raise PreconditionError("degree must be even and >= 16")
    if not is_prime(p) or not is_prime(q):
        raise PreconditionError(f"parameters must be prime, got ({p}, {q})")
    if not (3 <= p <= q <= n - 3):
        raise PreconditionError(f"need 3 <= p <= q <= n - 3, got p={p}, q={q}, n={n}")
    if (n - q) % p == 0:
        raise PreconditionError(
            f"n - q = {n - q} must not be divisible by p = {p} "
            "(otherwise the printed second element has smaller order)")
    G = AlternatingGroup(n)
    k = n - q
    a = cycle_to_perm(list(range(q)), n)
    c = pmul(
        cycle_to_perm(list(range(q, q + k - 1)) + [0], n),
        cycle_to_perm([q + k - 1] + list(range(p - 1, 0, -1)), n),
    )
    _expect_type(G, a, c, (q, p * (n - q), n - p + 2), "pair")
    _expect_generates(G, a, c, "pair")
    return PairWithWitness(G, a, c)


def _alt_pair_2_3_84_gamma(n: int) -> tuple:
    m = (n - 4) // 6
    out = identity_perm(n)
    for i in range(1, m + 1):
        out = pmul(out, cycle_to_perm([6 * i - 2, 6 * i + 1], n))
    out = pmul(out, cycle_to_perm([2, 3], n))
    for i in range(1, m + 1):
        out = pmul(out, cycle_to_perm([6 * i - 1, 6 * i + 3], n))
        out = pmul(out, cycle_to_perm([6 * i, 6 * i + 2], n))
    return out


def alt_pair_2_3_84(n: int) -> PairWithWitness:
    """Type (2, 3, 84) generators of the alternating group with an odd
    witness inverting both.  Requires n >= 16, n = 0 mod 4, n = 1 mod 3.
    Printed on points 0..n-1; returned the same way internally."""
    if n < 16:
        raise PreconditionError("degree must be >= 16")
    if n % 4 != 0:
        raise PreconditionError(f"degree must be 0 mod 4, got {n}")
    if n % 3 != 1:
        raise PreconditionError(f"degree must be 1 mod 3, got {n}")
    G = AlternatingGroup(n)
    m = (n - 4) // 6
    gamma = _alt_pair_2_3_84_gamma(n)
    a = cycle_to_perm([0, 1], n)
    for i in range(1, m + 1):
        a = pmul(a, cycle_to_perm([6 * i - 2, 6 * i + 1], n))
    base_cycles = [cycle_to_perm([6 * i - 4, 6 * i - 1], n) for i in range(1, m + 1)]
    for cyc in base_cycles:
        a = pmul(a, cyc)
    for cyc in base_cycles:
        a = pmul(a, pmul(gamma, pmul(cyc, pinv(gamma))))
    a = pmul(a, cycle_to_perm([n - 2, n - 4], n))
    c = identity_perm(n)
    for i in range(1, (n - 1) // 3 + 1):
        c = pmul(c, cycle_to_perm([3 * i - 2, 3 * i - 1, 3 * i], n))
    ca = pmul(c, a)
    if (G.element_order(a), G.element_order(c), G.element_order(ca)) != (2, 3, 84):
        raise InconsistencyError("orders (2, 3, 84) failed")
    _expect_conj(G, gamma, a, pinv(a), "gamma vs a")
    _expect_conj(G, gamma, c, pinv(c), "gamma vs c")
    if parity(gamma) != 1:
        raise InconsistencyError("witness should be odd")
    _expect_generates(G, a, c, "pair")
    return PairWithWitness(G, a, c, witness=gamma, relation="inverts")


def alt_pair_p5p(p: int) -> PairWithWitness:
    """Type (p, 5p, 2p+3) generators of the alternating group on 3p+1
    points with an inverting witness; the witness is odd when p = 1 mod
    4 and even when p = 3 mod 4.  Requires p prime > 5."""
    if not is_prime(p) or p <= 5:
        raise PreconditionError(f"parameter must be a prime > 5, got {p}")
    n = 3 * p + 1
    G = AlternatingGroup(n)
    gamma = cycle_to_perm([p + 1, 2 * p + 1], n)
    for i in range(1, (p - 1) // 2 + 1):
        gamma = pmul(gamma, cycle_to_perm([1 + i, p + 1 - i], n))
    for i in range(1, p):
        gamma = pmul(gamma, cycle_to_perm([p + 1 + i, 3 * p + 1 - i], n))
    a = pmul(
        cycle_to_perm(list(range(1, p + 1)), n),
        pmul(cycle_to_perm(list(range(p + 1, 2 * p + 1)), n),
             cycle_to_perm(list(range(2 * p + 1, 3 * p + 1)), n)),
    )
    c = pmul(
        cycle_to_perm([0] + list(range(p, 1, -1)), n),
        cycle_to_perm([1, p + 1, 3 * p, p + 2, 2 * p + 1], n),
    )
    _expect_type(G, a, c, (p, 5 * p, 2 * p + 3), "pair")
    _expect_conj(G, gamma, a, pinv(a), "gamma vs a")
    _expect_conj(G, gamma, c, pinv(c), "gamma vs c")
    want_parity = 1 if p % 4 == 1 else 0
    if parity(gamma) != want_parity:
        raise InconsistencyError("witness parity does not match the residue rule")
    _expect_generates(G, a, c, "pair")
    return PairWithWitness(G, a, c, witness=gamma, relation="inverts")


def _cycle1(points, n):
    """Cycle on 1-based points, as printed in the source data."""
    return cycle_to_perm([x - 1 for x in points], n)


def alt_pair_skew(k: int) -> PairWithWitness:
    """Type (2k-3, 2k-2, 2k-2) generators of the alternating group on
    2k points with a witness w satisfying w a w^-1 = a^-1 and
    w c w^-1 = a c; no element of the symmetric group inverts both a
    and c or swaps them onto inverses.  Requires 2k >= 16."""
    n = 2 * k
    if n < 16:
        raise PreconditionError("degree must be >= 16")
    G = AlternatingGroup(n)
    a = _cycle1(list(range(1, 2 * k - 2)), n)
    d = pmul(
        _cycle1([1, 2, 3], n),
        pmul(_cycle1([2 * k - 3, 2 * k - 4, 2 * k - 5], n),
             pmul(_cycle1([k - 1, 2 * k - 1], n),
                  _cycle1([2 * k - 2, k - 2, 2 * k, k], n))),
    )
    alpha = _cycle1([2 * k - 2, 2 * k], n)
    for i in range(1, k - 1):
        alpha = pmul(alpha, _cycle1([i, 2 * k - 2 - i], n))
    a_pow = identity_perm(n)
    for _ in range(k - 2):
        a_pow = pmul(a_pow, a)
    c = pmul(d, a_pow)
    gamma = pmul(a, alpha)
    _expect_type(G, a, c, (2 * k - 3, 2 * k - 2, 2 * k - 2), "pair")
    _expect_conj(G, gamma, a, pinv(a), "gamma vs a")
    _expect_conj(G, gamma, c, pmul(a, c), "gamma vs c")
    want_parity = 1 if k % 2 == 0 else 0
    if parity(gamma) != want_parity:
        raise InconsistencyError("witness parity does not match the parity rule")
    _expect_generates(G, a, c, "pair")
    return PairWithWitness(G, a, c, witness=gamma, relation="skew")


# -- special linear groups ----------------------------------------------------


def sl2_pair_46p(p: int) -> PairWithWitness:
    """The (4, 6, p) system of the special linear group."""
    G = SL2Group(p)
    consts = sl2_constants(p)
    a, c = consts["B"], consts["S"]
    _expect_type(G, a, c, (4, 6, p), "pair")
    _expect_generates(G, a, c, "pair")
    return PairWithWitness(G, a, c, witness=consts["W"], relation="inverts")


def split_torus_pair(p: int, lam: int) -> tuple:
    """D(lam) = diag(lam, lam^-1) and its conjugate by the closed-form
    unimodular matrix ``split_conjugator(p, lam)``."""
    D = diag_mat(p, lam)
    g = split_conjugator(p, lam)
    return D, mmul(mmul(g, D, p), minv(g, p), p)


def sl2_pair_qqq_split(p: int, q: int) -> PairWithWitness:
    """Type (q, q, q) system from a split torus: D(lam) and its
    conjugate by the closed-form unimodular matrix.  Requires prime
    q >= 5 dividing p - 1."""
    if not is_prime(q) or q < 5:
        raise PreconditionError(f"q must be a prime >= 5, got {q}")
    G = SL2Group(p)
    D, c = split_torus_pair(p, mult_order_element(p, q))
    _expect_type(G, D, c, (q, q, q), "pair")
    _expect_generates(G, D, c, "pair")
    return PairWithWitness(G, D, c)


def sl2_pair_qqq_nonsplit(p: int, q: int) -> PairWithWitness:
    """Type (q, q, q) system from a nonsplit torus: M(k) and a searched
    conjugate, where k is the trace of a norm-1 element of order q over
    the quadratic extension.  Requires prime q >= 5 dividing p + 1."""
    if not is_prime(q) or q < 5:
        raise PreconditionError(f"q must be a prime >= 5, got {q}")
    if (p + 1) % q != 0:
        raise PreconditionError(f"{q} does not divide p + 1 = {p + 1}")
    G = SL2Group(p)
    k = _nonsplit_trace(p, q)
    x = companion_mat(p, k)
    xi = minv(x, p)
    trivial = (x, mneg(x, p), xi, mneg(xi, p))
    for y in curve_conjugates(p, k):
        if y in trivial:
            continue
        z = mmul(x, y, p)
        if mat_order(z, p) != q:
            raise InconsistencyError("curve point does not give an order-q product")
        if generates(G, x, y):
            _expect_type(G, x, y, (q, q, q), "pair")
            return PairWithWitness(G, x, y)
    raise PreconditionError(
        f"no curve point over F_{p} yields a generating system "
        "(guaranteed to exist for p >= 11)")


def _nonsplit_trace(p: int, q: int) -> int:
    """A k in F_p with companion matrix of exact order q."""
    for k in range(p):
        m = companion_mat(p, k)
        if mat_order(m, p) == q:
            return k
    raise PreconditionError(f"no trace value of order {q} mod {p}")


def curve_conjugates(p: int, k: int):
    """The conjugates g M(k) g^-1 of the companion matrix by the points
    g = (1, s, t, 1 + st) of the trace-k curve, in (s, t) order."""
    x = companion_mat(p, k)
    for s in range(p):
        for t in range(p):
            if _curve_equation_holds(p, k, s, t):
                g = (1, s, t, (1 + s * t) % p)
                yield mmul(mmul(g, x, p), minv(g, p), p)


def _curve_equation_holds(p: int, r: int, s: int, t: int) -> bool:
    val = (
        -(s * s * t * t) + s * s * t * r - s * s - s * t * t * r
        + s * t * r * r - 2 * s * t - t * t + r * r - r - 2
    )
    return val % p == 0


def sl2_pair_555(p: int, coset: str) -> PairWithWitness:
    """Type (5, 5, 5) split system whose simultaneous inversion is
    solvable in exactly the requested determinant coset ("sl" or
    "slw").  Requires p = 3 mod 4 and p = 1 mod 5."""
    if p % 4 != 3:
        raise PreconditionError(f"p must be 3 mod 4, got {p}")
    if p % 5 != 1:
        raise PreconditionError(f"p must be 1 mod 5, got {p}")
    if coset not in ("sl", "slw"):
        raise PreconditionError(f"unknown coset {coset!r}")
    G = SL2Group(p)
    lam0 = mult_order_element(p, 5)
    for e in (1, 2, 3, 4):
        lam = pow(lam0, e, p)
        ev = e_invariant(p, lam)
        # e square <-> inversion solvable in SL; -e square <-> in SL*W.
        want_square = coset == "sl"
        if is_square(p, ev) != want_square:
            continue
        D, c = split_torus_pair(p, lam)
        _expect_type(G, D, c, (5, 5, 5), "pair")
        _expect_generates(G, D, c, "pair")
        return PairWithWitness(G, D, c)
    raise InconsistencyError("no order-5 residue lands in the requested coset")


def sl2_pair_q1q2(p: int, q1: int, q2: int, case: str) -> PairWithWitness:
    """Type (q1, q2, q1*q2) system from two torus elements, conjugating
    the second until the product has the full composite order.  The
    split case needs q1*q2 | p - 1, the nonsplit case q1*q2 | p + 1."""
    if not (is_prime(q1) and is_prime(q2) and 5 <= q1 < q2):
        raise PreconditionError("need primes 5 <= q1 < q2")
    G = SL2Group(p)
    if case == "split":
        if (p - 1) % (q1 * q2) != 0:
            raise PreconditionError(f"{q1 * q2} does not divide p - 1")
        x = diag_mat(p, mult_order_element(p, q1))
        y0 = diag_mat(p, mult_order_element(p, q2))
    elif case == "nonsplit":
        if (p + 1) % (q1 * q2) != 0:
            raise PreconditionError(f"{q1 * q2} does not divide p + 1")
        x = companion_mat(p, _nonsplit_trace(p, q1))
        y0 = companion_mat(p, _nonsplit_trace(p, q2))
    else:
        raise PreconditionError(f"unknown case {case!r}")
    for g in _iter_sl2(p):
        if case == "split" and 0 in g:
            # g carries an eigenline of y0 onto an axis, an eigenline of
            # the diagonal x: <x, y> is then Borel and never all of G.
            continue
        y = mmul(mmul(g, y0, p), minv(g, p), p)
        z = mmul(x, y, p)
        if mat_order(z, p) == q1 * q2 and generates(G, x, y):
            _expect_type(G, x, y, (q1, q2, q1 * q2), "pair")
            return PairWithWitness(G, x, y)
    raise PreconditionError("no conjugating element produces the composite-order product")


def _iter_sl2(p: int):
    """Deterministic sweep of determinant-1 matrices."""
    for a in range(p):
        for b in range(p):
            for c in range(p):
                if a == 0 and b == 0:
                    continue
                if a != 0:
                    # d = (1 + b c) / a
                    d = ((1 + b * c) * pow(a, p - 2, p)) % p
                    yield (a, b, c, d)
                else:
                    # bc = -1 determines c, any d
                    if (b * c) % p != (p - 1):
                        continue
                    for d in range(p):
                        yield (a, b, c, d)


# -- mixed and combined structures -------------------------------------------


def h4_mixed_structure(p: int) -> MixedQuadruple:
    """The mixed structure on the swap product over the special linear
    group: component pairs (B, S) and the (5,5,5) system solvable only
    inside SL; element orders in the index-2 subgroup are 20, 30, 5p.
    Requires p = 3 mod 4 and p = 1 mod 5."""
    if p % 4 != 3:
        raise PreconditionError(f"p must be 3 mod 4, got {p}")
    if p % 5 != 1:
        raise PreconditionError(f"p must be 1 mod 5, got {p}")
    H = SL2Group(p)
    consts = sl2_constants(p)
    second = sl2_pair_555(p, "sl")
    G = H4(H)
    a = (consts["B"], second.a, 2)
    c = (consts["S"], second.c, 2)
    orders = (G.element_order(a), G.element_order(c),
              G.element_order(G.mul(G.inv(a), G.inv(c))))
    if orders != (20, 30, 5 * p):
        raise InconsistencyError(f"expected orders (20, 30, {5 * p}), got {orders}")
    return MixedQuadruple(G, a, c, G.coset_rep)


def alt_reality_structure(p: int) -> UnmixedStructure:
    """The alternating-group structure on 3p+1 points combining the
    skew-witness pair of type (3p-2, 3p-1, 3p-1) with the (p, 5p, 2p+3)
    pair; the type products are coprime.  Requires p > 5 prime with
    p = 1 mod 4, p not in {2, 4} mod 5, p != 5 mod 13, p != 4 mod 11."""
    if not is_prime(p) or p <= 5:
        raise PreconditionError(f"parameter must be a prime > 5, got {p}")
    if p % 4 != 1:
        raise PreconditionError(f"p must be 1 mod 4, got {p}")
    if p % 5 in (2, 4):
        raise PreconditionError(f"p must not be 2 or 4 mod 5, got {p % 5}")
    if p % 13 == 5:
        raise PreconditionError("p must not be 5 mod 13")
    if p % 11 == 4:
        raise PreconditionError("p must not be 4 mod 11")
    n = 3 * p + 1
    k = n // 2
    first = alt_pair_skew(k)
    second = alt_pair_p5p(p)
    G = first.group
    m1 = pair_metrics(G, first.a, first.c)
    m2 = pair_metrics(G, second.a, second.c)
    if m1.triple != (3 * p - 2, 3 * p - 1, 3 * p - 1):
        raise InconsistencyError("first pair type mismatch")
    if m2.triple != (p, 5 * p, 2 * p + 3):
        raise InconsistencyError("second pair type mismatch")
    if math.gcd(m1.nu, m2.nu) != 1:
        raise InconsistencyError("type products are not coprime")
    return UnmixedStructure(G, first.a, first.c, second.a, second.c)


# -- registry -----------------------------------------------------------------

GALLERY = {
    "sym-thm": (sym_structure, ("n",)),
    "alt-type-qp": (alt_pair_qp, ("n", "p", "q")),
    "alt-type-2-3-84": (alt_pair_2_3_84, ("n",)),
    "alt-type-p-5p": (alt_pair_p5p, ("p",)),
    "alt-skew": (alt_pair_skew, ("k",)),
    "sl2-4-6-p": (sl2_pair_46p, ("p",)),
    "sl2-qqq-split": (sl2_pair_qqq_split, ("p", "q")),
    "sl2-qqq-nonsplit": (sl2_pair_qqq_nonsplit, ("p", "q")),
    "sl2-555-coset": (sl2_pair_555, ("p", "coset")),
    "sl2-q1q2": (sl2_pair_q1q2, ("p", "q1", "q2", "case")),
    "h4-mixed": (h4_mixed_structure, ("p",)),
    "alt-reality": (alt_reality_structure, ("p",)),
}
