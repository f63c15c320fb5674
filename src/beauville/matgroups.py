"""2x2 matrix groups over a prime field.

Matrices are 4-tuples (a, b, c, d) with entries reduced to [0, p).  The
special linear context keeps determinant 1; the sign-extended coset
space used by the conjugation solver allows determinant -1 as well.
Projective elements are canonicalized by a fixed sign rule: the first
nonzero entry lies in 1..(p-1)/2.
"""

from __future__ import annotations

from .core import (
    CapacityExceeded,
    Group,
    InconsistencyError,
    PreconditionError,
    orbit,
)

Mat2 = tuple  # (a, b, c, d) row-major


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise PreconditionError(f"{p} is not an odd prime")


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


def mat_id(p: int) -> Mat2:
    return (1, 0, 0, 1)


def mmul(x: Mat2, y: Mat2, p: int) -> Mat2:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)


def mdet(x: Mat2, p: int) -> int:
    return (x[0] * x[3] - x[1] * x[2]) % p


def minv(x: Mat2, p: int) -> Mat2:
    det = mdet(x, p)
    di = inv_mod(det, p)
    a, b, c, d = x
    return ((d * di) % p, (-b * di) % p, (-c * di) % p, (a * di) % p)


def mneg(x: Mat2, p: int) -> Mat2:
    return tuple((-e) % p for e in x)


def mtrace(x: Mat2, p: int) -> int:
    return (x[0] + x[3]) % p


def mat_order(x: Mat2, p: int) -> int:
    cap = p * (p * p - 1)
    e = mat_id(p)
    acc = x
    k = 1
    while acc != e:
        acc = mmul(acc, x, p)
        k += 1
        if k > cap:
            raise InconsistencyError("matrix order exceeds group order")
    return k


def psl_canon(x: Mat2, p: int) -> Mat2:
    """Representative of {x, -x} whose first nonzero entry is in 1..(p-1)/2."""
    for e in x:
        if e != 0:
            if e > (p - 1) // 2:
                return mneg(x, p)
            return x
    raise PreconditionError("zero matrix has no projective representative")


def is_square(p: int, x: int) -> bool:
    """Euler criterion; x must be nonzero mod p."""
    x %= p
    if x == 0:
        raise PreconditionError("square class of 0 is undefined")
    return pow(x, (p - 1) // 2, p) == 1


def sqrt_mod(p: int, x: int) -> int:
    """A square root of x mod p; caller guarantees x is a QR."""
    x %= p
    if p % 4 == 3:
        r = pow(x, (p + 1) // 4, p)
    else:
        r = next(t for t in range(p) if (t * t) % p == x)
    if (r * r) % p != x:
        raise InconsistencyError("sqrt_mod postcondition failed")
    return r


def mult_order_element(p: int, q: int) -> int:
    """Smallest residue of exact multiplicative order q in F_p^*."""
    _check_odd_prime(p)
    if (p - 1) % q != 0:
        raise PreconditionError(f"no element of order {q} in F_{p}^*: {q} does not divide {p - 1}")
    for lam in range(2, p):
        if pow(lam, q, p) == 1 and all(pow(lam, q // r, p) != 1 for r in _prime_factors(q)):
            return lam
    raise InconsistencyError(f"order-{q} element not found in F_{p}^*")


def _prime_factors(n: int) -> list:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def sl2_constants(p: int) -> dict:
    """The four reference matrices with B^4 = S^6 = W^2 = 1 and T = B*S."""
    _check_odd_prime(p)
    B = (0, 1, p - 1, 0)
    S = (0, p - 1, 1, 1)
    T = (1, 1, 0, 1)
    W = (0, 1, 1, 0)
    if mmul(B, S, p) != T:
        raise InconsistencyError("T != B*S")
    return {"B": B, "S": S, "T": T, "W": W}


def diag_mat(p: int, lam: int) -> Mat2:
    lam %= p
    return (lam, 0, 0, inv_mod(lam, p))


def companion_mat(p: int, k: int) -> Mat2:
    return (0, 1, p - 1, k % p)


def e_invariant(p: int, lam: int) -> int:
    """(2 - l - 1/l) / (l + 1/l - l^2 - 1/l^2) in F_p.

    The denominator vanishes only when ord(lam) < 5; that is reported
    as a precondition violation.
    """
    _check_odd_prime(p)
    lam %= p
    li = inv_mod(lam, p)
    num = (2 - lam - li) % p
    den = (lam + li - lam * lam - li * li) % p
    if den == 0:
        raise PreconditionError("denominator of the invariant vanishes (ord(lambda) < 5?)")
    return (num * inv_mod(den, p)) % p


def split_conjugator(p: int, lam: int) -> Mat2:
    """The determinant-1 matrix [[1, b], [1, d]] pairing with D(lam)."""
    lam %= p
    li = inv_mod(lam, p)
    den = (lam * lam + li * li - 2) % p
    if den == 0:
        raise PreconditionError("lambda^2 + lambda^-2 - 2 = 0 (ord(lambda) too small)")
    di = inv_mod(den, p)
    b = ((lam + li - lam * lam - li * li) * di) % p
    d = ((lam + li - 2) * di) % p
    g = (1, b, 1, d)
    if mdet(g, p) != 1:
        raise InconsistencyError("split conjugator determinant != 1")
    return g


# -- simultaneous conjugation over SL / SL*W ------------------------------


def _nullspace_mod_p(rows: list, p: int, ncols: int) -> list:
    """Basis of the kernel of the row system, by Gaussian elimination."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] % p != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = inv_mod(mat[r][col], p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] % p != 0:
                f = mat[i][col]
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-mat[i][fc]) % p
        basis.append(vec)
    return basis


def _commutation_rows(a: Mat2, aT: Mat2, p: int) -> list:
    """Rows of the linear system X*a - aT*X = 0 in X = (x11,x12,x21,x22)."""
    a11, a12, a21, a22 = a
    t11, t12, t21, t22 = aT
    # (X*a)[i][j] - (aT*X)[i][j] = 0
    return [
        [a11 - t11, a21, -t12, 0],
        [a12, a22 - t11, 0, -t12],
        [-t21, 0, a11 - t22, a21],
        [0, -t21, a12, a22 - t22],
    ]


def _iter_projective(basis: list, p: int):
    """One representative per projective point of the span."""
    k = len(basis)
    if k == 0:
        return
    for lead in range(k):
        tail = k - lead - 1
        coords = [0] * lead + [1]
        if tail == 0:
            yield coords
            continue
        counters = [0] * tail
        while True:
            yield coords + counters
            i = tail - 1
            while i >= 0:
                counters[i] += 1
                if counters[i] < p:
                    break
                counters[i] = 0
                i -= 1
            if i < 0:
                break


def gl2_conjugators(p: int, a: Mat2, aT: Mat2, c: Mat2, cT: Mat2):
    """The invertible X with X a = aT X and X c = cT X, one per
    projective point of the solution space of that linear system.

    Conjugation by X is an automorphism of SL(2,p); it is inner exactly
    when det X is a square, since scaling X by t multiplies det X by t^2.
    """
    _check_odd_prime(p)
    rows = _commutation_rows(a, aT, p) + _commutation_rows(c, cT, p)
    basis = _nullspace_mod_p(rows, p, 4)
    for coords in _iter_projective(basis, p):
        x = tuple(sum(coeff * vec[i] for coeff, vec in zip(coords, basis)) % p for i in range(4))
        if mdet(x, p) == 0:
            continue
        if mmul(x, a, p) != mmul(aT, x, p) or mmul(x, c, p) != mmul(cT, x, p):
            raise InconsistencyError("conjugation solve postcondition failed")
        yield x


def solve_conjugation_sl2(p: int, a: Mat2, aT: Mat2, c: Mat2, cT: Mat2, coset: str):
    """A matrix g in the requested coset with g a g^-1 = aT, g c g^-1 = cT.

    The coset is "sl" (det 1) or "slw" (det -1) inside the sign-extended
    group.  Scales the first of the ``gl2_conjugators`` that can reach
    the requested determinant; returns None when none can (a normal
    outcome, not an error).
    """
    if coset not in ("sl", "slw"):
        raise PreconditionError(f"unknown coset {coset!r}")
    want = 1 if coset == "sl" else p - 1
    for x in gl2_conjugators(p, a, aT, c, cT):
        # Scaling by t multiplies det by t^2: want/det must be a square.
        ratio = (want * inv_mod(mdet(x, p), p)) % p
        if is_square(p, ratio):
            t = sqrt_mod(p, ratio)
            return tuple((t * e) % p for e in x)
    return None


def conjugation_cosets(p: int, a: Mat2, aT: Mat2, c: Mat2, cT: Mat2) -> dict:
    """Solvability per coset: {"sl": g or None, "slw": g or None}."""
    return {
        "sl": solve_conjugation_sl2(p, a, aT, c, cT, "sl"),
        "slw": solve_conjugation_sl2(p, a, aT, c, cT, "slw"),
    }


# -- generation from the trace triple ----------------------------------------


def generates_sl2(p: int, a: Mat2, c: Mat2) -> bool:
    """True iff a and c generate SL(2,p), read off the trace triple
    x = tr a, y = tr c, z = tr ac (Macbeath, "Generators of the linear
    fractional groups", 1969).

    By Dickson (Huppert, Endliche Gruppen I, II.8.27) a proper subgroup
    H = <a, c> is of one of three kinds, each with an exact test:
    - reducible: a and c share an eigenvector over the algebraic closure,
      so H is triangular: solvable with a p-group as derived subgroup,
      which SL(2,p) is not.  This holds iff tr[a, c] = 2, and the Fricke
      identity gives tr[a, c] = x^2 + y^2 + z^2 - xyz - 2.
    - dihedral: H/{+-I} is dihedral, in the normalizer of a torus T.  If
      H is irreducible, two of a, c, ac lie outside T, where every trace
      is 0; conversely two elements of trace 0 are involutions mod +-I,
      and generate a dihedral image.
    - exceptional: H/{+-I} is A4, S4 or A5, so |H| <= 120 = |2.A5| and
      a, c, ac have projective order at most 5 (g^k = +-I, k <= 5).
      Past +-I, which only reducible pairs reach, that is a trace t with
      t (t^2 - 1)(t^2 - 2)(t^4 - 3t^2 + 1) = 0 (eigenvalues of order 3,
      4, 5, 6, 8, 10); unipotents have projective order p.  A closure
      capped at 120 decides: past 120 elements only SL(2,p) is left, and
      below it the pair generates iff |SL(2,p)| is reached (p = 3, 5).
    Any other triple generates.

    PSL(2,p) elements are det-1 lifts whose images generate PSL(2,p) iff
    they generate SL(2,p): SL(2,p) is perfect for p >= 5, and SL(2,3)
    has no subgroup of order 12, so none has a subgroup of index 2.
    """
    x, y, z = mtrace(a, p), mtrace(c, p), mtrace(mmul(a, c, p), p)
    if (x * x + y * y + z * z - x * y * z - 4) % p == 0 or (x, y, z).count(0) >= 2:
        return False
    if all(t * (t * t - 1) * (t * t - 2) * (t ** 4 - 3 * t * t + 1) % p == 0 for t in (x, y, z)):
        try:
            size = len(orbit([mat_id(p)], lambda g: (mmul(g, a, p), mmul(g, c, p)),
                             120, "exceptional subgroup"))
        except CapacityExceeded:
            return True
        return size == p * (p * p - 1)
    return True


# -- conjugacy classes --------------------------------------------------------


def sl2_class_label(p: int, x: Mat2):
    """Conjugate in SL(2,p) iff equal labels (Dornhoff, Part A, section 38).

    +-I label themselves, and an element of trace t != +-2 is labelled
    by t.  Each trace s = +-2 has two more classes: writing
    x - sI = [[a, b], [c, -a]], they are told apart by the square class
    of b, or of -c when b = 0.
    """
    t = mtrace(x, p)
    if t not in (2, p - 2):
        return t
    if x in (mat_id(p), mneg(mat_id(p), p)):
        return x
    b, c = x[1], x[2]
    return t, is_square(p, b if b else -c)


# -- group contexts --------------------------------------------------------


class Mat2Group(Group):
    """Determinant-1 matrices over F_p, or their images under ``project``:
    what SL(2,p) and PSL(2,p) share."""

    generation_certificate = "trace-triple"

    def __init__(self, p: int):
        _check_odd_prime(p)
        self.p = p
        consts = sl2_constants(p)
        self._gens = [self.project(consts["B"]), self.project(consts["S"])]

    def project(self, x: Mat2) -> Mat2:
        """Image of a determinant-1 matrix in the group."""
        return x

    @property
    def identity(self):
        return mat_id(self.p)

    @property
    def generators(self):
        return list(self._gens)

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == 4
            and all(isinstance(e, int) and 0 <= e < self.p for e in x)
            and mdet(x, self.p) == 1
            and self.project(x) == x
        )

    def generates_pair(self, a, c) -> bool:
        return generates_sl2(self.p, a, c)

    def conjugation(self, g):
        """x -> g x g^-1: both products in one expression, then ``project``."""
        p, project = self.p, self.project
        a, b, c, d = g
        e, f, h, k = minv(g, p)

        def conj(x):
            x0, x1, x2, x3 = x
            m0, m1, m2, m3 = a * x0 + b * x2, a * x1 + b * x3, c * x0 + d * x2, c * x1 + d * x3
            return project(((m0 * e + m1 * h) % p, (m0 * f + m1 * k) % p,
                            (m2 * e + m3 * h) % p, (m2 * f + m3 * k) % p))
        return conj

    def descriptor(self) -> dict:
        return {"kind": self.kind, "p": self.p}


class SL2Group(Mat2Group):
    kind = "sl2"

    def mul(self, x, y):
        return mmul(x, y, self.p)

    def inv(self, x):
        return minv(x, self.p)

    @property
    def order(self) -> int:
        return self.p * (self.p * self.p - 1)

    def element_order(self, g) -> int:
        return mat_order(g, self.p)

    def class_label(self, x):
        return sl2_class_label(self.p, x)


class PSL2Group(Mat2Group):
    kind = "psl2"

    def project(self, x: Mat2) -> Mat2:
        return psl_canon(x, self.p)

    def mul(self, x, y):
        return psl_canon(mmul(x, y, self.p), self.p)

    def inv(self, x):
        return psl_canon(minv(x, self.p), self.p)

    @property
    def order(self) -> int:
        return self.p * (self.p * self.p - 1) // 2

    def class_label(self, x) -> frozenset:
        # x and -x are one element here: conjugate iff x ~ +-y in SL(2,p).
        return frozenset((sl2_class_label(self.p, x), sl2_class_label(self.p, mneg(x, self.p))))
