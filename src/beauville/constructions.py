"""Builders for the group families the toolkit operates on.

Covers rank-2 abelian groups, cyclic groups and direct products,
metacyclic families (dihedral, dicyclic), planar-rotation semidirect
products (the wallpaper quotients), the swap-action semidirect product
H4 = (H x H) : Z/4 with its index-2 subgroup, and a fixed, explicitly
partial catalogue of small nonabelian groups.
"""

from __future__ import annotations

import math

from .core import Group, PreconditionError
from .matgroups import SL2Group, PSL2Group, is_prime
from .perms import AlternatingGroup, SymmetricGroup


class Abelian2(Group):
    """(Z/n)^2, written additively; elements are coordinate pairs."""

    kind = "ab2"
    generation_certificate = "determinant"

    def __init__(self, n: int):
        if n < 2:
            raise PreconditionError("modulus must be >= 2")
        self.n = n

    @property
    def identity(self):
        return (0, 0)

    def mul(self, x, y):
        return ((x[0] + y[0]) % self.n, (x[1] + y[1]) % self.n)

    def inv(self, x):
        return ((-x[0]) % self.n, (-x[1]) % self.n)

    @property
    def order(self) -> int:
        return self.n * self.n

    @property
    def generators(self):
        return [(1, 0), (0, 1)]

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple) and len(x) == 2
            and all(isinstance(e, int) and 0 <= e < self.n for e in x)
        )

    def element_order(self, g) -> int:
        return math.lcm(self.n // math.gcd(g[0], self.n), self.n // math.gcd(g[1], self.n))

    def generates_pair(self, a, c) -> bool:
        return math.gcd(a[0] * c[1] - a[1] * c[0], self.n) == 1

    def descriptor(self) -> dict:
        return {"kind": "ab2", "n": self.n}


class Cyclic(Group):
    kind = "cyc"

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("order must be >= 1")
        self.n = n

    @property
    def identity(self):
        return 0

    def mul(self, x, y):
        return (x + y) % self.n

    def inv(self, x):
        return (-x) % self.n

    @property
    def order(self) -> int:
        return self.n

    @property
    def generators(self):
        return [1 % self.n] if self.n > 1 else []

    def contains(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.n

    def element_order(self, g) -> int:
        return self.n // math.gcd(g, self.n)

    def descriptor(self) -> dict:
        return {"kind": "cyc", "n": self.n}


class DirectProduct(Group):
    kind = "prod"

    def __init__(self, factors: list):
        if not factors:
            raise PreconditionError("empty factor list")
        self.factors = list(factors)

    @property
    def identity(self):
        return tuple(f.identity for f in self.factors)

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def inv(self, x):
        return tuple(f.inv(a) for f, a in zip(self.factors, x))

    @property
    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.order
        return out

    @property
    def generators(self):
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.generators:
                gens.append(tuple(g if j == i else h.identity for j, h in enumerate(self.factors)))
        return gens

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple) and len(x) == len(self.factors)
            and all(f.contains(a) for f, a in zip(self.factors, x))
        )

    def element_order(self, g) -> int:
        return math.lcm(*(f.element_order(a) for f, a in zip(self.factors, g)))

    def descriptor(self) -> dict:
        return {"kind": "prod", "factors": [f.descriptor() for f in self.factors]}


class Metacyclic(Group):
    """<a, x | a^m, x a x^-1 = a^r, x^2 = a^s> with r^2 = 1, r*s = s mod m.

    Elements are (j, e) meaning a^j x^e.  Dihedral groups use (r, s) =
    (-1, 0); dicyclic groups of order 4n use m = 2n, (r, s) = (-1, n).
    """

    kind = "metacyclic"

    def __init__(self, m: int, r: int, s: int, name: str | None = None):
        if m < 1:
            raise PreconditionError("m must be >= 1")
        r %= m
        s %= m
        if (r * r) % m != 1 % m or (r * s) % m != s % m:
            raise PreconditionError("parameters do not define a group")
        self.m = m
        self.r = r
        self.s = s
        self.name = name

    @property
    def identity(self):
        return (0, 0)

    def mul(self, x, y):
        j1, e1 = x
        j2, e2 = y
        if e1 == 0:
            return ((j1 + j2) % self.m, e2)
        j = (j1 + self.r * j2) % self.m
        if e2 == 0:
            return (j, 1)
        return ((j + self.s) % self.m, 0)

    def inv(self, x):
        j, e = x
        if e == 0:
            return ((-j) % self.m, 0)
        # (a^j x)^-1 = x^-1 a^-j = a^(s... ) solved via x^-1 = a^(-s) x
        return ((self.r * (-j - self.s)) % self.m, 1)

    @property
    def order(self) -> int:
        return 2 * self.m

    @property
    def generators(self):
        return [(1 % self.m, 0), (0, 1)]

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple) and len(x) == 2
            and isinstance(x[0], int) and 0 <= x[0] < self.m and x[1] in (0, 1)
        )

    def descriptor(self) -> dict:
        if self.name:
            return {"kind": self.name[0], "n": self.name[1]}
        return {"kind": "metacyclic", "m": self.m, "r": self.r, "s": self.s}


def dihedral(n: int) -> Metacyclic:
    if n < 2:
        raise PreconditionError("dihedral parameter must be >= 2")
    return Metacyclic(n, -1, 0, name=("dih", n))


def dicyclic(n: int) -> Metacyclic:
    """Order 4n; n = 2 is the quaternion group."""
    if n < 2:
        raise PreconditionError("dicyclic parameter must be >= 2")
    return Metacyclic(2 * n, -1, n, name=("dic", n))


_WALLPAPER_ACTION = {
    # column images of e1, e2 under the rotation of order d
    3: ((0, 1), (-1, -1)),
    4: ((0, 1), (-1, 0)),
    6: ((1, -1), (1, 0)),
}


class Wallpaper(Group):
    """(Z/m)^2 : Z/d with the planar rotation action, d in {3, 4, 6}.

    These are the finite quotients of the three euclidean triangle
    groups.  Elements are (x, y, j): the translation part and the
    rotation exponent.
    """

    kind = "wallpaper"

    def __init__(self, d: int, m: int):
        if d not in (3, 4, 6):
            raise PreconditionError("rotation order must be 3, 4 or 6")
        if m < 2:
            raise PreconditionError("translation modulus must be >= 2")
        self.d = d
        self.m = m
        col1, col2 = _WALLPAPER_ACTION[d]
        mat = (col1[0] % m, col2[0] % m, col1[1] % m, col2[1] % m)  # row-major
        self._powers = [(1 % m, 0, 0, 1 % m)]
        for _ in range(d - 1):
            a, b, c, e = self._powers[-1]
            p_, q_, r_, s_ = mat
            self._powers.append((
                (a * p_ + b * r_) % m, (a * q_ + b * s_) % m,
                (c * p_ + e * r_) % m, (c * q_ + e * s_) % m,
            ))

    def _act(self, j: int, v: tuple) -> tuple:
        a, b, c, e = self._powers[j % self.d]
        return ((a * v[0] + b * v[1]) % self.m, (c * v[0] + e * v[1]) % self.m)

    @property
    def identity(self):
        return (0, 0, 0)

    def mul(self, x, y):
        vx = (x[0], x[1])
        wy = self._act(x[2], (y[0], y[1]))
        return ((vx[0] + wy[0]) % self.m, (vx[1] + wy[1]) % self.m, (x[2] + y[2]) % self.d)

    def inv(self, x):
        v = self._act((-x[2]) % self.d, (x[0], x[1]))
        return ((-v[0]) % self.m, (-v[1]) % self.m, (-x[2]) % self.d)

    @property
    def order(self) -> int:
        return self.d * self.m * self.m

    @property
    def generators(self):
        return [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple) and len(x) == 3
            and all(isinstance(e, int) for e in x)
            and 0 <= x[0] < self.m and 0 <= x[1] < self.m and 0 <= x[2] < self.d
        )

    def descriptor(self) -> dict:
        return {"kind": "wallpaper", "d": self.d, "m": self.m}


def wallpaper_quotient(d: int, m: int, printed_relation: bool = False) -> Wallpaper:
    """Finite quotient (Z/m)^2 : Z/d of the euclidean triangle group.

    The d = 4 action defaults to the geometric quarter turn
    (x -> y, y -> x^-1).  The ``printed_relation`` variant
    (x -> y, y -> y^-1) is not an automorphism of (Z/m)^2 (its matrix
    is singular), so it cannot define a semidirect product; requesting
    it raises with that explanation.
    """
    if printed_relation:
        if d != 4:
            raise PreconditionError("printed-relation variant only differs for d = 4")
        raise PreconditionError(
            "the printed d=4 relation (x -> y, y -> y^-1) has a singular action "
            "matrix and defines no automorphism of (Z/m)^2; re-deriving the "
            "presentation from x = ac^2, y = cac, r = c gives r y r^-1 = x^-1, "
            "the geometric quarter-turn used by default"
        )
    return Wallpaper(d, m)


class H4(Group):
    """(H x H) : Z/4 where the generator of Z/4 acts by the component swap.

    Elements are (h1, h2, t).  The index-2 subgroup with t even is
    exposed via ``in_index2`` / ``index2_order``; ``coset_rep`` is the
    canonical element (1, 1, 1) outside it.
    """

    kind = "h4"

    def __init__(self, inner: Group):
        self.inner = inner

    @property
    def identity(self):
        e = self.inner.identity
        return (e, e, 0)

    def mul(self, x, y):
        h1, h2, t = x
        k1, k2, u = y
        if t % 2:
            k1, k2 = k2, k1
        return (self.inner.mul(h1, k1), self.inner.mul(h2, k2), (t + u) % 4)

    def inv(self, x):
        h1, h2, t = x
        i1, i2 = self.inner.inv(h1), self.inner.inv(h2)
        if t % 2:
            i1, i2 = i2, i1
        return (i1, i2, (-t) % 4)

    @property
    def order(self) -> int:
        return 4 * self.inner.order * self.inner.order

    @property
    def generators(self):
        e = self.inner.identity
        gens = [(g, e, 0) for g in self.inner.generators]
        gens.append((e, e, 1))
        return gens

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple) and len(x) == 3
            and self.inner.contains(x[0]) and self.inner.contains(x[1])
            and x[2] in (0, 1, 2, 3)
        )

    def in_index2(self, x) -> bool:
        return x[2] % 2 == 0

    @property
    def index2_order(self) -> int:
        return 2 * self.inner.order * self.inner.order

    @property
    def coset_rep(self):
        e = self.inner.identity
        return (e, e, 1)

    def descriptor(self) -> dict:
        return {"kind": "h4", "inner": self.inner.descriptor()}


# -- descriptor registry ---------------------------------------------------


def json_field(data, name: str, what: str):
    """``data[name]`` of a JSON object; a missing field raises
    PreconditionError naming it and ``what`` the object is."""
    if not isinstance(data, dict) or name not in data:
        raise PreconditionError(f"{what} lacks the field {name!r}")
    return data[name]


def group_from_descriptor(desc: dict) -> Group:
    def num(name):
        value = json_field(desc, name, "group descriptor")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise PreconditionError(
                f"group descriptor field {name!r} is not an integer: {value!r}") from None

    kind = json_field(desc, "kind", "group descriptor")
    if kind == "sym":
        return SymmetricGroup(num("n"))
    if kind == "alt":
        return AlternatingGroup(num("n"))
    if kind == "sl2":
        return SL2Group(num("p"))
    if kind == "psl2":
        return PSL2Group(num("p"))
    if kind == "ab2":
        return Abelian2(num("n"))
    if kind == "cyc":
        return Cyclic(num("n"))
    if kind == "h4":
        return H4(group_from_descriptor(json_field(desc, "inner", "group descriptor")))
    if kind == "wallpaper":
        return Wallpaper(num("d"), num("m"))
    if kind == "dih":
        return dihedral(num("n"))
    if kind == "dic":
        return dicyclic(num("n"))
    if kind == "prod":
        factors = json_field(desc, "factors", "group descriptor")
        if not isinstance(factors, list):
            raise PreconditionError(f"group descriptor field 'factors' is not a list: {factors!r}")
        return DirectProduct([group_from_descriptor(f) for f in factors])
    raise PreconditionError(f"unknown group descriptor kind {kind!r}")


def parse_descriptor(text: str) -> dict:
    """Shorthand "kind:params" forms, e.g. "ab2:5", "sl2:7", "wallpaper:3:4"."""
    parts = text.strip().split(":")
    kind = parts[0]
    args = parts[1:]
    simple = {"sym": "n", "alt": "n", "ab2": "n", "cyc": "n", "dih": "n", "dic": "n",
              "sl2": "p", "psl2": "p"}
    if kind in simple and len(args) == 1:
        return {"kind": kind, simple[kind]: int(args[0])}
    if kind == "wallpaper" and len(args) == 2:
        return {"kind": "wallpaper", "d": int(args[0]), "m": int(args[1])}
    if kind == "h4" and len(args) >= 1:
        return {"kind": "h4", "inner": parse_descriptor(":".join(args))}
    raise PreconditionError(f"cannot parse group descriptor {text!r}")


def format_descriptor(desc: dict) -> str:
    kind = desc["kind"]
    if kind in ("sym", "alt", "ab2", "cyc", "dih", "dic"):
        return f"{kind}:{desc['n']}"
    if kind in ("sl2", "psl2"):
        return f"{kind}:{desc['p']}"
    if kind == "wallpaper":
        return f"wallpaper:{desc['d']}:{desc['m']}"
    if kind == "h4":
        return f"h4:{format_descriptor(desc['inner'])}"
    if kind == "prod":
        return "prod(" + ",".join(format_descriptor(f) for f in desc["factors"]) + ")"
    return str(desc)


# -- fixed catalogue --------------------------------------------------------

CATALOGUE_DISCLAIMER = (
    "partial catalogue of constructible nonabelian groups; NOT a complete "
    "SmallGroups enumeration"
)


def catalogue(max_order: int) -> list:
    """Deterministic, explicitly partial list of nonabelian group descriptors.

    Dihedral and dicyclic families, the small permutation and matrix
    groups, their direct products with small cyclic groups, and
    rotation-action semidirect products (Z/p)^2 : Z/q realized as
    wallpaper quotients.
    """
    out = []
    for n in range(3, max_order // 2 + 1):
        out.append({"kind": "dih", "n": n})
    for n in range(2, max_order // 4 + 1):
        out.append({"kind": "dic", "n": n})
    small = [
        ({"kind": "alt", "n": 4}, 12),
        ({"kind": "sym", "n": 4}, 24),
        ({"kind": "alt", "n": 5}, 60),
        ({"kind": "sl2", "p": 3}, 24),
        ({"kind": "sl2", "p": 5}, 120),
    ]
    out.extend(desc for desc, order in small if order <= max_order)
    bases = ([({"kind": "dih", "n": n}, 2 * n) for n in range(3, 9)]
             + [({"kind": "dic", "n": 2}, 8), ({"kind": "dic", "n": 3}, 12)] + small)
    for base, base_order in bases:
        for k in (2, 3, 5, 7):
            if base_order * k <= max_order:
                out.append({"kind": "prod", "factors": [base, {"kind": "cyc", "n": k}]})
    for d in (3, 4, 6):
        for m in range(2, 12):
            if is_prime(m) and d * m * m <= max_order:
                out.append({"kind": "wallpaper", "d": d, "m": m})
    out.sort(key=_descriptor_sort_key)
    return out


def _descriptor_sort_key(desc: dict):
    return (group_from_descriptor(desc).order, format_descriptor(desc))
