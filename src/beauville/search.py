"""Exhaustive and budgeted searches.

Indexes a small group into integer tables (multiplication, inverses,
orders, conjugacy classes, per-element power fingerprints) and runs the
structure searches on top: full enumeration with orbit reduction,
normalized abelian solution counting, catalogue scans for the
nonexistence reproductions, wallpaper intersection minima, and reality
hunts.  All iteration orders are canonical, so identical inputs yield
identical reports.
"""

from __future__ import annotations

import math
import time
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter

from .core import (
    CapacityExceeded,
    Group,
    PreconditionError,
    orbit,
)
from .constructions import (
    CATALOGUE_DISCLAIMER,
    Abelian2,
    Wallpaper,
    catalogue,
    format_descriptor,
    group_from_descriptor,
)
from .reality import StructureKeys, reality_unmixed
from .structures import UnmixedStructure, check_unmixed

DEFAULT_ENUM_CAP = 2500


class IndexedGroup:
    """Integer-indexed view of a small group for tight search loops.

    The constructor takes one closure of the generators and keeps each
    generator's row; every other table is built on its first read."""

    def __init__(self, ctx: Group):
        if ctx.order > DEFAULT_ENUM_CAP:
            raise CapacityExceeded("group indexing", DEFAULT_ENUM_CAP)
        self.ctx = ctx
        mul = ctx.mul
        gens = list(dict.fromkeys(ctx.generators))
        products = {}  # x -> [g*x for g in gens], recorded as the closure walks

        def images(x):
            products[x] = row = [mul(g, x) for g in gens]
            return row

        self.elems = sorted(orbit([ctx.identity], images, DEFAULT_ENUM_CAP, "subgroup closure"),
                            key=repr)
        self.index = idx = {e: i for i, e in enumerate(self.elems)}
        n = len(self.elems)
        if n != ctx.order:
            raise PreconditionError("generator closure does not match the stated order")
        self.id_index = idx[ctx.identity]
        # gen_rows[g][y] = id of g*y, per generator id in generator order.
        self.gen_rows = {idx[g]: [idx[products[y][k]] for y in self.elems]
                         for k, g in enumerate(gens)}
        # Subgroups that refuted a pair in ``generates``: their sizes in
        # bit order, each element's mask of the subgroups holding it, and
        # per target size the mask of the kept subgroups below it.
        self._refuted_sizes: list = []
        self._refuted_masks = [0] * n
        self._refuted_below: dict = {}

    @cached_property
    def mul_row(self):
        """Rows of the left regular representation, row[x][y] = id of xy.

        The generators' rows come from the closure; every other row is
        composed as row[x*g] = row[x] o row[g] along one breadth-first
        search over right multiplication by the generators, with no
        ``ctx.mul`` call."""
        n = len(self.elems)
        rows = [None] * n
        rows[self.id_index] = list(range(n))
        queue = deque([self.id_index])
        # itemgetter(*row[g]) reads row[x] at row[g]'s entries in one C call.
        composers = [(g, itemgetter(*rg)) for g, rg in self.gen_rows.items()]
        while queue:
            rx = rows[queue.popleft()]
            for g, compose in composers:
                y = rx[g]
                if rows[y] is None:
                    rows[y] = list(compose(rx))
                    queue.append(y)
        return rows

    @cached_property
    def power_ids(self):
        """power_ids[i] = (e, x, ..., x^(k-1)): it holds the order k and
        the inverse."""
        return [self._power_elements(i) for i in range(len(self.elems))]

    @cached_property
    def order_of(self):
        return [len(p) for p in self.power_ids]

    @cached_property
    def inv(self):
        return [p[-1] for p in self.power_ids]

    @cached_property
    def class_id(self):
        """Conjugacy class of each id; classes are numbered in the order of
        their least id, so a class's first member is its least."""
        n = len(self.elems)
        rows, inv = self.mul_row, self.inv
        conjers = [(rg, inv[g]) for g, rg in self.gen_rows.items()]
        # Inline, not orbit(): a callback per node made IndexedGroup(SL(2,7)) 77 -> 93 ms.
        class_id = [-1] * n
        next_id = 0
        for i in range(n):
            if class_id[i] >= 0:
                continue
            queue = deque([i])
            class_id[i] = next_id
            while queue:
                x = queue.popleft()
                for rg, gi in conjers:
                    y = rows[rg[x]][gi]
                    if class_id[y] < 0:
                        class_id[y] = next_id
                        queue.append(y)
            next_id += 1
        return class_id

    @cached_property
    def class_members(self):
        """The ids of each class in increasing order, so a class's first
        member is its least."""
        members: list = [[] for _ in range(max(self.class_id) + 1)]
        for i, c in enumerate(self.class_id):
            members[c].append(i)
        return members

    @cached_property
    def power_classes(self):
        """Classes of the powers of each id.  Conjugate elements have
        conjugate powers, so one set per class, built from the class's
        first element, serves all its members."""
        cid = self.class_id
        per_class: dict = {}
        for i, c in enumerate(cid):
            if c not in per_class:
                per_class[c] = frozenset(cid[j] for j in self.power_ids[i])
        return [per_class[c] for c in cid]

    def _power_elements(self, i):
        out = [self.id_index]
        acc = i
        while acc != self.id_index:
            out.append(acc)
            acc = self.mul_row[acc][i]
        return tuple(out)

    def generates(self, i: int, j: int, within=None) -> bool:
        """Whether elements i and j generate the group, or the subgroup
        ``within`` (a set of ids) when given; the search stops at the
        first element outside ``within``.

        Every closure that falls short of its target is kept as a bit in
        the mask of each of its elements, so a later pair inside a kept
        subgroup smaller than its own target is refuted without a search."""
        target = len(self.elems) if within is None else len(within)
        below = self._refuted_below.get(target)
        if below is None:
            below = sum(1 << b for b, size in enumerate(self._refuted_sizes) if size < target)
            self._refuted_below[target] = below
        masks = self._refuted_masks
        if masks[i] & masks[j] & below:
            return False
        # Inline, not orbit(): a callback per node slowed the mixed 136 scan by 10-20%.
        seen = {self.id_index}
        queue = deque([self.id_index])
        rows = self.mul_row
        while queue:
            x = queue.popleft()
            for s in (i, j):
                y = rows[x][s]
                if y not in seen:
                    if within is not None and y not in within:
                        return False
                    seen.add(y)
                    queue.append(y)
        size = len(seen)
        if size == target:
            return True
        bit = 1 << len(self._refuted_sizes)
        self._refuted_sizes.append(size)
        for t in self._refuted_below:
            if size < t:
                self._refuted_below[t] |= bit
        for x in seen:
            masks[x] |= bit
        return False

    def structure(self, q) -> UnmixedStructure:
        """The unmixed structure of the id quadruple (i1, j1, i2, j2)."""
        e = self.elems
        return UnmixedStructure(self.ctx, e[q[0]], e[q[1]], e[q[2]], e[q[3]])

    def hyperbolic(self, i: int, j: int) -> bool:
        r = self.order_of[i]
        s = self.order_of[j]
        t = self.order_of[self.mul_row[i][j]]
        return s * t + r * t + r * s < r * s * t


def _report(group: Group | None, mode: str, t0: float, **extra) -> dict:
    out = {
        "group": group.descriptor() if group is not None else None,
        "mode": mode,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    out.update(extra)
    return out


@dataclass
class SearchConstraints:
    type1: tuple | None = None
    type2: tuple | None = None
    up_to_orbit: bool = False

    def __post_init__(self):
        for t in (self.type1, self.type2):
            if t is not None and not (type(t) is tuple and len(t) == 3
                                      and all(type(k) is int and k > 0 for k in t)):
                raise PreconditionError(f"a type filter is three positive integers, not {t!r}")


@dataclass
class EnumerationResult:
    structures: list
    report: dict
    complete: bool


class _Bucket:
    """The pairs of one fingerprint in (i, j) order, as a sequence that
    fills one row i at a time only as far as a reader iterates it.
    Re-reads and concurrent readers share the stored ``prefix``.

    ``keys`` maps each class of i to the keys class(j) * classes +
    class(ij) of its pairs; ``size`` is the number of pairs kept."""

    def __init__(self, idx: IndexedGroup, keys: dict, size: int):
        self.size = size
        self.prefix: list = []
        self._rows = self._row_pairs(idx, keys)

    def __len__(self):
        return self.size

    def __iter__(self):
        # A full bucket is read as the list it is; the stream reads a
        # bucket again per wanted type until one read reaches its end.
        if len(self.prefix) == self.size:
            return iter(self.prefix)
        return self._read()

    def _read(self):
        k = 0
        while k < len(self.prefix) or self._fill():
            rest = self.prefix[k:]
            k += len(rest)
            yield from rest

    def _fill(self) -> bool:
        """Append the next row, cut at ``size``; False when all are kept."""
        if len(self.prefix) >= self.size:
            return False
        self.prefix.extend(next(self._rows))
        del self.prefix[self.size:]
        return True

    @staticmethod
    def _row_pairs(idx, keys):
        # Every member of a class with keys has at least one pair per key.
        cid = idx.class_id
        members = idx.class_members
        classes = len(members)
        candidates: dict = {}  # class of i -> sorted members of its j classes
        for i in sorted(i for c in keys for i in members[c]):
            c = cid[i]
            allowed = keys[c]
            js = candidates.get(c)
            if js is None:
                js = candidates[c] = sorted(j for cj in {k // classes for k in allowed}
                                            for j in members[cj])
            row = idx.mul_row[i]
            yield [(i, j) for j in js if cid[j] * classes + cid[row[j]] in allowed]


def _fingerprint_buckets(idx: IndexedGroup) -> dict:
    """Hyperbolic pairs (i, j) of non-identity elements, in index order,
    keyed by the conjugacy-class fingerprint of their sigma set, in the
    order of each bucket's first pair.

    Hyperbolicity and the fingerprint are class functions of (i, j, ij).
    One sweep takes the least member r of each non-identity class and
    walks every j once: per key (class(j), class(rj)) it counts the j
    that give it, and tests the first such pair.  Conjugating by an
    element that takes i to r keeps the key, so every member of the class
    has as many pairs per key, and each bucket's size is known before any
    pair is built.  The test reads each class's order, and the
    fingerprint ORs each class's power classes as a bit mask; a mask
    becomes its frozenset once, at the end.  Buckets are ``_Bucket``
    sequences that fill lazily.
    """
    n = len(idx.elems)
    e = idx.id_index
    cid = idx.class_id
    members = idx.class_members
    classes = len(members)
    scaled = [c * classes for c in cid]
    order = [idx.order_of[cls[0]] for cls in members]
    pc = idx.power_classes
    power_mask = [sum(1 << b for b in pc[cls[0]]) for cls in members]
    keys_of: dict = {}  # fingerprint mask -> {class of i: set of keys}
    size_of: dict = {}
    first_of: dict = {}  # fingerprint mask -> its first pair
    for c, cls in enumerate(members):
        r = cls[0]
        if r == e:
            continue
        row = idx.mul_row[r]
        keys = [s + cid[x] for s, x in zip(scaled, row)]
        counts = Counter(keys)
        # The last assignment wins, so each key keeps its least j.
        first = dict(zip(reversed(keys), range(n - 1, -1, -1)))
        del counts[keys[e]], first[keys[e]]  # j = e is its key's only j
        a, mask = order[c], power_mask[c]
        for k, j in first.items():
            cj, cij = divmod(k, classes)
            s, t = order[cj], order[cij]
            # 1/a + 1/s + 1/t < 1
            if s * t + a * (s + t) >= a * s * t:
                continue
            fp = mask | power_mask[cj] | power_mask[cij]
            keys_of.setdefault(fp, {}).setdefault(c, set()).add(k)
            size_of[fp] = size_of.get(fp, 0) + len(cls) * counts[k]
            if fp not in first_of or (r, j) < first_of[fp]:
                first_of[fp] = (r, j)
    return {frozenset(b for b in range(classes) if fp >> b & 1):
            _Bucket(idx, keys_of[fp], size_of[fp])
            for fp in sorted(first_of, key=first_of.get)}


def _structure_stream(idx: IndexedGroup, constraints: SearchConstraints,
                      by_fp: dict | None = None):
    """Yield unmixed structures as id quadruples (i1, j1, i2, j2), in
    deterministic order; ``idx.structure`` builds the structure of one.

    Pairs are pruned by the hyperbolicity bound before any sigma work;
    sigma sets are compared as conjugacy-class fingerprints, and
    generation is certified only for pairs participating in a
    disjoint-fingerprint combination.  ``by_fp`` is the output of
    ``_fingerprint_buckets``; by default every hyperbolic pair is kept,
    so the stream is exhaustive.
    """
    if by_fp is None:
        by_fp = _fingerprint_buckets(idx)
    id_class = {idx.class_id[idx.id_index]}
    type1, type2 = constraints.type1, constraints.type2

    def type_of(i, j):
        return (idx.order_of[i], idx.order_of[j], idx.order_of[idx.mul_row[i][j]])

    fps = sorted(by_fp, key=sorted)
    gen_cache: dict = {}
    # (fingerprint, wanted types) -> its generating pairs, kept once a
    # reader has checked the whole bucket; later readers iterate the list.
    checked: dict = {}

    def fits(pair, want_type):
        return want_type is None or type_of(*pair) == want_type

    def generating_pairs(fp, want_types):
        done = checked.get((fp, want_types))
        return iter(done) if done is not None else check(fp, want_types)

    def check(fp, want_types):
        found = []
        for (i, j) in by_fp[fp]:
            if want_types is not None and type_of(i, j) not in want_types:
                continue
            # (i, j) and (j, i) generate one subgroup and share a bucket.
            key = (i, j) if i < j else (j, i)
            ok = gen_cache.get(key)
            if ok is None:
                ok = idx.generates(i, j)
                gen_cache[key] = ok
            if ok:
                found.append((i, j))
                yield (i, j)
        checked[(fp, want_types)] = found

    # (fingerprint, wanted type) -> whether its bucket has a generating
    # pair; a combination with no (type1, type2) match in either order
    # yields nothing, so it is skipped without walking its buckets.
    nonempty: dict = {}

    def has_generating(fp, want_type):
        key = (fp, want_type)
        if key not in nonempty:
            wanted = None if want_type is None else (want_type,)
            nonempty[key] = next(generating_pairs(fp, wanted), None) is not None
        return nonempty[key]

    # Pairs of either fingerprint may take either place of the structure.
    both = None if type1 is None or type2 is None else (type1, type2)
    # A fingerprint holds the identity class and another, so it is never
    # disjoint from itself.
    for x, f1 in enumerate(fps):
        for f2 in fps[x + 1:]:
            if (f1 & f2) != id_class:
                continue
            if not (has_generating(f1, type1) and has_generating(f2, type2)
                    or has_generating(f2, type1) and has_generating(f1, type2)):
                continue
            for p in generating_pairs(f1, both):
                for q in generating_pairs(f2, both):
                    for (p1, p2) in ((p, q), (q, p)):
                        if fits(p1, type1) and fits(p2, type2):
                            yield p1 + p2


def enumerate_unmixed(G: Group, constraints: SearchConstraints | None = None,
                      limit: int | None = None) -> EnumerationResult:
    """All (or the first ``limit``) unmixed structures on a small group,
    ordered by the repr of their 4-tuples.

    Ids are assigned in repr order and element reprs are self-delimiting,
    so sorting the id quadruples gives that order without any repr.  They
    are sorted as the integers with digits i1, j1, i2, j2 in base |G|."""
    t0 = time.monotonic()
    if limit is not None and limit < 1:
        raise PreconditionError("limit must be at least 1")
    constraints = constraints or SearchConstraints()
    if constraints.up_to_orbit:
        StructureKeys(G)  # fail fast when the outer automorphisms are unknown
    idx = IndexedGroup(G)
    stream = _structure_stream(idx, constraints)
    quads = list(islice(stream, limit))
    complete = next(stream, None) is None
    # The orbit reduction orders its output itself.
    if constraints.up_to_orbit:
        structures = orbit_representatives(G, [idx.structure(q) for q in quads])
    else:
        n = len(idx.elems)
        quads.sort(key=lambda q: ((q[0] * n + q[1]) * n + q[2]) * n + q[3])
        structures = [idx.structure(q) for q in quads]

    report = _report(G, "enumerate-unmixed", t0,
                     found=len(structures), complete=complete,
                     up_to_orbit=constraints.up_to_orbit)
    return EnumerationResult(structures, report, complete)


def orbit_representatives(G: Group, structures: list) -> list:
    """Reduce a set of structures modulo the full equivalence action,
    keeping the canonical minimum of each orbit: its least 4-tuple by
    repr, or the least given member when that minimum is not given.
    Orbits are listed by their least given member.

    Orbits are taken over keys (``reality.StructureKeys``), never over
    4-tuples.  Element reprs are self-delimiting, so the least 4-tuple
    of an orbit is the least concatenation of the two sides of a key.
    """
    keys = StructureKeys(G)
    given = {(v.a1, v.c1, v.a2, v.c2): v for v in structures}
    least_of: dict = {}  # key -> least 4-tuple of its orbit
    first: dict = {}  # least 4-tuple of an orbit -> least given member
    for t, v in given.items():
        k = keys.key(v)
        least = least_of.get(k)
        if least is None:
            orbit = keys.orbit(v)
            least = min((s1 + s2 for s1, s2 in orbit), key=repr)
            least_of.update(dict.fromkeys(orbit, least))
        if least in given:
            first[least] = least
        elif least not in first or repr(t) < repr(first[least]):
            first[least] = t
    order = sorted(first.items(), key=lambda item: repr(item[1]))
    return [given.get(least, given[t]) for least, t in order]


# -- abelian counting ---------------------------------------------------------


def lower_bound_abelian(p: int) -> int:
    """The source's claimed closed-form lower bound (p-1)(p-2)^2(p-4) for
    normalized solutions on (Z/p)^2.

    It is not a lower bound: the exact count (``count_abelian``) is
    (p-1)(p-2)(p-3)(p-4), which the claimed formula exceeds by
    (p-1)(p-2)(p-4) for every prime p >= 5.
    """
    from .matgroups import is_prime

    if p < 5 or not is_prime(p):
        raise PreconditionError("parameter must be a prime >= 5")
    return (p - 1) * (p - 2) ** 2 * (p - 4)


@dataclass
class AbelianCount:
    n: int
    solutions: int
    orbits: int | None
    note: str | None = None


def count_abelian(n: int, orbits: bool | None = None) -> AbelianCount:
    """Exhaustive count of normalized structure solutions on (Z/n)^2.

    The first pair is normalized to the standard basis; solutions are
    the tuples (x, y, z, t) passing the unit conditions.  Moduli not
    coprime to 6 admit no structure and return zero with a note.  The
    orbit count enumerates all structures and reduces them modulo the
    equivalence action (prime n only; on by default for n <= 5).

    The t-conditions of each (x, y, z) are one AND of n-bit masks:
    bit t of ``unit_at[k]`` says whether t - k is a unit, and each
    condition is such a shift.  With x a unit, x*t - y*z is a unit
    exactly when t - y*z/x is.
    """
    if n < 2:
        raise PreconditionError("modulus must be >= 2")
    if math.gcd(n, 6) != 1:
        return AbelianCount(n, 0, 0, note="modulus shares a factor with 6; no structures exist")
    if orbits is None:
        orbits = n <= 5
    if orbits:
        from .matgroups import is_prime

        if not is_prime(n):
            raise PreconditionError("orbit counting implemented for prime moduli only")
    unit = [math.gcd(v, n) == 1 for v in range(n)]
    unit_at = [sum(1 << t for t in range(n) if unit[(t - k) % n]) for k in range(n)]
    units = [v for v in range(1, n) if unit[v]]
    count = 0
    for x in units:
        x_inv = pow(x, -1, n)
        for y in units:
            if not unit[(x - y) % n]:
                continue
            # t and y + t units
            t_mask = unit_at[0] & unit_at[-y % n]
            y_over_x = y * x_inv
            for z in units:
                if not unit[(x + z) % n]:
                    continue
                # z - t, (x + z - y) - t and x*t - y*z units
                count += (t_mask & unit_at[z] & unit_at[(x + z - y) % n]
                          & unit_at[y_over_x * z % n]).bit_count()
    orbit_count = None
    if orbits:
        res = enumerate_unmixed(Abelian2(n),
                                SearchConstraints(up_to_orbit=True))
        orbit_count = len(res.structures)
    return AbelianCount(n, count, orbit_count)


# -- catalogue scans ----------------------------------------------------------


def scan_catalogue(max_order: int, mode: str) -> dict:
    """Scan the fixed catalogue for structures; the expected result is
    zero everywhere, reported with the partial-catalogue disclaimer.

    Each group is searched exhaustively (the unmixed scan takes the first
    structure of the uncapped stream), so ``complete`` is earned."""
    t0 = time.monotonic()
    if mode not in ("unmixed", "mixed"):
        raise PreconditionError(f"unknown scan mode {mode!r}")
    found = []
    scanned = []
    for desc in catalogue(max_order):
        G = group_from_descriptor(desc)
        if mode == "mixed" and G.order % 2:
            continue
        name = format_descriptor(desc)
        scanned.append(name)
        if mode == "unmixed":
            hits = enumerate_unmixed(G, limit=1).structures
        else:
            hits = _scan_group_mixed(G)
        for h in hits:
            found.append({"group": name, "witness": repr(h)})
    return _report(None, f"scan-{mode}", t0,
                   max_order=max_order, groups_scanned=len(scanned),
                   found=found, complete=True, disclaimer=CATALOGUE_DISCLAIMER)


def _scan_group_mixed(G: Group) -> list:
    idx = IndexedGroup(G)
    n = len(idx.elems)
    e = idx.id_index
    mul, elems, index = G.mul, idx.elems, idx.index
    hits = []
    for H_set in _index2_subgroups(idx):
        outside = [x for x in range(n) if x not in H_set]
        Q = frozenset(index[mul(elems[x], elems[x])] for x in outside)
        if e in Q:
            continue  # split extension: squares outside hit the identity
        # Only a non-split subgroup reads the tables.
        rows = idx.mul_row
        g0 = outside[0]
        conj_g = [rows[rows[g0][x]][idx.inv[g0]] for x in range(n)]
        ok_elements = [
            i for i in sorted(H_set)
            if i != e and not (set(idx.power_ids[i]) & Q)
        ]
        ok_set = set(ok_elements)
        for i in ok_elements:
            row = rows[i]
            for j in ok_elements:
                k = row[j]
                if k not in ok_set and k != e:
                    continue
                if not idx.hyperbolic(i, j):
                    continue
                if not idx.generates(i, j, within=H_set):
                    continue
                sigma = _sigma_under_pair(idx, i, j)
                if sigma & Q:
                    continue
                conj_sigma = frozenset(conj_g[x] for x in sigma)
                if (sigma & conj_sigma) != {e}:
                    continue
                hits.append((elems[i], elems[j]))
                return hits
    return hits


def _index2_subgroups(idx: IndexedGroup) -> list:
    """Index-2 subgroups, as the kernels of the homomorphisms onto Z/2: a
    nonzero sign on the generators extends to one exactly when the walk of
    the Cayley graph setting sign(g*x) = sign(g) xor sign(x) never
    conflicts.  The walk reads only the generators' rows."""
    e = idx.id_index
    gens = [row for g, row in idx.gen_rows.items() if g != e]
    out = []
    for vector in range(1, 1 << len(gens)):
        edges = [(row, (vector >> b) & 1) for b, row in enumerate(gens)]
        sign = [-1] * len(idx.elems)
        sign[e] = 0
        queue = deque([e])
        extends = True
        while queue and extends:
            x = queue.popleft()
            for row, s in edges:
                y = row[x]
                if sign[y] < 0:
                    sign[y] = sign[x] ^ s
                    queue.append(y)
                elif sign[y] != sign[x] ^ s:
                    extends = False
        if extends:
            out.append(frozenset(x for x, s in enumerate(sign) if not s))
    return sorted(out, key=sorted)


def _sigma_under_pair(idx: IndexedGroup, i: int, j: int) -> frozenset:
    """Sigma set of the pair with conjugation by the subgroup the pair
    generates (BFS closure under conjugation by i and j)."""
    seeds = set(idx.power_ids[i]) | set(idx.power_ids[j]) \
        | set(idx.power_ids[idx.mul_row[i][j]])
    conjers = [(i, idx.inv[i]), (j, idx.inv[j])]
    # Inline, not orbit(): a callback per node slowed the mixed 136 scan by 10-20%.
    seen = set(seeds)
    queue = deque(seeds)
    rows = idx.mul_row
    while queue:
        x = queue.popleft()
        for h, hi in conjers:
            y = rows[rows[h][x]][hi]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


# -- wallpaper scan ------------------------------------------------------------


def wallpaper_scan(d: int, m: int) -> dict:
    """Minimum sigma-intersection size over all pairs of generating
    systems of the wallpaper quotient, with a witnessing pair."""
    t0 = time.monotonic()
    G = Wallpaper(d, m)
    idx = IndexedGroup(G)
    n = len(idx.elems)
    pc = idx.power_classes
    members = idx.class_members
    pair_by_fp: dict = {}
    # Only the first generating pair of each fingerprint is kept, so
    # generation is checked only while its fingerprint is unrecorded.
    # Fingerprints and generation are invariant under simultaneous
    # conjugation, so that pair starts at the least member of a class.
    for cls in members:
        i = cls[0]
        row = idx.mul_row[i]
        for j in range(n):
            fp = pc[i] | pc[j] | pc[row[j]]
            if fp not in pair_by_fp and idx.generates(i, j):
                pair_by_fp[fp] = (i, j)
    fps = sorted(pair_by_fp, key=sorted)
    if not fps:
        return _report(G, "wallpaper-scan", t0, minimum=None,
                       witness=None, systems=0)
    best = None
    witness = None
    for x, f1 in enumerate(fps):
        for f2 in fps[x:]:
            # A sigma set is the union of the classes of its fingerprint.
            size = sum(len(members[c]) for c in f1 & f2)
            if best is None or size < best:
                best = size
                witness = (pair_by_fp[f1], pair_by_fp[f2])
    w1, w2 = witness
    wit = {
        "system1": [repr(idx.elems[w1[0]]), repr(idx.elems[w1[1]])],
        "system2": [repr(idx.elems[w2[0]]), repr(idx.elems[w2[1]])],
    }
    return _report(G, "wallpaper-scan", t0, minimum=best, witness=wit,
                   systems=len(fps))


# -- reality hunt ---------------------------------------------------------------


def hunt_reality(G: Group, want: str, budget: int = 5000) -> EnumerationResult:
    """Structures whose reality verdict matches ``want``.

    ``want`` is one of "real", "not-biholo", "biholo-not-real".  Small
    groups are searched through the structure stream with at most 16
    pairs kept per fingerprint, so the report is complete only when that
    cap dropped no pair and the stream ran out within ``budget``; larger
    supported families fall back to a deterministic stream of at most
    ``budget`` gallery-style candidates (the exhaustive search space is
    out of reach there).  ``budget`` must be at least 1.
    """
    t0 = time.monotonic()
    if want not in ("real", "not-biholo", "biholo-not-real"):
        raise PreconditionError(f"unknown reality filter {want!r}")
    if budget < 1:
        raise PreconditionError("budget must be at least 1")

    def matches(verdict) -> bool:
        if want == "real":
            return verdict.real is True
        if want == "not-biholo":
            return verdict.biholo_conjugate is False
        return verdict.biholo_conjugate is True and verdict.real is False

    out = []
    complete = True
    if G.order <= DEFAULT_ENUM_CAP:
        idx = IndexedGroup(G)
        by_fp = _fingerprint_buckets(idx)
        # Keep the first 16 pairs of each bucket, cut before any fill.
        complete = all(b.size <= 16 for b in by_fp.values())
        for b in by_fp.values():
            b.size = min(b.size, 16)
        examined = 0
        for q in _structure_stream(idx, SearchConstraints(), by_fp):
            if examined >= budget:
                complete = False
                break
            examined += 1
            v = idx.structure(q)
            if matches(reality_unmixed(G, v)):
                out.append(v)
    else:
        complete = False
        for v in _gallery_candidates(G, budget):
            if check_unmixed(G, v).passed and matches(reality_unmixed(G, v)):
                out.append(v)
    report = _report(G, f"hunt-{want}", t0, found=len(out),
                     complete=complete)
    return EnumerationResult(out, report, complete)


def _gallery_candidates(G: Group, budget: int):
    """Deterministic candidate structures for groups beyond exhaustive
    reach, built from the explicit generator systems."""
    from . import gallery as gal
    from .matgroups import SL2Group, companion_mat, mat_order, mmul, is_prime

    produced = 0
    if G.kind == "sym":
        try:
            yield gal.sym_structure(G.n)
        except PreconditionError:
            return
        return
    if G.kind == "alt":
        n = G.n
        if (n - 1) % 3 == 0 and is_prime((n - 1) // 3):
            try:
                yield gal.alt_reality_structure((n - 1) // 3)
            except PreconditionError:
                return
        return
    if isinstance(G, SL2Group):
        p = G.p
        first = gal.sl2_pair_46p(p)
        for q in (5, 7, 11, 13):
            if not is_prime(q) or (p + 1) % q != 0:
                continue
            try:
                k = gal._nonsplit_trace(p, q)
            except PreconditionError:
                continue
            x = companion_mat(p, k)
            for y in gal.curve_conjugates(p, k):
                if mat_order(mmul(x, y, p), p) != q:
                    continue
                yield UnmixedStructure(G, first.a, first.c, x, y)
                produced += 1
                if produced >= budget:
                    return
        return
    raise PreconditionError(
        f"no exhaustive budget and no candidate generator for {G.kind!r}")
