"""Command-line front end.

Exit codes: 0 = checked and passed, 1 = checked and failed (witness
printed), 2 = undecided within budget, 64 = usage error.  The
separation between 1 and 2 is deliberate: scripts must never confuse
"false" with "could not decide".
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import CapacityExceeded, PreconditionError, UndecidedError
from .gallery import GALLERY, PairWithWitness
from .literals import (
    element_to_json,
    group_from_cli,
    parse_element,
    structure_from_json,
    structure_to_json,
)
from .reality import reality_mixed, reality_unmixed
from .search import (
    SearchConstraints,
    count_abelian,
    enumerate_unmixed,
    hunt_reality,
    scan_catalogue,
    wallpaper_scan,
)
from .structures import (
    CheckReport,
    MixedQuadruple,
    UnmixedStructure,
    check_mixed,
    check_unmixed,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64


def _caps_from_env() -> dict:
    """BV_CAPS override, e.g. "closure=500000,class=200000".

    The keys are closure, class and subgroup, each set to a whole
    number; any other entry is a usage error.
    """
    out = {}
    for part in os.environ.get("BV_CAPS", "").split(","):
        if not part.strip():
            continue
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in ("closure", "class", "subgroup") or not val.strip().isdigit():
            raise PreconditionError(f"malformed BV_CAPS entry {part!r}")
        out[key] = int(val)
    return out


def _emit(data, as_json: bool):
    if as_json:
        print(json.dumps(data, indent=None, sort_keys=True))
    else:
        print(json.dumps(data, indent=2, sort_keys=True))


def _report_exit(report: CheckReport) -> int:
    if report.verdict == "pass":
        return EXIT_PASS
    if report.verdict == "fail":
        return EXIT_FAIL
    return EXIT_UNDECIDED


def _load_structure(args):
    if getattr(args, "stdin", False):
        return structure_from_json(json.load(sys.stdin))
    if getattr(args, "file", None):
        with open(args.file) as fh:
            return structure_from_json(json.load(fh))
    return None


def cmd_check_unmixed(args) -> int:
    caps = _caps_from_env()
    v = _load_structure(args)
    if v is None:
        if not args.group:
            print("check-unmixed needs --stdin, --file or --group", file=sys.stderr)
            return EXIT_USAGE
        G = group_from_cli(args.group)
        v = UnmixedStructure(
            G,
            parse_element(G, args.a1), parse_element(G, args.c1),
            parse_element(G, args.a2), parse_element(G, args.c2),
        )
    if not isinstance(v, UnmixedStructure):
        print("structure file holds a mixed structure", file=sys.stderr)
        return EXIT_USAGE
    report = check_unmixed(v.group, v, strategy=args.strategy,
                           class_cap=caps.get("class", 10**6),
                           closure_cap=caps.get("closure", 10**6))
    _emit(report.to_json(lambda w: element_to_json(v.group, w)), args.json)
    return _report_exit(report)


def cmd_check_mixed(args) -> int:
    caps = _caps_from_env()
    v = _load_structure(args)
    if v is None:
        print("check-mixed reads a structure from --stdin or --file", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(v, MixedQuadruple):
        print("structure file holds an unmixed structure", file=sys.stderr)
        return EXIT_USAGE
    report = check_mixed(v.group, v,
                         class_cap=caps.get("class", 10**6),
                         subgroup_cap=caps.get("subgroup", 10**6))
    _emit(report.to_json(lambda w: element_to_json(v.group, w)), args.json)
    return _report_exit(report)


def cmd_gallery(args) -> int:
    if args.name not in GALLERY:
        print(f"unknown gallery name {args.name!r}; choices: {', '.join(sorted(GALLERY))}",
              file=sys.stderr)
        return EXIT_USAGE
    func, params = GALLERY[args.name]
    kwargs = {}
    for param in params:
        flag = "mode" if param == "case" else param
        val = getattr(args, flag, None)
        if val is None:
            print(f"gallery {args.name} needs --{flag}", file=sys.stderr)
            return EXIT_USAGE
        kwargs[param] = val
    obj = func(**kwargs)

    def fmt(G, x):
        if x is None:
            return None
        if args.zero_based and G.kind in ("sym", "alt"):
            from .perms import format_cycles

            return format_cycles(x, zero_based=True)
        return element_to_json(G, x)

    if isinstance(obj, PairWithWitness):
        data = {
            "group": obj.group.descriptor(),
            "kind": "pair",
            "a": fmt(obj.group, obj.a),
            "c": fmt(obj.group, obj.c),
            "witness": fmt(obj.group, obj.witness),
            "witness_relation": obj.relation,
        }
    else:
        data = structure_to_json(obj)
        if args.zero_based and obj.group.kind in ("sym", "alt"):
            for key in ("a1", "c1", "a2", "c2", "a", "c", "g"):
                if key in data:
                    data[key] = fmt(obj.group, getattr(obj, key))
    _emit(data, args.json)
    return EXIT_PASS


def cmd_search(args) -> int:
    G = group_from_cli(args.group)
    constraints = SearchConstraints(
        type1=tuple(int(x) for x in args.type1.split(",")) if args.type1 else None,
        type2=tuple(int(x) for x in args.type2.split(",")) if args.type2 else None,
        up_to_orbit=args.up_to_orbit,
    )
    res = enumerate_unmixed(G, constraints, limit=args.limit)
    data = dict(res.report)
    data["found"] = [structure_to_json(v) for v in res.structures[:args.limit or 50]]
    _emit(data, args.json)
    return EXIT_PASS


def cmd_count_abelian(args) -> int:
    res = count_abelian(args.n, orbits=args.orbits)
    _emit({"n": res.n, "solutions": res.solutions, "orbits": res.orbits,
           "note": res.note}, args.json)
    return EXIT_PASS


def cmd_reality(args) -> int:
    v = _load_structure(args)
    if v is None:
        print("reality reads a structure from --stdin or --file", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(v, UnmixedStructure):
        verdict = reality_unmixed(v.group, v)
    else:
        verdict = reality_mixed(v.group, v)
    _emit(verdict.to_json(), args.json)
    if verdict.biholo_conjugate is None or verdict.real is None:
        return EXIT_UNDECIDED
    return EXIT_PASS


def cmd_hunt(args) -> int:
    G = group_from_cli(args.group)
    res = hunt_reality(G, args.want, budget=args.budget)
    data = dict(res.report)
    data["found"] = [structure_to_json(v) for v in res.structures[:20]]
    _emit(data, args.json)
    if res.structures:
        return EXIT_PASS
    return EXIT_FAIL if res.complete else EXIT_UNDECIDED


def cmd_wallpaper_scan(args) -> int:
    rep = wallpaper_scan(args.d, args.m)
    _emit(rep, args.json)
    return EXIT_PASS


def cmd_scan_catalogue(args) -> int:
    rep = scan_catalogue(args.max_order, args.mode)
    _emit(rep, args.json)
    return EXIT_PASS if not rep["found"] else EXIT_FAIL


def cmd_verify_paper(args) -> int:
    from .verify import run_criteria

    rows = []
    all_ok = True
    only = args.only.split(",") if args.only else None
    for crit, ok, detail, seconds in run_criteria(only=only, skip_slow=args.skip_slow):
        rows.append({"id": crit.id, "ok": ok, "seconds": round(seconds, 1),
                     "summary": crit.summary, "detail": detail})
        all_ok = all_ok and ok
        if not args.json:
            mark = "PASS" if ok else "FAIL"
            print(f"[{mark}] {crit.id:24s} ({seconds:6.1f}s)  {detail}")
    if args.json:
        _emit({"criteria": rows, "all_ok": all_ok}, True)
    return EXIT_PASS if all_ok else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"bv: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="bv",
        description="Verification and search toolkit for Beauville structures",
    )
    sub = top.add_subparsers(dest="command")

    def common(p, group=False):
        p.add_argument("--json", action="store_true", help="compact machine output")
        if group:
            p.add_argument("--group", help='descriptor, e.g. "ab2:5" or JSON')

    p = sub.add_parser("check-unmixed", help="verify an unmixed structure")
    common(p, group=True)
    p.add_argument("--stdin", action="store_true")
    p.add_argument("--file")
    p.add_argument("--a1")
    p.add_argument("--c1")
    p.add_argument("--a2")
    p.add_argument("--c2")
    p.add_argument("--strategy", default="auto",
                   choices=["auto", "coprime", "exact"])
    p.set_defaults(func=cmd_check_unmixed)

    p = sub.add_parser("check-mixed", help="verify a mixed structure")
    common(p)
    p.add_argument("--stdin", action="store_true")
    p.add_argument("--file")
    p.set_defaults(func=cmd_check_mixed)

    p = sub.add_parser("gallery", help="emit an explicit generator system")
    common(p)
    p.add_argument("--zero-based", action="store_true",
                   help="print permutation cycles on points 0..n-1")
    p.add_argument("name")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--q1", type=int)
    p.add_argument("--q2", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--coset", choices=["sl", "slw"])
    p.add_argument("--mode", choices=["split", "nonsplit"],
                   help="torus case for composite-order systems")
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("search", help="enumerate structures on a small group")
    common(p, group=True)
    p.add_argument("--limit", type=int)
    p.add_argument("--up-to-orbit", action="store_true")
    p.add_argument("--type1")
    p.add_argument("--type2")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("count-abelian", help="normalized solution count on (Z/n)^2")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--orbits", action="store_true", default=None)
    p.set_defaults(func=cmd_count_abelian)

    p = sub.add_parser("reality", help="reality verdict for a structure")
    common(p)
    p.add_argument("--stdin", action="store_true")
    p.add_argument("--file")
    p.set_defaults(func=cmd_reality)

    p = sub.add_parser("hunt-reality", help="search for structures by reality verdict")
    common(p, group=True)
    p.add_argument("--want", required=True,
                   choices=["real", "not-biholo", "biholo-not-real"])
    p.add_argument("--budget", type=int, default=5000)
    p.set_defaults(func=cmd_hunt)

    p = sub.add_parser("wallpaper-scan", help="sigma-intersection minimum on a wallpaper quotient")
    common(p)
    p.add_argument("--d", type=int, required=True, choices=[3, 4, 6])
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_wallpaper_scan)

    p = sub.add_parser("scan-catalogue", help="structure scan over the fixed catalogue")
    common(p)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--mode", required=True, choices=["unmixed", "mixed"])
    p.set_defaults(func=cmd_scan_catalogue)

    p = sub.add_parser("verify-paper", help="run the reproduction criteria table")
    common(p)
    p.add_argument("--only", help="comma-separated criterion ids")
    p.add_argument("--skip-slow", action="store_true")
    p.set_defaults(func=cmd_verify_paper)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UndecidedError, CapacityExceeded) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
