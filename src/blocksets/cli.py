"""Command line front end.

Every subcommand prints one JSON report to stdout: keys sorted, compact
separators, a version field, and the field modulus echoed inside the space
block so runs over extension fields are self-describing.  --no-meta drops
the volatile parts (timestamps and search statistics); two runs that agree
must then agree byte for byte, whatever the worker count.

Exit codes: 0 when a verdict was delivered (not-exists included), 2 for
input errors, 3 when a search, or the oracle of search --oracle, ran out
of its time budget, 4 when an internal check failed (a fault in the
program, not in the input).
"""

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .arrangement import (KIND_ALIASES, arrangement_make, complement,
                          corresponding_arrangement, emit_arrangement_text,
                          flats_in_complement, max_flat_dimension,
                          parse_arrangement_text, touching_traces)
from .blocking import (CONVENTIONS, SCOPES, build_instance, classify_arrangement,
                       exhaustive_oracle, guaranteed_existence_check, is_blocking,
                       is_minimal, is_nontrivial, min_blocking_set, minimalize,
                       nonexistence_by_subspace, solve_instance, threshold_scan)
from .braid import (braid_arrangement, braid_existence, braid_lines,
                    braid_transversal, escape_parameter)
from .errors import BlocksetsError, InternalError, SearchTimeout
from .gf import field_make
from .geometry import AFFINE, PROJECTIVE, flat_count, gaussian_binomial, space
from .solver import check_oracle_universe


def _kind(token):
    k = KIND_ALIASES.get(token.lower())
    if k is None:
        raise ValueError("kind must be projective|affine (pg|ag)")
    return k


def _parse_point(token):
    try:
        return tuple(int(x) for x in token.split(","))
    except ValueError:
        raise ValueError("point %r is not a comma-separated coordinate tuple" % token)


def _coords(token, sp):
    return sp.index_of(_parse_point(token))


def _point_str(sp, idx):
    return ",".join(str(c) for c in sp.points[idx])


def _space_block(sp):
    return {"kind": sp.kind, "n": sp.n, "q": sp.q,
            "points": sp.npoints, "modulus": sp.field.modulus_str()}


def _result_block(sp, res):
    out = {"verdict": res.verdict, "size": res.size}
    out["witness"] = None if res.witness is None else \
        [_point_str(sp, p) for p in res.witness]
    return out


def _instance_block(inst):
    return {"t": inst.t, "scope": inst.scope, "blocked_dim": inst.blocked_dim,
            "universe_size": len(inst.universe),
            "family_size": len(inst.family),
            "forbidden_size": inst.forbidden_size}


def _search_stats(res):
    """The stats block of a SearchResult, a timeout's included."""
    return dict(res.stats, nodes=res.nodes, elapsed=res.elapsed)


def _emit(args, command, payload, stats=None):
    report = {"version": __version__, "command": command}
    report.update(payload)
    if not args.no_meta:
        report["generated"] = datetime.now(timezone.utc).isoformat()
        if stats is not None:
            report["stats"] = stats
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def _load_source(args):
    """Arrangement source: a file in the text format, or --space/--n/--q
    for the empty arrangement over a bare space."""
    if getattr(args, "file", None):
        with open(args.file) as fh:
            return parse_arrangement_text(fh.read())
    if getattr(args, "space", None):
        if args.n is None or args.q is None:
            raise ValueError("--space needs --n and --q")
        sp = space(_kind(args.space), args.n, args.q)
        return sp, arrangement_make(sp, [])
    raise ValueError("give an arrangement file or --space KIND --n N --q Q")


def _add_source(p):
    p.add_argument("file", nargs="?", help="arrangement file (text format)")
    p.add_argument("--space", metavar="KIND",
                   help="empty arrangement over a bare space (with --n, --q)")
    p.add_argument("--n", type=int, default=None, help="dimension for --space")
    p.add_argument("--q", type=int, default=None, help="field size for --space")


def _add_level_opts(p):
    """What every subcommand that builds an instance reads."""
    p.add_argument("--t", type=int, default=1, help="level: block (n-t)-flats")
    p.add_argument("--scope", choices=SCOPES, default="contained")


def _add_search_opts(p):
    """The level options plus what the subcommands that search read."""
    _add_level_opts(p)
    p.add_argument("--convention", choices=CONVENTIONS, default="plain")
    p.add_argument("--cap", type=int, default=None,
                   help="largest blocking-set size to consider")
    p.add_argument("--budget", type=float, default=None,
                   help="time budget in seconds; for search it also "
                        "covers --oracle")
    p.add_argument("--workers", type=int, default=1)


def _check_search_opts(args):
    """Rejects search options that no search can honour, and a scan range
    with no row; a subcommand without them has nothing to check."""
    budget = getattr(args, "budget", None)
    if budget is not None and not (math.isfinite(budget) and budget > 0):
        raise ValueError("--budget must be a finite number of seconds > 0, "
                         "got %r" % budget)
    if getattr(args, "workers", 1) < 1:
        raise ValueError("--workers must be at least 1, got %d" % args.workers)
    cap = getattr(args, "cap", None)
    if cap is not None and cap < 0:
        raise ValueError("--cap must be at least 0, got %d" % cap)
    nmax = getattr(args, "nmax", None)
    if nmax is not None and nmax < max(args.t, 1):
        raise ValueError("--nmax must be at least max(--t, 1) = %d, got %d"
                         % (max(args.t, 1), nmax))


# -- subcommand handlers ----------------------------------------------------

def cmd_space(args):
    sp = space(_kind(args.kind), args.n, args.q)
    payload = {"space": _space_block(sp),
               "flat_counts": {str(d): flat_count(sp.kind, sp.n, d, sp.q)
                               for d in range(sp.n + 1)}}
    if args.points:
        payload["point_list"] = [_point_str(sp, i) for i in range(sp.npoints)]
    _emit(args, "space", payload)
    return 0


def cmd_arrangement(args):
    sp, arr = _load_source(args)
    payload = {"space": _space_block(sp),
               "arrangement": {"count": len(arr.forms),
                               "forms": [list(f) for f in arr.forms]}}
    if args.emit:
        payload["text"] = emit_arrangement_text(arr)
    if args.correspond is not None:
        other = corresponding_arrangement(arr, args.correspond)
        payload["correspond"] = {
            "n": other.space.n,
            "forms": [list(f) for f in other.forms],
            "text": emit_arrangement_text(other)}
    _emit(args, "arrangement", payload)
    return 0


def cmd_complement(args):
    sp, arr = _load_source(args)
    comp = complement(sp, arr)
    payload = {"space": _space_block(sp),
               "arrangement": {"count": len(arr.forms)},
               "complement_size": len(comp.members)}
    if args.members:
        payload["members"] = [_point_str(sp, p) for p in comp.members]
    if args.flats is not None:
        flats = flats_in_complement(comp, args.flats)
        payload["contained_flats"] = {"d": args.flats, "count": len(flats)}
    if args.touching is not None:
        traces = touching_traces(comp, args.touching)
        sizes = sorted(len(tr) for tr in traces)
        payload["touching_traces"] = {
            "d": args.touching, "count": len(traces),
            "trace_sizes": {"min": sizes[0] if sizes else None,
                            "max": sizes[-1] if sizes else None}}
    if args.max_dim:
        payload["max_flat_dimension"] = max_flat_dimension(comp)
    _emit(args, "complement", payload)
    return 0


def cmd_instance(args):
    sp, arr = _load_source(args)
    inst = build_instance(sp, arr, args.t, args.scope)
    payload = {"space": _space_block(sp),
               "arrangement": {"count": len(arr.forms)}}
    if args.traces:
        payload["family"] = [[_point_str(sp, p) for p in tr] for tr in inst.family]
        payload["forbidden"] = [[_point_str(sp, p) for p in tr]
                                for tr in inst.forbidden]
    payload["instance"] = _instance_block(inst)
    _emit(args, "instance", payload)
    return 0


def cmd_search(args):
    sp, arr = _load_source(args)
    inst = build_instance(sp, arr, args.t, args.scope)
    payload = {"space": _space_block(sp),
               "arrangement": {"count": len(arr.forms)},
               "convention": args.convention}
    if args.oracle and inst.family:
        # the oracle's own refusal, before the search rather than after it
        check_oracle_universe(len(inst.universe), args.cap)
    start = time.monotonic()
    timeout = None  # the SearchResult of whichever run timed out
    try:
        res = solve_instance(inst, args.convention, size_cap=args.cap,
                             time_budget=args.budget, workers=args.workers)
    except SearchTimeout as exc:
        res = timeout = exc.result
    payload["result"] = _result_block(sp, res)
    stats = _search_stats(res)
    if res.verdict == "vacuous":
        payload["result"]["vacuous_family"] = True
    if args.certificate and res.verdict == "not-exists":
        cert = nonexistence_by_subspace(inst, convention=args.convention)
        if cert is None:
            payload["certificate"] = None
        else:
            payload["certificate"] = {
                "flat_dim": cert.flat.d,
                "flat_points": [_point_str(sp, p) for p in cert.flat.points],
                "sub_universe": len(cert.sub.universe),
                "subsets_checked": cert.result.nodes}
    if args.oracle and timeout is None:
        # the oracle gets what the search and the certificate left of --budget
        budget = None if args.budget is None else \
            args.budget - (time.monotonic() - start)
        try:
            ores = exhaustive_oracle(
                inst, require_nontrivial=(args.convention == "nontrivial"),
                size_cap=args.cap, time_budget=budget)
        except SearchTimeout as exc:
            ores = timeout = exc.result
            stats["oracle"] = {"subsets": ores.nodes, "elapsed": ores.elapsed}
        payload["oracle"] = _result_block(sp, ores)
        if timeout is None:
            payload["oracle_agrees"] = (ores.verdict == res.verdict
                                        and ores.size == res.size
                                        and ores.witness == res.witness)
    payload["instance"] = _instance_block(inst)
    _emit(args, "search", payload, stats=stats)
    return 0 if timeout is None else 3


def cmd_verify(args):
    sp, arr = _load_source(args)
    inst = build_instance(sp, arr, args.t, args.scope)
    cand = [_coords(tok, sp) for tok in args.set]
    blocking = is_blocking(inst, cand)
    payload = {"space": _space_block(sp),
               "set": [_point_str(sp, p) for p in sorted(set(cand))],
               "blocking": blocking,
               "nontrivial": is_nontrivial(inst, cand)}
    payload["minimal"] = is_minimal(inst, cand) if blocking else None
    if args.minimalize and blocking:
        payload["minimalized"] = [_point_str(sp, p) for p in minimalize(inst, cand)]
    payload["instance"] = _instance_block(inst)
    _emit(args, "verify", payload)
    return 0


def _single_hyperplane(sp):
    row = [0] * (sp.n + 1)
    row[0] = 1
    return arrangement_make(sp, [tuple(row)])


def cmd_scan(args):
    scope = args.scope
    family = args.family
    note = None
    if args.kind == "affine-classical":
        # one hyperplane removed from projective space: the affine picture,
        # with every surviving flat traced through the touching scope
        if family not in ("empty", "single"):
            raise ValueError("affine-classical fixes the family to the "
                             "removed hyperplane; drop --family %s" % family)
        kind = PROJECTIVE
        scope = "touching"
        family = "single"
        note = ("affine-classical: projective space minus one hyperplane, "
                "touching scope")
    else:
        kind = _kind(args.kind)
    builder = None
    if family == "braid":
        builder = braid_arrangement
    elif family == "single":
        builder = _single_hyperplane
    rep = threshold_scan(kind, args.q, t=args.t, n_max=args.nmax, scope=scope,
                         convention=args.convention, arrangement_builder=builder,
                         size_cap=args.cap, time_budget=args.budget,
                         workers=args.workers)
    payload = {"kind": rep.kind, "q": rep.q, "t": rep.t, "scope": rep.scope,
               "convention": rep.convention, "family": family,
               "guaranteed_from_field_size":
                   {str(n): guaranteed_existence_check(n, args.q, args.t)
                    for n in range(max(args.t, 1), args.nmax + 1)},
               "rows": [{"n": r.n, "verdict": r.verdict, "size": r.size,
                         "note": r.note} for r in rep.rows],
               "threshold": rep.threshold, "monotone": rep.monotone}
    if note:
        payload["note"] = note
    if args.table:
        print(_scan_table(payload))
        return 0
    _emit(args, "scan", payload)
    return 0


def _scan_table(payload):
    head = "scan kind=%s q=%d t=%d scope=%s convention=%s family=%s" % (
        payload["kind"], payload["q"], payload["t"], payload["scope"],
        payload["convention"], payload["family"])
    lines = [head, "%4s  %-10s  %6s  %s" % ("n", "verdict", "size", "note")]
    for r in payload["rows"]:
        lines.append("%4d  %-10s  %6s  %s" % (
            r["n"], r["verdict"], "-" if r["size"] is None else r["size"],
            r["note"] or ""))
    lines.append("threshold=%s monotone=%s" % (payload["threshold"],
                                               payload["monotone"]))
    return "\n".join(lines)


def cmd_braid(args):
    kind = _kind(args.kind)
    n = args.n
    if n is None:
        # q coordinates by default: AG(q,q), or PG(q-1,q) projectively
        n = args.q if kind == AFFINE else args.q - 1
    sp = space(kind, n, args.q)
    if args.escape:
        hit = escape_parameter(sp, *map(_parse_point, args.escape))
        payload = {"space": _space_block(sp)}
        if hit is None:
            payload["escape"] = None
            payload["line_contained"] = True
        else:
            (i, j), t0, P = hit
            payload["escape"] = {"pair": [i, j], "t0": t0,
                                 "point": ",".join(str(c) for c in P)}
            payload["line_contained"] = False
        _emit(args, "braid", payload)
        return 0
    out = braid_existence(kind, n, args.q, t=args.t, scope=args.scope,
                          convention=args.convention, size_cap=args.cap,
                          time_budget=args.budget, workers=args.workers)
    payload = {"space": _space_block(sp),
               "arrangement": {"count": len(out.arrangement.forms)},
               "t": out.t, "scope": out.scope, "convention": out.convention,
               "verdict": out.verdict,
               "vacuous_family": out.vacuous_family,
               "universe_size": out.universe_size}
    if out.vacuous_family:
        payload["warning"] = ("no flat of the blocked dimension lies inside "
                              "the complement; the empty set blocks vacuously")
    stats = None
    if out.result is not None:
        payload["result"] = _result_block(sp, out.result)
        stats = _search_stats(out.result)
    if args.lines:
        payload["lines"] = [[_point_str(sp, p) for p in fl.points]
                            for fl in braid_lines(sp)]
    if args.transversal:
        payload["transversal"] = [_point_str(sp, p)
                                  for p in braid_transversal(sp)]
    _emit(args, "braid", payload, stats=stats)
    return 3 if out.verdict == "timeout" else 0


def cmd_classify(args):
    sp, arr = _load_source(args)
    pool = None
    if args.pool:
        pool = []
        for path in args.pool:
            with open(path) as fh:
                psp, parr = parse_arrangement_text(fh.read())
            if psp != sp:
                raise ValueError("pool arrangement %s lives in %r, not %r"
                                 % (path, psp, sp))
            pool.append(parr)
    cls = classify_arrangement(sp, arr, t=args.t, scope=args.scope,
                               convention=args.convention,
                               check_minimal=not args.no_minimal, pool=pool,
                               size_cap=args.cap,
                               time_budget=args.budget,
                               workers=args.workers)
    payload = {"space": _space_block(sp),
               "arrangement": {"count": len(arr.forms),
                               "forms": [list(f) for f in arr.forms]},
               "t": args.t, "scope": args.scope, "convention": args.convention,
               "category": cls.category,
               "minimal": cls.minimal,
               "pool_minimal": cls.pool_minimal,
               "baseline": _result_block(sp, cls.baseline),
               "with_arrangement": _result_block(sp, cls.with_arrangement)}
    _emit(args, "classify", payload)
    return 0


def cmd_selftest(args):
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append({"name": name, "ok": True})
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            checks.append({"name": name, "ok": False, "error": str(exc)})

    def expect(got, want):
        if got != want:
            raise InternalError("got %r, expected %r" % (got, want))

    def gf_basics():
        f4 = field_make(4)
        expect((f4.mul(2, 2), f4.modulus_str()), (3, "x^2+x+1"))
        expect(field_make(9).modulus_str(), "x^2+1")
        expect(field_make(3).inv(2), 2)

    def geometry_counts():
        expect(space(PROJECTIVE, 2, 3).npoints, 13)
        expect(gaussian_binomial(4, 2, 2), 35)
        expect(flat_count(PROJECTIVE, 3, 2, 2), 15)

    def small_minima():
        sp = space(PROJECTIVE, 2, 2)
        inst = build_instance(sp, arrangement_make(sp, []), 1, "contained")
        expect(min_blocking_set(inst).size, 3)
        expect(min_blocking_set(inst, require_nontrivial=True).verdict, "not-exists")
        sp3 = space(PROJECTIVE, 2, 3)
        inst3 = build_instance(sp3, arrangement_make(sp3, []), 1, "contained")
        expect(min_blocking_set(inst3).size, 4)
        expect(min_blocking_set(inst3, require_nontrivial=True).size, 6)

    def braid_small():
        sp = space(AFFINE, 3, 3)
        expect(len(braid_lines(sp)), 2)
        hit = escape_parameter(sp, (0, 1, 2), (1, 0, 2))
        expect(hit, ((0, 1), 2, (2, 2, 2)))

    def oracle_agreement():
        sp = space(PROJECTIVE, 2, 3)
        inst = build_instance(sp, arrangement_make(sp, []), 1, "contained")
        a = min_blocking_set(inst, require_nontrivial=True)
        b = exhaustive_oracle(inst, require_nontrivial=True)
        expect((a.size, a.witness), (b.size, b.witness))

    check("gf-basics", gf_basics)
    check("geometry-counts", geometry_counts)
    check("small-minima", small_minima)
    check("braid-small", braid_small)
    check("oracle-agreement", oracle_agreement)
    ok = all(c["ok"] for c in checks)
    _emit(args, "selftest", {"ok": ok, "checks": checks})
    return 0 if ok else 1


# -- parser -----------------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(
        prog="blocksets",
        description="blocking sets in complements of hyperplane arrangements "
                    "over finite projective and affine spaces")
    top.add_argument("--no-meta", action="store_true",
                     help="omit timestamps and search statistics from reports")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", help="describe PG(n,q) or AG(n,q)")
    p.add_argument("kind")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--points", action="store_true")
    p.set_defaults(fn=cmd_space)

    p = sub.add_parser("arrangement", help="parse and normalize an arrangement file")
    _add_source(p)
    p.add_argument("--emit", action="store_true",
                   help="include the canonical text form")
    p.add_argument("--correspond", type=int, default=None, metavar="K",
                   help="re-read the same forms in dimension K")
    p.set_defaults(fn=cmd_arrangement)

    p = sub.add_parser("complement", help="points avoiding every hyperplane")
    _add_source(p)
    p.add_argument("--members", action="store_true")
    p.add_argument("--flats", type=int, default=None, metavar="D",
                   help="count contained flats of dimension D")
    p.add_argument("--touching", type=int, default=None, metavar="D",
                   help="count touching traces of dimension-D flats")
    p.add_argument("--max-dim", action="store_true",
                   help="largest dimension of a contained flat")
    p.set_defaults(fn=cmd_complement)

    p = sub.add_parser("instance", help="build the blocking instance")
    _add_source(p)
    _add_level_opts(p)
    p.add_argument("--traces", action="store_true",
                   help="list family and forbidden traces")
    p.set_defaults(fn=cmd_instance)

    p = sub.add_parser("search", help="exact minimum blocking set")
    _add_source(p)
    _add_search_opts(p)
    p.add_argument("--certificate", action="store_true",
                   help="on not-exists, look for a subspace certificate")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against exhaustive enumeration")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("verify", help="check a candidate point set")
    _add_source(p)
    _add_level_opts(p)
    p.add_argument("--set", nargs="+", required=True, metavar="PT",
                   help="points as comma-separated coordinates, e.g. 0,1,2")
    p.add_argument("--minimalize", action="store_true",
                   help="also report a minimal subset")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scan", help="existence by dimension at fixed q and t")
    p.add_argument("--kind", default="projective",
                   choices=(*KIND_ALIASES, "affine-classical"))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    _add_search_opts(p)
    p.add_argument("--family", default="empty",
                   choices=("empty", "braid", "single"),
                   help="arrangement at each dimension of the scan")
    p.add_argument("--table", action="store_true",
                   help="plain aligned-text table instead of JSON")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("braid", help="the coordinate-equality arrangement")
    p.add_argument("--kind", default="affine")
    p.add_argument("--n", type=int, default=None,
                   help="dimension; defaults to q coordinates")
    p.add_argument("--q", type=int, required=True)
    _add_search_opts(p)
    p.add_argument("--lines", action="store_true",
                   help="list the contained lines (affine)")
    p.add_argument("--transversal", action="store_true",
                   help="one point per contained line")
    p.add_argument("--escape", nargs=2, metavar=("X", "Y"),
                   help="escape parameter for the line through two points")
    p.set_defaults(fn=cmd_braid)

    p = sub.add_parser("classify", help="does the arrangement change existence")
    _add_source(p)
    _add_search_opts(p)
    p.add_argument("--no-minimal", action="store_true",
                   help="skip the one-form-removed minimality check")
    p.add_argument("--pool", nargs="*", default=None, metavar="FILE",
                   help="candidate arrangements for the smaller-size check")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("selftest", help="run the built-in cross checks")
    p.set_defaults(fn=cmd_selftest)

    return top


_parser = None  # built on the first main() call, then reused


def _error(exc, code):
    print(json.dumps({"error": str(exc), "type": type(exc).__name__},
                     sort_keys=True, separators=(",", ":")), file=sys.stderr)
    return code


def main(argv=None):
    """Runs one subcommand.  The parser is built once per process: parse_args
    returns a fresh Namespace each call and nothing changes the parser after
    build_parser, so repeated in-process calls share it."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        _check_search_opts(args)
        return args.fn(args)
    except SearchTimeout as exc:
        return _error(exc, 3)
    except InternalError as exc:
        return _error(exc, 4)
    except (BlocksetsError, ValueError, OSError) as exc:
        return _error(exc, 2)


if __name__ == "__main__":
    sys.exit(main())
