"""Command-line interface.

Subcommands: validate, branchings, summary, move, walk, hcheck, torsion,
euler, census, invariance.  Every command prints one JSON report to
stdout.  Reports are deterministic for fixed inputs, flags and seed;
the optional --timing flag adds a timing_ms field that is exempt from
the determinism guarantee.  Exit status: 0 success, 1 validation, syntax,
argument or file error, 2 computation error.
"""

import argparse
import json
import sys
import time

from .census import census_branched
from .complexes import (CellComplexX, GroupData, Representation,
                        SpiderAnchors, TwistedComplex)
from .errors import (MoveError, RelatorNotKilled, SpineError,
                     SpineSyntaxError, TorsionError, TransportFailure,
                     ValidationError)
from .euler import euler_data, path_choice_independence, pd_consistency
from .moves import (apply_negative, h_cycle_check, is_rigid, positive_move,
                    random_walk)
from .spinefile import (parse, parse_move_log, replay_move_log, serialize,
                        serialize_move_log)
from .torsion import (HomologicalOrientation, auto_twisted_homology,
                      invariance_suite, sign_refined_torsion, torsion)


def spine_summary(spine):
    group = GroupData(CellComplexX(spine))
    chi_spine, chi_x = spine.euler_characteristics()
    return {
        "tetrahedra": spine.tet_count,
        "spine_vertices": spine.spine_vertex_count,
        "spine_edges": spine.spine_edge_count,
        "regions": spine.region_count,
        "chi_spine": chi_spine,
        "chi_quotient": chi_x,
        "h1_free_rank": group.free_rank,
        "h1_torsion": list(group.torsion),
        "boundary_components": [
            {"chi": chi, "genus": genus} for chi, genus in spine.boundary_report()
        ],
    }


def _read_spine(path):
    with open(path) as fh:
        return parse(fh.read())


def _at_least(value, low, flag):
    if value < low:
        raise SpineSyntaxError("%s must be at least %d, got %d" % (flag, low, value))
    return value


def _parse_rep_spec(spec):
    if spec == "trivial":
        return ("trivial", None, None)
    if spec == "free-abelian":
        return ("free_abelian", None, None)
    if spec.startswith("cyclic:"):
        bits = spec.split(":")
        if len(bits) not in (2, 3) or not bits[1].isdigit() \
                or int(bits[1]) < 1:
            raise SpineSyntaxError("bad representation spec %r: the cyclic "
                                   "order must be an integer >= 1" % spec)
        character = None
        if len(bits) == 3 and bits[2]:
            try:
                character = [int(x) for x in bits[2].split(",")]
            except ValueError:
                raise SpineSyntaxError(
                    "bad representation spec %r: character entries must be "
                    "integers" % spec) from None
        return ("cyclic", int(bits[1]), character)
    raise SpineSyntaxError("bad representation spec %r" % spec)


def _make_rep(group, spec):
    kind, order, character = _parse_rep_spec(spec)
    if kind == "trivial":
        return Representation.trivial(group)
    if kind == "free_abelian":
        return Representation.free_abelian(group)
    return Representation.cyclic(group, order, character)


def _torsion_report(spine, spec, sign_refined, homology_basis):
    X = CellComplexX(spine)
    G = GroupData(X)
    rep = _make_rep(G, spec)
    tc = TwistedComplex(spine, X, SpiderAnchors(spine, X), rep)
    h = "auto" if homology_basis == "auto" else None
    if sign_refined:
        value = sign_refined_torsion(spine, tc, h=h)
    else:
        value = torsion(tc, h=h)
    return {
        "representation": spec,
        "sign_refined": bool(sign_refined),
        "acyclic": value.acyclic,
        "homology_basis_used": value.homology_basis_used,
        "orientation_used": value.orientation_used,
        "value": value.to_str(),
    }


def _hcheck_report(report):
    rows = []
    for (label, eps, e0, e1) in report.rows:
        if e0 == e1:
            boundary = "0"
        elif eps == 1:
            boundary = "%s-%s" % (e0, e1)
        else:
            boundary = "%s-%s" % (e1, e0)
        rows.append({"simplex": label, "sign": eps,
                     "end0": e0, "end1": e1, "boundary": boundary})
    bits = []
    for k, c in sorted(report.total.items()):
        if c > 0:
            bits.append(("+ " if bits else "") + ("%d%s" % (c, k) if c != 1 else k))
        else:
            bits.append("- " + ("%d%s" % (-c, k) if c != -1 else k))
    total = " ".join(bits) or "0"
    free, tors = report.h_class
    return {
        "rows": rows,
        "total": total,
        "is_null": report.is_null,
        "h_class_free": list(free),
        "h_class_torsion": list(tors),
    }


def _move_report(move):
    return {
        "direction": move.direction,
        "site": move.site,
        "variant": move.variant,
        "new_edge_direction": move.new_edge_direction,
        "after_tetrahedra": move.after.tet_count,
        "after_spine": serialize(move.after),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="spinetorsion",
        description="Branched spines, sliding moves and torsion invariants.")
    ap.add_argument("--timing", action="store_true",
                    help="add a timing_ms field to the report")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a spine file")
    p.add_argument("file")

    p = sub.add_parser("branchings", help="enumerate branchings of the triangulation")
    p.add_argument("file")

    p = sub.add_parser("summary", help="counts, homology and boundary data")
    p.add_argument("file")
    p.add_argument("--matrices", action="store_true",
                   help="include the integer boundary matrices")

    p = sub.add_parser("move", help="apply one move")
    p.add_argument("file")
    p.add_argument("--face", type=int, help="positive move at this face class")
    p.add_argument("--variant", type=int, default=0,
                   help="which central-edge orientation (default 0)")
    p.add_argument("--edge", type=int, help="negative move at this edge class")
    p.add_argument("--out", help="write the resulting spine file here")

    p = sub.add_parser("walk", help="seeded random walk of moves")
    p.add_argument("file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--h-null-only", action="store_true")
    p.add_argument("--max-tets", type=int, default=None)
    p.add_argument("--out", help="write the final spine file here")

    p = sub.add_parser("hcheck", help="certificate table of a positive move")
    p.add_argument("file")
    p.add_argument("--face", type=int, required=True)
    p.add_argument("--variant", type=int, default=0)

    p = sub.add_parser("torsion", help="torsion of the twisted complex")
    p.add_argument("file")
    p.add_argument("--rep", required=True,
                   help="trivial | free-abelian | cyclic:N[:CHAR]")
    p.add_argument("--sign-refined", action="store_true")
    p.add_argument("--homology-basis", choices=["auto"], default=None)

    p = sub.add_parser("euler", help="Euler chain class and maw cochain")
    p.add_argument("file")

    p = sub.add_parser("census", help="enumerate branched spines up to isomorphism")
    p.add_argument("--tets", type=int, required=True)
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("invariance", help="torsion invariance along a walk")
    p.add_argument("file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--max-tets", type=int, default=None)

    args = ap.parse_args(argv)
    start = time.time()
    try:
        report = _run(args)
        status = report.pop("_exit_status", 0)
    except (SpineSyntaxError, ValidationError, OSError) as exc:
        report = {"command": args.command, "error": type(exc).__name__,
                  "message": str(exc)}
        status = 1
    except (MoveError, TorsionError, TransportFailure, RelatorNotKilled) as exc:
        report = {"command": args.command, "error": type(exc).__name__,
                  "message": str(exc)}
        status = 2
    if args.timing:
        report["timing_ms"] = int((time.time() - start) * 1000)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return status


def _run(args):
    cmd = args.command
    if cmd == "validate":
        spine = _read_spine(args.file)
        return {"command": cmd, "ok": True, "summary": spine_summary(spine)}

    if cmd == "branchings":
        from .spine import enumerate_branchings
        spine = _read_spine(args.file)
        found = enumerate_branchings(spine.triangulation)
        return {"command": cmd,
                "count": len(found),
                "branchings": [list(s.branching) for s in found]}

    if cmd == "summary":
        spine = _read_spine(args.file)
        out = {"command": cmd, "summary": spine_summary(spine)}
        out["rigid"] = is_rigid(spine)
        if args.matrices:
            X = CellComplexX(spine)
            out["boundary_matrices"] = {"d1": X.d1, "d2": X.d2, "d3": X.d3}
        return out

    if cmd == "move":
        spine = _read_spine(args.file)
        if (args.face is None) == (args.edge is None):
            raise SpineSyntaxError("give exactly one of --face or --edge")
        if args.face is not None:
            move = positive_move(spine, args.face, args.variant)
        else:
            move = apply_negative(spine, args.edge)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(serialize(move.after))
        return {"command": cmd, "move": _move_report(move),
                "move_log": serialize_move_log([move])}

    if cmd == "walk":
        spine = _read_spine(args.file)
        walk = random_walk(spine, _at_least(args.steps, 0, "--steps"), args.seed,
                           h_null_only=args.h_null_only,
                           max_tets=args.max_tets)
        final = walk[-1].after if walk else spine
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(serialize(final))
        return {"command": cmd,
                "steps": len(walk),
                "move_log": serialize_move_log(walk),
                "final_tetrahedra": final.tet_count,
                "final_spine": serialize(final)}

    if cmd == "hcheck":
        spine = _read_spine(args.file)
        move = positive_move(spine, args.face, args.variant)
        return {"command": cmd, "site": args.face, "variant": args.variant,
                "table": _hcheck_report(h_cycle_check(move))}

    if cmd == "torsion":
        spine = _read_spine(args.file)
        out = {"command": cmd}
        out.update(_torsion_report(spine, args.rep, args.sign_refined,
                                   args.homology_basis))
        return out

    if cmd == "euler":
        spine = _read_spine(args.file)
        data = euler_data(spine)
        free, tors = data.chain_class
        return {"command": cmd,
                "chain_class_free": list(free),
                "chain_class_torsion": list(tors),
                "cochain": list(data.cochain),
                "tangency_counts": list(data.tangency_counts),
                "path_choice_independent": path_choice_independence(spine),
                "dual_consistent": pd_consistency(spine)}

    if cmd == "census":
        spines = census_branched(_at_least(args.tets, 1, "--tets"))
        files = [serialize(s) for s in spines]
        if args.out_dir:
            import os
            os.makedirs(args.out_dir, exist_ok=True)
            for i, text in enumerate(files):
                with open(os.path.join(args.out_dir,
                                       "spine_%d_%03d.txt" % (args.tets, i)),
                          "w") as fh:
                    fh.write(text)
        return {"command": cmd, "tets": args.tets, "count": len(spines),
                "spines": files}

    if cmd == "invariance":
        kind, order, character = _parse_rep_spec(args.rep)
        spine = _read_spine(args.file)
        walk = random_walk(spine, _at_least(args.steps, 0, "--steps"), args.seed,
                           h_null_only=True,
                           max_tets=args.max_tets)
        report = invariance_suite(spine, walk, kind, order=order,
                                  character=character)
        steps = [{
            "step": i,
            "move": st.description,
            "before": st.before_value.to_str(),
            "after": st.after_value.to_str(),
            "equal_up_to_sign": st.equal,
            "sign_refined_equal": st.sign_refined_equal,
            "transport_note": st.transport_note,
        } for i, st in enumerate(report.steps)]
        out = {"command": cmd, "representation": args.rep,
               "steps": steps, "all_equal": report.all_equal,
               "first_violation": report.first_violation,
               "move_log": serialize_move_log(walk)}
        if not report.all_equal:
            out["_exit_status"] = 2
        return out

    raise AssertionError("unhandled command %r" % cmd)


if __name__ == "__main__":
    sys.exit(main())
