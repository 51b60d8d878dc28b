"""Command line front end.

Exit codes: 0 on success, 2 for unusable input (missing or unreadable
files and directories given as files, schema or domain validation errors,
out-of-scope requests, negative radii or --max-dim, an algebra of dimension
above --max-dim), 3 when the input is well formed but a check fails (hull
axioms, freeness, fitting labels), 1 when standard output is closed before
the document is written (e.g. piped into `head`); that case prints no
traceback.

All output is JSON with sorted keys, so identical inputs and flags produce
byte-identical documents.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__, bundles, schema
from .actions import (FixedPointScopeError, action_degree_bound,
                      emit_polynomial_action, freeness_check, orbit_sample,
                      torus_rank)
from .cohomology import (MAX_COMPLEX_DIM, cohomology_ranks, duality_report,
                         euler_characteristic)
from .hull import fitting_radical_check, hull_axiom_check
from .jordan import additive_jordan, multiplicative_jordan
from .lie import lie_closure, lower_central_series
from .linalg import frac_to_str
from .schema import SchemaError

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INVALID = 2
EXIT_FAILED = 3


def _print(obj):
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_bundle(name_or_path):
    raw = bundles.bundle_bytes(name_or_path)
    bundle = bundles.load_bundle_bytes(raw)
    return bundle, hashlib.sha256(raw).hexdigest()


def _point_json(point):
    return [frac_to_str(x) for x in point]


# ------------------------------------------------------------------
# per-command workers, each returning (jsonable, exit code)

def _cmd_bundles(args):
    desc = bundles.descriptions()
    return {"bundles": [{"name": n, "description": desc[n]}
                        for n in bundles.builtin_names()]}, EXIT_OK


def _cmd_validate(args):
    bundle, digest = _load_bundle(args.bundle)
    return {"bundle": bundle.name, "input_sha256": digest, "valid": True}, EXIT_OK


def _cmd_jordan(args):
    with open(args.matrix, "rb") as fh:
        obj = json.load(fh)
    try:
        m = schema.matrix(obj, "$")
    except SchemaError as exc:
        raise ValueError(f"invalid matrix: {exc}") from None
    out = {"matrix": m.to_json()}
    if m.det() != 0:
        parts = multiplicative_jordan(m)
        out["decomposition"] = "multiplicative"
        out["semisimple"] = parts.semisimple.to_json()
        out["unipotent"] = parts.unipotent.to_json()
    else:
        parts = additive_jordan(m)
        out["decomposition"] = "additive"
        out["semisimple"] = parts.semisimple.to_json()
        out["nilpotent"] = parts.nilpotent.to_json()
    return out, EXIT_OK


def _closure_section(bundle):
    alg = lie_closure(bundle.hull.u_data)
    series = lower_central_series(alg)
    return {"dim": alg.dim,
            "nilpotency_class": alg.nilpotency_class(),
            "labels": list(alg.labels),
            "brackets": [[i, j, [frac_to_str(c) for c in coeffs]]
                         for (i, j), coeffs in sorted(alg.brackets.items())],
            "series_dims": [len(layer) for layer in series]}


def _cmd_lie_closure(args):
    bundle, _ = _load_bundle(args.bundle)
    return _closure_section(bundle), EXIT_OK


def _hull_section(bundle):
    cert = hull_axiom_check(bundle.hull, bundle.gamma)
    fit = fitting_radical_check(bundle.gamma, bundle.hull)
    obj = cert.to_json()
    obj["fitting_ok"] = fit.ok
    if fit.offender is not None:
        obj["fitting_offender"] = fit.offender
    return obj, cert.passed and fit.ok


def _cmd_hull_check(args):
    bundle, _ = _load_bundle(args.bundle)
    obj, ok = _hull_section(bundle)
    return obj, EXIT_OK if ok else EXIT_FAILED


def _cmd_emit_action(args):
    bundle, _ = _load_bundle(args.bundle)
    maps = emit_polynomial_action(bundle.gamma)
    return {"degree_bound": action_degree_bound(bundle.gamma.algebra),
            "maps": {name: pm.to_json() for name, pm in maps.items()}}, EXIT_OK


def _freeness_section(bundle, radius):
    res = freeness_check(bundle.gamma, radius=radius)
    obj = {"free": res.free, "radius": res.radius}
    if not res.free:
        obj["witness_word"] = res.witness_word
        obj["witness_point"] = _point_json(res.witness_point)
    return obj, res.free


def _cmd_free_check(args):
    bundle, _ = _load_bundle(args.bundle)
    obj, ok = _freeness_section(bundle, args.radius)
    return obj, EXIT_OK if ok else EXIT_FAILED


def _cmd_orbit(args):
    bundle, _ = _load_bundle(args.bundle)
    pts = orbit_sample(bundle.gamma, radius=args.radius)
    return {"radius": args.radius, "count": len(pts),
            "points": [_point_json(p) for p in pts]}, EXIT_OK


def _cmd_torus_rank(args):
    bundle, _ = _load_bundle(args.bundle)
    return {"torus_rank": torus_rank(bundle.gamma, bundle.hull)}, EXIT_OK


def _cohomology_section(bundle, max_dim):
    alg = bundle.hull.algebra
    hols = bundle.hull.hol_matrices
    full = cohomology_ranks(alg, max_dim=max_dim)
    rep = duality_report(alg, hols, max_dim=max_dim)
    return {"betti": list(full),
            "invariant_betti": list(rep.ranks),
            "euler_characteristic": euler_characteristic(full),
            "euler_invariant": euler_characteristic(rep.ranks),
            "orientable": rep.orientable,
            "duality_ok": rep.duality_ok}


def _cmd_betti(args):
    bundle, _ = _load_bundle(args.bundle)
    return _cohomology_section(bundle, args.max_dim), EXIT_OK


def _cmd_report(args):
    bundle, digest = _load_bundle(args.bundle)
    closure = _closure_section(bundle)
    hull_obj, hull_ok = _hull_section(bundle)
    free_obj, free_ok = _freeness_section(bundle, args.radius)
    report = {"bundle": bundle.name,
              "description": bundle.description,
              "input_sha256": digest,
              "closure": closure,
              "hull": hull_obj,
              "freeness": free_obj,
              "cohomology": _cohomology_section(bundle, args.max_dim),
              "torus_rank": torus_rank(bundle.gamma, bundle.hull)}
    mismatches = _expect_mismatches(bundle.expect, report)
    if mismatches:
        report["expect_mismatches"] = mismatches
    return report, EXIT_OK if (hull_ok and free_ok and not mismatches) else EXIT_FAILED


def _expect_mismatches(expect, report):
    actual = {"free": report["freeness"]["free"],
              "axioms": report["hull"]["passed"] and report["hull"]["fitting_ok"],
              "betti": report["cohomology"]["betti"],
              "invariant_betti": report["cohomology"]["invariant_betti"],
              "torus_rank": report["torus_rank"],
              "orientable": report["cohomology"]["orientable"]}
    out = []
    for key, want in sorted(expect.items()):
        if key in actual and actual[key] != want:
            out.append({"key": key, "expected": want, "actual": actual[key]})
    return out


def nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="infrasolv",
        description="Exact computations with lattice actions on nilpotent "
                    "Lie groups: hull checks, affine actions, cohomology.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, bundle_arg=True):
        p = sub.add_parser(name, help=help_text)
        if bundle_arg:
            p.add_argument("bundle",
                           help="builtin bundle name or path to a bundle file")
        p.set_defaults(fn=fn)
        return p

    add("bundles", _cmd_bundles, "list builtin bundles", bundle_arg=False)
    add("validate", _cmd_validate, "check a bundle file against the schema")
    j = add("jordan", _cmd_jordan, "decompose a rational square matrix",
            bundle_arg=False)
    j.add_argument("matrix", help="path to a JSON matrix (rows of entries)")
    add("lie-closure", _cmd_lie_closure,
        "Lie algebra generated by the logs of the unipotent generators")
    add("hull-check", _cmd_hull_check, "verify the hull axioms")
    add("emit-action", _cmd_emit_action,
        "polynomial action maps of the group generators")
    f = add("free-check", _cmd_free_check,
            "search a word ball for fixed points")
    f.add_argument("--radius", type=nonnegative_int, default=6)
    o = add("orbit", _cmd_orbit, "orbit of the origin, sorted")
    o.add_argument("--radius", type=nonnegative_int, default=6)
    add("torus-rank", _cmd_torus_rank, "rank of the split central torus")
    b = add("betti", _cmd_betti, "full and invariant Betti numbers")
    b.add_argument("--max-dim", type=nonnegative_int,
                   default=MAX_COMPLEX_DIM)
    r = add("report", _cmd_report, "all checks in one deterministic document")
    r.add_argument("--radius", type=nonnegative_int, default=6)
    r.add_argument("--max-dim", type=nonnegative_int,
                   default=MAX_COMPLEX_DIM)
    return parser


# built once: the workers are looked up in this module's globals at call time
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        obj, code = args.fn(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SchemaError as exc:
        print(f"invalid bundle: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except FixedPointScopeError as exc:
        print(f"out of scope: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        _print(obj)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the interpreter's
        # final flush fails no more, as the `signal` module docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
