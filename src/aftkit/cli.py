"""Batch command-line interface.

Subcommands: ``laws`` (run the exhaustive law suites), ``space`` (print an
approximation space), ``model`` (compute a program's fixpoint model), and
``project`` (project an exact model back to its semantic objects). Exit
codes: 0 success, 1 failed law check or inexact model where exactness is
required, 2 usage or input errors. Identical invocations on identical inputs
print byte-identical output; the AFT_SIZE_CAP environment variable bounds
construction sizes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    AftError,
    InconsistentRevision,
    InternalLawFailure,
    NotMonotone,
)
from .holog import (
    analyze_model,
    compute_model,
    decode_value,
    encode_semantic,
    model_to_dict,
    parse_program,
    typecheck,
)
from .laws import run_suites
from .order import render_element
from .systems import load_system
from .typesys import parse_type

USAGE_EXIT = 2
FAILURE_EXIT = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aftkit",
        description="finite approximation spaces, exactness analysis, and "
                    "non-monotonic fixpoint models")
    sub = parser.add_subparsers(dest="command", required=True)

    laws = sub.add_parser("laws", help="run the exhaustive law suites")
    laws.add_argument("--max-size", type=int, default=4,
                      help="poset size bound for the ccc suite (default 4)")
    laws.add_argument("--suite", choices=["ccc", "bilat", "lu", "approx"],
                      action="append",
                      help="suite to run (repeatable; default: all)")

    space = sub.add_parser("space", help="print an approximation space")
    space.add_argument("--system", required=True,
                       help="builtin:<name> or a system JSON file")
    space.add_argument("--type", required=True, dest="type_text",
                       help="type expression, e.g. 'o->o'")
    space.add_argument("--show", choices=["exact", "consistent", "all"],
                       default="all")
    space.add_argument("--json", action="store_true")

    model = sub.add_parser("model", help="compute a program model")
    model.add_argument("program", help=".hl program file")
    model.add_argument("--system", required=True)
    model.add_argument("--mode", choices=["kk", "wf"], default="kk")
    model.add_argument("--experimental-lu-stable", action="store_true",
                       help="enable the experimental stable construction on "
                            "higher-order spaces")
    model.add_argument("--json", action="store_true")

    project = sub.add_parser("project",
                             help="project an exact model to its semantics")
    project.add_argument("model", help="model JSON produced by `model --json`")
    project.add_argument("--system", required=True)
    project.add_argument("--json", action="store_true")
    return parser


def cmd_laws(args) -> int:
    suites = args.suite or ["ccc", "bilat", "lu", "approx"]
    reports = run_suites(suites, max_size=args.max_size)
    ok = True
    for report in reports:
        for line in report.lines():
            print(line)
        ok = ok and report.ok
    return 0 if ok else FAILURE_EXIT


def cmd_space(args) -> int:
    system = load_system(args.system)
    t = parse_type(args.type_text)
    sp = system.app(t)
    exact = set(system.exact_elements(t))
    rows = []
    for e in sp.space.elements:
        is_exact = e in exact
        consistent = system.is_consistent_element(t, e)
        if args.show == "exact" and not is_exact:
            continue
        if args.show == "consistent" and not consistent:
            continue
        rows.append((render_element(sp.space, e), is_exact, consistent))
    if args.json:
        doc = {
            "system": system.name,
            "type": str(t),
            "count": len(rows),
            "elements": [{"value": v, "exact": ex, "consistent": co}
                         for v, ex, co in rows],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"{len(rows)} elements of App({t}) under {system.name} "
              f"(show={args.show})")
        for v, ex, co in rows:
            flags = "".join([" exact" if ex else "", " consistent" if co else ""])
            print(f"  {v}{flags}")
    return 0


def cmd_model(args) -> int:
    system = load_system(args.system)
    with open(args.program, "r", encoding="utf-8") as fh:
        text = fh.read()
    tp = typecheck(parse_program(text))
    interp = compute_model(tp, system, args.mode,
                           experimental_lu_stable=args.experimental_lu_stable)
    doc = model_to_dict(interp, tp, system)
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    analysis = analyze_model(interp, tp, system)
    print(f"{args.mode} model under {system.name}")
    for s in analysis.symbols:
        print(f"{s.name} : {s.type}")
        print(f"  value: {json.dumps(doc[s.name]['value'])}")
        print(f"  exact: {'true' if s.exact else 'false'}")
        if s.exact:
            print(f"  projection: {json.dumps(doc[s.name]['projection'])}")
    print(f"two-valued: {'true' if analysis.two_valued else 'false'}")
    return 0


def cmd_project(args) -> int:
    system = load_system(args.system)
    with open(args.model, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for name, entry in doc.items():
        t = parse_type(entry["type"])
        value = decode_value(system, t, entry["value"])
        if not system.is_exact(t, value):
            print(f"symbol {name} is not exact; no projection", file=sys.stderr)
            return FAILURE_EXIT
        out[name] = encode_semantic(system, t, system.project(t, value))
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        for name, proj in out.items():
            print(f"{name}: {json.dumps(proj)}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "laws": cmd_laws,
        "space": cmd_space,
        "model": cmd_model,
        "project": cmd_project,
    }
    try:
        return handlers[args.command](args)
    except (InternalLawFailure, NotMonotone, InconsistentRevision) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    except (AftError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
