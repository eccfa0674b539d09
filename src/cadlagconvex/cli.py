"""Batch verification front-end.

Subcommands: ``verify`` runs one theorem check on an instance file and emits
a machine-readable report, ``refine`` rewrites a file on a finer grid,
``model`` emits a bundled preset instance, ``report-diff`` compares two
reports modulo their timestamps.  Exit codes: 0 pass, 1 fail, 2 schema
error, bad argument or unwritable output, 3 brute-force budget exceeded,
4 assumption failure under --strict.

A command reports a problem by raising; :func:`main` is the one place that
turns an exception into a stderr line and an exit code.

Importing this module loads the core calculus only.  The market, cone and
generator modules are imported by the check bodies that run them:
``finmodels`` (and ``polycone``) by ``currency``, ``polycone`` by
``cs-regularity``, ``generators`` by ``involution`` and
``recession-support``; reading a model section loads them too (see
:mod:`cadlagconvex.serialize`).  Each import sits inside the function and
reads the module attribute on every call, so a wrapper installed on that
attribute (as the bench tracer does) sees the call.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from functools import cache
from typing import Dict, List, Optional

from . import duality, presets
from .duality import (BudgetExceededError, Instance, assumption_report,
                      bruteforce_gap_bound, conj_bruteforce, conj_pointwise,
                      eval_Fhat, indicator_integrand, interchange_det,
                      interchange_stoch, make_instance, subdiff_check,
                      support_DS)
from .plconvex import once, support_fn
from .rationals import INF, NEG_INF, is_finite, rat
from .scenario import check_adapted, jensen_check
from .serialize import (InstanceDoc, SchemaError, dump_instance, dump_report,
                        load_instance, reports_equal)
from .setmaps import michael_check, projection_selection

EXIT_PASS, EXIT_FAIL, EXIT_SCHEMA, EXIT_BUDGET, EXIT_ASSUMPTION = 0, 1, 2, 3, 4
MAX_LINE = 1000  # a longer stderr line, which may quote a whole input value, is cut


class CommandError(Exception):
    """A rejected command; ``main`` prints the message as it is and exits 2."""


def _check_sampled(idoc: InstanceDoc, args, fails) -> Dict:
    """Count the instance's integrands and --count random ones where fails(fn)."""
    from .generators import rand_plconvex
    rng = random.Random(args.seed)
    fns = [fn for fam in (idoc.instance.h, idoc.instance.htilde)
           for slots in fam.functions.values() for fn in slots]
    fns += [rand_plconvex(rng) for _ in range(args.count)]
    failures = [i for i, fn in enumerate(fns) if fails(fn)]
    return {"lhs": len(fns), "rhs": len(fns) - len(failures),
            "gap": len(failures), "pass": not failures,
            "details": {"failures": failures}}


def _check_involution(idoc: InstanceDoc, args) -> Dict:
    return _check_sampled(idoc, args, lambda fn: fn.conjugate().conjugate() != fn)


def _check_recession_support(idoc: InstanceDoc, args) -> Dict:
    return _check_sampled(
        idoc, args, lambda fn: support_fn(fn.conjugate().domain) != fn.recession())


def _assumption_list(rep: Dict) -> List[Dict]:
    return [{"name": k, "ok": v} for k, v in rep["summary"].items() if k != "all_ok"]


def _check_interchange_det(idoc: InstanceDoc, args) -> Dict:
    rep = interchange_det(idoc.instance, side=args.side)
    assum = [{"name": k, "ok": bool(v)} for k, v in rep["assumptions"].items()
             if not k.endswith("slots")]
    return {"lhs": rep["lhs"], "rhs": rep["rhs"], "gap": rep["gap"],
            "assumptions": assum, "pass": bool(rep["ok"]),
            "assumptions_ok": rep["assumptions_ok"],
            "details": {"vacuous": rep["vacuous"],
                        "michael_failing_slots": rep["assumptions"]["michael_failing_slots"]}}


def _check_interchange_stoch(idoc: InstanceDoc, args) -> Dict:
    rep = interchange_stoch(idoc.instance, form=args.form)
    witness = rep.get("witness")
    return {"lhs": rep["lhs"], "rhs": rep["rhs"],
            "gap": None if rep["vacuous"] else rep["lhs"] - rep["rhs"]
            if is_finite(rep["lhs"]) and is_finite(rep["rhs"]) else None,
            "assumptions": [{"name": k, "ok": bool(v)}
                            for k, v in rep["assumptions"].items()],
            "assumptions_ok": rep["assumptions_ok"],
            "pass": bool(rep["ok"]),
            "details": {"form": rep["form"], "vacuous": rep["vacuous"],
                        "witness_found": witness is not None}}


def _check_against_oracle(idoc: InstanceDoc, args, formula, oracle_of, key: str) -> Dict:
    """Compare formula and the lattice oracle, both on oracle_of(instance), per dual.

    An entry verifies when 0 <= formula - oracle <= the lattice gap bound, or
    when both sides are the -inf sentinel of an empty selection set (for
    conj_pointwise, of an empty fine coordinate: then Fhat is +inf).
    """
    inst = idoc.instance
    if not idoc.duals:
        raise SchemaError(f"{args.theorem} check needs at least one dual pair")
    oracle = oracle_of(inst)
    rep = assumption_report(oracle)
    B = args.B if args.B is not None else 2 * inst.magnitude_bound()
    delta = args.delta
    entries, ok = [], True
    for k, d in enumerate(idoc.duals):
        value = formula(oracle, d)
        brute = conj_bruteforce(oracle, d, B, delta, budget=args.budget)
        bound = bruteforce_gap_bound(d, delta)
        if value in (INF, NEG_INF) or brute == NEG_INF:
            verified = value == NEG_INF and brute == NEG_INF
            gap = None
        else:
            gap = value - brute
            verified = 0 <= gap <= bound
        ok = ok and verified
        entries.append({"dual": k, key: value, "bruteforce": brute,
                        "gap": gap, "bound": bound, "verified": verified})
    return {"lhs": entries[0][key], "rhs": entries[0]["bruteforce"],
            "gap": max((e["gap"] for e in entries if e["gap"] is not None),
                       default=Fraction(0)),
            "bound": max((e["bound"] for e in entries), default=Fraction(0)),
            "assumptions": _assumption_list(rep), "assumptions_ok": rep["all_ok"],
            "pass": ok, "details": {"B": B, "delta": delta, "duals": entries}}


def _check_conjugate(idoc: InstanceDoc, args) -> Dict:
    return _check_against_oracle(idoc, args, conj_pointwise, lambda inst: inst, "pointwise")


def _constraint_indicator(inst: Instance) -> Instance:
    """The instance with h replaced by the indicator of S and htilde defaulted;
    built once per instance, so a reloaded file reuses its refinement."""
    return once(inst, "constraint_indicator", lambda: make_instance(
        inst.tree, inst.grid, indicator_integrand(inst.S, "optional"),
        inst.mu, inst.mutilde, None, inst.S, inst.Stilde))


def _check_support_ds(idoc: InstanceDoc, args) -> Dict:
    report = _check_against_oracle(idoc, args, support_DS, _constraint_indicator, "formula")
    report["details"] = {"duals": report["details"]["duals"]}
    return report


def _check_subdiff(idoc: InstanceDoc, args) -> Dict:
    inst = idoc.instance
    if not idoc.duals or not idoc.paths:
        raise SchemaError("subdiff check needs a path and a dual pair")
    entries, ok = [], True
    for pk, y in enumerate(idoc.paths):
        if not check_adapted(y):
            raise SchemaError(f"path {pk} is not adapted")
        primal = eval_Fhat(inst, y)
        if primal == INF:
            entries.append({"path": pk, "skipped": "infinite primal value"})
            continue
        for dk, d in enumerate(idoc.duals):
            rep = subdiff_check(inst, y, d, primal)
            ok = ok and rep["equivalence_ok"]
            entries.append({"path": pk, "dual": dk,
                            "all_inclusions": rep["all_inclusions"],
                            "fenchel_gap": rep["fenchel_gap"],
                            "equivalence_ok": rep["equivalence_ok"]})
    rep0 = assumption_report(inst)
    return {"lhs": len(entries), "rhs": sum(1 for e in entries if e.get("equivalence_ok")),
            "assumptions": _assumption_list(rep0), "assumptions_ok": rep0["all_ok"],
            "pass": ok and any("dual" in e for e in entries), "details": {"pairs": entries}}


def _check_jensen(idoc: InstanceDoc, args) -> Dict:
    inst = idoc.instance
    if not idoc.paths:
        raise SchemaError("jensen check needs at least one path")
    entries, ok = [], True
    for k, w in enumerate(idoc.paths):
        rep = jensen_check(inst.h, inst.mu, w, projection="optional")
        ok = ok and rep["ok"]
        entries.append({"path": k, "lhs": rep["lhs"], "rhs": rep["rhs"],
                        "ok": rep["ok"]})
    return {"lhs": entries[0]["lhs"], "rhs": entries[0]["rhs"],
            "pass": ok, "details": {"paths": entries}}


def _check_michael(idoc: InstanceDoc, args) -> Dict:
    inst = idoc.instance
    entries, ok = [], True
    for s in inst.tree.scenarios:
        rep = michael_check(inst.s_map(s))
        ok = ok and rep["matches_right_isc"]
        entries.append({"scenario": s,
                        "representation_holds": rep["representation_holds"],
                        "right_isc": rep["right_isc"],
                        "matches_right_isc": rep["matches_right_isc"],
                        "failing_slots": rep["failing_slots"]})
    return {"lhs": len(entries), "rhs": sum(1 for e in entries if e["matches_right_isc"]),
            "pass": ok, "details": {"scenarios": entries}}


def _check_projection(idoc: InstanceDoc, args) -> Dict:
    inst = idoc.instance
    x = args.x
    entries, ok = [], True
    for s in inst.tree.scenarios:
        sm = inst.s_map(s)
        try:
            path = projection_selection(sm, x)
        except ValueError as exc:
            entries.append({"scenario": s, "error": str(exc)})
            ok = False
            continue
        sel_ok = sm.is_selection(path)
        dist_ok = all(abs(x - v) == sm.attainable_at(i).distance_to(x)
                      for i, v in enumerate(path.values))
        ok = ok and sel_ok and dist_ok
        entries.append({"scenario": s, "selection": sel_ok, "distance": dist_ok})
    return {"lhs": len(entries), "rhs": sum(1 for e in entries if "error" not in e),
            "pass": ok, "details": {"x": x, "scenarios": entries}}


def _model_parts(idoc: InstanceDoc, args, kind: str) -> Dict:
    """The parsed parts of the file's model, which must be of the given type."""
    if idoc.model is None or idoc.model.kind != kind:
        raise SchemaError(f"{args.theorem} check needs a model of type {kind!r}")
    return idoc.model.parts


def _check_cs(idoc: InstanceDoc, args) -> Dict:
    from .polycone import cs_regularity_check
    parts = _model_parts(idoc, args, "cs")
    rep = cs_regularity_check(parts["G"], parts["Gtilde"])
    return {"lhs": None, "rhs": None,
            "assumptions": [
                {"name": "efficient_friction",
                 "ok": all(rep["efficient_friction_G"]) and all(rep["efficient_friction_Gtilde"])},
                {"name": "right_regular", "ok": all(rep["right_regular"])},
                {"name": "left_regular", "ok": all(rep["left_regular"])},
            ],
            "pass": rep["pass"], "details": rep}


def _check_currency(idoc: InstanceDoc, args) -> Dict:
    from .finmodels import currency_model
    parts = _model_parts(idoc, args, "currency")
    try:
        cm = currency_model(parts["solvency"])
    except ValueError as exc:
        return {"lhs": None, "rhs": None,
                "assumptions": [{"name": "preconditions", "ok": False}],
                "pass": False, "details": {"error": str(exc)}}
    rng = random.Random(args.seed)
    entries, ok = [], True
    for k, (u, ut) in enumerate(parts["duals"]):
        mem = cm.is_member(u, ut)
        entry = {"dual": k, "member": mem["member"]}
        if mem["member"]:
            worst = cm.max_sampled_pairing(rng, u, ut, args.count)
            entry["max_sampled_pairing"] = worst
            entry["polarity_ok"] = worst <= 0
            ok = ok and worst <= 0
        entries.append(entry)
    return {"lhs": len(entries), "rhs": sum(1 for e in entries if e["member"]),
            "assumptions": [{"name": "preconditions", "ok": True}],
            "pass": ok, "details": {"report": cm.report, "duals": entries}}


_CHECKS = {
    "involution": _check_involution,
    "recession-support": _check_recession_support,
    "interchange-det": _check_interchange_det,
    "interchange-stoch": _check_interchange_stoch,
    "conjugate": _check_conjugate,
    "subdiff": _check_subdiff,
    "support-ds": _check_support_ds,
    "jensen": _check_jensen,
    "michael": _check_michael,
    "projection": _check_projection,
    "cs-regularity": _check_cs,
    "currency": _check_currency,
}

THEOREMS = tuple(_CHECKS)


def _parse_args(args) -> None:
    """Turn --B, --delta and --x into rationals, check --count, resolve the budget.

    Checked whatever the theorem; currency also needs a positive --count.
    Raises :class:`CommandError` with a ``bad argument:`` message.
    """
    for name, positive in (("B", True), ("delta", True), ("x", False)):
        text = getattr(args, name)
        if text is None:
            continue
        try:
            value = rat(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or (positive and value <= 0):
            kind = "a positive rational" if positive else "a rational"
            raise CommandError(f"bad argument: --{name} must be {kind}, got {text!r}")
        setattr(args, name, value)
    least = 1 if args.theorem == "currency" else 0
    if args.count < least:
        kind = "a positive" if least else "a nonnegative"
        raise CommandError(f"bad argument: --count must be {kind} integer for "
                           f"{args.theorem}, got {args.count}")
    try:
        args.budget = duality.resolve_budget(args.budget)
    except ValueError as exc:
        raise CommandError(f"bad argument: {exc}") from exc


def cmd_verify(args) -> int:
    _parse_args(args)
    idoc = load_instance(args.file)
    # a check sets only the report keys whose value differs from these
    report = {"theorem": args.theorem, "gap": None, "bound": 0, "assumptions": [],
              **_CHECKS[args.theorem](idoc, args), "timestamp": f"{time.time():.6f}"}
    print(dump_report(report, args.report), end="")
    if args.strict and not report.get("assumptions_ok", True):
        return EXIT_ASSUMPTION
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def _write_instance(idoc: InstanceDoc, path: str) -> int:
    dump_instance(idoc, path)
    print(f"wrote {path}")
    return EXIT_PASS


def cmd_refine(args) -> int:
    if args.factor < 2:
        raise CommandError("refinement factor must be >= 2")
    return _write_instance(load_instance(args.file).refine(args.factor), args.output)


def cmd_model(args) -> int:
    try:
        path = presets.bundled_instance_path(args.name)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    return _write_instance(load_instance(path), args.output)


def _read_report(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CommandError(f"cannot read reports: {exc}") from exc


def cmd_report_diff(args) -> int:
    a, b = _read_report(args.a), _read_report(args.b)
    if not isinstance(a, dict) or not isinstance(b, dict):
        raise CommandError("cannot read reports: a report must be a JSON object")
    try:
        same = reports_equal(a, b)
    except RecursionError as exc:  # decoded, but too deep to compare
        raise CommandError(f"cannot read reports: {exc}") from exc
    if same:
        print("reports agree (timestamps ignored)")
        return EXIT_PASS
    print("reports differ")
    return EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cadlag-convex",
                                description="exact duality checks for step-path instances")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run one theorem check on an instance file")
    v.add_argument("file")
    v.add_argument("--theorem", required=True, choices=THEOREMS)
    v.add_argument("--B", default=None, help="lattice radius (default from instance data)")
    v.add_argument("--delta", default="1/100", help="lattice step")
    v.add_argument("--report", default=None, help="write the report JSON here")
    v.add_argument("--strict", action="store_true",
                   help="exit 4 when assumption checks fail")
    v.add_argument("--count", type=int, default=100,
                   help="random cases for sampled checks")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--side", choices=("cadlag", "caglad"), default="cadlag")
    v.add_argument("--form", choices=("F", "Fhat"), default="Fhat")
    v.add_argument("--x", default="0", help="anchor point for projection checks")
    v.add_argument("--budget", type=int, default=None,
                   help=f"cap on lattice points in the brute-force search "
                        f"(env {duality.BUDGET_ENV_VAR})")
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("refine", help="rewrite an instance on a finer grid")
    r.add_argument("file")
    r.add_argument("--factor", type=int, required=True)
    r.add_argument("-o", "--output", required=True)
    r.set_defaults(fn=cmd_refine)

    m = sub.add_parser("model", help="emit a bundled preset instance")
    m.add_argument("name")
    m.add_argument("-o", "--output", required=True)
    m.set_defaults(fn=cmd_model)

    d = sub.add_parser("report-diff", help="compare two reports modulo timestamp")
    d.add_argument("a")
    d.add_argument("b")
    d.set_defaults(fn=cmd_report_diff)
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command and map what it raises to one stderr line and an exit code.

    Only rejected input is mapped; any other exception propagates.  The
    parser is built on the first call and reused (``functools.cache``):
    ``parse_args`` returns a fresh namespace and every default is immutable,
    so no state carries over between calls.  Building it takes about ten
    times as long as parsing; it is not built at import time.  Per-object
    memos are ``plconvex.once`` when keyed, ``cached_property`` otherwise."""
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CommandError as exc:
        line, code = str(exc), EXIT_SCHEMA
    except SchemaError as exc:
        line, code = f"schema error: {exc}", EXIT_SCHEMA
    except BudgetExceededError as exc:
        line, code = f"budget exceeded: {exc}", EXIT_BUDGET
    except OSError as exc:  # load_instance and _read_report turn read errors into the above
        line, code = f"cannot write output: {exc}", EXIT_SCHEMA
    print(line if len(line) <= MAX_LINE else line[:MAX_LINE - 3] + "...", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
