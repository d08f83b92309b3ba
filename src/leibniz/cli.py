"""Command-line surface.

Examples:
  leibniz check --example A
  leibniz kernel --example hemi-sl2-L1
  leibniz trunc --bar --example A
  leibniz trunc-report --example N --field Fp:2
  leibniz chop --example sl2 --left sym:L1
  leibniz envelope --example e --which ulweak --cutoff 2 --dims
  leibniz gr mul --rule sl2 --lhs "S(1)" --rhs "S(1)+A(1)"
  leibniz gr props --rule weight:1 --window 2 --trials 200
  leibniz gr verify --rule sl2 --max 2
  leibniz gr verify --rule weight:2 --max 1
  leibniz paper-suite --seed 0

All file I/O is UTF-8 JSON.  Machine-readable output with --json carries
the same data as the text reports.  LEIBNIZ_SEED overrides the default
seed of every randomized check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebra as alg_mod
from . import envelope as env_mod
from . import groth as gr_mod
from . import suite as suite_mod
from . import tensor as tensor_mod
from .bimodule import (
    Bimodule,
    adjoint,
    antisymmetrize,
    classify_flags,
    is_invariant,
    kernels_and_invariants,
    one_dim_bimodule,
    sl2_irreducible,
    symmetrize,
    trivial_bimodule,
)
from .chop import chop
from .fields import Field, FieldError, QQ
from .linalg import Matrix


class CliError(ValueError):
    pass


def default_seed() -> int:
    text = os.environ.get("LEIBNIZ_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise CliError(f"LEIBNIZ_SEED must be an integer, not {text!r}") from None


def resolve_field(spec: str) -> Field:
    try:
        return Field.from_spec(spec)
    except FieldError as exc:
        raise CliError(str(exc)) from None


def resolve_algebra(args) -> alg_mod.LeibnizAlgebra:
    if getattr(args, "algebra_file", None):
        try:
            with open(args.algebra_file, encoding="utf-8") as fh:
                return alg_mod.LeibnizAlgebra.from_json(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read {args.algebra_file}: {exc}") from None
    field = resolve_field(getattr(args, "field", "Q"))
    name = getattr(args, "example", None)
    if not name:
        raise CliError("specify --example NAME or --algebra-file PATH")
    return alg_mod.builtin_algebra(name, field)


def _parse_scalars(field, text: str):
    return [field.parse(tok) for tok in text.split(",") if tok != ""]


# Largest module a spec builds: dense work on a module grows with the cube of
# its dimension, so larger sizes are refused before any matrix is built.
MAX_SPEC_DIM = 256


def _spec_size(spec: str, text: str, dim_offset: int) -> int:
    """The size in ``spec``, refused before anything is built when the module
    it names, of dimension size + ``dim_offset``, exceeds MAX_SPEC_DIM."""
    try:
        size = int(text)
    except ValueError:
        raise CliError(f"module spec {spec!r} needs an integer size, not {text!r}") from None
    if size + dim_offset > MAX_SPEC_DIM:
        raise CliError(f"module spec {spec!r} names a module of dimension "
                       f"{size + dim_offset}, over the cap {MAX_SPEC_DIM}")
    return size


def resolve_bimodule(spec: str, algebra) -> Bimodule:
    """Module specs: adjoint | trivial:<d> | sym:<vals> | anti:<vals> |
    sym:L<n> / anti:L<n> (sl2 highest weight) | onedim:<a>;<c> | file:<path>;
    trivial and sl2 modules have dimension at most MAX_SPEC_DIM."""
    field = algebra.field
    if spec == "adjoint":
        return adjoint(algebra)
    kind, _, rest = spec.partition(":")
    if kind == "trivial":
        return trivial_bimodule(algebra, _spec_size(spec, rest or "1", 0))
    if kind in ("sym", "anti"):
        build = symmetrize if kind == "sym" else antisymmetrize
        if rest.startswith("L"):
            return sl2_irreducible(algebra, _spec_size(spec, rest[1:], 1), kind)
        vals = _parse_scalars(field, rest)
        if len(vals) != algebra.dim:
            raise CliError(f"{kind}: expected {algebra.dim} functional values")
        return build(algebra, [Matrix(field, [[v]]) for v in vals], 1)
    if kind == "onedim":
        try:
            a_text, c_text = rest.split(";")
        except ValueError:
            raise CliError("onedim:<left values>;<right values>") from None
        return one_dim_bimodule(
            algebra, _parse_scalars(field, a_text), _parse_scalars(field, c_text)
        )
    if kind == "file":
        try:
            with open(rest, encoding="utf-8") as fh:
                return Bimodule.from_json(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read {rest}: {exc}") from None
    raise CliError(f"unknown module spec {spec!r}")


def _two_modules(args, algebra):
    """The two factors of a product, refused when its dimension exceeds MAX_SPEC_DIM."""
    specs = [getattr(args, side, None) or "adjoint" for side in ("left", "right")]
    left, right = (resolve_bimodule(spec, algebra) for spec in specs)
    if left.dim * right.dim > MAX_SPEC_DIM:
        raise CliError(f"the product of {specs[0]!r} and {specs[1]!r} has dimension "
                       f"{left.dim * right.dim}, over the cap {MAX_SPEC_DIM}")
    return left, right


def _subspace_doc(space):
    f = space.field
    return {
        "dim": space.dim,
        "basis": [[f.format(x) for x in row] for row in space.basis.rows],
    }


def emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, default=str))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k2, v2 in value.items():
                print(f"  {k2}: {v2}")
        elif isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  - {item}")
        else:
            print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (report dict, ok flag)


def cmd_check(args):
    algebra = resolve_algebra(args)  # refuses an algebra that fails the identity
    report = {
        "command": "check",
        "dim": algebra.dim,
        "basis": list(algebra.basis_names),
        "valid": True,
    }
    if args.dump:
        report["algebra"] = json.loads(algebra.to_json())
    return report, True


def cmd_kernel(args):
    algebra = resolve_algebra(args)
    ker = alg_mod.leibniz_kernel(algebra)
    info = alg_mod.products_and_series(algebra)
    report = {
        "command": "kernel",
        "kernel": _subspace_doc(ker),
        "product_span_dim": info["product_span"].dim,
        "is_perfect": info["is_perfect"],
        "is_solvable": info["is_solvable"],
        "derived_series_dims": info["derived_series_dims"],
    }
    return report, True


def cmd_canonical_lie(args):
    algebra = resolve_algebra(args)
    quot, morph = alg_mod.canonical_lie(algebra)
    report = {
        "command": "canonical-lie",
        "quotient_dim": quot.dim,
        "quotient_basis": list(quot.basis_names),
        "lie_check": alg_mod.is_lie(quot) is None,
        "projection_is_homomorphism": morph.is_homomorphism(),
        "quotient": json.loads(quot.to_json()),
    }
    return report, report["lie_check"]


def cmd_bimodule(args):
    algebra = resolve_algebra(args)
    mod = resolve_bimodule(args.module, algebra)
    rep = mod.axiom_report()
    report = {
        "command": "bimodule",
        "dim": mod.dim,
        "axioms": {
            "llm": rep.llm,
            "lml": rep.lml,
            "mll": rep.mll,
            "zd": rep.zd,
            "kind": rep.kind,
        },
        "flags": classify_flags(mod),
    }
    if rep.first_failure:
        report["axioms"]["first_failure"] = str(rep.first_failure)
    if mod.is_weak():
        data = kernels_and_invariants(mod)
        report["subspaces"] = {
            "M0_dim": data["M0"].dim,
            "MR_dim": data["MR"].dim,
            "LM_dim": data["LM"].dim,
            "Minv_dim": data["Minv"].dim,
            "M0_right_invariant": is_invariant(mod, data["M0"], "right"),
        }
    if args.dump:
        report["module"] = json.loads(mod.to_json())
    return report, True


def cmd_tensor(args):
    algebra = resolve_algebra(args)
    left, right = _two_modules(args, algebra)
    t = tensor_mod.tensor_bimodule(left, right)
    rep = t.axiom_report()
    defect = tensor_mod.mll_defect_span(left, right)
    report = {
        "command": "tensor",
        "dim": t.dim,
        "axioms": {"llm": rep.llm, "lml": rep.lml, "mll": rep.mll, "kind": rep.kind},
        "defect_span_dim": defect.dim,
        "mll_iff_defect_zero": rep.mll == (defect.dim == 0),
    }
    return report, True


def cmd_trunc(args):
    algebra = resolve_algebra(args)
    left, right = _two_modules(args, algebra)
    which = "under" if args.under else "bar"
    if args.under:
        product, kernel = tensor_mod.trunc_under, tensor_mod.coarse_kernel
    else:
        product, kernel = tensor_mod.trunc_bar, tensor_mod.truncation_kernel
    out = product(left, right)
    rep = out.axiom_report()
    report = {
        "command": f"trunc --{which}",
        "dim": out.dim,
        "kind": rep.kind,
    }
    if left.is_full() and right.is_full():
        report["kernel"] = _subspace_doc(kernel(left, right))
        # quotients of full factors are full bimodules; anything else is a bug
        return report, rep.kind == "full"
    return report, True


def cmd_trunc_report(args):
    algebra = resolve_algebra(args)
    left, right = _two_modules(args, algebra)
    data = tensor_mod.truncation_data(left, right)
    report = {
        "command": "trunc-report",
        "defect_span": _subspace_doc(data.s_span),
        "T": _subspace_doc(data.t),
        "T0": _subspace_doc(data.t0),
        "containment_verified": data.containment_verified,
        "T_equals_T0": data.t_equals_t0,
    }
    if not data.t_equals_t0:
        report["RESEARCH_FINDING"] = "strict inclusion T < T0 observed"
    return report, data.containment_verified


def cmd_chop(args):
    algebra = resolve_algebra(args)
    mod = resolve_bimodule(args.left or "adjoint", algebra)
    rep = chop(mod, seed=args.seed)
    f = algebra.field
    factors = []
    for fac in rep.factors:
        doc = {
            "dim": fac.dim,
            "symmetric": fac.symmetric,
            "anti_symmetric": fac.anti_symmetric,
            "trivial": fac.trivial,
        }
        if fac.left_scalars is not None:
            doc["left_scalars"] = [f.format(x) for x in fac.left_scalars]
            doc["right_scalars"] = [f.format(x) for x in fac.right_scalars]
        factors.append(doc)
    report = {
        "command": "chop",
        "dim": mod.dim,
        "factors": factors,
        "strategy": rep.strategy,
        "certified": rep.certified,
    }
    return report, True


def cmd_envelope(args):
    algebra = resolve_algebra(args)
    pres = env_mod.build_presentation(algebra, args.which, args.cutoff)
    report = {
        "command": "envelope",
        "which": args.which,
        "generators": list(pres.gen_names),
        "relation_count": len(pres.relations),
    }
    ok = True
    if args.dims:
        report["filtered_dims"] = pres.filtered_dims(args.cutoff)
    if args.primitive:
        report["degree_one_primitive_dim"] = env_mod.degree_one_primitive_dim(pres)
    if args.hopf:
        out = env_mod.hopf_check(pres)
        report["hopf"] = out
        ok = ok and all(out.values())
    if args.homs:
        homs = env_mod.standard_homs(algebra, max(2, args.cutoff))
        verdicts = {nm: homs[nm].verify() for nm in ("d0", "d1", "s0", "omega")}
        verdicts.update(env_mod.check_section_identities(algebra, max(2, args.cutoff)))
        report["homs"] = verdicts
        ok = ok and all(verdicts.values())
    return report, ok


def _weight_dim(spec: str) -> int:
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise CliError(f"bad weight dimension in {spec!r}") from None


def _base_ring(spec: str):
    if spec == "z":
        return gr_mod.integer_base()
    if spec == "sl2":
        return gr_mod.cg_base()
    if spec.startswith("weight:"):
        return gr_mod.group_base(QQ, _weight_dim(spec))
    raise CliError(f"unknown star side {spec!r}")


def _resolve_rule(spec: str):
    """Rule specs: weight:<k> | sl2 | star:<side>,<side> with sides
    weight:<k> | sl2 | z."""
    if spec == "sl2":
        return gr_mod.sl2_rule()
    if spec.startswith("weight:"):
        return gr_mod.weight_rule(QQ, _weight_dim(spec))
    if spec.startswith("star:"):
        sides = spec[5:].split(",")
        if len(sides) != 2:
            raise CliError("star rule needs exactly two sides")
        return gr_mod.star_product(_base_ring(sides[0]), _base_ring(sides[1]))
    raise CliError(f"unknown rule {spec!r}")


def _pair_label(rule, text: str):
    """The single label that one side of a ``gr verify`` pair names."""
    terms = list(gr_mod.parse_element(rule, text).terms.items())
    if len(terms) != 1 or terms[0][1] != 1:
        raise CliError(f"bad pair label {text!r}")
    return terms[0][0]


def _non_negative(args, *names):
    for name in names:
        if getattr(args, name) < 0:
            raise CliError(f"--{name} must be non-negative, not {getattr(args, name)}")


def cmd_gr_mul(args):
    rule = _resolve_rule(args.rule)
    lhs = gr_mod.parse_element(rule, args.lhs)
    rhs = gr_mod.parse_element(rule, args.rhs)
    product = gr_mod.gr_mul(rule, lhs, rhs)
    return (
        {
            "command": "gr mul",
            "rule": rule.name,
            "lhs": repr(lhs),
            "rhs": repr(rhs),
            "product": repr(product),
        },
        True,
    )


def cmd_gr_props(args):
    _non_negative(args, "window", "trials")
    rule = _resolve_rule(args.rule)
    window = rule.window(args.window or rule.default_window)
    out = gr_mod.identity_checkers(rule, window, trials=args.trials, seed=args.seed)
    verdicts = {}
    for name, v in out.items():
        doc = {"holds": v.holds, "tested": v.tested}
        if v.counterexample:
            doc["witness"] = {
                "elements": [repr(e) for e in v.counterexample["elements"]],
                "lhs": repr(v.counterexample["lhs"]),
                "rhs": repr(v.counterexample["rhs"]),
            }
        verdicts[name] = doc
    scan = gr_mod.criterion_scan(rule, window)
    return (
        {
            "command": "gr props",
            "rule": rule.name,
            "seed": args.seed,
            "trials": args.trials,
            "window_size": len(window),
            "identities": verdicts,
            "criterion_scan": [
                {
                    "property": s["property"],
                    "labels": [repr(l) for l in s["labels"]],
                    "confirmed": s["confirmed"],
                }
                for s in scan
            ],
        },
        True,
    )


def cmd_gr_verify(args):
    _non_negative(args, "max")
    rule = _resolve_rule(args.rule)
    if args.rule != "sl2" and not args.rule.startswith("weight:"):
        raise CliError("gr verify supports the sl2 and weight:<k> rules")
    if args.pairs:
        halves = [chunk.split("x") for chunk in args.pairs.split(";")]
        if any(len(h) != 2 for h in halves):
            raise CliError("pairs look like S(1)xA(2);UxS(1)")
        label_pairs = [tuple(_pair_label(rule, t) for t in h) for h in halves]
    else:
        labels = rule.window(args.max)
        label_pairs = [(x, y) for x in labels for y in labels]
    # refused before any module is built: an sl2 label of tag n names a
    # module of dimension n + 1, a weight label one of dimension 1
    dim = lambda l: l.tag + 1 if args.rule == "sl2" and l != gr_mod.UNIT else 1
    x, y = max(label_pairs, key=lambda pair: dim(pair[0]) * dim(pair[1]))
    if dim(x) * dim(y) > MAX_SPEC_DIM:
        raise CliError(f"the product of {x!r} and {y!r} has dimension "
                       f"{dim(x) * dim(y)}, over the cap {MAX_SPEC_DIM}")
    if args.rule == "sl2":
        reg = gr_mod.ClassRegistry("sl2", alg_mod.make_sl2(QQ))
    else:
        abelian = alg_mod.builtin_algebra(f"abelian:{_weight_dim(args.rule)}", QQ)
        reg = gr_mod.ClassRegistry("weight", abelian)
    pairs = [(reg.module(x), reg.module(y)) for x, y in label_pairs]
    out = gr_mod.verify_ring_vs_modules(rule, reg, pairs)
    return (
        {
            "command": "gr verify",
            "rule": rule.name,
            "pairs": len(pairs),
            "ok": out["ok"],
        },
        out["ok"],
    )


def cmd_paper_suite(args):
    results = suite_mod.run_all(seed=args.seed)
    report = {
        "command": "paper-suite",
        "seed": args.seed,
        "checks": [
            {"id": r.check_id, "ok": r.ok, "details": r.details} for r in results
        ],
        "passed": sum(1 for r in results if r.ok),
        "failed": sum(1 for r in results if not r.ok),
    }
    return report, all(r.ok for r in results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibniz",
        description="Exact computations with finite-dimensional Leibniz algebras",
    )
    sub = parser.add_subparsers(dest="command")
    # the parser whose usage a command with no handler prints
    parser.set_defaults(parser=parser)

    def common(p, modules=False):
        p.add_argument("--example", help="builtin algebra: A | N | e | sl2 | hemi-sl2-L1 | abelian:<n>")
        p.add_argument("--field", default="Q", help="Q or Fp:<p> (default Q)")
        p.add_argument("--algebra-file", help="path to an algebra JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if modules:
            p.add_argument("--left", help="module spec (default adjoint)")
            p.add_argument("--right", help="module spec (default adjoint)")

    p = sub.add_parser("check", help="validate an algebra table")
    common(p)
    p.add_argument("--dump", action="store_true", help="include the algebra JSON")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("kernel", help="Leibniz kernel and derived series")
    common(p)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("canonical-lie", help="quotient Lie algebra")
    common(p)
    p.set_defaults(fn=cmd_canonical_lie)

    p = sub.add_parser("bimodule", help="axiom report of a bimodule")
    common(p)
    p.add_argument("--module", default="adjoint", help="module spec")
    p.add_argument("--dump", action="store_true", help="include the module JSON")
    p.set_defaults(fn=cmd_bimodule)

    p = sub.add_parser("tensor", help="tensor product of two bimodules")
    common(p, modules=True)
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("trunc", help="truncated tensor product")
    common(p, modules=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--bar", action="store_true", help="closure truncation (default)")
    group.add_argument("--under", action="store_true", help="coarse truncation")
    p.set_defaults(fn=cmd_trunc)

    p = sub.add_parser("trunc-report", help="defect span, T, T0 and their relation")
    common(p, modules=True)
    p.set_defaults(fn=cmd_trunc_report)

    p = sub.add_parser("chop", help="composition series of a bimodule")
    common(p)
    p.add_argument("--left", help="module spec (default adjoint)")
    p.add_argument("--seed", type=int, default=default_seed())
    p.set_defaults(fn=cmd_chop)

    p = sub.add_parser("envelope", help="degree-truncated enveloping algebras")
    common(p)
    p.add_argument("--which", choices=["ul", "ulweak", "ulie"], default="ulweak")
    p.add_argument("--cutoff", type=int, default=3)
    p.add_argument("--dims", action="store_true", help="filtered dimensions")
    p.add_argument("--hopf", action="store_true", help="Hopf-structure checks")
    p.add_argument("--homs", action="store_true", help="standard homomorphism checks")
    p.add_argument(
        "--primitive", action="store_true", help="degree-1 primitive dimension"
    )
    p.set_defaults(fn=cmd_envelope)

    p = sub.add_parser("gr", help="symbolic Grothendieck rings")
    p.set_defaults(parser=p)
    grsub = p.add_subparsers()
    pm = grsub.add_parser("mul", help="multiply two elements")
    pm.add_argument("--rule", required=True, help="weight:<k> | sl2 | star:<a>,<b>")
    pm.add_argument("--lhs", required=True)
    pm.add_argument("--rhs", required=True)
    pm.add_argument("--json", action="store_true")
    pm.set_defaults(fn=cmd_gr_mul)
    pp = grsub.add_parser("props", help="identity checkers and criterion scan")
    pp.add_argument("--rule", required=True)
    pp.add_argument("--window", type=int, default=0, help="window radius / max tag")
    pp.add_argument("--trials", type=int, default=200)
    pp.add_argument("--seed", type=int, default=default_seed())
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(fn=cmd_gr_props)
    pv = grsub.add_parser("verify", help="ring vs module reconciliation")
    pv.add_argument("--rule", required=True, help="sl2 | weight:<k>")
    pv.add_argument("--max", type=int, default=2, help="max tag / weight radius")
    pv.add_argument(
        "--pairs", help="semicolon-separated pairs of labels, e.g. S(1)xA(2);UxS(1)"
    )
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(fn=cmd_gr_verify)

    p = sub.add_parser("paper-suite", help="run the full verification battery")
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_paper_suite)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if not hasattr(args, "fn"):
            args.parser.print_usage()
            return 2
        report, ok = args.fn(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "paper-suite" and not args.json:
        for check in report["checks"]:
            mark = "PASS" if check["ok"] else "FAIL"
            print(f"{mark}  {check['id']}: {check['details']}")
        print(f"{report['passed']} passed, {report['failed']} failed")
    else:
        emit(report, getattr(args, "json", False))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
