"""Command-line interface.

Groups are given as corpus shorthand ("D4", "S5"), a family shorthand
("family:5,2,2"), inline JSON, or "@path" to a JSON spec file.  Subsets are
"all", "role:A", a comma list of element ids, "gen:<ids>" for the generated
subgroup, inline JSON, or "@path".  Commands emit JSON documents on stdout;
human-readable progress and errors go to stderr, or one-line JSON objects
when --json is given.  Exit codes: 0 success, 1 failed check or infeasible
pipeline, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .approx import certify, growth_constants, ruzsa_cover
from .errors import ApproxCommuteError, BadParams, SpecParseError
from .family import ExampleParams, build_example, predicted_quantities
from .probability import commuting_probability
from .specio import (
    SCHEMA_VERSION,
    LoadedGroup,
    _as_spec_dict,
    certificate_to_dict,
    dump_json,
    element_ids,
    load_group,
    load_subset,
    parse_rational,
    rational_str,
    witness_to_dict,
)
from .statements import check
from .subset import Subset, product
from .suite import SuiteConfig, run_suite
from .witness import bounded_conjugate_cover, witness_thm1, witness_thm2


def _spec_arg(text: str, what: str):
    """The spec file path of "@path", the parsed object of inline JSON, else None."""
    if text.startswith("@"):
        return text[1:]
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecParseError(f"invalid inline {what} JSON: {exc}") from exc
    return None


def _load_group_arg(text: str) -> LoadedGroup:
    text = text.strip()
    spec = _spec_arg(text, "group")
    if spec is not None:
        return load_group(spec)
    if text.startswith("family:"):
        parts = text[len("family:"):].split(",")
        if len(parts) != 3:
            raise SpecParseError("family shorthand is family:<n>,<k>,<u>")
        n, k, u = parts
        return load_group({"kind": "family", "n": n, "k": k, "u": u})
    from .corpus import named

    return LoadedGroup(group=named(text), roles={})


def _load_subset_arg(text: str, lg: LoadedGroup) -> Subset:
    text = text.strip()
    if text == "all":
        return Subset.full(lg.group)
    spec = _spec_arg(text, "subset")
    if spec is not None:
        return load_subset(spec, lg)
    if text.startswith("role:"):
        return load_subset({"role": text[len("role:"):]}, lg)
    if text.startswith("gen:"):
        ids = _parse_ids(text[len("gen:"):])
        return load_subset({"subgroup_generated_by": ids}, lg)
    return load_subset({"elements": _parse_ids(text)}, lg)


def _parse_ids(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise SpecParseError(f"bad element id list {text!r}: {exc}") from exc


def _emit(document: dict) -> None:
    sys.stdout.write(dump_json(document))


def _cmd_pr(args) -> int:
    lg = _load_group_arg(args.group)
    x = _load_subset_arg(args.x, lg)
    y = _load_subset_arg(args.y, lg)
    value = commuting_probability(x, y)
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "group": lg.group.name,
            "x_size": x.size,
            "y_size": y.size,
            "pr": rational_str(value),
        }
    )
    return 0


def _cmd_certify(args) -> int:
    lg = _load_group_arg(args.group)
    a = _load_subset_arg(args.a, lg)
    # certify needs 1 in A, so A^j = A^|G| for every j >= |G|
    if not 1 <= args.growth <= lg.group.order:
        raise SpecParseError(f"--growth must lie in [1, {lg.group.order}], got {args.growth}")
    cert = certify(a, "exact" if args.exact else "greedy")
    document = {"schema": SCHEMA_VERSION, "group": lg.group.name}
    document.update(certificate_to_dict(cert))
    if args.growth > 1:
        document["growth"] = [
            rational_str(q) for q in growth_constants(a, args.growth)
        ]
    _emit(document)
    return 0


def _cmd_witness(args) -> int:
    lg = _load_group_arg(args.group)
    a = _load_subset_arg(args.a, lg)
    epsilon = parse_rational(args.epsilon) if args.epsilon else None
    if epsilon is not None and not 0 < epsilon <= 1:
        raise SpecParseError(f"--epsilon must lie in (0, 1], got {epsilon}")
    if args.route == "thm1":
        report = witness_thm1(a, epsilon)
    else:
        report = witness_thm2(a, epsilon)
    _emit(witness_to_dict(report))
    return 0


def _cmd_example(args) -> int:
    params = ExampleParams(args.n, args.k, args.u)
    inst = build_example(params)
    if args.emit == "group":
        _emit(
            {
                "kind": "table",
                "name": inst.group.name,
                "table": inst.group.mul.tolist(),
                "labels": [
                    inst.group.element_label(g) for g in range(inst.group.order)
                ],
            }
        )
        return 0
    predicted = predicted_quantities(params)
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "params": {"n": params.n, "k": params.k, "u": params.u_order},
            "order": inst.group.order,
            "roles": {name: sub.id_list() for name, sub in inst.roles.items()},
            "predicted": {
                key: value if isinstance(value, int) else rational_str(value)
                for key, value in predicted.items()
            },
            "verified": True,
        }
    )
    return 0


def _cmd_cover(args) -> int:
    lg = _load_group_arg(args.group)
    a = _load_subset_arg(args.a, lg)
    if args.route == "ruzsa":
        y = _load_subset_arg(args.y, lg)
        f = ruzsa_cover(a, y)
        ay = product(a, y)
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "group": lg.group.name,
                "f": f.id_list(),
                "size": f.size,
                "bound": rational_str(Fraction(ay.size, y.size)),
            }
        )
        return 0
    gs = element_ids(_parse_ids(args.elements), lg.group, "--elements")
    if not gs:
        raise SpecParseError("--elements needs at least one element id")
    cert = certify(a, "exact" if args.exact else "greedy")
    d_set, translates = bounded_conjugate_cover(a, cert, gs)
    growth = [check("L2.6", a=a, g=g, n=2, k=cert.k_cert) for g in gs]
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "group": lg.group.name,
            "d": d_set.id_list(),
            "translates": translates,
            "growth_checks": [
                {"holds": r.holds, "lhs": int(r.lhs), "rhs": int(r.rhs)}
                for r in growth
            ],
        }
    )
    return 0


def _cmd_verify(args) -> int:
    data = _as_spec_dict(args.config, "config") if args.config else {}
    flags = {
        "seed": args.seed,
        "random_instances_per_statement": args.instances,
        "statements": args.statement,
        "output_path": args.output,
    }
    data.update((key, value) for key, value in flags.items() if value is not None)
    config = SuiteConfig.from_dict(data, source_path=args.config)
    config.only = args.only
    config.run_witnesses = not args.skip_witnesses
    report = run_suite(config)
    for sid, agg in report.payload["statements"].items():
        print(
            f"{sid}: {agg['instances']} instances, {agg['failures']} failures, "
            f"min slack {agg['min_slack']}",
            file=sys.stderr,
        )
    if not args.output:
        _emit(report.document())
    return 1 if report.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="approxcommute",
        description="Exact computations with approximate subgroups of finite groups.",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="report errors as one-line JSON objects on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pr", help="exact commuting probability pr(X, Y)")
    p.add_argument("group")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=_cmd_pr)

    p = sub.add_parser("certify", help="approximate-subgroup certificate for A")
    p.add_argument("group")
    p.add_argument("a")
    p.add_argument("--exact", action="store_true", help="exact minimum cover")
    p.add_argument(
        "--growth", type=int, default=1, metavar="J",
        help="also report |A^j|/|A| for j = 2..J, where 1 <= J <= |G|",
    )
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("witness", help="run a structure-theorem witness pipeline")
    p.add_argument("route", choices=("thm1", "thm2"))
    p.add_argument("group")
    p.add_argument("a")
    p.add_argument("--epsilon", metavar="P/Q", help="threshold (default: exact pr)")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="run the statement suite")
    p.add_argument("--config", metavar="FILE")
    p.add_argument("--seed", type=int)
    p.add_argument("--instances", type=int, metavar="N")
    p.add_argument("--statement", action="append", metavar="ID")
    p.add_argument("--only", metavar="KEY", help="re-run a single instance key")
    p.add_argument("--output", metavar="FILE")
    p.add_argument("--skip-witnesses", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example", help="build a family instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--emit", choices=("group", "report"), default="report")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("cover", help="covering constructions")
    cover_sub = p.add_subparsers(dest="route", required=True)
    pr_ = cover_sub.add_parser("ruzsa", help="Ruzsa covering: A by F*Y*Y^-1")
    pr_.add_argument("group")
    pr_.add_argument("a")
    pr_.add_argument("y")
    pr_.set_defaults(func=_cmd_cover, route="ruzsa")
    pc = cover_sub.add_parser(
        "conjugate", help="cover A by translates of a common centralizer"
    )
    pc.add_argument("group")
    pc.add_argument("a")
    pc.add_argument("--elements", required=True, metavar="IDS")
    pc.add_argument("--exact", action="store_true")
    pc.set_defaults(func=_cmd_cover, route="conjugate")

    return parser


def _report_error(exc: ApproxCommuteError, as_json: bool) -> None:
    if as_json:
        doc = {
            "schema": SCHEMA_VERSION,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    as_json = getattr(args, "json", False)
    try:
        return args.func(args)
    except (SpecParseError, BadParams) as exc:
        _report_error(exc, as_json)
        return 2
    except ApproxCommuteError as exc:
        _report_error(exc, as_json)
        return 1


if __name__ == "__main__":
    sys.exit(main())
