"""
cli: command-line front door.

Subcommands mirror the library surface: graph validation and automorphism
enumeration, the full fixed-subgroup classifier, the dihedral backends, the
coset-complex ball, and the raw word oracle.  Every run prints the budgets it
ran with, so identical invocations reproduce identical output byte for byte.

Exit codes: 0 success, 1 domain error, 2 when --strict is set and the result
is only BUDGET_LIMITED.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import deligne, dihedral
from .classifier import classify, normalize_aut, verify_report
from .oracle import word_equal
from .presentation import (
    GraphError,
    gamma_a_odd,
    graph_automorphisms,
    parse_graph,
    sigma_quotient_graph,
)
from .words import format_word, parse_automorphism, parse_word


def _graph_from_args(args):
    if getattr(args, "graph", None):
        with open(args.graph, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    if getattr(args, "graph_text", None):
        return parse_graph(args.graph_text.replace(";", "\n"))
    raise GraphError("PARSE", "no graph given; use --graph FILE or --graph-text")


def _budget_header(args) -> dict:
    return {
        "budget": getattr(args, "budget", None),
        "radius": getattr(args, "radius", None),
    }


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _finish(args, confidence: str) -> int:
    if args.strict and confidence == "BUDGET_LIMITED":
        return 2
    return 0


def cmd_validate(args) -> int:
    graph = _graph_from_args(args)
    payload = {
        "vertices": list(graph.vertices),
        "edges": [[u, v, m] for u, v, m in graph.edge_list],
        "budgets": _budget_header(args),
    }
    lines = [f"vertices  {' '.join(graph.vertices)}"]
    lines += [f"edge      {u} {v} {m}" for u, v, m in graph.edge_list]
    lines.append(f"budgets   {_budget_header(args)}")
    _emit(args, payload, lines)
    return 0


def cmd_autgen(args) -> int:
    graph = _graph_from_args(args)
    auts = graph_automorphisms(graph)
    payload = {
        "count": len(auts),
        "automorphisms": [
            {v: s(v) for v in graph.vertices} for s in auts
        ],
        "budgets": _budget_header(args),
    }
    lines = [f"count {len(auts)}"]
    for s in auts:
        lines.append(" ".join(f"{v}>{s(v)}" for v in graph.vertices))
    lines.append(f"budgets   {_budget_header(args)}")
    _emit(args, payload, lines)
    return 0


def _report_payload(args, rep) -> dict:
    payload = rep.to_json()
    payload["budgets"] = _budget_header(args)
    return payload


def cmd_classify(args) -> int:
    graph = _graph_from_args(args)
    aut = normalize_aut(graph, args.aut)
    rep = classify(aut, search_len=args.search_len, budget=args.budget)
    _emit(
        args,
        _report_payload(args, rep),
        [rep.to_text(), f"budgets     {_budget_header(args)}"],
    )
    return _finish(args, rep.confidence)


def cmd_fix_gens(args) -> int:
    graph = _graph_from_args(args)
    aut = normalize_aut(graph, args.aut)
    rep = classify(aut, search_len=args.search_len, budget=args.budget)
    payload = {
        "generators": [format_word(w) for w in rep.generators],
        "class": rep.fix_class.describe(),
        "budgets": _budget_header(args),
    }
    _emit(args, payload, [format_word(w) for w in rep.generators])
    return _finish(args, rep.confidence)


def cmd_verify(args) -> int:
    graph = _graph_from_args(args)
    aut = normalize_aut(graph, args.aut)
    rep = classify(aut, search_len=args.search_len, budget=args.budget)
    passed, checks = verify_report(aut, rep, budget=args.budget)
    payload = _report_payload(args, rep)
    payload["verification"] = [
        {"check": name, "ok": ok, "detail": detail} for name, ok, detail in checks
    ]
    payload["verified"] = passed
    lines = [rep.to_text()]
    for name, ok, detail in checks:
        lines.append(f"  {'PASS' if ok else 'FAIL'} {name} {detail}")
    lines.append(f"verified    {passed}")
    lines.append(f"budgets     {_budget_header(args)}")
    _emit(args, payload, lines)
    if not passed:
        return 1
    return _finish(args, rep.confidence)


def cmd_dihedral(args) -> int:
    m = args.m
    names = ("a", "b")
    graph = dihedral.edge_graph(m, names)
    if args.dihedral_op == "nf":
        word = parse_word(args.word)
        nf = dihedral.garside_nf(m, word, names)
        payload = {
            "power": nf.power,
            "factors": [list(f) for f in nf.factors],
            "spelling": format_word(nf.spelling),
            "budgets": _budget_header(args),
        }
        _emit(
            args,
            payload,
            [
                f"power     {nf.power}",
                f"factors   {nf.factors}",
                f"spelling  {format_word(nf.spelling)}",
                f"budgets   {_budget_header(args)}",
            ],
        )
        return 0
    aut = parse_automorphism(graph, args.aut)
    if args.dihedral_op == "fix":
        rep = dihedral.dihedral_fix(m, aut, names)
        _emit(
            args,
            _report_payload(args, rep),
            [rep.to_text(), f"budgets     {_budget_header(args)}"],
        )
        return _finish(args, rep.confidence)
    if args.dihedral_op == "tree":
        if m % 2:
            raise GraphError("PARITY_MISMATCH", "the tree export needs even m")
        fs = dihedral.tree_fixed_set(m // 2, aut, args.radius, names)
        if args.format == "dot":
            print(dihedral.tree_dot(fs))
            return 0
        payload = {
            "radius": fs.radius,
            "fixed_vertices": [list(map(str, k)) for k in fs.sorted_vertices()],
            "midpoints": [list(map(str, k)) for k in sorted(fs.midpoints)],
            "budgets": _budget_header(args),
        }
        lines = [f"fixed vertices ({len(fs.vertices)}):"]
        lines += [f"  {k}" for k in fs.sorted_vertices()]
        lines.append(f"inverted midpoints ({len(fs.midpoints)}):")
        lines += [f"  {k}" for k in sorted(fs.midpoints)]
        lines.append(f"budgets   {_budget_header(args)}")
        _emit(args, payload, lines)
        return 0
    raise GraphError("PARSE", f"unknown dihedral op {args.dihedral_op}")


def cmd_deligne(args) -> int:
    graph = _graph_from_args(args)
    ball = deligne.build_ball(graph, args.radius, local_bound=args.local_bound)
    if args.deligne_op == "ball":
        if args.format == "dot":
            print(ball.essential_dot())
            return 0
        displacements = None
        if args.displacement:
            word = parse_word(args.displacement)
            displacements = deligne.displacement_field(word, ball, budget=args.budget)
        payload = ball.to_json(displacements=displacements)
        payload["budgets"] = _budget_header(args)
        lines = [
            f"vertices  {len(ball.vertices)}",
            f"edges     {len(ball.edges)}",
            f"degraded  {ball.degraded}",
        ]
        if displacements is not None:
            slice_ = deligne.minset_slice(displacements)
            lines.append(
                f"minset    {[ball.vertices[i].label() for i in slice_]}"
            )
        lines.append(f"budgets   {_budget_header(args)}")
        _emit(args, payload, lines)
        return 0
    if args.deligne_op == "fixed":
        aut = normalize_aut(graph, args.aut)
        fixed, lower = deligne.fixed_vertices(aut, ball, budget=args.budget)
        if args.format == "dot":
            print(ball.essential_dot(highlight=fixed))
            return 0
        payload = {
            "fixed": [ball.vertices[i].label() for i in fixed],
            "lower_bound_only": lower,
            "budgets": _budget_header(args),
        }
        lines = [f"fixed ({len(fixed)}):"]
        lines += [f"  {ball.vertices[i].label()}" for i in fixed]
        lines.append(f"lower bound only: {lower}")
        lines.append(f"budgets   {_budget_header(args)}")
        _emit(args, payload, lines)
        return _finish(args, "BUDGET_LIMITED" if lower else "PROVEN")
    raise GraphError("PARSE", f"unknown deligne op {args.deligne_op}")


def cmd_graph_emit(args) -> int:
    graph = _graph_from_args(args)
    if args.odd_base:
        sigma = parse_automorphism(graph, args.sigma or "").perm
        comp = gamma_a_odd(graph, sigma, args.odd_base, style=args.style)
        print(comp.dot())
        return 0
    if args.sigma is not None:
        sigma = parse_automorphism(graph, args.sigma).perm
        sub, pairs = sigma_quotient_graph(graph, sigma)
        lines = [sub.dot("fixed_subgraph")]
        for name in pairs:
            lines.append(f"// isolated vertex for transposed pair {name}")
        print("\n".join(lines))
        return 0
    print(graph.dot())
    return 0


def cmd_oracle_eq(args) -> int:
    graph = _graph_from_args(args)
    u, v = parse_word(args.words[0]), parse_word(args.words[1])
    verdict = word_equal(graph, u, v, budget=args.budget)
    payload = {
        "status": verdict.status,
        "method": verdict.method,
        "expansions": verdict.expansions,
        "budgets": _budget_header(args),
    }
    _emit(
        args,
        payload,
        [
            f"{verdict.status} ({verdict.method}, {verdict.expansions} expansions)",
            f"budgets   {_budget_header(args)}",
        ],
    )
    return _finish(args, "BUDGET_LIMITED" if verdict.is_unknown else "PROVEN")


def _add_common(p, graph=True):
    if graph:
        p.add_argument("--graph", help="graph file in the line format")
        p.add_argument("--graph-text", help="inline graph, ';' separates lines")
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--search-len", dest="search_len", type=int, default=4)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--strict", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artinfix",
        description="fixed subgroups of graph-and-inversion automorphisms of large-type Artin groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a defining graph")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("autgen", help="enumerate label-preserving graph automorphisms")
    _add_common(p)
    p.set_defaults(func=cmd_autgen)

    p = sub.add_parser("classify", help="classify the fixed subgroup")
    _add_common(p)
    p.add_argument("--aut", required=True, help="automorphism DSL")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fix-gens", help="print the fixed subgroup generators")
    _add_common(p)
    p.add_argument("--aut", required=True)
    p.set_defaults(func=cmd_fix_gens)

    p = sub.add_parser("verify", help="classify and re-verify the report")
    _add_common(p)
    p.add_argument("--aut", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dihedral", help="two-generator backends")
    p.add_argument("dihedral_op", choices=("nf", "fix", "tree"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--word", help="word for nf")
    p.add_argument("--aut", default="", help="automorphism DSL for fix/tree")
    _add_common(p, graph=False)
    p.set_defaults(func=cmd_dihedral)

    p = sub.add_parser("deligne", help="coset-complex ball operations")
    p.add_argument("deligne_op", choices=("ball", "fixed"))
    _add_common(p)
    p.add_argument("--aut", default="", help="automorphism DSL for fixed")
    p.add_argument("--local-bound", dest="local_bound", type=int, default=None)
    p.add_argument(
        "--displacement", default=None,
        help="word whose per-vertex displacement is added to the ball export",
    )
    p.set_defaults(func=cmd_deligne)

    p = sub.add_parser("graph", help="emit graphs as DOT")
    p.add_argument("graph_op", choices=("emit",))
    _add_common(p)
    p.add_argument("--sigma", default=None, help="graph automorphism DSL")
    p.add_argument("--odd-base", dest="odd_base", default=None)
    p.add_argument("--style", choices=("power", "inversion"), default="power")
    p.set_defaults(func=cmd_graph_emit)

    p = sub.add_parser("oracle", help="raw word oracle")
    p.add_argument("oracle_op", choices=("eq",))
    p.add_argument("words", nargs=2)
    _add_common(p)
    p.set_defaults(func=cmd_oracle_eq)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
