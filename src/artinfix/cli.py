"""
cli: command-line front door.

Subcommands mirror the library surface: graph validation and automorphism
enumeration, the full fixed-subgroup classifier, the dihedral backends, the
coset-complex ball, and the raw word oracle.  Each subcommand accepts only
the options its operations read.  Every run prints the numeric knobs that
its operation read (--budget, --radius, --search-len, --local-bound) with
their values, so identical invocations reproduce identical output byte for
byte.

Exit codes: 0 success, 1 domain or usage error, 2 when --strict is set and
the result is only BUDGET_LIMITED.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import deligne, dihedral
from .classifier import classify, dihedral_edge, normalize_aut, verify_report
from .oracle import word_equal
from .presentation import (
    GraphError,
    gamma_a_odd,
    graph_automorphisms,
    parse_graph,
    sigma_quotient_graph,
)
from .words import format_word, parse_automorphism, parse_word


# Numeric options that bound a computation; each command echoes those it accepts.
_KNOBS = ("budget", "radius", "search_len", "local_bound")


def _graph_from_args(args):
    if args.graph:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphError("GRAPH_FILE", f"cannot read {args.graph}: {exc}") from exc
        return parse_graph(text)
    if args.graph_text:
        return parse_graph(args.graph_text.replace(";", "\n"))
    raise GraphError("PARSE", "no graph given; use --graph FILE or --graph-text")


def _word_on(graph, text: str):
    """A word read from the command line, each letter a vertex of the graph."""
    word = parse_word(text)
    for name, _ in word:
        if name not in graph.vertices:
            raise GraphError("UNKNOWN_GENERATOR", f"{name} not a vertex")
    return word


def _budget_header(args) -> dict:
    return {k: getattr(args, k) for k in _KNOBS if hasattr(args, k)}


def _emit(args, payload: dict, text_lines, label="budgets   ") -> None:
    """Print the payload as JSON or the lines as text, each with the budget
    header; label=None leaves the header out of the text."""
    if args.format == "json":
        payload["budgets"] = _budget_header(args)
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    for line in text_lines:
        print(line)
    if label:
        print(f"{label}{_budget_header(args)}")


def _finish(args, confidence: str) -> int:
    if args.strict and confidence == "BUDGET_LIMITED":
        return 2
    return 0


def cmd_validate(args) -> int:
    graph = _graph_from_args(args)
    payload = {
        "vertices": list(graph.vertices),
        "edges": [[u, v, m] for u, v, m in graph.edge_list],
    }
    lines = [f"vertices  {' '.join(graph.vertices)}"]
    lines += [f"edge      {u} {v} {m}" for u, v, m in graph.edge_list]
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
    }
    lines = [f"count {len(auts)}"]
    for s in auts:
        lines.append(" ".join(f"{v}>{s(v)}" for v in graph.vertices))
    _emit(args, payload, lines)
    return 0


def _classified(args):
    aut = normalize_aut(_graph_from_args(args), args.aut)
    rep = classify(aut, search_len=args.search_len)
    if dihedral_edge(aut.graph) is not None:
        del args.search_len  # dihedral_fix decided it; the header names only knobs read
    return aut, rep


def cmd_classify(args) -> int:
    _, rep = _classified(args)
    _emit(args, rep.to_json(), [rep.to_text()], "budgets     ")
    return _finish(args, rep.confidence)


def cmd_fix_gens(args) -> int:
    _, rep = _classified(args)
    gens = [format_word(w) for w in rep.generators]
    _emit(args, {"generators": gens, "class": rep.fix_class.describe()}, gens, None)
    return _finish(args, rep.confidence)


def cmd_verify(args) -> int:
    aut, rep = _classified(args)
    passed, checks = verify_report(aut, rep, budget=args.budget)
    payload = rep.to_json()
    payload["verification"] = [
        {"check": name, "ok": ok, "detail": detail} for name, ok, detail in checks
    ]
    payload["verified"] = passed
    lines = [rep.to_text()]
    for name, ok, detail in checks:
        lines.append(f"  {'PASS' if ok else 'FAIL'} {name} {detail}")
    lines.append(f"verified    {passed}")
    _emit(args, payload, lines, "budgets     ")
    if not passed:
        return 1
    return _finish(args, rep.confidence)


def cmd_dihedral(args) -> int:
    m = args.m
    names = ("a", "b")
    graph = dihedral.edge_graph(m, names)
    if args.dihedral_op != "tree":
        del args.radius  # only the tree export reads it; the header names only knobs read
    if args.dihedral_op == "nf":
        if args.word is None:
            raise GraphError("PARSE", "dihedral nf needs --word")
        nf = dihedral.garside_nf(m, _word_on(graph, args.word), names)
        payload = {
            "power": nf.power,
            "factors": [list(f) for f in nf.factors],
            "spelling": format_word(nf.spelling),
        }
        lines = [
            f"power     {nf.power}",
            f"factors   {nf.factors}",
            f"spelling  {format_word(nf.spelling)}",
        ]
        _emit(args, payload, lines)
        return 0
    aut = parse_automorphism(graph, args.aut)
    if args.dihedral_op == "fix":
        rep = dihedral.dihedral_fix(m, aut, names)
        _emit(args, rep.to_json(), [rep.to_text()], "budgets     ")
        return _finish(args, rep.confidence)
    # tree
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
    }
    lines = [f"fixed vertices ({len(fs.vertices)}):"]
    lines += [f"  {k}" for k in fs.sorted_vertices()]
    lines.append(f"inverted midpoints ({len(fs.midpoints)}):")
    lines += [f"  {k}" for k in sorted(fs.midpoints)]
    _emit(args, payload, lines)
    return 0


def cmd_deligne(args) -> int:
    graph = _graph_from_args(args)
    ball = deligne.build_ball(graph, args.radius, local_bound=args.local_bound)
    if args.deligne_op == "ball":
        if args.format == "dot":
            print(ball.essential_dot())
            return 0
        displacements = None
        if args.displacement:
            word = _word_on(graph, args.displacement)
            displacements = deligne.displacement_field(word, ball, budget=args.budget)
        else:
            del args.budget  # build_ball dedups at budget 0; the header names only knobs read
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
        _emit(args, ball.to_json(displacements=displacements), lines)
        return 0
    # fixed
    aut = normalize_aut(graph, args.aut)
    fixed, lower = deligne.fixed_vertices(aut, ball, budget=args.budget)
    if args.format == "dot":
        print(ball.essential_dot(highlight=fixed))
        return 0
    payload = {
        "fixed": [ball.vertices[i].label() for i in fixed],
        "lower_bound_only": lower,
    }
    lines = [f"fixed ({len(fixed)}):"]
    lines += [f"  {ball.vertices[i].label()}" for i in fixed]
    lines.append(f"lower bound only: {lower}")
    _emit(args, payload, lines)
    return _finish(args, "BUDGET_LIMITED" if lower else "PROVEN")


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
    u, v = _word_on(graph, args.words[0]), _word_on(graph, args.words[1])
    verdict = word_equal(graph, u, v, budget=args.budget)
    payload = {
        "status": verdict.status,
        "method": verdict.method,
        "expansions": verdict.expansions,
    }
    _emit(args, payload, [f"{verdict.status} ({verdict.method}, {verdict.expansions} expansions)"])
    return _finish(args, "BUDGET_LIMITED" if verdict.is_unknown else "PROVEN")


class _Parser(argparse.ArgumentParser):
    """Usage errors become GraphError, so they exit 1 like domain errors."""

    def error(self, message):
        raise GraphError("USAGE", f"{self.prog}: {message}")


def _add_options(p, graph=True, formats=("text", "json"), budget=False, radius=False,
                 search_len=False, strict=False):
    if graph:
        p.add_argument("--graph", help="graph file in the line format")
        p.add_argument("--graph-text", help="inline graph, ';' separates lines")
    if budget:
        p.add_argument("--budget", type=int, default=100_000, help="oracle expansions per check")
    if radius:
        p.add_argument("--radius", type=int, default=4)
    if search_len:
        p.add_argument("--search-len", dest="search_len", type=int, default=4,
                       help="longest conjugating word the classifier tries")
    if formats:
        p.add_argument("--format", choices=formats, default="text")
    if strict:
        p.add_argument("--strict", action="store_true",
                       help="exit 2 when the result is only BUDGET_LIMITED")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="artinfix",
        description="fixed subgroups of graph-and-inversion automorphisms of large-type Artin groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a defining graph")
    _add_options(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("autgen", help="enumerate label-preserving graph automorphisms")
    _add_options(p)
    p.set_defaults(func=cmd_autgen)

    p = sub.add_parser("classify", help="classify the fixed subgroup")
    _add_options(p, search_len=True, strict=True)
    p.add_argument("--aut", required=True, help="automorphism DSL")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fix-gens", help="print the fixed subgroup generators")
    _add_options(p, search_len=True, strict=True)
    p.add_argument("--aut", required=True)
    p.set_defaults(func=cmd_fix_gens)

    p = sub.add_parser("verify", help="classify and re-verify the report")
    _add_options(p, budget=True, search_len=True, strict=True)
    p.add_argument("--aut", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dihedral", help="two-generator backends")
    p.add_argument("dihedral_op", choices=("nf", "fix", "tree"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--word", help="word for nf")
    p.add_argument("--aut", default="", help="automorphism DSL for fix/tree")
    _add_options(p, graph=False, formats=("text", "json", "dot"), radius=True, strict=True)
    p.set_defaults(func=cmd_dihedral)

    p = sub.add_parser("deligne", help="coset-complex ball operations")
    p.add_argument("deligne_op", choices=("ball", "fixed"))
    _add_options(p, formats=("text", "json", "dot"), budget=True, radius=True, strict=True)
    p.add_argument("--aut", default="", help="automorphism DSL for fixed")
    p.add_argument("--local-bound", dest="local_bound", type=int, default=None)
    p.add_argument(
        "--displacement", default=None,
        help="word whose per-vertex displacement is added to the ball export",
    )
    p.set_defaults(func=cmd_deligne)

    p = sub.add_parser("graph", help="emit graphs as DOT")
    p.add_argument("graph_op", choices=("emit",))
    _add_options(p, formats=None)
    p.add_argument("--sigma", default=None, help="graph automorphism DSL")
    p.add_argument("--odd-base", dest="odd_base", default=None)
    p.add_argument("--style", choices=("power", "inversion"), default="power")
    p.set_defaults(func=cmd_graph_emit)

    p = sub.add_parser("oracle", help="raw word oracle")
    p.add_argument("oracle_op", choices=("eq",))
    p.add_argument("words", nargs=2)
    _add_options(p, budget=True, strict=True)
    p.set_defaults(func=cmd_oracle_eq)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for k, value in _budget_header(args).items():
            if value is not None and value < 0:
                raise GraphError("NEGATIVE_BOUND", f"--{k.replace('_', '-')} must be >= 0")
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
