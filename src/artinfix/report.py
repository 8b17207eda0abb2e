"""
report: isomorphism-type tags and the result record for fixed-subgroup runs.

The class vocabulary is exactly the list of shapes a fixed subgroup can take:
trivial, Z, Z^2, a finitely generated free group, Z x free, the dihedral
group <x, y | xyxy = yxyx>, an Artin group over a subgraph, or the free
product of such an Artin group with a free group.  normalize_class folds
degenerate combinations (an empty subgraph, a rank-one free factor) onto the
smaller vocabulary so reports always carry the tightest tag.  Every report,
from the two-generator machinery and the classifier alike, is assembled by
certified_report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .oracle import is_fixed
from .words import Word, format_word, free_reduce


@dataclass(frozen=True)
class FixClass:
    tag: str  # TRIVIAL | Z | Z2 | FREE | Z_CROSS_F | DIHEDRAL_A4 | ARTIN | ARTIN_FREE_PRODUCT
    free_rank: int = 0
    subgraph: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.tag == "TRIVIAL":
            return "{1}"
        if self.tag == "Z":
            return "Z"
        if self.tag == "Z2":
            return "Z^2"
        if self.tag == "FREE":
            return f"F_{self.free_rank}"
        if self.tag == "Z_CROSS_F":
            return f"Z x F_{self.free_rank}"
        if self.tag == "DIHEDRAL_A4":
            return "<x, y | xyxy = yxyx>"
        if self.tag == "ARTIN":
            return f"Artin[{','.join(self.subgraph)}]"
        return f"Artin[{','.join(self.subgraph)}] * F_{self.free_rank}"


def normalize_class(tag: str, free_rank: int = 0, subgraph=(), has_edges: bool = False) -> FixClass:
    """Fold degenerate shapes onto the tightest tag in the vocabulary."""
    subgraph = tuple(subgraph)
    if tag in ("ARTIN", "ARTIN_FREE_PRODUCT"):
        if not subgraph:
            tag = "FREE"
        elif len(subgraph) == 1 and free_rank == 0:
            return FixClass("Z")
        elif free_rank == 0:
            tag = "ARTIN"
        else:
            return FixClass("ARTIN_FREE_PRODUCT", free_rank, subgraph)
    if tag == "ARTIN":
        return FixClass("ARTIN", 0, subgraph)
    if tag == "Z_CROSS_F":
        if free_rank == 0:
            return FixClass("Z")
        if free_rank == 1:
            return FixClass("Z2")
        return FixClass("Z_CROSS_F", free_rank)
    if tag == "FREE":
        if free_rank == 0:
            return FixClass("TRIVIAL")
        if free_rank == 1:
            return FixClass("Z")
        return FixClass("FREE", free_rank)
    if tag in ("TRIVIAL", "Z", "Z2", "DIHEDRAL_A4"):
        return FixClass(tag)
    raise ValueError(f"unknown tag {tag}")


@dataclass(frozen=True)
class Certificate:
    kind: str  # "fixed" | "relation" | "membership"
    word: Word
    status: str
    method: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "word": format_word(self.word),
            "status": self.status,
            "method": self.method,
        }


@dataclass(frozen=True)
class FixReport:
    fix_class: FixClass
    generators: tuple[Word, ...]
    exact: bool  # generators span the fixed subgroup itself, not just finite index
    witness: Word  # conjugator relating the input to the reduced model case
    certificates: tuple[Certificate, ...]
    confidence: str  # "PROVEN" | "BUDGET_LIMITED"
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "class": self.fix_class.describe(),
            "tag": self.fix_class.tag,
            "free_rank": self.fix_class.free_rank,
            "subgraph": list(self.fix_class.subgraph),
            "generators": [format_word(w) for w in self.generators],
            "finite_index": not self.exact,
            "witness": format_word(self.witness),
            "certificates": [c.to_json() for c in self.certificates],
            "confidence": self.confidence,
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = [
            f"class       {self.fix_class.describe()}",
            f"generators  {', '.join(format_word(w) for w in self.generators) or '(none)'}",
            f"span        {'the fixed subgroup' if self.exact else 'a finite-index subgroup'}",
            f"witness     {format_word(self.witness)}",
            f"confidence  {self.confidence}",
        ]
        for c in self.certificates:
            lines.append(f"  cert {c.kind:<10} {format_word(c.word):<30} {c.status} ({c.method})")
        for note in self.notes:
            lines.append(f"  note {note}")
        return "\n".join(lines)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def certified_report(aut, fix_class, gens, exact, witness=(), notes=()) -> FixReport:
    """The report for aut with an oracle fixedness certificate per generator.

    Each certificate gets a budget of 20,000 search expansions; on a
    two-generator group the check is exact whatever the budget.  An UNKNOWN
    verdict leaves the report BUDGET_LIMITED; a NOT_EQUAL verdict means a case
    analysis produced a wrong generator, which is a bug.
    """
    certs = []
    confidence = "PROVEN"
    gens = tuple(free_reduce(w) for w in gens)
    for w in gens:
        verdict = is_fixed(aut, w, 20_000)
        certs.append(Certificate("fixed", w, verdict.status, verdict.method))
        if verdict.is_unknown:
            confidence = "BUDGET_LIMITED"
        elif verdict.is_not_equal:
            raise AssertionError(f"unfixed generator reported: {format_word(w)}")
    return FixReport(
        fix_class, gens, exact, free_reduce(witness), tuple(certs), confidence, tuple(notes)
    )
