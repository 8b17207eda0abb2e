"""The artinfix benchmark's metrics, computed from the worker's records.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced run, as ``<module>.<function>.<stat>``.  Per-layer values are totals
over a fixed prefix of the workload's timed list, so counts repeat exactly
whatever the seed.  A tracer's raw numbers are additive, so the per-process
numbers of the ``cli-cold`` workload are summed before the metrics are
formed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from tracer import COUNTED, SPANNED

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def specs(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the "end_to_end" or "per_layer" metrics of BENCHMARK.json.

    The metrics' names, units and directions are kept there and nowhere else.
    """
    return [(m["name"], m["unit"]) for m in json.loads(BENCHMARK.read_text())[kind]]


WORD_EQUAL_STATUSES = ("EQUAL", "NOT_EQUAL", "UNKNOWN")
WORD_EQUAL_METHODS = (
    "identical", "height", "abelianization", "free", "dihedral-nf",
    "canonical", "rewrite", "budget",
)
MEMBER_STATUSES = ("MEMBER", "NOT_MEMBER", "UNKNOWN")
BRANCHES = ("ELLIPTIC", "HYPERBOLIC", "UNKNOWN", "CENTRALIZER", "DIHEDRAL")
# First direct child of a classify span that names the branch it took.
BRANCH_OF_CHILD = {
    "dihedral.dihedral_fix": "DIHEDRAL",
    "classifier.centralizer_case": "CENTRALIZER",
    "classifier.classify_elliptic": "ELLIPTIC",
    "classifier.classify_hyperbolic": "HYPERBOLIC",
}
# Result-hook counts (tracer.HOOKS) and the branch counts, by metric name.
HOOK_COUNTS = (
    ["oracle.word_equal.expansions", "oracle.member_of_parabolic.expansions",
     "deligne.build_ball.vertices", "deligne.build_ball.degraded",
     "deligne.fixed_vertices.lower_bound", "deligne.DeligneBall.resolve.none"]
    + [f"oracle.word_equal.status.{st}" for st in WORD_EQUAL_STATUSES]
    + [f"oracle.word_equal.method.{m}" for m in WORD_EQUAL_METHODS]
    + [f"oracle.member_of_parabolic.status.{st}" for st in MEMBER_STATUSES]
    + [f"classifier.branch.{b}" for b in BRANCHES]
)
RAW = ("cli.import_s", "cli.main_s", "trace.overhead_s", "trace.ops", "trace.spans")


def raw_from_tracer(tracer) -> dict:
    """Additive numbers from one traced process."""
    raw: dict = {}
    for name, row in tracer.span_stats().items():
        for stat, value in row.items():
            raw[f"span.{name}.{stat}"] = value
    for key, value in tracer.counts.items():
        raw[f"count.{key}"] = value
    raw["distinct.canonical_form"] = len(tracer.canonical_inputs)
    for kids in tracer.children_of("classifier.classify"):
        branch = next(
            (BRANCH_OF_CHILD[k] for k in kids if k in BRANCH_OF_CHILD), "UNKNOWN"
        )
        key = f"count.classifier.branch.{branch}"
        raw[key] = raw.get(key, 0) + 1
    raw["raw.trace.spans"] = len(tracer.span_start)
    return raw


def merge(raws) -> dict:
    out: dict = {}
    for raw in raws:
        for key, value in raw.items():
            out[key] = out.get(key, 0) + value
    return out


def layer_values(raw: dict) -> dict:
    """Every per-layer metric the tracer can give, by name, from merged raw numbers.

    A spanned function gives ``<name>.calls``, ``.s`` (inclusive) and
    ``.self_s``; a counted one gives ``<name>.calls``.
    """
    values = {}
    for module, path, _ in SPANNED:
        for stat in ("calls", "s", "self_s"):
            values[f"{module}.{path}.{stat}"] = raw.get(f"span.{module}.{path}.{stat}", 0)
    for module, path in COUNTED:
        values[f"{module}.{path}.calls"] = raw.get(f"count.{module}.{path}", 0)
    for name in HOOK_COUNTS:
        values[name] = raw.get(f"count.{name}", 0)
    calls = values["oracle.word_equal.calls"]
    unknown = values["oracle.word_equal.status.UNKNOWN"]
    values["oracle.word_equal.decided_ratio"] = (calls - unknown) / calls if calls else 0.0
    calls = values["oracle.canonical_form.calls"]
    distinct = raw.get("distinct.canonical_form", 0)
    values["oracle.canonical_form.distinct_ratio"] = distinct / calls if calls else 0.0
    for name in RAW:
        values[name] = raw.get(f"raw.{name}", 0)
    return values


def per_layer(raw: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json, every name present."""
    values = layer_values(raw)
    return {name: {"value": values[name], "unit": unit} for name, unit in specs("per_layer")}


def interquartile_mean(times: list[float]) -> float:
    """Mean of the middle half of the sorted times."""
    ts = sorted(times)
    cut = len(ts) // 4
    return statistics.mean(ts[cut:len(ts) - cut])


def tail_mean(times: list[float], share: float = 0.1) -> float:
    """Mean of the slowest share of the times (at least one)."""
    ts = sorted(times)
    return statistics.mean(ts[-max(1, round(len(ts) * share)):])


def end_to_end(records, setup_samples, peak_rss_mb) -> dict:
    """The end-to-end metrics of an untraced run.

    records: one dict per attempted operation with keys t (None when the
    operation raised or never finished), timed, ok and exact.  Throughput is
    completed timed operations over the time spent inside them, so input
    generation and checking on the client side do not count.  Latency is
    summarised by the interquartile mean and the mean of the slowest tenth:
    per-operation times here spread over three decades, so a single order
    statistic (p50, p90) of a run's 64-288 timed operations moved by 25-35%
    from run to run, while these averages of many operations moved by under
    10%.  exact_share counts the timed operations, the same work in every
    run; ok_share counts every attempted operation, the seeded ones too.
    """
    timed = [r for r in records if r.get("timed")]
    times = [r["t"] for r in timed if r["t"] is not None]
    attempted = len(records)
    values = {
        "ops_per_s": len(times) / sum(times) if times else 0.0,
        "op_iqm_s": interquartile_mean(times) if times else 0.0,
        "op_tail10_s": tail_mean(times) if times else 0.0,
        "exact_share": sum(1 for r in timed if r["exact"]) / len(timed) if timed else 0.0,
        "ok_share": sum(1 for r in records if r["ok"]) / attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_samples),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in specs("end_to_end")}
