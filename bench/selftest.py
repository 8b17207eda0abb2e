"""Self-checks of the benchmark's tracer.

Usage (from the root of a checkout):
  python3 bench/selftest.py [--workload NAME ...]

1. Transparency: the first operations of each workload give byte-identical
   outputs (``FixReport.dumps()``, fixed-vertex lists, brute-force sets, CLI
   output) untraced and traced, every binding of a wrapped function is
   replaced while the tracer is installed, and every original is back after
   it is removed.
2. Exact counts: the per-layer counts of a traced run repeat exactly across
   two runs with the same ``PYTHONHASHSEED`` and across other hash seeds, so
   a later change can cite a count as exact evidence.
3. Names: every per-layer metric of ``BENCHMARK.json`` is one the tracer
   gives, and ``layers.json`` maps exactly those metrics (but the tracer's
   own ``trace.*``) to layers.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

IDENTITY_OPS = 12  # operations per workload compared untraced against traced
SEED = 1
HASH_SEEDS = ("0", "1", "2")


def serialize(obj) -> str:
    """A canonical text form of an operation's output."""
    if hasattr(obj, "dumps"):
        return obj.dumps()
    if isinstance(obj, subprocess.CompletedProcess):
        return f"{obj.returncode}\n{obj.stdout}"
    if isinstance(obj, (set, frozenset)):
        return "{" + ", ".join(sorted(serialize(x) for x in obj)) + "}"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{k!r}: {serialize(v)}" for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(serialize(x) for x in obj) + "]"
    if hasattr(obj, "__dataclass_fields__"):
        return type(obj).__name__ + serialize({k: getattr(obj, k) for k in obj.__dataclass_fields__})
    return repr(obj)


def bindings() -> dict:
    """Every function or class attribute reachable from the package's namespaces."""
    from tracer import package_namespaces

    out = {}
    for ns in package_namespaces():
        for key, value in vars(ns).items():
            out[(ns.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("artinfix"):
                for attr, member in vars(value).items():
                    out[(ns.__name__, f"{key}.{attr}")] = member
    return out


def outputs(ctx, name: str, seed: int, tracer=None) -> list[str]:
    factory, _ = workloads.WORKLOADS[name]
    out = []
    for i, op in enumerate(factory(ctx, seed).timed[:IDENTITY_OPS]):
        if tracer is not None:
            tracer.op_id = i
        result = op.run()
        if tracer is not None:
            tracer.op_id = -1
        ok, _, detail = op.check(result)
        if not ok:
            raise SystemExit(f"{name}: {op.label} failed its check: {detail}")
        text = serialize(result)
        if name == "cli-cold" and ctx.trace_dir is not None:
            text = text.rstrip("\n").rpartition("\n")[0] + "\n"  # drop the raw-numbers line
        out.append(text)
    return out


def check_transparency(root: Path, names: list[str], seed: int) -> list[str]:
    from tracer import SPANNED, Tracer

    import artinfix.cli  # noqa: F401  (load every module before taking the snapshot)

    problems = []
    env = run.child_env(root, run.HASH_SEED)
    before = bindings()
    for name in names:
        plain = outputs(workloads.Context(root=root, env=env), name, seed)
        trace_dir = root / ".bench_out" / "selftest"
        ctx = workloads.Context(root=root, env=env, trace_dir=trace_dir, child_raws=[])
        with Tracer() as tracer:
            originals = {id(p[2]) for p in tracer._patches}
            stale = [k for k, v in bindings().items() if id(v) in originals]
            if stale:
                problems.append(f"{name}: bindings left unwrapped: {stale[:5]}")
            traced = outputs(ctx, name, seed, tracer)
        diffs = [i for i, (a, b) in enumerate(zip(plain, traced)) if a != b]
        if diffs:
            problems.append(f"{name}: traced output differs at operations {diffs}")
        print(f"transparency {name}: {len(plain)} operations, {len(diffs)} differ")
    after = bindings()
    changed = [k for k in before if before[k] is not after.get(k)]
    if changed:
        problems.append(f"not restored after the tracer: {changed[:5]}")
    wrapped = {f"{m}.{p}" for m, p, _ in SPANNED}
    print(f"restored: {len(before)} bindings checked, {len(wrapped)} spanned functions")
    return problems


def traced_counts(root: Path, name: str, seed: int, hash_seed: str) -> dict:
    _, n_ops = workloads.WORKLOADS[name]
    env = run.child_env(root, hash_seed)
    trace_dir = root / ".bench_out" / "selftest"
    _, records, end, failures = run.run_worker(
        root, env, name, seed, time.perf_counter() + run.RUN_LIMIT_S,
        "--ops", str(n_ops), "--trace-dir", str(trace_dir),
    )
    if failures:
        raise SystemExit(f"{name}: traced run failed: {failures[:3]}")
    values = metrics.per_layer(end["raw"])
    return {
        k: v["value"] for k, v in values.items()
        if v["unit"] in ("count", "ratio") and not k.startswith("trace.")
    }


def check_counts(root: Path, names: list[str], seed: int) -> list[str]:
    problems = []
    for name in names:
        # the first hash seed twice: a plain rerun, then the other hash seeds
        runs = [(hs, traced_counts(root, name, seed, hs)) for hs in [HASH_SEEDS[0], *HASH_SEEDS]]
        base = runs[0][1]
        for hs, counts in runs[1:]:
            diff = {k: (base[k], counts[k]) for k in base if base[k] != counts[k]}
            if diff:
                problems.append(f"{name}: counts differ with PYTHONHASHSEED={hs}: {diff}")
        shown = {k: base[k] for k in (
            "oracle.canonical_form.calls", "oracle.word_equal.calls",
            "oracle.word_equal.status.UNKNOWN",
        )}
        print(f"counts {name}: {len(runs)} traced runs (hash seeds "
              f"{[hs for hs, _ in runs]}), {len(base)} counts, e.g. {shown}")
    return problems


def check_names() -> list[str]:
    producible = metrics.layer_values({})
    names = [name for name, _ in metrics.specs("per_layer")]
    problems = [f"BENCHMARK.json names {n}, which the tracer does not give"
                for n in names if n not in producible]
    layers = json.loads((BENCH_DIR / "layers.json").read_text())["layers"]
    patterns = [pat for layer in layers for pat in layer["metrics"]]
    problems += [f"layers.json names {pat}, which BENCHMARK.json lacks"
                 for pat in patterns if not fnmatch.filter(names, pat)]
    # trace.* describe the tracer itself, not a layer of the program
    problems += [f"layers.json maps no layer to {n}" for n in names
                 if not n.startswith("trace.")
                 and not any(fnmatch.fnmatchcase(n, pat) for pat in patterns)]
    print(f"names: {len(names)} per-layer metrics, {len(patterns)} layers.json patterns")
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    names = args.workload or list(workloads.WORKLOADS)
    problems = check_names()
    problems += check_transparency(root, names, SEED)
    problems += check_counts(root, names, SEED)
    for problem in problems:
        print("PROBLEM", problem)
    print(json.dumps({"selftest": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
