"""One benchmark worker: a fresh process that runs one workload's stream.

Usage:
  python3 bench/worker.py --root DIR --workload NAME --seed N
                          [--seconds S | --ops N] [--trace-dir DIR] [--setup-only]

The worker imports ``artinfix`` from ``DIR/src`` and validates the benchmark
graphs (that is its set-up), prints a READY line, then issues the workload's
operations one at a time: the whole timed list, then the seeded tail until
``--seconds`` have passed since the first operation.  With ``--ops N`` it
issues only the first N operations.  Protocol lines on stdout start with
``@@`` and carry JSON: one ``start`` line before and one ``op`` line after
every operation, and one ``end`` line with the length of the timed list, the
loop's wall time, the peak resident memory after the timed list and, when
traced, the per-layer raw numbers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path


def emit(**fields) -> None:
    sys.stdout.write("@@" + json.dumps(fields) + "\n")
    sys.stdout.flush()


def peak_rss_kb() -> int:
    """Peak resident memory of this process or of its largest child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def setup(root: Path) -> None:
    src = root / "src"
    sys.path.insert(0, str(src))
    import artinfix

    if Path(artinfix.__file__).resolve().parent != (src / "artinfix").resolve():
        raise SystemExit(f"artinfix imported from {artinfix.__file__}, not from {src}")
    import reference
    from artinfix.presentation import validate_graph

    for edges in reference.GRAPHS.values():
        validate_graph(list(edges))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--ops", type=int, default=None)
    p.add_argument("--trace-dir", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    setup(args.root)
    emit(ready=True)
    if args.setup_only:
        return 0

    import metrics
    import workloads

    factory, _ = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(root=args.root, trace_dir=args.trace_dir, env=dict(os.environ))
    tracer = None
    if args.trace_dir is not None:
        from tracer import Tracer

        ctx.child_raws = []
        tracer = Tracer().install()
    stream = factory(ctx, args.seed)
    ops = itertools.chain(
        ((op, True) for op in stream.timed), ((op, False) for op in stream.tail)
    )

    peak_kb = None
    t_start = time.perf_counter()
    for done, (op, timed) in enumerate(ops):
        if args.ops is not None and done >= args.ops:
            break
        if not timed and args.seconds is not None and time.perf_counter() - t_start >= args.seconds:
            break
        if not timed and peak_kb is None:
            peak_kb = peak_rss_kb()
        emit(start=done, kind=op.kind, label=op.label)
        if tracer is not None:
            tracer.op_id = done
        t0 = time.perf_counter()
        try:
            out = op.run()
            t = time.perf_counter() - t0
        except Exception as exc:  # an operation that raises is a failed operation
            out, t, failure = None, None, f"raised {exc!r}"
        finally:
            if tracer is not None:
                tracer.op_id = -1
        if t is None:
            ok, exact, detail = False, False, failure
        else:
            try:
                ok, exact, detail = op.check(out)
            except Exception as exc:  # a malformed result fails its check
                ok, exact, detail = False, False, f"check raised {exc!r}"
        emit(op=done, t=t, timed=timed, ok=ok, exact=exact, detail=detail)
    elapsed = time.perf_counter() - t_start

    raw = None
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace_dir / args.workload)
        raw = metrics.merge([metrics.raw_from_tracer(tracer)] + ctx.child_raws)
    if peak_kb is None:
        peak_kb = peak_rss_kb()
    emit(end=True, timed_ops=len(stream.timed), elapsed=elapsed,
         peak_rss_mb=peak_kb / 1024.0, raw=raw)
    return 0


if __name__ == "__main__":
    sys.exit(main())
