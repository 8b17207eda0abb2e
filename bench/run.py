"""The artinfix benchmark.

Usage (from the root of a checkout):
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: classify-sweep, coset-complex, dihedral-exact, cli-cold (see
``workloads.py``).  Each run starts fresh worker processes, so the package's
module-level caches start empty.  ``PYTHONHASHSEED`` is pinned in the
workers' environment, and the workload seed is the only source of the
generated inputs.

With ``--trace 0`` the run measures the end-to-end metrics: the set-up time
(median over several fresh workers), then one worker issuing operations in a
closed loop: the workload's fixed timed list, whole, then seeded untimed
operations until ``--seconds`` have passed.  The run is incorrect unless
every timed operation completed.  With ``--trace 1`` it runs a fixed prefix
of the timed list under the outside-in tracer, then the same prefix
untraced, and reports the per-layer metrics and the tracing overhead (traced
minus untraced wall time).  A worker that is still running at the hard
deadline is killed and its unfinished operation counts as failed.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11  # fresh workers timed from spawn to READY; the median is reported
RUN_LIMIT_S = 170.0  # every run ends within this, however slow the program
SETUP_TIMEOUT_S = 30.0
HASH_SEED = "0"  # PYTHONHASHSEED of every worker


def child_env(root: Path, hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def worker_cmd(root: Path, workload: str, seed: int, *extra) -> list[str]:
    return [
        sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(root),
        "--workload", workload, "--seed", str(seed), *extra,
    ]


class Worker:
    """A worker process in its own session, read line by line on a thread."""

    def __init__(self, cmd: list[str], env: dict, cwd: Path):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        self.ready_at = None
        self.messages: list[dict] = []
        self.stderr = ""
        self._ready = threading.Event()
        self._out = threading.Thread(target=self._read_stdout, daemon=True)
        self._err = threading.Thread(target=self._read_stderr, daemon=True)
        self._out.start()
        self._err.start()

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            if not line.startswith("@@"):
                continue
            msg = json.loads(line[2:])
            if msg.get("ready"):
                self.ready_at = time.perf_counter()
                self._ready.set()
            else:
                self.messages.append(msg)
        self._ready.set()

    def _read_stderr(self) -> None:
        self.stderr = self.proc.stderr.read()

    def setup_seconds(self, timeout: float) -> float | None:
        self._ready.wait(timeout)
        return None if self.ready_at is None else self.ready_at - self.t_spawn

    def finish(self, deadline: float) -> bool:
        """Wait until the deadline; kill the whole session if it is still running."""
        try:
            self.proc.wait(timeout=max(deadline - time.perf_counter(), 0.0))
            killed = False
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            killed = True
        self._out.join()
        self._err.join()
        return killed


def setup_samples(root: Path, env: dict, workload: str, n: int) -> list[float]:
    out = []
    for _ in range(n):
        w = Worker(worker_cmd(root, workload, 0, "--setup-only"), env, root)
        t = w.setup_seconds(SETUP_TIMEOUT_S)
        w.finish(time.perf_counter() + SETUP_TIMEOUT_S)
        if t is None or w.proc.returncode != 0:
            raise SystemExit(f"worker set-up failed:\n{w.stderr.strip()[-2000:]}")
        out.append(t)
    return out


def collect(w: Worker, killed: bool) -> tuple[list[dict], dict | None, list[str]]:
    """Operation records, the end message, and the details of failed operations."""
    records: dict[int, dict] = {}
    end = None
    for msg in w.messages:
        if "start" in msg:
            records[msg["start"]] = {"t": None, "ok": False, "exact": False,
                                     "detail": f"unfinished: {msg['kind']} {msg['label']}"}
        elif "op" in msg:
            records[msg["op"]] = msg
        elif msg.get("end"):
            end = msg
    if end is None and not killed and w.proc.returncode != 0:
        raise SystemExit(f"worker failed:\n{w.stderr.strip()[-2000:]}")
    ordered = [records[i] for i in sorted(records)]
    failures = [r["detail"] for r in ordered if not r["ok"]]
    return ordered, end, failures


def run_worker(root, env, workload, seed, deadline, *extra):
    w = Worker(worker_cmd(root, workload, seed, *extra), env, root)
    killed = w.finish(deadline)
    records, end, failures = collect(w, killed)
    if killed or end is None:
        failures.append("worker killed at the run deadline" if killed else "worker ended early")
    return w, records, end, failures


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    t_begin = time.perf_counter()
    deadline = t_begin + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "artinfix" / "__init__.py").is_file():
        print(f"no artinfix sources under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    env = child_env(root, HASH_SEED)

    if args.trace:
        _, n_ops = workloads.WORKLOADS[args.workload]
        trace_dir = root / ".bench_out"
        _, rec_t, end_t, fail_t = run_worker(
            root, env, args.workload, args.seed, deadline,
            "--ops", str(n_ops), "--trace-dir", str(trace_dir),
        )
        _, rec_u, end_u, fail_u = run_worker(
            root, env, args.workload, args.seed, deadline, "--ops", str(n_ops),
        )
        failures = fail_t + fail_u
        records = rec_t + rec_u
        attempted = len(records)
        raw = dict(end_t["raw"]) if end_t else {}
        if end_t and end_u:
            raw["raw.trace.overhead_s"] = end_t["elapsed"] - end_u["elapsed"]
        raw["raw.trace.ops"] = len(rec_t)
        result_metrics = metrics.per_layer(raw)
    else:
        samples = setup_samples(root, env, args.workload, SETUP_SAMPLES - 1)
        w, records, end, failures = run_worker(
            root, env, args.workload, args.seed, deadline, "--seconds", str(args.seconds),
        )
        if w.ready_at is not None:
            samples.append(w.ready_at - w.t_spawn)
        attempted = len(records)
        if attempted == 0:
            print("no operation was attempted", file=sys.stderr)
            return 1
        timed_done = sum(1 for r in records if r.get("timed") and r["t"] is not None)
        if end is not None:
            print(f"timed operations completed: {timed_done} of {end['timed_ops']}; "
                  f"untimed: {sum(1 for r in records if r.get('timed') is False)}",
                  file=sys.stderr)
            if timed_done != end["timed_ops"]:
                failures.append(f"only {timed_done} of {end['timed_ops']} timed operations "
                                "completed")
        peak = end["peak_rss_mb"] if end else 0.0
        result_metrics = metrics.end_to_end(records, samples, peak)

    for detail in failures[:20]:
        print(f"FAILED {detail}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": sum(1 for r in records if not r["ok"]),
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
