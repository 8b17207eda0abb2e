"""Run one ``artinfix`` command in this fresh process, traced from outside.

Usage: python3 bench/cli_driver.py --spans PATH <artinfix arguments...>

Times ``import artinfix.cli`` and ``main(argv)`` separately, prints the
command's own output, then one last line with this process's per-layer raw
numbers (JSON), and writes its spans next to PATH.  The checkout's ``src``
must be on PYTHONPATH, as for ``python3 -m artinfix.cli``.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans, argv = Path(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    import artinfix.cli

    import_s = time.perf_counter() - t0
    import metrics
    from tracer import Tracer

    out = io.StringIO()
    with Tracer() as tracer, contextlib.redirect_stdout(out):
        tracer.op_id = 0
        t1 = time.perf_counter()
        code = artinfix.cli.main(argv)
        main_s = time.perf_counter() - t1
    tracer.dump(spans)
    raw = metrics.raw_from_tracer(tracer)
    raw["raw.cli.import_s"] = import_s
    raw["raw.cli.main_s"] = main_s
    sys.stdout.write(out.getvalue())
    print(json.dumps(raw))
    return code


if __name__ == "__main__":
    sys.exit(main())
