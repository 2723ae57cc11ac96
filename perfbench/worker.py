"""One repetition of a workload in a fresh process.

Usage: python3 perfbench/worker.py COMMAND CONFIG SEED OUT_DIR [SPANS_PATH]

Times `import sensecourt.cli` plus `load_config` (set-up), then the command,
and prints one JSON line with both times, the exit code and the peak
resident memory of this process. With SPANS_PATH the command runs under the
tracer and the spans are written there when it ends. Run from the root of a
checkout with `src` on PYTHONPATH; `run.py` starts it that way.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    command, config, seed, out = argv[0], argv[1], int(argv[2]), argv[3]
    spans_path = argv[4] if len(argv) > 4 else None

    t0 = time.perf_counter()
    import sensecourt.cli as cli

    cli.load_config(config)
    setup_s = time.perf_counter() - t0

    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"sensecourt imported from {cli.__file__}, not from {src}")

    handler = getattr(cli, f"cmd_{command}")
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        root = tracer.open("cli.command") if tracer else None
        t1 = time.perf_counter()
        rc = handler(config, seed=seed, out=out)
        command_s = time.perf_counter() - t1
        if tracer:
            tracer.close(root)
    finally:
        if tracer:
            tracer.restore()

    if tracer:
        Path(spans_path).write_text(
            json.dumps({"spans": tracer.spans, "hits": tracer.hits})
        )
    print(
        json.dumps(
            {
                "rc": rc,
                "setup_s": setup_s,
                "command_s": command_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "threads_env": os.environ.get(cli.THREADS_ENV),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
