"""One benchmark operation in a fresh interpreter.

Imports fpfkit from the checkout's ``src``, loads the config, builds the
problem (the end of set-up), then runs one command through the runner and
writes a JSON result: the set-up end time on the system-wide monotonic clock,
the command's wall seconds, the manifest's evaluation total and the peak
resident memory. With ``--trace 1`` the public functions of every layer are
wrapped first (see tracer.py) and the per-layer values go into the result.

    python3 bench/worker.py --command run --config configs/beam.yaml \
        --seed 42 --out OUT_DIR --result RESULT.json [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", choices=("run", "grid"), required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.monotonic()
    from fpfkit import config as fconfig
    from fpfkit import runner

    import_s = time.monotonic() - t_import
    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)

    cfg = fconfig.load_config(args.config).with_seed(args.seed)
    base = args.config.resolve().parent
    runner.build_problem(cfg, base)
    result = {"setup_end": time.monotonic(), "import_s": import_s}

    if not args.setup_only:
        t = time.perf_counter()
        if args.command == "run":
            manifest = runner.run_command(cfg, args.out, base)
        else:
            manifest = runner.grid_command(cfg, args.out, base, workers=args.threads)
        result["solve_s"] = time.perf_counter() - t
        result["evaluations"] = int(manifest["evaluations"]["total"])
        if tr is not None:
            layers = tracer.layer_metrics(tr)
            layers["setup.import_s"] = import_s
            result["layers"] = layers
            tr.dump(args.result.with_name("spans.npz"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
