"""fpfkit benchmark: workloads through the runner's public entry points,
with a correctness check on every operation.

    python3 bench/run.py --workload toy-rare-run --seed 42 --seconds 40 --trace 0
    python3 bench/run.py --workload all      # every workload, untraced then traced

An operation is one fpfkit command (``run_command`` or ``grid_command``) in a
fresh interpreter started by bench/worker.py. An untraced run measures one
operation per input: input k has config seed ``seed + 100000 * k``, and inputs
are added until the measured wall time reaches ``--seconds`` (and at least
two). Input 0 then runs once more and must reproduce its output tree byte for
byte. ``solve_s`` is the mean over the inputs and ``evals_per_s`` their total
evaluations over their total solve time; extra set-up-only launches bring the
set-up samples to at least five, and ``setup_s`` is their median. A traced run
(``--trace 1``) alternates untraced and traced operations on the run's own
seed; the traced ones report the per-layer metrics (medians), every one must
reproduce the first output tree, and the difference of the two median
``solve_s`` is the tracing overhead.

The metric names and units come from BENCHMARK.json at the repository root.
The last line of standard output is the result object; the line before it
gives every operation's figures, accuracy and problems. bench/README.md says
why each workload exists and which layer each metric belongs to.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    threads: int
    reference: str | None  # "oracle": same-seed grid oracle; "toy": Phi(-phi)


# beam-run is not among BENCHMARK.json's workloads: the program fails on it at
# some seeds (bench/README.md, "Known failures on beam-run")
WORKLOADS = {
    "beam-run": Workload("run", "configs/beam.yaml", 1, "oracle"),
    "toy-rare-run": Workload("run", "bench/toy_rare.yaml", 1, "toy"),
    "beam-grid": Workload("grid", "configs/beam.yaml", 2, None),
}

# inputs per untraced run at least; input k has config seed seed + k * INPUT_STRIDE
MIN_INPUTS = 2
INPUT_STRIDE = 100_000
MIN_SETUPS = 5
# no operation starts once the run would pass this; a run must end within 180 s
RUN_LIMIT_S = 165.0
# the README's compare rule, applied to beam-run against the same-seed oracle
TOL_LOG10 = 0.3
MIN_PF = 1e-4
MIN_FRACTION = 0.9

END_TO_END = ("solve_s", "setup_s", "evals_per_s", "peak_rss_mb")
ACCURACY = ("fpf_err_log10_med", "fpf_within_frac", "pf_err_log10")


class BenchError(Exception):
    """A run, or the reference it is judged against, could not be produced."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_files(out: Path) -> list[str]:
    return sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())


def tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for rel in tree_files(out):
        h.update(rel.encode() + b"\0" + sha256_file(out / rel).encode() + b"\n")
    return h.hexdigest()


def checksum_problems(out: Path) -> list[str]:
    """The manifest must list every other file of the tree with its sha256."""
    try:
        listed = json.loads((out / "manifest.json").read_text())["artifacts"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest unreadable: {exc}"]
    files = set(tree_files(out)) - {"manifest.json"}
    problems = [f"not in the manifest: {f}" for f in sorted(files - set(listed))]
    problems += [f"listed but missing: {f}" for f in sorted(set(listed) - files)]
    problems += [
        f"sha256 mismatch: {f}"
        for f in sorted(files & set(listed))
        if sha256_file(out / f) != listed[f]
    ]
    return problems


def read_columns(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols: dict[str, list[float]] = {name: [] for name in header}
        for row in reader:
            for name, value in zip(header, row):
                cols[name].append(float(value))
    return cols


def phi_keys(cols: dict[str, list[float]]) -> list[tuple[float, ...]]:
    names = [n for n in cols if n.startswith("phi_")]
    return list(zip(*(cols[n] for n in names)))


def judge_against_oracle(out: Path, oracle: dict) -> tuple[dict, list[str]]:
    """Smoothed FPF of the run against the oracle on its grid points."""
    cols = read_columns(out / "fpf_grid.csv")
    mine = dict(zip(phi_keys(cols), cols["smoothed_fpf"]))
    if not set(oracle) <= set(mine):
        return {}, ["fpf_grid.csv does not cover the oracle grid"]
    errs = []
    for key, opf in oracle.items():
        if opf < MIN_PF:
            continue
        if mine[key] <= 0.0:
            return {}, [f"non-positive smoothed FPF at {key}"]
        errs.append(abs(math.log10(mine[key] / opf)))
    if not errs:
        return {}, ["no oracle point is judged"]
    acc = {
        "fpf_err_log10_med": statistics.median(errs),
        "fpf_within_frac": sum(e <= TOL_LOG10 for e in errs) / len(errs),
        "pf_err_log10": 0.0,
        "judged": len(errs),
    }
    problems = []
    if acc["fpf_within_frac"] < MIN_FRACTION:
        problems.append(
            f"compare rule missed: {acc['fpf_within_frac']:.3f} of {len(errs)} "
            f"judged points within {TOL_LOG10} decades"
        )
    return acc, problems


def norm_sf(t: float) -> float:
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def judge_toy(out: Path) -> tuple[dict, list[str]]:
    """Smoothed FPF against Phi(-phi) and P(F) against its closed form.

    Reported, not gated: subset simulation on this box has a seed-to-seed
    log10 spread far wider than its reported c.o.v. (ROADMAP aim 3).
    """
    manifest = json.loads((out / "manifest.json").read_text())
    (lo, hi), = manifest["config"]["bounds"]

    def anti(t: float) -> float:
        return t * norm_sf(t) - math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    exact_pf = (anti(hi) - anti(lo)) / (hi - lo)
    cols = read_columns(out / "fpf_grid.csv")
    fpf = cols["smoothed_fpf"]
    if min(fpf) <= 0.0:
        return {}, ["non-positive smoothed FPF"]
    errs = [abs(math.log10(v / norm_sf(p))) for p, v in zip(cols["phi_1"], fpf)]
    acc = {
        "fpf_err_log10_med": statistics.median(errs),
        "fpf_within_frac": sum(e <= TOL_LOG10 for e in errs) / len(errs),
        "pf_err_log10": abs(math.log10(manifest["chain"]["pf"] / exact_pf)),
        "pilot_method": manifest["chain"]["pilot_method"],
    }
    return acc, []


def launch(wl: Workload, seed: int, result: Path, out: Path | None = None,
           command: str | None = None, threads: int | None = None,
           trace: bool = False, timeout: float = 170.0):
    """Run the worker once; returns (result dict or None, wall seconds, error)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--command", command or wl.command,
        "--config", str(ROOT / wl.config),
        "--seed", str(seed),
        "--threads", str(threads or wl.threads),
        "--result", str(result),
        "--trace", "1" if trace else "0",
    ]
    cmd += ["--out", str(out)] if out is not None else ["--setup-only"]
    result.parent.mkdir(parents=True, exist_ok=True)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - t_spawn, f"timed out after {timeout:.0f} s"
    wall = time.monotonic() - t_spawn
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, wall, f"exit {proc.returncode}: " + " | ".join(tail)
    res = json.loads(result.read_text())
    # the worker stamps set-up end on the same system-wide monotonic clock
    res["setup_s"] = res["setup_end"] - t_spawn
    return res, wall, None


def build_oracle(wl: Workload, seed: int, work: Path,
                 timeout: float) -> tuple[dict, float]:
    """Same-seed grid oracle for beam-run in ``work``.

    Returns the oracle pf by grid point and the launch's set-up seconds.
    """
    out = work / "out"
    res, _, err = launch(wl, seed, work / "result.json", out,
                         command="grid", threads=2, timeout=timeout)
    if res is None:
        raise BenchError(f"oracle failed: {err}")
    problems = checksum_problems(out)
    if problems:
        raise BenchError(f"oracle tree: {problems}")
    cols = read_columns(out / "oracle.csv")
    return dict(zip(phi_keys(cols), cols["pf_hat"])), res["setup_s"]


def input_seed(seed: int, k: int) -> int:
    """Config seed of a run's k-th input; input 0 is the run's own seed."""
    return seed + INPUT_STRIDE * k


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 catalogue: dict) -> tuple[dict, dict]:
    """Measure one workload; returns (result object, per-operation detail)."""
    wl = WORKLOADS[name]
    t_run = time.monotonic()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - t_run)

    setups: list[float] = []
    oracles: dict[int, dict | str] = {}  # config seed -> oracle, or why it failed
    digests: dict[int, str] = {}  # config seed -> output tree of its first operation
    ops: list[dict] = []

    def operation(k: int, traced: bool = False) -> dict:
        i = len(ops)
        op_seed = input_seed(seed, k)
        op = {"index": i, "input": k, "seed": op_seed, "traced": traced,
              "repeat": op_seed in digests, "problems": []}
        if wl.reference == "oracle" and op_seed not in oracles:
            # same-seed grid oracle, outside every timed region; its launch
            # sets up the same config, so it is a set-up sample too
            try:
                oracles[op_seed], setup_s = build_oracle(
                    wl, op_seed, work / f"oracle{k}", left())
                setups.append(setup_s)
            except BenchError as exc:
                oracles[op_seed] = str(exc)
        op_dir = work / f"op{i}"
        res, op["wall_s"], err = launch(wl, op_seed, op_dir / "result.json",
                                        op_dir / "out", trace=traced, timeout=left())
        if res is None:
            op["problems"].append(err)
        else:
            setups.append(res["setup_s"])
            for key in ("solve_s", "setup_s", "evaluations", "peak_rss_mb", "layers"):
                if key in res:
                    op[key] = res[key]
            out = op_dir / "out"
            digest = tree_digest(out)
            if digests.setdefault(op_seed, digest) != digest:
                op["problems"].append(
                    "output tree differs from the first operation at the same seed")
            op["problems"] += checksum_problems(out)
            try:
                if wl.reference == "oracle":
                    oracle = oracles[op_seed]
                    if isinstance(oracle, str):
                        raise BenchError(oracle)
                    op["accuracy"], problems = judge_against_oracle(out, oracle)
                    op["problems"] += problems
                elif wl.reference == "toy":
                    op["accuracy"], problems = judge_toy(out)
                    op["problems"] += problems
            except (BenchError, OSError, ValueError, KeyError) as exc:
                op["problems"].append(f"accuracy not judged: {exc!r}")
        op["failed"] = bool(op["problems"])
        for problem in op["problems"]:
            print(f"{name} op{i} (seed {op_seed}): {problem}", file=sys.stderr)
        ops.append(op)
        return op

    measured = 0.0
    if trace:
        # untraced and traced operations alternate on the run's own seed
        while True:
            op = operation(0, traced=len(ops) % 2 == 1)
            measured += op["wall_s"]
            if len(ops) >= 2 and measured >= seconds or op["wall_s"] > left():
                break
    else:
        # one operation per input, then input 0 again for the determinism check
        while True:
            op = operation(len(ops))
            measured += op["wall_s"]
            if len(ops) >= MIN_INPUTS and measured >= seconds or op["wall_s"] > left():
                break
        if ops[0]["wall_s"] < left():
            operation(0)
        else:
            print(f"{name}: no time left to repeat input 0", file=sys.stderr)

    while len(setups) < MIN_SETUPS and left() > 5.0:
        res, _, err = launch(wl, seed, work / f"setup{len(setups)}.json",
                             timeout=left())
        if res is None:
            print(f"{name} set-up launch: {err}", file=sys.stderr)
            break
        setups.append(res["setup_s"])

    good = [op for op in ops if "solve_s" in op]
    plain = [op for op in good if not op["traced"]]
    traced_ops = [op for op in good if op["traced"]]
    if not plain or (trace and not traced_ops):
        raise BenchError(f"{name}: no operation completed")
    failed = sum(op["failed"] for op in ops)
    judged = [op["accuracy"] for op in good if op.get("accuracy")]
    accuracy = {
        key: statistics.median(a[key] for a in judged) if judged else 0.0
        for key in ACCURACY
    }
    accuracy["failed_frac"] = failed / len(ops)

    if trace:
        values = {
            key: statistics.median(op["layers"].get(key, 0.0) for op in traced_ops)
            for key in catalogue["per_layer"]
        }
        values["trace.overhead_s"] = (
            statistics.median(op["solve_s"] for op in traced_ops)
            - statistics.median(op["solve_s"] for op in plain)
        )
        for key, value in accuracy.items():
            values[f"accuracy.{key}"] = value
        units = catalogue["per_layer"]
    else:
        # the determinism check's repeat of input 0 is not timed
        timed = [op for op in plain if not op["repeat"]]
        solve = sum(op["solve_s"] for op in timed)
        values = {
            "solve_s": solve / len(timed),
            "setup_s": statistics.median(setups),
            "evals_per_s": sum(op["evaluations"] for op in timed) / solve,
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in timed),
        }
        units = catalogue["end_to_end"]
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "ops": [{k: v for k, v in op.items() if k != "layers"} for op in ops],
        "setup_samples": setups,
        "accuracy": accuracy,
        "run_wall_s": time.monotonic() - t_run,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def load_catalogue() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "run_seconds": spec["run_seconds"],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    needed = [ROOT / "src" / "fpfkit" / "__init__.py", ROOT / "BENCHMARK.json"]
    needed += sorted({ROOT / wl.config for wl in WORKLOADS.values()})
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"not an fpfkit checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    catalogue = load_catalogue()
    if set(catalogue["end_to_end"]) != set(END_TO_END):
        print("BENCHMARK.json end_to_end names do not match bench/run.py", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else catalogue["run_seconds"]

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = []
    try:
        for name in names:
            for trace in modes:
                result, detail = run_workload(name, args.seed, seconds, trace, catalogue)
                print(json.dumps(detail))
                results.append((name, trace, result))
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if len(results) > 1:
        for name, trace, result in results:
            print(json.dumps({"workload": name, "trace": int(trace), **result}))
        summary = {
            "correct": all(r["correct"] for _, _, r in results),
            "attempted": sum(r["attempted"] for _, _, r in results),
            "failed": sum(r["failed"] for _, _, r in results),
            "metrics": {
                f"{name}.{key}": value
                for name, _, r in results
                for key, value in r["metrics"].items()
            },
        }
        print(json.dumps(summary))
    else:
        print(json.dumps(results[0][2]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
