"""Host-time ledger for the paper's simulations: figure3, figure4, paper32.

    python3 perfbench/run.py --workload figure3 --seed 42 --seconds 40 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a
fresh ``python3 perfbench/worker.py`` process, so every pass pays the
``repro`` import a user pays.  ``--trace 0`` runs at least two passes,
starts another only while it is expected to end within ``--seconds``, and
reports the medians of the end-to-end metrics; ``--trace 1`` runs one
plain and one cProfile'd pass and reports the per-layer metrics.  Every
cell's exact simulated counters must agree across the passes, and with
``--seed 42`` also with the fingerprints pinned in ``fingerprints.json``;
a cell that raises, deadlocks or disagrees is counted in ``failed`` and
the command exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (cell runs), ``failed`` (cell runs) and
``metrics``.  Spans and per-cell records of every pass are written once,
at the end, to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import ledger

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("figure3", "figure4", "paper32")
MIN_PASSES = 2
#: Every pass must end by then, so the command exits within 180 s.
DEADLINE_S = 170.0


class PassFailed(Exception):
    """A worker process crashed or ran past the deadline."""


def environment_error() -> str | None:
    """Why the benchmark must not run here, or None."""
    if os.environ.get("REPRO_CONFORMANCE", "") not in ("", "0"):
        return ("REPRO_CONFORMANCE is set: every machine would run the "
                "conformance monitor, which is not the program users run")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return f"no repro package under {SRC}: run from a checkout's root"
    return None


def run_worker(workload: str, seed: int, traced: bool,
               deadline: float) -> dict:
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise PassFailed("no time left before the deadline")
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               workload, str(seed), "1" if traced else "0"]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"worker ran past the {DEADLINE_S:.0f} s deadline")
    if done.returncode != 0:
        raise PassFailed(f"worker exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def load_pins(workload: str, seed: int) -> dict | None:
    if seed != ledger.DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "fingerprints.json")) as handle:
        return json.load(handle)[workload]


def end_to_end(plain: list[dict]) -> dict[str, float]:
    median = statistics.median
    return {
        "wall_s": median(p["wall_s"] for p in plain),
        "setup_s": median(p["setup_s"] for p in plain),
        "refs_per_s": median(
            ledger.summed_counters(p["cells"])["cpu.refs"] / p["run_s"]
            for p in plain),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
    }


def run_passes(args, deadline: float) -> tuple[list[dict], dict | None]:
    """The plain passes and, with ``--trace 1``, the traced one."""
    plain: list[dict] = []
    if args.trace:
        plain.append(run_worker(args.workload, args.seed, False, deadline))
        return plain, run_worker(args.workload, args.seed, True, deadline)
    start = perf_counter()
    while True:
        began = perf_counter()
        plain.append(run_worker(args.workload, args.seed, False, deadline))
        spent = perf_counter() - began
        elapsed = perf_counter() - start
        if len(plain) >= MIN_PASSES and elapsed + spent > args.seconds:
            return plain, None
        if perf_counter() + spent > deadline:
            return plain, None


def report(args, plain: list[dict], traced: dict | None) -> dict:
    """Check outputs, print every metric by name, return the result."""
    passes = plain + ([traced] if traced else [])
    cells = len(passes[0]["cells"])
    failed = ledger.failed_cells([p["cells"] for p in passes],
                                 load_pins(args.workload, args.seed))
    errors = {record["id"]: record["error"]
              for p in passes for record in p["cells"] if "error" in record}
    for cell_id, error in errors.items():
        print(f"cell {cell_id} failed:\n{error}", file=sys.stderr)
    for cell_id in sorted(set(failed) - set(errors)):
        print(f"cell {cell_id}: wrong or non-repeating output",
              file=sys.stderr)
    print(f"perfbench {args.workload}: seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"plain_passes={len(plain)} traced_passes={int(traced is not None)}")
    print(f"  cells_failed {len(failed)} of {cells * len(passes)} cell runs "
          f"({cells} cells x {len(passes)} passes)")
    metrics: dict[str, dict] = {}
    if not args.trace:
        for name, value in end_to_end(plain).items():
            unit = ledger.END_TO_END[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name} {value:.6g} {unit}")
    elif not failed:
        counters = ledger.summed_counters(plain[0]["cells"])
        layer_metrics = ledger.per_layer_metrics(
            traced["layers"], counters, plain[0]["run_s"],
            plain[0]["wall_s"], traced["wall_s"])
        for name, (value, unit) in layer_metrics.items():
            metrics[name] = {"value": value, "unit": unit}
            base = ledger.RATIOS.get(name)
            note = f"  ({base[0]} / {base[1]})" if base else ""
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {name} {shown} {unit}{note}")
    return {"correct": not failed, "attempted": cells * len(passes),
            "failed": len(failed), "metrics": metrics}


def write_records(args, passes: list[dict]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({"nproc": os.cpu_count(),
                   "python": platform.python_version(),
                   "seed": args.seed, "passes": passes}, handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=ledger.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    error = environment_error()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    try:
        plain, traced = run_passes(args, deadline)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = report(args, plain, traced)
    write_records(args, plain + ([traced] if traced else []))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
