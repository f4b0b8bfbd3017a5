"""End-to-end and per-layer performance ledger of the simulator.

Run from the repository root (the script finds ``src/`` itself)::

    python3 benchmarks/e2e/bench_e2e.py                      # all four workloads
    python3 benchmarks/e2e/bench_e2e.py --workload storm --seed 1000 --seconds 20
    python3 benchmarks/e2e/bench_e2e.py --workload quick --trace 1 --trace-out t.json
    python3 benchmarks/e2e/bench_e2e.py --repeat 3 --out a.json
    python3 benchmarks/e2e/bench_e2e.py --compare a.json b.json

Each workload runs in its own child process, one at a time, after a
few set-up-only children that time ``import repro.reproduce`` plus the
workload's set-up.  Every host time is calibrated against a fixed probe
(see ``calibrate.py``); simulated statistics are checked, not timed.
The metric names, units and regression bounds are read from the
repository's ``BENCHMARK.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics, or with ``--trace 1`` the
per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from time import perf_counter

from calibrate import comparable, host_block, probe_once, timing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("storm", "ff-stream", "showcase-ref", "quick")

#: Set-ups per untraced run (the median is ``setup_s``), by scale.
SETUPS = {"full": 5, "smoke": 1}

#: Fewest measurement cycles (one cold pass plus serving passes).
MIN_CYCLES = {"full": 3, "smoke": 1}

#: Wall-clock budget of one workload run, set-ups included.
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


# -- child process ---------------------------------------------------------


def child(args: argparse.Namespace) -> int:
    """Set up one workload and, for ``--role run``, measure it; writes
    the raw result document to ``--result``."""
    begin = perf_counter()
    sys.path.insert(0, SRC)
    import workloads  # imports repro.reproduce: part of set-up

    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"repro imported from {repro.__file__}, not {SRC}")
    workload = workloads.make(args.workload, args.seed, args.scale, args.work)
    result: dict = {}
    try:
        workload.setup()
        setup_s = perf_counter() - begin
        # Probed after set-up: a fresh interpreter's first probes are
        # slowed by its own heap growth, not by the host.
        result["setup"] = [setup_s, statistics.median(probe_once() for _ in range(3))]
        if args.role == "run":
            ledger = workloads.Ledger()
            if args.trace:
                result.update(workloads.measure_traced(workload, ledger))
            else:
                workloads.measure(workload, ledger, args.seconds, MIN_CYCLES[args.scale])
    finally:
        workload.close()
    if args.role == "run":
        result.update(workloads.summarize(workload, ledger, args.workload, args.seed, args.scale))
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


# -- parent process --------------------------------------------------------


def spawn(role: str, name: str, args: argparse.Namespace, work: str, deadline: float) -> dict:
    """Run one child to completion (killing its whole process group on
    timeout) and return its result document."""
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--role", role,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--work", work, "--result", result_path,
    ]
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: {role} child ran past the {RUN_TIMEOUT_S:.0f} s budget") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if code != 0:
        raise BenchError(f"{name}: {role} child exited with status {code}")
    with open(result_path) as handle:
        return json.load(handle)


def run_workload(name: str, args: argparse.Namespace, defs: dict) -> dict:
    """Set-up children, then the measuring child; the run's record."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        n_setups = 1 if args.trace else SETUPS[args.scale]
        setups = [
            spawn("setup", name, args, os.path.join(work, f"setup-{index}"), deadline)["setup"]
            for index in range(n_setups - 1)
        ]
        result = spawn("run", name, args, os.path.join(work, "run"), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it
    setups.append(result["setup"])
    record = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / max(1, result["attempted"]),
        "claims_passed": result["claims_passed"],
        "digest": result["digest"],
        "problems": result["problems"],
        "oracle_advisory": result["oracle_advisory"],
        "passes": result["passes"],
        "spec_medians": result["spec_medians"],
        "setups": setups,
    }
    if args.trace:
        values = {key: {"value": value} for key, value in result["layers"].items()}
        wanted = defs["per_layer"]
        record["trace_doc"] = result["trace"]
    else:
        values = {"setup_s": timing(setups), **result["e2e"]}
        wanted = defs["end_to_end"]
    missing = [metric["name"] for metric in wanted if metric["name"] not in values]
    if missing:
        raise BenchError(f"{name}: no value for {', '.join(missing)}")
    record["metrics"] = {
        metric["name"]: {**values[metric["name"]], "unit": metric["unit"]} for metric in wanted
    }
    record["correct"] = not record["problems"] and record["failed"] == 0 and record["attempted"] > 0
    return record


def print_record(record: dict) -> None:
    status = "ok" if record["correct"] else "INCORRECT"
    claims = record["claims_passed"]
    digest = record["digest"]
    checked = ""
    if digest["expected"]:
        same = digest["value"] == digest["expected"]
        checked = " (matches the stored digest)" if same else " (DIFFERS from the stored digest)"
    print(
        f"{record['workload']} (seed {record['seed']}): {status}; "
        f"failed {record['failed']}/{record['attempted']} specs "
        f"(failed_frac {record['failed_frac']:.4f})"
        + ("" if claims is None else f"; claims_passed {claims}/32")
        + f"; digest {digest['value'] or '-'}{checked}"
    )
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for counter, count in record["oracle_advisory"].items():
        print(f"  note: {counter} differs between engines on {count} oracle spec(s)")
    for name, metric in record["metrics"].items():
        detail = []
        if "raw_s" in metric:
            detail.append(f"raw {metric['raw_s']:.4f} s, probe {1e3 * metric['probe_s']:.2f} ms")
        if "n" in metric:
            detail.append(f"n={metric['n']}")
        print(
            f"  {name:34s} {metric['value']:>14.6g} {metric['unit']:<8s}"
            + (f"  ({', '.join(detail)})" if detail else "")
        )
    doc = record.get("trace_doc")
    if doc:
        overhead = doc["overhead"]
        print(
            f"  tracing overhead: traced sweep {overhead['traced_s']:.3f} s over untraced "
            f"{overhead['untraced_s']:.3f} s = "
            f"{overhead['traced_s'] / overhead['untraced_s']:.2f}x"
        )
        print("  self time by module (cProfile, traced cold pass):")
        for module, row in list(doc["fold"].items())[:12]:
            print(f"    {module:24s} {100 * row['self_frac']:6.2f} %  {row['calls']:>10d} calls")
        total = sum(row["self_frac"] for row in doc["fold"].values())
        print(f"    (shares sum to {100 * total:.2f} %)")


def result_line(records: list[dict]) -> dict:
    """The last output line: one run's metrics, or every run's under
    ``<workload>.<metric>`` when several ran."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
        keyed = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}
    else:
        keyed = {
            f"{record['workload']}.{name}": {"value": m["value"], "unit": m["unit"]}
            for record in records for name, m in record["metrics"].items()
        }
    return {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": keyed,
    }


# -- comparison ------------------------------------------------------------


def _spread(values: list[float]) -> tuple[float, float, float]:
    """Median and first/third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``better``/``worse``/``unchanged`` for B against A under a
    relative bound, or ``unresolved`` when either side's quartile
    spread exceeds the bound (unless every run of B beats, or loses to,
    every run of A)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, q1_a, q3_a = _spread(a)
    med_b, q1_b, q3_b = _spread(b)
    change = sign * (med_b - med_a) / med_a
    spread = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str, defs: dict) -> int:
    with open(path_a) as handle:
        doc_a = json.load(handle)
    with open(path_b) as handle:
        doc_b = json.load(handle)
    reason = comparable(doc_a["host"], doc_b["host"])
    if reason:
        print(f"refusing to compare {path_a} with {path_b}: {reason}")
        return 2
    worse = 0
    names = [run["workload"] for run in doc_a["runs"]]
    workloads = [w for w in dict.fromkeys(names) if any(r["workload"] == w for r in doc_b["runs"])]
    print(f"{'workload':14s} {'metric':14s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s}  verdict (bound)")
    for workload in workloads:
        for metric in defs["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in doc_a["runs"]
                 if r["workload"] == workload and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in doc_b["runs"]
                 if r["workload"] == workload and name in r["metrics"]]
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            worse += result == "worse"
            med_a, q1_a, q3_a = _spread(a)
            med_b, q1_b, q3_b = _spread(b)
            print(
                f"{workload:14s} {name:14s} "
                f"{f'{med_a:.4g} [{q1_a:.4g}, {q3_a:.4g}]':>32s} "
                f"{f'{med_b:.4g} [{q1_b:.4g}, {q3_b:.4g}]':>32s} "
                f"{100 * (med_b - med_a) / med_a:+7.2f}%  {result} "
                f"({100 * metric['bound']:.0f}%, {len(a)}+{len(b)} runs)"
            )
    return 1 if worse else 0


# -- command line ----------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1000,
                        help="placement seeds and stream mix (default 1000)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting the per-layer metrics")
    parser.add_argument("--trace-out", metavar="T.json",
                        help="with --trace 1, write spans, the module fold and "
                             "the modelled counters here")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: ~10%% of the DES specs, one pass each")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, at seeds SEED, SEED+1, ...")
    parser.add_argument("--out", metavar="R.json",
                        help="write every run's metrics with the host block")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files under the BENCHMARK.json bounds")
    parser.add_argument("--role", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role:
        return child(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(BENCHMARK) as handle:
            defs = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {BENCHMARK}: {error}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare, defs)
    if args.scale == "smoke":
        args.seconds = 0.0  # one measurement cycle
    elif args.seconds is None:
        args.seconds = float(defs["run_seconds"])
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    base_seed = args.seed
    records = []
    try:
        for repeat in range(args.repeat):
            args.seed = base_seed + repeat
            for name in names:
                record = run_workload(name, args, defs)
                print_record(record)
                records.append(record)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.trace and args.trace_out:
        with open(args.trace_out, "w") as handle:
            json.dump([
                {"workload": r["workload"], "seed": r["seed"], **r["trace_doc"]}
                for r in records
            ], handle)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({
                "schema": 1,
                "host": host_block(),
                "settings": {"seconds": args.seconds, "scale": args.scale, "trace": args.trace},
                "runs": [{k: v for k, v in r.items() if k != "trace_doc"} for r in records],
            }, handle, indent=1)
    print(json.dumps(result_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
