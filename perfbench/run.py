"""degenpop benchmark: one run of one workload, or the smoke test.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

Run from anywhere; paths are resolved from this file.  The workloads are
defined in workloads.py and named in BENCHMARK.json, which also fixes every
metric name and unit this script reports.

One run:
  1. writes the workload's config (configs/benchmark.ini with only the cell
     counts changed) under perfbench/out/<workload>/;
  2. runs worker.py in a fresh process: a warm-up pass, then timed
     untraced passes while another fits in --seconds (at least one), and
     with --trace 1 two traced passes after them;
  3. times set-up (import degenpop + parse_config) once inside the worker
     and in six fresh interpreters, three before and three after it;
  4. checks the outputs (the correctness gate below);
  5. prints a readable report and, as the last line, one JSON object
     {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
     metrics are the end-to-end ones (medians over the timed passes and the
     set-ups), with --trace 1 the per-layer ones (two traced passes: counts
     must agree exactly, times are averaged).

Correctness gate, one attempted check each:
  * every cg_converged is true, and every sweep_control.csv residual is at
    or below the configured tolerance;
  * terminal_ratio_target_0.05 is MET;
  * state.csv round-trips through read_field_csv: the values give the
    summary's terminal_norm exactly and write back to the same bytes;
  * every *_all_defined is true;
  * each summary scalar in references.json matches within REFERENCE_RTOL;
  * all passes of the run, the warm-up included, produce the same bytes for
    every artifact except timings.txt;
  * traced runs: counts repeat exactly across the two traced passes and the
    CG residual-history CSVs are identical; Gram applies equal the summed CG
    iterations, and the residual history has one row per iteration ending
    at or below tolerance; the lab makes 3*trials + observability_trials
    adjoint solves on max(trials, observability_trials) + trials distinct
    draws (110 on 70 for benchmark.ini); the self times of all spans sum to
    the traced wall time.

error_rate = failed / attempted is printed with the report; it is not an
end-to-end metric because it is 0 on a correct program.

--smoke runs every workload once with and once without tracing on a tiny
grid and checks the result schema against BENCHMARK.json and
layer_map.json; it is the benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import BASE_CONFIG, OUT, ROOT, SMOKE_GRID, SRC, WORKLOADS, write_config

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 6
WORKER_TIMEOUT_S = 170

# Relative tolerance of the reference check.  Control and sweep scalars come
# out of CG stopped at a 1e-6 relative residual, so an equally valid CG can
# move them in the fourth digit; the direct solves are deterministic.
REFERENCE_RTOL = {"control": 1e-3, "sweep": 1e-3}
DEFAULT_REFERENCE_RTOL = 1e-9

SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import degenpop
from degenpop.config import parse_config
parse_config(sys.argv[2])
print(time.perf_counter() - start)
"""


class Gate:
    """Attempted and failed correctness checks."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list:
        return [r for r in self.results if not r[1]]


def read_summary(path: Path) -> dict:
    summary = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(": ")
        summary[key] = value
    return summary


def read_table(text: str) -> list[dict]:
    header, *rows = text.splitlines()
    names = header.split(",")
    return [dict(zip(names, row.split(","))) for row in rows]


def _close(value: str, reference: str, rtol: float) -> bool:
    try:
        a, b = float(value), float(reference)
    except ValueError:
        return value == reference
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def check_artifacts(gate, workload, grid, config, artifacts: Path, references) -> None:
    from degenpop.fieldio import read_field_csv, write_field_csv
    from degenpop.model import l2_norm

    grid_key = "nx{}_na{}_nt{}".format(*grid)
    refs = references.get(workload, {}).get(grid_key)
    gate.check("references_present", refs is not None, f"{workload} at {grid_key}")
    for command in WORKLOADS[workload][1]:
        out = artifacts / command
        summary = read_summary(out / "summary.txt")
        if "cg_converged" in summary:
            gate.check(f"{command}.cg_converged", summary["cg_converged"] == "true")
        if "terminal_ratio_target_0.05" in summary:
            gate.check(
                f"{command}.terminal_ratio_target_0.05",
                summary["terminal_ratio_target_0.05"] == "MET",
                summary.get("terminal_ratio", ""),
            )
        for key, value in summary.items():
            if key.endswith("_all_defined"):
                gate.check(f"{command}.{key}", value == "true")
        if command == "sweep":
            for row in read_table((out / "sweep_control.csv").read_text()):
                gate.check(
                    f"sweep.residual[eps={row['epsilon']}]",
                    float(row["cg_residual"]) <= config.cg_tol,
                    f"{row['cg_residual']} vs tolerance {config.cg_tol}",
                )
        if command == "simulate":
            state_csv = out / "state.csv"
            state = read_field_csv(state_csv, config.grid)
            norm = l2_norm(state.values[config.grid.nt], config.grid, kind="age_gene")
            rewritten = out.parent / "state_roundtrip.csv"
            write_field_csv(state, rewritten)
            same_bytes = rewritten.read_bytes() == state_csv.read_bytes()
            rewritten.unlink()
            gate.check(
                "simulate.state_csv_round_trip",
                same_bytes and repr(float(norm)) == summary["terminal_norm"],
                f"bytes equal: {same_bytes}; terminal_norm {norm!r} vs {summary['terminal_norm']}",
            )
        rtol = REFERENCE_RTOL.get(command, DEFAULT_REFERENCE_RTOL)
        for key, reference in (refs or {}).get(command, {}).items():
            value = summary.get(key)
            gate.check(
                f"{command}.reference.{key}",
                value is not None and _close(value, reference, rtol),
                f"{value} vs reference {reference} (rtol {rtol:g})",
            )


def check_traced(gate, workload, config, artifacts: Path, traced: list) -> None:
    first, second = traced
    counts = first["counts"]
    gate.check(
        "trace.counts_repeat",
        first["counts"] == second["counts"],
        "counts differ between the two traced passes",
    )
    gate.check(
        "trace.residual_history_repeats", first["residual_csv"] == second["residual_csv"]
    )
    for index, figures in enumerate(traced):
        wall, total = figures["wall_s"], figures["span_self_sum_s"]
        gate.check(
            f"trace.self_times_sum_to_wall[{index}]",
            abs(total - wall) <= 1e-6 * wall,
            f"sum of self times {total!r} vs traced wall {wall!r}",
        )

    commands = WORKLOADS[workload][1]
    iterations = {
        key: n for key, n in counts.items() if key.startswith("control.cg_iterations.")
    }
    if "sweep" in commands or "control" in commands:
        total = sum(iterations.values())
        gate.check(
            "trace.gram_applies_equal_cg_iterations",
            counts["control.gram_applies"] == total,
            f"{counts['control.gram_applies']} applies vs {total} iterations",
        )
        if "sweep" in commands:
            table = read_table((artifacts / "sweep" / "sweep_control.csv").read_text())
            from_csv = sum(int(row["cg_iterations"]) for row in table)
        else:
            from_csv = int(read_summary(artifacts / "control" / "summary.txt")["cg_iterations"])
        gate.check(
            "trace.cg_iterations_match_artifacts",
            total == from_csv,
            f"traced {total} vs artifacts {from_csv}",
        )
        rows = read_table(first["residual_csv"])
        per_eps: dict = {}
        for row in rows:
            per_eps.setdefault(float(row["epsilon"]), []).append(float(row["relative_residual"]))
        gate.check(
            "trace.residual_history_complete",
            sum(len(h) for h in per_eps.values()) == total
            and all(h[-1] <= config.cg_tol for h in per_eps.values()),
            f"{len(rows)} rows for {total} iterations, tolerance {config.cg_tol}",
        )
    if "inequalities" in commands:
        solves = 3 * config.trials + config.observability_trials
        draws = max(config.trials, config.observability_trials) + config.trials
        gate.check(
            "trace.lab_adjoint_solves",
            counts["inequalities.adjoint_solves"] == solves,
            f"{counts['inequalities.adjoint_solves']} vs {solves}",
        )
        gate.check(
            "trace.lab_distinct_draws",
            counts["inequalities.distinct_draws"] == draws,
            f"{counts['inequalities.distinct_draws']} vs {draws}",
        )


def timed_passes(worker: dict) -> list:
    return [p for p in worker["passes"] if not p["warmup"]]


def end_to_end_metrics(worker: dict, setup_samples: list) -> dict:
    passes = timed_passes(worker)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def per_layer_metrics(worker: dict) -> dict:
    traced = worker["traced"]
    counts = dict(traced[0]["counts"])
    distinct = counts.pop("inequalities.distinct_draws")
    solves = counts["inequalities.adjoint_solves"]
    times = {
        key: statistics.fmean(t["times"][key] for t in traced) for key in traced[0]["times"]
    }
    untraced_wall = statistics.median(p["wall_s"] for p in timed_passes(worker))
    traced_wall = statistics.fmean(t["wall_s"] for t in traced)
    return {
        **counts,
        **times,
        "inequalities.distinct_draw_ratio": distinct / solves if solves else 0.0,
        "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
    }


def _subprocess(args, timeout):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )


def run_workload(workload, seed, seconds, trace, grid, out: Path, spec: dict) -> dict:
    """One benchmark run; returns the result object and prints the report."""
    from degenpop.config import parse_config

    shutil.rmtree(out, ignore_errors=True)
    config_path = write_config(grid, out / "benchmark.ini")
    config = parse_config(config_path)

    def time_setup(count):
        for _ in range(count):
            done = _subprocess(["-c", SETUP_SNIPPET, str(SRC), str(config_path)], 60)
            setup_samples.append(float(done.stdout.strip().splitlines()[-1]))

    # half of the set-up samples before the worker and half after it, so that
    # they span the run rather than one stretch of it
    setup_samples = []
    time_setup(SETUP_SAMPLES // 2)
    done = _subprocess(
        [
            str(HERE / "worker.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--config", str(config_path),
            "--out", str(out),
        ],
        WORKER_TIMEOUT_S,
    )
    worker = json.loads(done.stdout.strip().splitlines()[-1])
    setup_samples.append(worker["setup_s"])
    time_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    gate = Gate()
    artifacts = out / "artifacts"
    references = json.loads((HERE / "references.json").read_text())
    check_artifacts(gate, workload, grid, config, artifacts, references)
    digests = [p["digests"] for p in worker["passes"] + worker["traced"]]
    gate.check(
        "artifacts_byte_identical_across_passes",
        all(d == digests[0] for d in digests[1:]),
        f"{len(digests)} passes",
    )
    if trace:
        check_traced(gate, workload, config, artifacts, worker["traced"])
        (out / "cg_residual_history.csv").write_text(worker["traced"][0]["residual_csv"])
        values = per_layer_metrics(worker)
        declared = spec["per_layer"]
    else:
        values = end_to_end_metrics(worker, setup_samples)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted, failed = len(gate.results), len(gate.failed)
    print(
        f"workload {workload} seed {seed} grid {grid} trace {trace}: "
        f"1 warm-up and {len(timed_passes(worker))} timed untraced pass(es), "
        f"{len(worker['traced'])} traced"
    )
    print("  pass walls (s): " + " ".join(
        f"{p['wall_s']:.3f}" for p in worker["passes"] + worker["traced"]
    ))
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':40s} {failed / attempted:.6g} ({failed}/{attempted} checks failed)")
    for name, _, detail in gate.failed:
        print(f"  FAILED {name}: {detail}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke(spec: dict) -> int:
    """Every workload once per trace mode on the tiny grid; schema checks."""
    problems = []
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    mapped = [m for group in layer_map["groups"] for m in group["metrics"]]
    declared = [m["name"] for m in spec["per_layer"]]
    if sorted(mapped) != sorted(declared):
        problems.append("layer_map.json metrics differ from BENCHMARK.json per_layer")
    e2e = {m["name"] for m in spec["end_to_end"]}
    for group in layer_map["groups"]:
        for pred in group["predictions"]:
            if pred["end_to_end"] not in e2e or pred["workload"] not in WORKLOADS:
                problems.append(f"layer_map.json: unknown pairing {pred}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(
                workload, 1, 0, trace, SMOKE_GRID, OUT / "smoke" / workload, spec
            )
            json.dumps(result)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload}/{trace}: wrong result keys")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload}/{trace}: correctness gate failed")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    problems.append(f"{workload}/{trace}: {name} is not a number")
                elif not math.isfinite(value):
                    problems.append(f"{workload}/{trace}: {name} is not finite")
            for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb") if not trace else ():
                if not result["metrics"][name]["value"] > 0:
                    problems.append(f"{workload}/{trace}: {name} is not positive")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="degenpop benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-grid self test")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    missing = [p for p in (SRC / "degenpop" / "__init__.py", BASE_CONFIG, BENCHMARK_JSON)
               if not p.is_file()]
    if missing:
        print("benchmark needs a degenpop checkout; missing: "
              + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(BENCHMARK_JSON.read_text())
    if args.smoke:
        return smoke(spec)

    grid = WORKLOADS[args.workload][0]
    result = run_workload(
        args.workload, args.seed, args.seconds, args.trace, grid,
        OUT / args.workload, spec,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
