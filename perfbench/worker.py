"""One workload in a fresh process: set-up, timed passes, optional traced passes.

usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                   --trace 0|1 --config INI --out DIR

The worker runs on one CPU.  A pass runs the workload's commands through
`run_experiment` once.  The first pass warms up (lazy imports, caches, first
page faults) and is not timed into the medians; untraced passes then repeat
while another one fits in `--seconds`, counted from the warm-up on (at least
one timed pass).  With `--trace 1` two traced passes follow.  The last stdout
line is a JSON object with the set-up time, per-pass wall/CPU time, warm-up
flag and artifact digests, the peak RSS after the untraced passes, and
the per-layer figures of each traced pass.  run.py judges correctness from
these and the artifacts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import PENALTIES, SRC, WORKLOADS, penalty_label


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def artifact_digests(out: Path) -> dict:
    """sha256 of every artifact except the wall-clock timings file."""
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "timings.txt":
            sha = hashlib.sha256()
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    sha.update(block)
            digests[str(path.relative_to(out))] = sha.hexdigest()
    return digests


def run_pass(run_experiment, config, commands, out: Path, seed: int) -> None:
    for command in commands:
        run_experiment(config, command, out_dir=out / command, seed=seed)


def _ancestor_names(span, by_id):
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent.name
        parent = by_id.get(parent.parent)


def layer_metrics(spans, self_time, inclusive, grid) -> tuple[dict, dict]:
    """Exact counts and attributed times per layer, by metric name."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    by_id = {span.sid: span for span in spans}

    def self_s(*names):
        return sum(self_time[s.sid] for n in names for s in by_name[n])

    def incl_s(name):
        return sum(inclusive[s.sid] for s in by_name[name])

    thomas = by_name["stepping.thomas"]
    thomas_rows = sum(s.info["rows"] for s in thomas)
    writes = by_name["fieldio.write"]
    bytes_written = sum(s.info["bytes"] for s in writes)
    lab_solves = [
        s for s in by_name["adjoint.solve"]
        if "inequalities.run" in _ancestor_names(s, by_id)
    ]
    iterations = {label: 0 for label in PENALTIES}
    for span in by_name["control.solve"]:
        label = penalty_label(span.info["epsilon"])
        iterations[label] = iterations.get(label, 0) + span.info["iterations"]
    applies = len(by_name["control.gram_apply"])
    trajectory_bytes = (grid.nt + 1) * (grid.na + 1) * (grid.nx + 1) * 8

    counts = {
        "stepping.thomas.calls": len(thomas),
        "stepping.thomas.rows": thomas_rows,
        "stepping.thomas.computed_bytes": sum(s.info["bytes"] for s in thomas),
        "stepping.factor.calls": len(by_name["stepping.factor"]),
        "forward.solves": len(by_name["forward.solve"]),
        "adjoint.solves": len(by_name["adjoint.solve"]),
        "control.gram_applies": applies,
        **{f"control.cg_iterations.eps_{label}": n for label, n in iterations.items()},
        "inequalities.trials": len(by_name["inequalities.trial"]),
        "inequalities.adjoint_solves": len(lab_solves),
        "inequalities.distinct_draws": len({s.info["draw"] for s in lab_solves}),
        "fieldio.rows_written": sum(s.info["rows"] for s in writes),
        "fieldio.bytes_written": bytes_written,
        "weights.family_builds": len(by_name["weights.family_build"]),
        "ensembles.draws": len(by_name["ensembles.draw"]),
    }
    write_s = incl_s("fieldio.write")
    thomas_s = self_s("stepping.thomas")
    times = {
        "stepping.thomas.self_s": thomas_s,
        "stepping.thomas.us_per_row": 1e6 * thomas_s / thomas_rows if thomas_rows else 0.0,
        "stepping.factor_s": self_s("stepping.factor"),
        "forward.self_s": self_s("forward.solve"),
        "adjoint.self_s": self_s("adjoint.solve"),
        "adjoint.trace_oracle_s": incl_s("adjoint.trace_oracle"),
        "adjoint.duhamel_s": incl_s("adjoint.duhamel"),
        "control.gram_apply_s": incl_s("control.gram_apply"),
        "control.solve_s": incl_s("control.solve"),
        "control.self_s": self_s("control.solve", "control.gram_apply", "control.verify"),
        "inequalities.trial_self_s": self_s("inequalities.trial"),
        "fieldio.write_s": write_s,
        "fieldio.mb_per_s": bytes_written / 2**20 / write_s if write_s > 0 else 0.0,
        "weights.family_build_s": incl_s("weights.family_build"),
        "weights.sup_check_s": incl_s("weights.sup_check"),
        "ensembles.draw_s": incl_s("ensembles.draw"),
        "runner.command_s": incl_s("runner.command"),
        "runner.self_s": self_s("runner.command"),
        "config.parse_s": incl_s("config.parse"),
    }
    # computed, not measured: two full trajectories allocated per Gram apply
    times["control.gram_alloc_mb"] = applies * 2 * trajectory_bytes / 2**20
    return counts, times


def residual_history_csv(spans) -> str:
    """CG relative residual per penalty and iteration, sorted by penalty."""
    lines = ["epsilon,iteration,relative_residual"]
    solves = sorted(
        (s for s in spans if s.name == "control.solve"), key=lambda s: s.info["epsilon"]
    )
    for span in solves:
        eps = repr(span.info["epsilon"])
        for it, value in enumerate(span.info["history"], start=1):
            lines.append(f"{eps},{it},{value!r}")
    return "\n".join(lines) + "\n"


def spans_csv(spans, self_time, origin: float) -> str:
    threads = {}
    lines = ["id,parent,thread,name,start_s,end_s,self_s"]
    for span in sorted(spans, key=lambda s: s.sid):
        thread = threads.setdefault(span.thread, len(threads))
        parent = "" if span.parent is None else span.parent
        lines.append(
            f"{span.sid},{parent},{thread},{span.name},{span.start - origin:.9f},"
            f"{span.end - origin:.9f},{self_time[span.sid]:.9f}"
        )
    return "\n".join(lines) + "\n"


def traced_pass(tracer, config_path, commands, out, seed):
    """Parse and run once under the tracer; returns the pass figures."""
    import degenpop.config
    import degenpop.runner
    from tracer import attribute_self_time, inclusive_time

    tracer.spans = []
    config = tracer.call("bench.setup", degenpop.config.parse_config, (config_path,), {})
    tracer.call(
        "bench.pass",
        run_pass,
        (degenpop.runner.run_experiment, config, commands, out, seed),
        {},
    )
    spans = tracer.spans
    self_time = attribute_self_time(spans)
    inclusive = inclusive_time(spans, self_time)
    root = next(s for s in spans if s.name == "bench.pass")
    counts, times = layer_metrics(spans, self_time, inclusive, config.grid)
    return {
        "wall_s": root.end - root.start,
        "span_self_sum_s": inclusive[root.sid],
        "counts": counts,
        "times": times,
        "residual_csv": residual_history_csv(spans),
        "spans_csv": spans_csv(spans, self_time, min(s.start for s in spans)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    commands = WORKLOADS[args.workload][1]
    out = Path(args.out)
    # One CPU for the whole worker, threads included.  On a 2-vCPU virtual
    # machine the sweep's thread pool otherwise times how much of the second
    # vCPU the host lends it: its 10-run wall-time spread was 0.41 unpinned
    # against 0.13 for its CPU time.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # numpy and degenpop are first imported here (tracer.py imports numpy
    # too, so it is loaded only later), inside the set-up timing.
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from degenpop.config import parse_config
    from degenpop.runner import run_experiment

    config = parse_config(args.config)
    setup_s = time.perf_counter() - start

    # The warm-up pass and at least one timed pass; another only if it
    # should end within --seconds, judged by the last pass.
    passes = []
    measuring = time.perf_counter()
    while True:
        gc.collect()
        cpu0, wall0 = _cpu_seconds(), time.perf_counter()
        run_pass(run_experiment, config, commands, out / "artifacts", args.seed)
        wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
        passes.append({
            "wall_s": wall,
            "cpu_s": cpu,
            "warmup": not passes,
            "digests": artifact_digests(out / "artifacts"),
        })
        if len(passes) > 1 and time.perf_counter() - measuring + wall > args.seconds:
            break
    # The high-water mark over all untraced passes: on the sweep's thread pool
    # a single pass peaks where the threads' allocations happen to overlap.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(2):
                gc.collect()
                figures = traced_pass(
                    tracer, args.config, commands, out / "artifacts", args.seed
                )
                figures["digests"] = artifact_digests(out / "artifacts")
                traced.append(figures)
        finally:
            tracer.uninstall()
        (out / "trace_spans.csv").write_text(traced[-1].pop("spans_csv"))
        traced[0].pop("spans_csv")

    result = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "traced": traced,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
