"""Closed-loop benchmark of cranplace's placement layers.

One caller, no threads: each timed call starts when the previous one
returns. A run works through the workload's instances in order, one group
of calls per instance, and starts no group that would end past
``--seconds``. Each instance is set up as the CLI would load it, every
call gets its own copy of it, made untimed just before the call, and
every output is checked.

    python3 perfbench/run.py --workload stream_light --seed 7 \\
        --seconds 35 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a fixed number of groups, each run untraced and then traced.
Lines before it start with ``info`` (the run's environment) or ``fp`` (the
fingerprint of each untraced call).
The exit code is 0 when the run completed, whether or not every check
passed; ``correct`` and ``failed`` say that.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import probes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

QUICK_GROUPS = 2    # --quick runs this many groups, whatever --seconds says
TRACE_GROUPS = 3    # --trace 1 runs this many groups untraced, then traced
SETUP_LAYERS = ("workload.make_scenario", "scenario_io.save_scenario",
                "scenario_io.load_scenario")


@dataclass
class Record:
    kind: str
    label: str
    group: int
    reference: bool
    requests: int
    seconds: float
    outcome: object                   # workloads.Outcome, None if it raised
    problems: list[str] = field(default_factory=list)


def run_group(workloads, j, calls, instance, tracer=None) -> list[Record]:
    """Every call of group `j`, each on its own copy of the instance."""
    records = []
    for call in calls:
        scenario = call.make(instance)
        gc.collect()   # no call pays for its predecessors' garbage
        if tracer is not None:
            tracer.set_context("check" if call.reference else call.kind)
        start = time.perf_counter()
        try:
            result = workloads.execute(call, scenario)
        except Exception as exc:  # a raising call is a failed operation
            traceback.print_exc()
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.set_context("check")
        record = Record(call.kind, call.label, j, call.reference,
                        len(scenario.requests), seconds, None)
        if error is not None:
            record.problems.append(error)
        else:
            try:
                record.outcome, record.problems = workloads.check(
                    call, scenario, result)
            except Exception as exc:  # a check that cannot run fails it
                traceback.print_exc()
                record.problems.append(
                    f"check raised {type(exc).__name__}: {exc}")
        records.append(record)
        del scenario, result
    workloads.cross_check(records)
    return records


SLOW_QUANTILE = 0.9   # see end_to_end_metrics


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100,
                                method="inclusive")[round(q * 100) - 1]


def end_to_end_samples(kinds, setup_times, records) -> dict:
    """The samples behind each end-to-end metric: seconds per group's
    set-up and per call of each kind, and requests per second of each
    group's measured calls."""
    samples = {"setup_s": setup_times}
    for kind in kinds:
        samples[f"place_s.{kind}"] = [r.seconds for r in records
                                      if r.kind == kind]
    rates = []
    for j in sorted({r.group for r in records}):
        measured = [r for r in records if r.group == j and not r.reference]
        rates.append(sum(r.requests for r in measured)
                     / sum(r.seconds for r in measured))
    samples["req_per_s"] = rates
    return samples


def end_to_end_metrics(samples) -> dict:
    """Call times are the 90th percentile of their samples and the rate
    the 10th: the host's slow state, which bursts of speed within the run
    do not move (see README.md). Set-up time is the median: set-ups are
    short file round trips whose slow tail comes from the host, not from
    the program."""
    metrics = {"setup_s": (statistics.median(samples["setup_s"]), "s")}
    metrics.update((name, (quantile(values, SLOW_QUANTILE), "s"))
                   for name, values in samples.items()
                   if name.startswith("place_s."))
    metrics["req_per_s"] = (quantile(samples["req_per_s"],
                                     1 - SLOW_QUANTILE), "1/s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def describe(samples) -> dict:
    """Sample count, median and quartiles of every timed metric, for the
    ``info`` line."""
    return {name: {"n": len(v), "median": statistics.median(v),
                   "q1": quantile(v, 0.25), "q3": quantile(v, 0.75)}
            for name, v in samples.items()}


def layer_metrics(tracer, kinds, op_contexts, records, untraced, traced):
    """Per-layer figures of the traced groups; set-up figures are per
    set-up, and the constraint check's time is reported on its own."""
    m = {}

    def counted(name):
        m[f"{name}.calls"] = (tracer.calls(name, op_contexts), "count")

    def timed(name):
        counted(name)
        m[f"{name}.s"] = (tracer.seconds(name, op_contexts), "s")

    def per_kind(name):
        for kind in kinds:
            m[f"{name}.{kind}.s"] = (tracer.seconds(name, [kind]), "s")

    outcomes = [r.outcome for r in records
                if r.outcome is not None and not r.reference]
    timed("heuristics.place")
    m["heuristics.place.self_s"] = (
        tracer.seconds("heuristics.place", op_contexts, self_time=True), "s")
    per_kind("heuristics.place")
    m["heuristics.work_units"] = (sum(o.work_units or 0 for o in outcomes),
                                  "count")

    timed("paths.build_sorted_lists")
    timed("paths.refresh_one")
    timed("queueing.path_delay")
    counted("queueing.md1_delay")
    counted("queueing.mm1_delay")
    counted("model.capacity_fits")

    timed(probes.MIGRATION)
    attempts = m[f"{probes.MIGRATION}.calls"][0]
    m[f"{probes.MIGRATION}.ok"] = (tracer.migration_ok, "count")
    for q in (50, 99):
        m[f"{probes.MIGRATION}.p{q}_ms"] = (
            probes.percentile_ms(tracer.migration_seconds, q), "ms")
    m["migration.success_ratio"] = (
        tracer.migration_ok / attempts if attempts else 0.0, "1")
    per_kind(probes.MIGRATION)
    timed("migration.intercloud_link_speed")
    timed("paths.k_shortest_paths")
    m["migration.relocations"] = (sum(o.migrations for o in outcomes),
                                  "count")

    timed("state.PlacementState.clone")
    counted("state.VmInstance.clone")
    timed("state.PlacementState.admit")
    timed("state.PlacementState.release")
    counted("state.PlacementState.launch_instance")
    counted("state.PlacementState.retire_instance")
    timed("state.PlacementState.instances_at")

    timed("exact.solve_exact")
    timed("exact.request_delay")
    m["exact.evaluate_constraints.s"] = (
        tracer.seconds("exact.evaluate_constraints", ["check"]), "s")
    for name in SETUP_LAYERS:
        n = tracer.calls(name, ["setup"])
        m[f"{name}.s"] = (tracer.seconds(name, ["setup"]) / n if n else 0.0,
                          "s")

    m["trace.overhead_frac"] = (traced / untraced - 1.0, "1")
    requests = sum(o.requests for o in outcomes)
    satisfied = sum(o.satisfied for o in outcomes)
    m["drop_frac"] = (sum(o.dropped for o in outcomes) / requests
                      if requests else 0.0, "1")
    m["mean_delay_us"] = (sum(o.total_delay for o in outcomes) / satisfied
                          * 1e6 if satisfied else 0.0, "us")
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(args, seed, groups, attempted, failed) -> dict:
    commit = ""
    if (ROOT / ".git").exists():   # a plain checkout has no history
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "cranplace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {"workload": args.workload, "seed": seed, "trace": args.trace,
            "quick": args.quick, "groups": groups,
            "attempted": attempted, "failed": failed,
            "commit": commit or "unknown",
            "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def write_spans(tracer, workload, seed) -> Path:
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    origin = tracer.spans[0][4] if tracer.spans else 0.0
    with open(path, "w") as fh:
        for span_id, parent, ctx, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent,
                                 "context": ctx, "name": name,
                                 "start_s": start - origin,
                                 "end_s": end - origin}) + "\n")
    return path


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int,
                   help="workload seed (default: the acceptance seed)")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="measure for about this long, at least one group")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="shrink the workload for smoke tests; its figures "
                        "are not comparable with full runs")
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "cranplace" / "__init__.py").is_file():
        print(f"perfbench: no cranplace sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    import cranplace
    if SRC not in Path(cranplace.__file__).resolve().parents:
        print(f"perfbench: imported {cranplace.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from cranplace.heuristics import ALL_KINDS

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    tracer = probes.Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)

    instance_seeds = wl.seeds(seed, args.quick)
    setup_times, setup_problems = [], []

    def set_up(j, s, tmp: Path):
        """Instance j, of generator seed s, as a CLI command that takes
        ``--scenario`` gets it: built, then written and read back through
        scenario_io. The group's set-up sample is the median of
        `setup_reps` timed set-ups."""
        reps = []
        for _ in range(wl.setup_reps):
            start = time.perf_counter()
            made = wl.build(s, args.quick)
            instance = workloads.round_trip(made, tmp / "scenario.yaml")
            reps.append(time.perf_counter() - start)
        setup_times.append(statistics.median(reps))
        if not workloads.same_scenario(instance, made):
            setup_problems.append(f"instance {j} changed in its "
                                  "scenario_io round trip")
        return instance

    # Imports leave objects that the CLI would not hold; keep the collector
    # from rescanning them during every timed call.
    gc.collect()
    gc.freeze()
    records, traced_records = [], []
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for j in itertools.count():
            group_start = time.perf_counter()
            s = next(instance_seeds)   # choosing it is not part of set-up
            if tracer:
                tracer.set_context("setup")
                with tracer.installed():
                    instance = set_up(j, s, Path(tmp))
            else:
                instance = set_up(j, s, Path(tmp))
            calls = wl.calls(j, s)
            records += run_group(workloads, j, calls, instance)
            if tracer:   # the same group again, traced
                with tracer.installed():
                    traced_records += run_group(workloads, j, calls,
                                                instance, tracer)
                if j + 1 >= (1 if args.quick else TRACE_GROUPS):
                    break
            elif args.quick:
                if j + 1 >= QUICK_GROUPS:
                    break
            else:
                last = time.perf_counter() - group_start
                if time.perf_counter() - started + last > args.seconds:
                    break
            del instance

    untraced_outcome = {}
    for r in records:
        untraced_outcome.setdefault(r.label, r.outcome)
    for r in traced_records:
        if r.outcome is not None and r.outcome != untraced_outcome[r.label]:
            r.problems.append("tracing changed the outcome")
    all_records = records + traced_records
    failed = sum(1 for r in all_records if r.problems)
    for r in records:
        print("fp " + json.dumps(
            {"label": r.label, **(r.outcome.fingerprint() if r.outcome
                                  else {})}, sort_keys=True))
    for r in all_records:
        for problem in r.problems:
            print(f"perfbench: {r.label}: {problem}", file=sys.stderr)
    for problem in setup_problems:
        print(f"perfbench: set-up: {problem}", file=sys.stderr)

    kinds = list(ALL_KINDS)
    if tracer:
        untraced, traced = (sum(r.seconds for r in rs if not r.reference)
                            for rs in (records, traced_records))
        metrics = layer_metrics(tracer, kinds, kinds + [workloads.EXACT],
                                traced_records, untraced, traced)
        print(f"info spans {write_spans(tracer, args.workload, seed)}")
    else:
        samples = end_to_end_samples(kinds, setup_times, records)
        metrics = end_to_end_metrics(samples)
        print("info samples " + json.dumps(describe(samples)))
    groups = 1 + max(r.group for r in records)
    print("info " + json.dumps(environment(args, seed, groups,
                                           len(all_records), failed)))
    print(json.dumps({
        "correct": failed == 0 and not setup_problems,
        "attempted": len(all_records), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
