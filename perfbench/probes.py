"""Outside-in tracing of cranplace.

Wrappers replace the module and class attributes through which the
program calls each layer (for example ``cranplace.heuristics.refresh_one``
or ``PlacementState.clone``). Nothing inside ``src`` changes. A timed
probe records calls, inclusive time and self time (its time minus the
time of the timed probes it encloses); a span probe also keeps one span
record with a parent link per call; a count probe only counts.

Every figure is kept per context, which the caller sets to the heuristic
kind (or ``"exact"``) of the call it is about to make, to ``"setup"``
while inputs are built, and to ``"check"`` while outputs are verified.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

SPAN = "span"
TIMED = "timed"
COUNT = "count"


@dataclass(frozen=True)
class Probe:
    name: str            # metric prefix, e.g. "paths.refresh_one"
    owner: str           # module, or module.Class, that defines the function
    attr: str
    mode: str            # SPAN, TIMED or COUNT
    sites: tuple = ()    # modules to patch; empty means every cranplace
                         # module that binds the function


PROBES = (
    Probe("heuristics.place", "cranplace.heuristics", "place", SPAN),
    Probe("exact.solve_exact", "cranplace.exact", "solve_exact", SPAN),
    Probe("exact.evaluate_constraints", "cranplace.exact",
          "evaluate_constraints", SPAN),
    Probe("workload.make_scenario", "cranplace.workload", "make_scenario",
          SPAN),
    Probe("scenario_io.save_scenario", "cranplace.scenario_io",
          "save_scenario", SPAN),
    Probe("scenario_io.load_scenario", "cranplace.scenario_io",
          "load_scenario", SPAN),
    Probe("paths.build_sorted_lists", "cranplace.paths",
          "build_sorted_lists", SPAN),
    Probe("migration.try_migrate_for_fit", "cranplace.migration",
          "try_migrate_for_fit", SPAN),
    Probe("migration.intercloud_link_speed", "cranplace.migration",
          "intercloud_link_speed", SPAN),
    # only the per-migration path search; build_sorted_lists' own calls
    # are inside its span
    Probe("paths.k_shortest_paths", "cranplace.paths", "k_shortest_paths",
          SPAN, sites=("cranplace.migration",)),
    Probe("paths.refresh_one", "cranplace.paths", "refresh_one", TIMED),
    Probe("queueing.path_delay", "cranplace.queueing", "path_delay", TIMED),
    Probe("exact.request_delay", "cranplace.exact", "request_delay", TIMED),
    Probe("state.PlacementState.clone", "cranplace.state.PlacementState",
          "clone", TIMED),
    Probe("state.PlacementState.admit", "cranplace.state.PlacementState",
          "admit", TIMED),
    Probe("state.PlacementState.release", "cranplace.state.PlacementState",
          "release", TIMED),
    Probe("state.PlacementState.instances_at",
          "cranplace.state.PlacementState", "instances_at", TIMED),
    Probe("state.PlacementState.launch_instance",
          "cranplace.state.PlacementState", "launch_instance", COUNT),
    Probe("state.PlacementState.retire_instance",
          "cranplace.state.PlacementState", "retire_instance", COUNT),
    Probe("state.VmInstance.clone", "cranplace.state.VmInstance", "clone",
          COUNT),
    Probe("queueing.md1_delay", "cranplace.queueing", "md1_delay", COUNT),
    Probe("queueing.mm1_delay", "cranplace.queueing", "mm1_delay", COUNT),
    Probe("model.capacity_fits", "cranplace.model", "capacity_fits", COUNT),
)

MIGRATION = "migration.try_migrate_for_fit"


class Tracer:
    def __init__(self):
        # context -> probe name -> [calls, inclusive s, self s]
        self.stats: dict[str, dict[str, list]] = {}
        # context -> probe name -> calls, for count probes
        self.counts: dict[str, dict[str, int]] = {}
        self.migration_seconds: list[float] = []   # per call, for percentiles
        self.migration_ok = 0
        # (span id, parent span id, context, name, start, end)
        self.spans: list[tuple] = []
        # open timed calls: [child s, own span id, nearest span id]
        self._stack: list[list] = []
        self._next_span = 0
        self.set_context("setup")

    def set_context(self, ctx: str) -> None:
        self.context = ctx
        self._stats = self.stats.setdefault(ctx, {})
        self._counts = self.counts.setdefault(ctx, {})

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, keep_span):
        clock = time.perf_counter
        stack = self._stack
        is_migration = name == MIGRATION

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            own = None
            if keep_span:
                own = self._next_span
                self._next_span += 1
            frame = [0.0, own, own if own is not None else parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                st = self._stats.get(name)
                if st is None:
                    st = self._stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if keep_span:
                    self.spans.append((own, parent, self.context, name,
                                       start, end))
                if is_migration:
                    self.migration_seconds.append(dur)
            if is_migration and result[1]:   # (moved, success, state)
                self.migration_ok += 1
            return result
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            counts = self._counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def wrap(self, probe: Probe, fn):
        if probe.mode == COUNT:
            return self._counted(probe.name, fn)
        return self._timed(probe.name, fn, probe.mode == SPAN)

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self, probes=PROBES):
        """Replace every probed attribute for the duration of the block."""
        saved = []
        try:
            for probe in probes:
                sites = _sites(probe)
                if not sites:
                    print(f"perfbench: probe {probe.name} found no call "
                          "site; its figures read 0", file=sys.stderr)
                for holder, fn in sites:
                    saved.append((holder, probe.attr, fn))
                    setattr(holder, probe.attr, self.wrap(probe, fn))
            yield self
        finally:
            for holder, attr, fn in reversed(saved):
                setattr(holder, attr, fn)

    # -- read-out -----------------------------------------------------------

    def calls(self, name, contexts) -> int:
        return sum(self.stats.get(c, {}).get(name, (0,))[0]
                   + self.counts.get(c, {}).get(name, 0) for c in contexts)

    def seconds(self, name, contexts, self_time=False) -> float:
        i = 2 if self_time else 1
        return sum(self.stats.get(c, {}).get(name, (0, 0.0, 0.0))[i]
                   for c in contexts)


def _module(name):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def _sites(probe: Probe):
    """(holder, original function) pairs to patch for one probe; empty when
    the program no longer has the function."""
    parts = probe.owner.split(".")
    if parts[-1][:1].isupper():   # a class attribute: patch the class only
        cls = getattr(_module(".".join(parts[:-1])), parts[-1], None)
        fn = vars(cls).get(probe.attr) if cls is not None else None
        return [(cls, fn)] if fn is not None else []
    fn = getattr(_module(probe.owner), probe.attr, None)
    if fn is None:
        return []
    if probe.sites:
        holders = [_module(m) for m in probe.sites]
    else:
        holders = [m for name, m in sorted(sys.modules.items())
                   if (name == "cranplace" or name.startswith("cranplace."))
                   and m is not None]
    return [(h, fn) for h in holders if getattr(h, probe.attr, None) is fn]


def percentile_ms(values, q) -> float:
    """Nearest-rank percentile of durations in seconds, in milliseconds;
    0 when there are none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1] * 1e3
