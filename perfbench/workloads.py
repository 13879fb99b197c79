"""The benchmark's workloads: how each builds its instances, which calls
run on one instance, and how every call's output is checked.

A run works through a sequence of independent instances drawn from the
workload's seed, one group of calls per instance, until its time is up.
Figures over many instances keep one unusual seed from setting a run's
figures. Calls go through module attributes (``heuristics.place``,
``exact.solve_exact``, ...) so that the probes in ``probes.py`` see them.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import importlib.util
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import cranplace.workload as generator
from cranplace import exact, heuristics, scenario_io
from cranplace.heuristics import ALL_KINDS, HeuristicConfig
from cranplace.model import with_requests

ROOT = Path(__file__).resolve().parent.parent
EXACT = "exact"
QUICK_DIVISOR = 10     # --quick shrinks every stream by this much
SEED_STRIDE = 1000     # stream instance j uses generator seed seed + j * this
_OBJECTIVE_EPS = 1e-9  # criterion 2's tolerance


@dataclass(frozen=True)
class Call:
    """One timed operation on a group's instance."""
    kind: str                          # heuristic kind, or EXACT
    label: str                         # identity of the call within a run
    config: HeuristicConfig | None = None
    head: int | None = None            # place only the first `head` requests
    reference: bool = False            # placed only to check another call

    def make(self, scenario):
        """The call's own scenario object, built untimed before the call."""
        if self.head is not None:
            scenario = with_requests(scenario, scenario.requests[:self.head])
        return copy.deepcopy(scenario)


@dataclass(frozen=True)
class Outcome:
    requests: int
    satisfied: int
    dropped: int
    migrations: int
    instances_launched: int
    first_drop_index: int | None
    work_units: int | None
    delays: tuple[str, ...]            # reprs of the delay totals
    assignment: str                    # digest of request -> (cloud, path)
    total_delay: float
    objective: float

    def fingerprint(self) -> dict:
        return {"dropped": self.dropped, "migrations": self.migrations,
                "instances_launched": self.instances_launched,
                "first_drop_index": self.first_drop_index,
                "work_units": self.work_units, "delays": list(self.delays),
                "assignment": self.assignment}


@dataclass(frozen=True)
class Workload:
    default_seed: int
    seeds: Callable      # (seed, quick) -> generator seeds of the instances
    build: Callable      # (instance seed, quick) -> that instance
    calls: Callable      # (j, instance seed) -> the Calls of group j
    setup_reps: int = 1  # set-ups timed per group; their median counts


def execute(call: Call, scenario):
    if call.kind == EXACT:
        return exact.solve_exact(scenario)
    return heuristics.place(scenario, call.config)


def round_trip(scenario, path: Path):
    """A write and read back through scenario_io: what every CLI command
    that takes ``--scenario`` pays before it places."""
    scenario_io.save_scenario(scenario, path)
    return scenario_io.load_scenario(path)


def same_scenario(a, b) -> bool:
    return scenario_io.scenario_to_dict(a) == scenario_io.scenario_to_dict(b)


# -- the streams ---------------------------------------------------------

def _stream(n_requests: int, **kwargs):
    def build(seed, quick):
        n = n_requests // QUICK_DIVISOR if quick else n_requests
        return generator.make_scenario(n_requests=n, seed=seed,
                                       **copy.deepcopy(kwargs))
    return build


def stream_seeds(seed: int, quick: bool):
    """Generator seeds of a stream's instances: instance 0 is the
    acceptance scenario, and runs whose seeds differ by less than
    SEED_STRIDE share no instance."""
    return itertools.count(seed, SEED_STRIDE)


def _stream_calls(plan) -> Callable:
    """Dynamic place() calls from (kind, head) entries, in plan order:
    `head` limits the call to the stream's first requests."""
    def calls(j, seed):
        return [Call(kind, f"{kind}{'@head' if head else ''}#{j}",
                     HeuristicConfig(kind, seed=seed), head)
                for kind, head in plan]
    return calls


# -- the micro instances -------------------------------------------------

@functools.cache
def _micro_generator():
    """`micro_scenario` from tests/conftest.py, the generator criterion 2
    uses, loaded from its file so that the tests stay the only owner."""
    spec = importlib.util.spec_from_file_location(
        "cranplace_tests_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.micro_scenario


def _full_size(scenario) -> bool:
    """4 requests, 4 base stations and 3 clouds: the generator's largest
    micro instances, about 1 to 2 s of search each."""
    return len(scenario.requests) == 4 \
        and len(scenario.topology.base_stations()) == 4 \
        and len(scenario.topology.clouds()) == 3


def _smallest(scenario) -> bool:
    return len(scenario.requests) == 2


def micro_seeds(seed: int, quick: bool):
    """Seeds of the full-size micro instances from `seed` upward; with
    `quick`, of the smallest ones instead."""
    keep = _smallest if quick else _full_size
    micro = _micro_generator()
    return (s for s in itertools.count(seed) if keep(micro(s)))


def _micro_build(seed, quick):
    return _micro_generator()(seed)   # loaded when the seed was chosen


STATIC_REPS = 5   # each static reference is placed this many times


def _micro_calls(j, seed):
    """solve_exact, then the five heuristics in static mode as criterion 2
    places them, each STATIC_REPS times. The heuristics are references for
    the oracle check: timed for place_s, but outside req_per_s and the
    per-layer figures."""
    out = [Call(EXACT, f"{EXACT}#{j}")]
    out.extend(Call(k, f"{k}#{j}", HeuristicConfig(k, seed=seed,
                                                   mode="static"),
                    reference=True)
               for _ in range(STATIC_REPS) for k in ALL_KINDS)
    return out


_LIGHT_PARAMS = {"cloud_capacity_total": [1e6, 1e7, 1e6],
                 "holding_time": 0.002, "volume_packets": 250.0}
# criterion 4's cloud capacity cut to 60%: every heuristic's first drop
# comes near request 400 on every seed, so the stream past it is saturated
_SATURATED_PARAMS = {"cloud_capacity_total": [14400.0, 54000.0, 7200.0]}
C4_HEAD = 300   # the requests placed before any heuristic needs a migration

WORKLOADS = {
    # criterion 5's scenario with inflated caps: nothing drops or migrates
    "stream_light": Workload(
        7, stream_seeds,
        _stream(1000, n_bs=50, n_clouds=5, load_fraction=0.3,
                resource_cap_total=1e9, cost_threshold=1e9,
                params=_LIGHT_PARAMS),
        _stream_calls([(k, None) for k in ALL_KINDS])),
    # criterion 4's scenario, saturated: sa_short migrates on most requests
    # past the first 400, and the other heuristics place only the head
    "c4_saturated": Workload(
        42, stream_seeds,
        _stream(500, n_bs=50, n_clouds=5, load_fraction=0.6,
                params=_SATURATED_PARAMS),
        _stream_calls([("sa_short", None)]
                      + [(k, C4_HEAD) for k in ALL_KINDS if k != "sa_short"])),
    # criterion 2's micro instances at their full size; their set-up takes
    # about 10 ms, and one in five or so takes 2 to 4 times that
    "exact_micro": Workload(0, micro_seeds, _micro_build, _micro_calls,
                            setup_reps=5),
}


# -- checks --------------------------------------------------------------

def _assignment_digest(state) -> str:
    items = sorted((rid, a.cloud, a.path_id)
                   for rid, a in state.allocations.items())
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def check(call: Call, scenario, result) -> tuple[Outcome, list[str]]:
    """Outcome of one call and the problems found in it: the seven
    constraint checkers on the final state, and satisfied plus dropped
    equal to the number of requests."""
    n = len(scenario.requests)
    if call.kind == EXACT:
        state = result
        satisfied, dropped = len(state.allocations), len(state.dropped)
        first_drop, work = None, None
    else:
        state = result.state
        satisfied, dropped = result.satisfied, result.dropped
        first_drop, work = result.first_drop_index, result.work_units
    problems = []
    report = exact.evaluate_constraints(state, scenario)
    if not report.feasible:
        problems.append("violates " + ", ".join(report.failures()))
    if satisfied + dropped != n:
        problems.append(f"{satisfied} satisfied + {dropped} dropped "
                        f"!= {n} requests")
    drop_ids = set(state.dropped)
    if len(drop_ids) != dropped or len(state.dropped) != dropped \
            or not drop_ids <= {r.id for r in scenario.requests} \
            or drop_ids & state.allocations.keys():
        problems.append("dropped list inconsistent")
    if call.kind == EXACT and satisfied != n:
        problems.append("exact oracle left requests unplaced")
    obj = exact.objective(state, scenario, check_feasible=False)
    if call.kind == EXACT:
        delays = (repr(obj),)
        total = obj
    else:
        delays = (repr(result.total_link_delay),
                  repr(result.total_compute_delay),
                  repr(result.total_migration_delay))
        total = result.total_delay
    outcome = Outcome(n, satisfied, dropped, state.migrations,
                      state.instances_launched, first_drop, work, delays,
                      _assignment_digest(state), total, obj)
    return outcome, problems


def cross_check(records) -> None:
    """Checks across one group's calls. Criterion 2: no heuristic beats the
    exact oracle's objective. Repeated calls must give the same outcome."""
    optimum = [r.outcome.objective for r in records
               if r.kind == EXACT and r.outcome is not None]
    first = {}
    for r in records:
        if r.outcome is None:
            continue
        if r.outcome != first.setdefault(r.label, r.outcome):
            r.problems.append("outcome differs from the same call's first")
        if r.kind != EXACT and optimum \
                and r.outcome.objective < optimum[0] - _OBJECTIVE_EPS:
            r.problems.append(f"objective {r.outcome.objective!r} below "
                              f"the exact optimum {optimum[0]!r}")
