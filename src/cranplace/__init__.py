"""Placement of virtualized baseband services onto multi-cloud VM pools
under delay, capacity, cost and queue-stability constraints."""

from .des import SimResult, simulate_queue, simulate_tandem
from .errors import (BudgetExceeded, CranplaceError, InfeasibleError, NoPath,
                     ScenarioError, StabilityViolation)
from .exact import (ConstraintReport, evaluate_constraints, objective,
                    solve_exact)
from .experiments import (RunReport, SweepPoint, compare_heuristics,
                          optimal_cloud_count, run_sweep)
from .heuristics import HeuristicConfig, PlacementResult, place, sa_iterations
from .migration import migration_time, try_migrate_for_fit
from .model import (DEFAULT_CLASSES, DEFAULT_VM_CATALOG, CapacityVector,
                    Link, Node, Scenario, ServiceClass, ServiceRequest,
                    Topology, VmType, capacity_fits, demand_of)
from .paths import build_sorted_lists, k_shortest_paths
from .queueing import QueueLoad, md1_delay, mm1_delay, path_delay
from .scenario_io import load_scenario, save_scenario
from .state import PlacementState
from .topology import LinkParams, average_bs_cloud_hops, build_topology
from .workload import generate_workload, make_scenario

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "CapacityVector", "ConstraintReport", "CranplaceError",
    "DEFAULT_CLASSES", "DEFAULT_VM_CATALOG", "HeuristicConfig",
    "InfeasibleError", "Link", "LinkParams", "NoPath", "Node",
    "PlacementResult", "PlacementState",
    "QueueLoad", "RunReport", "Scenario", "ScenarioError", "ServiceClass",
    "ServiceRequest", "SimResult", "StabilityViolation", "SweepPoint",
    "Topology", "VmType", "average_bs_cloud_hops", "build_sorted_lists",
    "build_topology", "capacity_fits", "compare_heuristics", "demand_of",
    "evaluate_constraints", "generate_workload", "k_shortest_paths",
    "load_scenario", "make_scenario", "md1_delay", "migration_time",
    "mm1_delay", "objective", "optimal_cloud_count", "path_delay", "place",
    "run_sweep", "sa_iterations", "save_scenario",
    "simulate_queue", "simulate_tandem", "solve_exact", "try_migrate_for_fit",
]
