"""Closed-form delay models: M/M/1 clouds, M/D/1 links, path sums and
load accounting."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CranplaceError, StabilityViolation


@dataclass(frozen=True)
class QueueLoad:
    arrival_rate: float  # packets/s
    service_rate: float  # packets/s

    def __post_init__(self):
        if self.service_rate <= 0:
            raise ValueError("service_rate must be positive")
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")

    @property
    def utilization(self) -> float:
        return self.arrival_rate / self.service_rate


def mm1_delay(load: QueueLoad) -> float:
    """Mean sojourn time (seconds) of an M/M/1 queue: (1/mu) / (1 - rho)."""
    rho = load.utilization
    if rho >= 1.0:
        raise StabilityViolation(
            f"M/M/1 unstable: arrival {load.arrival_rate} >= service "
            f"{load.service_rate}")
    return 1.0 / (load.service_rate * (1.0 - rho))


def md1_delay(load: QueueLoad) -> float:
    """Mean sojourn time (seconds) of an M/D/1 queue:
    (1 / 2mu) * (2 - rho) / (1 - rho)."""
    rho = load.utilization
    if rho >= 1.0:
        raise StabilityViolation(
            f"M/D/1 unstable: arrival {load.arrival_rate} >= service "
            f"{load.service_rate}")
    return (2.0 - rho) / (2.0 * load.service_rate * (1.0 - rho))


def path_delay(links, loads) -> float:
    """Sum of M/D/1 sojourn times over a path's non-ignored links.

    `links` is a sequence of Link objects; `loads` maps link key to
    arrival rate in packets/s (missing keys mean an idle link).
    """
    total = 0.0
    for link in links:
        if link.ignore_load:
            continue
        arrival = loads.get(link.key, 0.0)
        if arrival >= link.service_rate_mu:
            raise StabilityViolation(
                f"link {link.src}->{link.dst} unstable: {arrival} >= "
                f"{link.service_rate_mu}", where=link.key)
        total += md1_delay(QueueLoad(arrival, link.service_rate_mu))
    return total


def accumulate_path_loads(state, scenario, paths_by_id) -> dict[str, float]:
    """Recompute per-path loads from scratch out of the allocation matrix.

    `paths_by_id` maps path id to a PathEntry; every allocation must
    reference a known path. Conservation: the values sum to the total
    admitted request rate.
    """
    loads: dict[str, float] = {}
    for req_id, alloc in state.allocations.items():
        if alloc.path_id not in paths_by_id:
            raise CranplaceError(f"allocation for request {req_id} "
                                 f"references unknown path {alloc.path_id}")
        rate = scenario.request(req_id).rate_pps
        loads[alloc.path_id] = loads.get(alloc.path_id, 0.0) + rate
    return loads
