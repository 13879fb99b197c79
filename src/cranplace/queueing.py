"""Closed-form delay models: M/M/1 clouds, M/D/1 links and path sums.

`md1` and `mm1` are the float kernels every delay in the program goes
through; `md1_delay`/`mm1_delay` take a `QueueLoad` and exist for callers
that start from one."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import StabilityViolation


@dataclass(frozen=True)
class QueueLoad:
    arrival_rate: float  # packets/s
    service_rate: float  # packets/s

    def __post_init__(self):
        if not 0.0 < self.service_rate < math.inf:
            raise ValueError("service_rate must be finite and positive")
        if not 0.0 <= self.arrival_rate < math.inf:
            raise ValueError("arrival_rate must be finite and non-negative")

    @property
    def utilization(self) -> float:
        return self.arrival_rate / self.service_rate


def mm1(psi: float, upsilon: float) -> float:
    """Mean sojourn time (seconds) of an M/M/1 queue with arrival rate
    `psi` and service rate `upsilon` (packets/s): (1/mu) / (1 - rho)."""
    if not 0.0 < upsilon < math.inf:
        raise ValueError("service_rate must be finite and positive")
    if not 0.0 <= psi < math.inf:
        raise ValueError("arrival_rate must be finite and non-negative")
    rho = psi / upsilon
    if rho >= 1.0:
        raise StabilityViolation(
            f"M/M/1 unstable: arrival {psi} >= service {upsilon}")
    return 1.0 / (upsilon * (1.0 - rho))


def md1(lam: float, mu: float) -> float:
    """Mean sojourn time (seconds) of an M/D/1 queue with arrival rate
    `lam` and service rate `mu` (packets/s):
    (1 / 2mu) * (2 - rho) / (1 - rho)."""
    if not 0.0 < mu < math.inf:
        raise ValueError("service_rate must be finite and positive")
    if not 0.0 <= lam < math.inf:
        raise ValueError("arrival_rate must be finite and non-negative")
    rho = lam / mu
    if rho >= 1.0:
        raise StabilityViolation(
            f"M/D/1 unstable: arrival {lam} >= service {mu}")
    return (2.0 - rho) / (2.0 * mu * (1.0 - rho))


def mm1_delay(load: QueueLoad) -> float:
    """`mm1` on a `QueueLoad`."""
    return mm1(load.arrival_rate, load.service_rate)


def md1_delay(load: QueueLoad) -> float:
    """`md1` on a `QueueLoad`."""
    return md1(load.arrival_rate, load.service_rate)


def path_delay(links, loads) -> float:
    """Sum of M/D/1 sojourn times over a path's links.

    `links` is a sequence of Link objects; `loads` maps link key to
    arrival rate in packets/s (missing keys mean an idle link).
    """
    total = 0.0
    for link in links:
        arrival = loads.get(link.key, 0.0)
        if arrival >= link.service_rate_mu:
            raise StabilityViolation(
                f"link {link.src}->{link.dst} unstable: {arrival} >= "
                f"{link.service_rate_mu}", where=link.key)
        total += md1(arrival, link.service_rate_mu)
    return total

