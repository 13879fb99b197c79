"""Discrete-event validation of the analytic queue models: M/M/1 and
M/D/1 queues with infinite FIFO buffers, alone or in tandem.

numpy is imported inside the functions that use it, so that importing
cranplace, which re-exports the simulator, does not load it."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StabilityViolation
from .queueing import QueueLoad

MM1 = "MM1"
MD1 = "MD1"

#: two-sided 97.5% Student-t quantile for 29 degrees of freedom
_T975_29 = 2.0452
_N_BATCHES = 30
_WARMUP_FRACTION = 0.10


@dataclass(frozen=True)
class SimResult:
    mean_sojourn: float
    ci95_halfwidth: float
    time_avg_in_system: float


def _draw_services(rng, discipline, n, service_rate):
    import numpy as np
    if discipline == MM1:
        return rng.exponential(1.0 / service_rate, size=n)
    if discipline == MD1:
        return np.full(n, 1.0 / service_rate)
    raise ValueError(f"unknown discipline {discipline!r}")


def _lindley_departures(arrivals, services):
    """FIFO single-server departures for given arrival instants and service
    times: waiting time is the running maximum of the (service - gap)
    random walk."""
    import numpy as np
    gaps = np.diff(arrivals)
    steps = services[:-1] - gaps
    walk = np.concatenate(([0.0], np.cumsum(steps)))
    waits = walk - np.minimum.accumulate(walk)
    return arrivals + waits + services, waits


def _warmup(n_packets: int) -> int:
    """The packets dropped from the head of a run before batching."""
    return int(n_packets * _WARMUP_FRACTION)


def _batch_stats(sojourns):
    """Mean and 95% half-width over `_N_BATCHES` equal batches of the
    post-warm-up tail, which `simulate_tandem` makes at least that long."""
    import numpy as np
    tail = sojourns[_warmup(len(sojourns)):]
    usable = (len(tail) // _N_BATCHES) * _N_BATCHES
    batches = tail[:usable].reshape(_N_BATCHES, -1).mean(axis=1)
    mean = float(batches.mean())
    half = float(_T975_29 * batches.std(ddof=1) / np.sqrt(_N_BATCHES))
    return mean, half


def _time_average_in_system(arrivals, departures):
    """Integral of the number-in-system process divided by the horizon,
    computed by an explicit +1/-1 event sweep."""
    import numpy as np
    times = np.concatenate((arrivals, departures))
    deltas = np.concatenate((np.ones_like(arrivals),
                             -np.ones_like(departures)))
    order = np.argsort(times, kind="stable")
    times = times[order]
    deltas = deltas[order]
    counts = np.cumsum(deltas)
    horizon = times[-1] - times[0]
    if horizon <= 0:
        return 0.0
    area = float(np.sum(counts[:-1] * np.diff(times)))
    return float(area / horizon)


def simulate_queue(discipline: str, load: QueueLoad, n_packets: int,
                   seed: int = 0) -> SimResult:
    """Seeded event simulation of one queue: a one-stage tandem."""
    return simulate_tandem([load], discipline, n_packets, seed=seed)


def simulate_tandem(links, discipline: str, n_packets: int,
                    seed: int = 0) -> SimResult:
    """Seeded event simulation of Poisson packets traversing the queues in
    sequence; end-to-end mean sojourn with a 95% batch-means confidence
    interval."""
    import numpy as np
    loads = list(links)
    if not loads:
        raise ValueError("tandem needs at least one queue")
    for load in loads:
        if load.utilization >= 1.0:
            raise StabilityViolation(
                f"cannot simulate unstable load rho={load.utilization}")
    lam = loads[0].arrival_rate
    if lam <= 0:
        raise ValueError("arrival_rate must be positive to generate traffic")
    tail = n_packets - _warmup(n_packets)
    if tail < _N_BATCHES:
        raise ValueError(f"{n_packets} packets leave {tail} after the "
                         f"warm-up, fewer than the {_N_BATCHES} batches")
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / lam, size=n_packets))
    departures = arrivals
    # summed per stage, not taken as departure - arrival, so that a
    # one-stage run's sojourns are exactly waits + services
    sojourns = 0.0
    for load in loads:
        services = _draw_services(rng, discipline, n_packets,
                                  load.service_rate)
        departures, waits = _lindley_departures(departures, services)
        sojourns = sojourns + (waits + services)
    mean, half = _batch_stats(sojourns)
    return SimResult(
        mean_sojourn=mean,
        ci95_halfwidth=half,
        time_avg_in_system=_time_average_in_system(arrivals, departures),
    )
