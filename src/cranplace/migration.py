"""Service migration: transfer-time model and the relocation procedure
that frees capacity for otherwise-droppable requests."""

from __future__ import annotations

from dataclasses import dataclass

from .defaults import DEFAULT_PACKET_SIZE_BYTES, DEFAULT_PARAMS
from .errors import NoPath
from .paths import k_shortest_paths


@dataclass(frozen=True)
class MigrationParams:
    overhead: float = DEFAULT_PARAMS["migration_overhead_s"]
    page_size: float = DEFAULT_PARAMS["migration_page_bytes"]
    # bits/s fallback when no residual is known
    link_speed: float = DEFAULT_PARAMS["migration_link_speed_bps"]
    # live service state transferred per move (bytes)
    image_bytes: float = DEFAULT_PARAMS["migration_image_bytes"]

    def __post_init__(self):
        if not (self.overhead >= 0 and self.page_size > 0
                and self.link_speed > 0 and self.image_bytes > 0):
            raise ValueError("migration parameters must be positive")


def migration_time(vm_size: float, params: MigrationParams,
                   link_speed: float | None = None) -> float:
    """Modeled relocation time for a service running on a VM of `vm_size`
    bytes: overhead + (5 * size - one page) / link speed."""
    if vm_size < params.page_size:
        raise ValueError("vm_size smaller than one page")
    speed = link_speed if link_speed else params.link_speed
    return params.overhead + (5.0 * vm_size - params.page_size) * 8.0 / speed


def intercloud_link_speed(state, src_cloud: str, dst_cloud: str,
                          params: MigrationParams,
                          packet_size_bytes: float,
                          path_cache: dict) -> float:
    """Residual bandwidth (bits/s) of the best inter-cloud path; falls back
    to the configured default when saturated or disconnected.

    `path_cache` maps (src_cloud, dst_cloud) to that path's (link key,
    capacity_bw) pairs, or None when there is no path, and is filled on
    first use; the path depends on the topology only."""
    if src_cloud == dst_cloud:
        return params.link_speed
    pair = (src_cloud, dst_cloud)
    if pair not in path_cache:
        try:
            path_cache[pair] = tuple(
                (l.key, l.capacity_bw) for l in k_shortest_paths(
                    state.scenario.topology, src_cloud, dst_cloud, 1)[0].links)
        except NoPath:
            path_cache[pair] = None
    links = path_cache[pair]
    if links is None:
        return params.link_speed
    to_gbps = packet_size_bytes * 8.0 / 1e9
    link_load = state.link_load
    residual = min(bw - link_load.get(key, 0.0) * to_gbps
                   for key, bw in links)
    if residual <= 0:
        return params.link_speed
    return residual * 1e9


def evictee_order(state, cloud: str) -> list[int]:
    """Ids of the requests hosted at `cloud`, least consumed demand (cpu +
    storage + network) first, ties by id, read from the cloud's own
    instances."""
    instances = state.instances
    return [rid for _, rid in sorted(
        (c.cpu + c.storage + c.network, rid)
        for _, iid in state.residual_index[cloud]
        for rid, c in instances[iid].assigned.items())]


def try_migrate_for_fit(state, request, lists, admitter, params=None,
                        packet_size_bytes: float = DEFAULT_PACKET_SIZE_BYTES,
                        eviction_limit: int | None = None,
                        events: list | None = None,
                        target_limit: int | None = None):
    """Free capacity for `request` by relocating already-placed services.

    Tries the request's clouds in current delay order (at most
    `target_limit` of them when given): evict the target
    cloud's allocations in ascending consumed-demand order, re-admitting
    each evictee at its next-best feasible cloud via `admitter`; after each
    relocation retry the new request. Every trial runs on `state` itself:
    each target is tried under a checkpoint and each evictee under a
    nested one, and a trial that does not work out is rolled back. On
    failure `state` is as it was on entry and the returned count is 0; on
    success it holds the relocations and the admitted request, and no
    checkpoint is left open.

    `admitter(state, request, exclude_clouds)` is the run's placement
    policy; it commits the admission on that state and returns the
    Allocation, or returns None leaving the state untouched.

    Returns (migration_count, success, state), `state` being the object
    passed in.  When `events` is given it receives one (request_id,
    migration_delay) pair per relocation kept; it is left empty on
    failure.
    """
    if params is None:
        params = MigrationParams()
    entries = lists.list_for_bs(request.origin)
    target_clouds: list[str] = []
    for e in entries:
        if e.cloud not in target_clouds:
            target_clouds.append(e.cloud)
    if target_limit is not None:
        target_clouds = target_clouds[:target_limit]
    scenario = state.scenario
    demand = state.demand(request)
    # what moves is the service's live state, not its disk footprint
    vm_bytes = max(params.page_size, params.image_bytes)

    for target in target_clouds:
        evictee_ids = evictee_order(state, target)[:eviction_limit]
        # cheap necessary condition before any trial: even after the whole
        # eviction budget, the target must have enough total storage to hold
        # the request (storage is never degraded on admission); summed in
        # instance id order
        hosted = sorted(iid for _, iid in state.residual_index[target])
        avail = state.residual_cloud[target].storage + sum(
            state.instances[iid].residual.storage for iid in hosted) + sum(
            state.allocations[r].consumed.storage for r in evictee_ids)
        if demand.storage > avail:
            continue
        target_mark = state.checkpoint()
        committed = False
        try:
            moved = 0
            moves: list[tuple[int, float]] = []
            for rid in evictee_ids:
                if rid not in state.allocations:
                    continue
                evictee_mark = state.checkpoint()
                state.release(rid)
                relocated = admitter(state, scenario.request(rid),
                                     exclude_clouds={target})
                if relocated is None:
                    state.rollback(evictee_mark)
                    continue
                speed = intercloud_link_speed(state, target,
                                              relocated.cloud, params,
                                              packet_size_bytes,
                                              lists.intercloud_links)
                state.migrations += 1
                moved += 1
                moves.append((rid, migration_time(vm_bytes, params, speed)))
                if admitter(state, request, exclude_clouds=set()) \
                        is not None:
                    state.commit(target_mark)
                    committed = True
                    if events is not None:
                        events.extend(moves)
                    return moved, True, state
        finally:
            if not committed:
                # this target did not work out; try the next-best cloud
                state.rollback(target_mark)

    return 0, False, state
