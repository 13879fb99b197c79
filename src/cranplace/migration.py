"""Service migration: transfer-time model and the relocation procedure
that frees capacity for otherwise-droppable requests."""

from __future__ import annotations

from .errors import NoPath
from .model import capacity_fits
from .paths import k_shortest_paths
from .state import launch_allowed


def migration_time(scenario, vm_size: float, link_speed: float) -> float:
    """Modeled relocation time for a service running on a VM of `vm_size`
    bytes over a link of `link_speed` bits/s: overhead + (5 * size - one
    page) / link speed, with the scenario's overhead and page size."""
    page_size = scenario.setting("migration_page_bytes")
    if vm_size < page_size:
        raise ValueError("vm_size smaller than one page")
    return (scenario.setting("migration_overhead_s")
            + (5.0 * vm_size - page_size) * 8.0 / link_speed)


def intercloud_link_speed(state, src_cloud: str, dst_cloud: str,
                          path_cache: dict) -> float:
    """Residual bandwidth (bits/s) of the best inter-cloud path; falls back
    to the scenario's `migration_link_speed_bps` when saturated or
    disconnected.

    `path_cache` maps (src_cloud, dst_cloud) to that path's (link key,
    capacity_bw) pairs, or None when there is no path, and is filled on
    first use; the path depends on the topology only."""
    scenario = state.scenario
    fallback = scenario.setting("migration_link_speed_bps")
    if src_cloud == dst_cloud:
        return fallback
    pair = (src_cloud, dst_cloud)
    if pair not in path_cache:
        try:
            path_cache[pair] = tuple(
                (l.key, l.capacity_bw) for l in k_shortest_paths(
                    scenario.topology, src_cloud, dst_cloud, 1)[0].links)
        except NoPath:
            path_cache[pair] = None
    links = path_cache[pair]
    if links is None:
        return fallback
    to_gbps = scenario.setting("packet_size_bytes") * 8.0 / 1e9
    link_load = state.link_load
    residual = min(bw - link_load.get(key, 0.0) * to_gbps
                   for key, bw in links)
    if residual <= 0:
        return fallback
    return residual * 1e9


def evictee_order(state, cloud: str, limit: int | None = None) -> list[int]:
    """Ids of the first `limit` (None: all) requests hosted at `cloud`,
    least consumed demand (cpu + storage + network) first, ties by id,
    read from the state's `evictee_index`."""
    return [rid for _, rid in state.evictee_index[cloud][:limit]]


def evictions_cannot_make_room(state, demand, evictee_ids, clouds) -> bool:
    """Whether no release of `evictee_ids` could give `demand` room that a
    trial can use: (b) no instance that hosts evictees would fit `demand`
    with all of its evictees released, whether or not that empties it, and
    (c) no VM type that `demand` fits on could launch at any of `clouds`
    once every instance the evictions would empty retires, its capacity
    back in the target's residual and its hourly cost off the live cost;
    `resources_used` stays as it is, since a retirement never lowers it.
    Releasing fewer frees less. Releases and retirements made in another
    order round differently, so both tests have a relative slack of 1e-9:
    released capacity and cloud residuals are scaled up by it, and the
    live cost down."""
    allocations = state.allocations
    freed: dict[int, list] = {}
    for rid in evictee_ids:
        alloc = allocations[rid]
        freed.setdefault(alloc.instance_id, []).append(alloc.consumed)
    scenario = state.scenario
    degradation = scenario.degradation_fraction
    residual_cloud = dict(state.residual_cloud)
    live_cost = state.live_cost() * (1.0 - 1e-9)
    for iid, consumed in freed.items():
        inst = state.instances[iid]
        released = inst.residual
        for c in consumed:
            released = released + c
        if capacity_fits(demand, released.scale(1.0 + 1e-9), degradation):
            return False
        if len(consumed) == len(inst.assigned):
            vm = inst.vm_type
            residual_cloud[inst.cloud] += vm.capacity
            live_cost -= vm.hourly_cost
    scaled = [residual_cloud[cloud].scale(1.0 + 1e-9) for cloud in clouds]
    return not any(
        launch_allowed(scenario, residual, state.resources_used, live_cost,
                       vm)
        for vm in scenario.vm_catalog
        if capacity_fits(demand, vm.capacity, degradation)
        for residual in scaled)


def try_migrate_for_fit(state, request, lists, policy):
    """Free capacity for `request` by relocating already-placed services.

    Tries the request's clouds in current delay order, up to the
    scenario's target limit: evict up to its eviction limit of the target
    cloud's allocations in ascending consumed-demand order, re-admitting
    each evictee at its next-best feasible cloud via `policy.admit`; after
    each relocation retry the new request. A limit of None is no limit.
    Every trial runs on `state` itself: each target is tried under a
    checkpoint and each evictee under a nested one, and a trial that does
    not work out is rolled back. On failure `state` is as it was on entry;
    on success it holds the relocations and the admitted request, and no
    checkpoint is left open.

    `policy` is the run's placement policy inside trials, one object with
    two methods that must agree: `policy.admit(state, request,
    exclude_clouds)` commits the admission on that state and returns the
    Allocation, or returns None leaving the state untouched;
    `policy.room(state, request, cloud)` is its own room test, what
    `admit` would place the request on at `cloud` now, or None when it
    finds no room there. A policy launches only VM types that
    `state.can_launch` allows and that the admitted request's demand fits
    on.

    A target is skipped without a trial only when (a) `policy.room` finds
    no room for the request at any of its clouds, (b) no target instance
    that hosts evictees would fit the request with all of its evictees
    released, and (c) no VM type the request fits on could launch at any
    of its clouds even after every instance the evictions would empty
    retires (`evictions_cannot_make_room`). During a trial only the
    target gains room, through its evictees' instances and the retirement
    of those they empty; every other cloud's room only tightens, the live
    cost falls only by those retirements, and the resource total never
    falls.
    The request can use an instance launched during the trial, for an
    evictee or for itself, only at one of its clouds and only if it fits
    that instance's type, which `can_launch` allowed there at a state no
    looser than (c) assumes. So under (a) to (c) no retry could succeed,
    and the skip changes nothing but the work not done.

    Returns (moves, success): `moves` holds one (request_id,
    migration_delay) pair per relocation kept, in the order made, and is
    empty on failure.
    """
    scenario = state.scenario
    entries = lists.list_for_bs(request.origin)
    clouds: list[str] = []
    for e in entries:
        if e.cloud not in clouds:
            clouds.append(e.cloud)
    target_clouds = clouds[:scenario.setting("migration_target_limit")]
    eviction_limit = scenario.setting("migration_eviction_limit")
    demand = state.demand(request)
    # what moves is the service's live state, not its disk footprint
    vm_bytes = max(scenario.setting("migration_page_bytes"),
                   scenario.setting("migration_image_bytes"))
    no_room = None   # (a), found when first needed

    for target in target_clouds:
        evictee_ids = evictee_order(state, target, eviction_limit)
        if evictions_cannot_make_room(state, demand, evictee_ids, clouds):
            # a failed trial rolls back, so the room found for the first
            # target holds for the next
            if no_room is None:
                no_room = all(policy.room(state, request, cloud) is None
                              for cloud in clouds)
            if no_room:
                continue
        target_mark = state.checkpoint()
        committed = False
        try:
            moves: list[tuple[int, float]] = []
            for rid in evictee_ids:
                evictee_mark = state.checkpoint()
                state.release(rid)
                relocated = policy.admit(state, scenario.request(rid),
                                         exclude_clouds={target})
                if relocated is None:
                    state.rollback(evictee_mark)
                    continue
                speed = intercloud_link_speed(state, target,
                                              relocated.cloud,
                                              lists.intercloud_links)
                state.migrations += 1
                moves.append((rid, migration_time(scenario, vm_bytes,
                                                  speed)))
                if policy.admit(state, request, exclude_clouds=set()) \
                        is not None:
                    state.commit(target_mark)
                    committed = True
                    return moves, True
        finally:
            if not committed:
                # this target did not work out; try the next-best cloud
                state.rollback(target_mark)

    return [], False
