"""Every default value is written once, in `cranplace.defaults`; the
objects that fall back to one agree with it."""

from dataclasses import replace

import cranplace
from cranplace.defaults import DEFAULT_PARAMS
from cranplace.migration import intercloud_link_speed, migration_time
from cranplace.state import PlacementState
from cranplace.topology import LinkParams
from cranplace.workload import link_params_from


def test_link_params_agree_with_an_empty_params_block():
    assert LinkParams() == link_params_from({})


def test_a_scenario_without_params_reads_the_defaults(tiny_scenario):
    bare = replace(tiny_scenario, params={})
    assert {name: bare.setting(name) for name in DEFAULT_PARAMS} \
        == DEFAULT_PARAMS
    own = replace(tiny_scenario, params={"migration_target_limit": None})
    assert own.setting("migration_target_limit") is None
    assert own.setting("migration_eviction_limit") \
        == DEFAULT_PARAMS["migration_eviction_limit"]


def test_migration_without_params_uses_the_default_values(tiny_scenario):
    bare = replace(tiny_scenario, params={})
    overhead = DEFAULT_PARAMS["migration_overhead_s"]
    page = DEFAULT_PARAMS["migration_page_bytes"]
    assert migration_time(bare, 1e6, 1e9) == \
        overhead + (5.0 * 1e6 - page) * 8.0 / 1e9
    # moving within a cloud uses the fallback link speed
    state = PlacementState(bare)
    assert intercloud_link_speed(state, "cloud0", "cloud0", {}) == \
        DEFAULT_PARAMS["migration_link_speed_bps"]


def test_every_public_name_resolves():
    # a deletion that leaves its export behind fails here
    assert [n for n in cranplace.__all__ if not hasattr(cranplace, n)] == []
    assert len(set(cranplace.__all__)) == len(cranplace.__all__)
