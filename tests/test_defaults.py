"""Every default value is written once, in `cranplace.defaults`; the
objects that fall back to one agree with it."""

from dataclasses import replace

import cranplace
from cranplace.defaults import DEFAULT_PARAMS
from cranplace.heuristics import HeuristicConfig, _Run
from cranplace.migration import MigrationParams
from cranplace.topology import LinkParams
from cranplace.workload import link_params_from


def test_link_params_agree_with_an_empty_params_block():
    assert LinkParams() == link_params_from({})


def test_migration_params_agree_with_default_params():
    p = MigrationParams()
    assert (p.overhead, p.page_size, p.link_speed, p.image_bytes) == (
        DEFAULT_PARAMS["migration_overhead_s"],
        DEFAULT_PARAMS["migration_page_bytes"],
        DEFAULT_PARAMS["migration_link_speed_bps"],
        DEFAULT_PARAMS["migration_image_bytes"])


def test_a_run_without_params_reads_the_defaults(tiny_scenario):
    run = _Run(replace(tiny_scenario, params={}),
               HeuristicConfig("bnb_plain"))
    assert run.mig_params == MigrationParams()
    assert run.packet_size == DEFAULT_PARAMS["packet_size_bytes"]
    assert run.eviction_limit == DEFAULT_PARAMS["migration_eviction_limit"]
    assert run.target_limit == DEFAULT_PARAMS["migration_target_limit"]


def test_every_public_name_resolves():
    # a deletion that leaves its export behind fails here
    assert [n for n in cranplace.__all__ if not hasattr(cranplace, n)] == []
    assert len(set(cranplace.__all__)) == len(cranplace.__all__)
