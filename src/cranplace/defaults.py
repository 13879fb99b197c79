"""Shipped default values: the one place each of them is written.

Plain numbers only, so that every module, `model` included, can import
this one; the stock VM catalog and service classes built from them are in
`model`."""

#: default end-to-end delay bound applied to every service class (seconds)
DEFAULT_SLA_SECONDS = 5e-4

#: offered load of a generated workload, as a fraction of backhaul capacity
DEFAULT_LOAD_FRACTION = 0.6
DEFAULT_PACKET_SIZE_BYTES = 500.0
DEFAULT_VOLUME_PACKETS = 1000.0
DEFAULT_HOLDING_TIME_S = 0.008
DEFAULT_BS_PER_AGGREGATOR = 4
DEFAULT_COST_THRESHOLD = 10000.0

#: scenario-level placement settings
DEFAULT_DEGRADATION_FRACTION = 0.2
DEFAULT_K_PATHS = 3
DEFAULT_RESOURCE_CAP = 50000.0

#: generated links (Gbps): aggregator uplinks, BS access links, and the
#: core ring and cloud backhaul chains
DEFAULT_BACKHAUL_GBPS = 40.0
DEFAULT_BS_LINK_GBPS = 100.0
DEFAULT_CHAIN_GBPS = 320.0

#: total compute rate (packets/s) and capacity (vCPU, GB, Gbps) shared by
#: all clouds; a scenario with n clouds gets a 1/n slice per cloud
DEFAULT_CLOUD_RATE_TOTAL = 1.2e8
DEFAULT_CLOUD_CAPACITY_TOTAL = (24000.0, 90000.0, 12000.0)

#: the run settings, read through `Scenario.setting`: a scenario's own
#: params override them key by key, and `Scenario` checks them when built
DEFAULT_PARAMS = {
    "seed": 0,
    "packet_size_bytes": DEFAULT_PACKET_SIZE_BYTES,
    "migration_overhead_s": 1e-4,
    "migration_page_bytes": 4096.0,
    "migration_image_bytes": 65536.0,
    "migration_link_speed_bps": 1e10,
    "migration_eviction_limit": 6,
    "migration_target_limit": 2,
}
