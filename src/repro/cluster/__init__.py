"""Sharded multi-chip TCAM fabric (the datacenter-scale layer).

One logical search engine over N :class:`~repro.tcam.chip.TCAMChip`
shards: a pluggable :mod:`~repro.cluster.distributor` places and
routes rules, an :mod:`~repro.cluster.interconnect` prices query and
result movement, the :mod:`~repro.cluster.fabric` merges per-shard
verdicts bit-identically to an unsharded reference chip, the
:mod:`~repro.cluster.updates` engine applies live churn whose writes
cost estimator-priced energy and whose wear feeds the fault/repair
subsystem, and the :mod:`~repro.cluster.campaign` sweeps 1 -> 64
chips under the serving workload.  See DESIGN.md section 15.
"""

from .campaign import (
    DEFAULT_CHIP_COUNTS,
    ClusterScalePoint,
    FabricBackend,
    run_cluster_campaign,
    synthetic_rule_table,
)
from .distributor import (
    DISTRIBUTOR_POLICIES,
    Distributor,
    HashDistributor,
    Placement,
    RangeDistributor,
    ReplicatedHotDistributor,
    RuleTable,
    get_distributor,
    rule_fingerprint,
)
from .fabric import (
    FabricSearchOutcome,
    TCAMFabric,
    build_reference_chip,
    logical_winner,
    ternary_matches,
)
from .interconnect import (
    DISTRIBUTION_COMPONENT,
    LINK_COMPONENT,
    TOPOLOGIES,
    Interconnect,
    LinkModel,
    TransferCost,
)
from .updates import (
    ChurnReport,
    FabricWearReport,
    RuleUpdate,
    UpdateEngine,
    age_and_repair,
    synthesize_churn,
)

__all__ = [
    "DEFAULT_CHIP_COUNTS",
    "DISTRIBUTOR_POLICIES",
    "DISTRIBUTION_COMPONENT",
    "LINK_COMPONENT",
    "TOPOLOGIES",
    "ChurnReport",
    "ClusterScalePoint",
    "Distributor",
    "FabricBackend",
    "FabricSearchOutcome",
    "FabricWearReport",
    "HashDistributor",
    "Interconnect",
    "LinkModel",
    "Placement",
    "RangeDistributor",
    "ReplicatedHotDistributor",
    "RuleTable",
    "RuleUpdate",
    "TCAMFabric",
    "TransferCost",
    "UpdateEngine",
    "age_and_repair",
    "build_reference_chip",
    "get_distributor",
    "logical_winner",
    "rule_fingerprint",
    "run_cluster_campaign",
    "synthesize_churn",
    "synthetic_rule_table",
    "ternary_matches",
]
