"""STORM runtime: the service suite of the paper's Section 2.3.

Query service, data source service, filtering service, partition
generation service, and data mover service, running over a virtual
cluster with a deterministic cost model.  The indexing service is the
dataset's index function (``CompiledDataset.index``, generated or
interpreted) with :func:`~repro.core.afc.group_by_home_node` assigning
each AFC to the node holding its chunks.
"""

from ..core.stats import IOStats
from .catalog import Catalog
from .cluster import VirtualCluster, VirtualNode
from .cost import POSTGRES_COST, STORM_COST, CostModel
from .data_source import DataSourceService
from .filtering import FilteringService
from .mover import DataMoverService, Delivery
from .partition import (
    BlockPartitioner,
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    RoundRobinPartitioner,
    make_partitioner,
)
from .query_service import QueryResult, QueryService

__all__ = [
    "BlockPartitioner",
    "Catalog",
    "CostModel",
    "DataMoverService",
    "DataSourceService",
    "Delivery",
    "FilteringService",
    "HashPartitioner",
    "IOStats",
    "POSTGRES_COST",
    "Partitioner",
    "QueryResult",
    "QueryService",
    "RangePartitioner",
    "RoundRobinPartitioner",
    "STORM_COST",
    "VirtualCluster",
    "VirtualNode",
    "make_partitioner",
]
