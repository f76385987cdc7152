"""Data mover service: shipping partitions to client processors.

STORM's data mover "is responsible for transferring selected data elements
to destination processors based on the partitioning description" (paper
Section 2.3).  Ours materialises each client's slice, counts the bytes and
messages that would cross the network, and charges them to the cost model;
the payloads are delivered in-process (the "network" of a virtual cluster
is a function call).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.stats import IOStats
from ..core.table import VirtualTable
from ..obs.tracer import NULL_TRACER
from .partition import Partitioner

#: Bytes of per-message framing (headers, tuple counts) per transfer.
MESSAGE_OVERHEAD = 64


@dataclass
class Delivery:
    """What one client receives."""

    client: int
    table: VirtualTable
    bytes_sent: int
    messages: int


class DataMoverService:
    """Moves partitioned results to clients, tracking transfer volume."""

    def __init__(self, message_bytes: int = 1 << 20, injector=None):
        #: Maximum payload bytes per message (transfer is chunked).
        self.message_bytes = message_bytes
        #: Optional repro.faults.FaultInjector; ``node-down`` rules
        #: matching the pseudo-node ``client:<i>`` fail that delivery.
        self.injector = injector

    def row_bytes(self, table: VirtualTable) -> int:
        """Wire size of one row (packed binary, as STORM ships tuples)."""
        return sum(table.column(n).dtype.itemsize for n in table.column_names)

    def move(
        self,
        table: VirtualTable,
        partitioner: Partitioner,
        num_clients: int,
        stats: Optional[IOStats] = None,
        tracer=NULL_TRACER,
    ) -> List[Delivery]:
        """Partition ``table`` and deliver one slice per client.

        A lone client gets every row in table order — the table itself,
        so no row index is built for it (``partition`` is not called;
        its span still marks the step).
        """
        with tracer.span(
            "partition",
            scheme=type(partitioner).__name__,
            rows=table.num_rows,
            clients=num_clients,
        ):
            if num_clients == 1:
                indices = [None]
            else:
                indices = partitioner.partition(table, num_clients, tracer)
        with tracer.span("mover", clients=num_clients) as span:
            row_size = self.row_bytes(table)
            deliveries: List[Delivery] = []
            for client, idx in enumerate(indices):
                if self.injector is not None:
                    self.injector.on_transfer(client)
                if idx is None:
                    slice_table = table
                else:
                    slice_table = VirtualTable(
                        {n: table.column(n)[idx] for n in table.column_names},
                        order=list(table.column_names),
                    )
                payload = slice_table.num_rows * row_size
                messages = max(
                    1, -(-payload // self.message_bytes)
                ) if slice_table.num_rows else 0
                sent = payload + messages * MESSAGE_OVERHEAD
                if stats is not None:
                    stats.bytes_sent += sent
                deliveries.append(Delivery(client, slice_table, sent, messages))
            span.tag(
                bytes_sent=sum(d.bytes_sent for d in deliveries),
                messages=sum(d.messages for d in deliveries),
            )
        return deliveries
