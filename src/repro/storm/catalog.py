"""Catalog: one query front door for many datasets.

A data repository hosts many datasets; clients address them by table
name.  The catalog owns the descriptor -> service wiring (compilation,
summary loading, service construction are all lazy and cached) and routes
each query to the right dataset's service — the "suite of loosely coupled
services" of the paper's STORM, packaged for multi-dataset sites.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..core.codegen import GeneratedDataset, compile_descriptor
from ..core.options import ExecOptions
from ..core.planner import CompiledDataset
from ..errors import StormError
from ..index.summaries import MinMaxSummaries, summaries_path
from ..metadata import Descriptor, read_descriptor
from ..sql.ast import Query
from ..sql.functions import FunctionRegistry
from ..sql.parser import parse_query
from ..sql.views import View, ViewRegistry
from .cluster import VirtualCluster
from .cost import CostModel, STORM_COST
from .query_service import QueryResult, QueryService


@dataclass
class _Entry:
    descriptor: Descriptor
    #: The registered compile (codegen entries), without summaries.
    compiled: Optional[GeneratedDataset] = None
    dataset: Optional[CompiledDataset] = None
    service: Optional[QueryService] = None


class Catalog:
    """Registers datasets on a cluster and routes queries by table name."""

    def __init__(
        self,
        cluster: VirtualCluster,
        functions: Optional[FunctionRegistry] = None,
        cost_model: CostModel = STORM_COST,
    ):
        self.cluster = cluster
        self.functions = functions
        self.cost_model = cost_model
        self._entries: Dict[str, _Entry] = {}
        self.views = ViewRegistry()

    # -- registration -----------------------------------------------------------

    def register(
        self,
        descriptor: Union[Descriptor, str],
        use_codegen: bool = True,
    ) -> str:
        """Register a dataset; returns its table name.

        Accepts a Descriptor, descriptor text, or XML descriptor text.
        A codegen dataset is compiled here, once per process
        (:func:`~repro.core.codegen.compile_descriptor`).
        """
        compiled = None
        if use_codegen:
            compiled = compile_descriptor(descriptor)
            descriptor = compiled.descriptor
        elif isinstance(descriptor, str):
            descriptor = read_descriptor(descriptor)
        name = descriptor.name
        if name in self._entries:
            raise StormError(f"dataset {name!r} is already registered")
        self._entries[name] = _Entry(descriptor, compiled)
        return name

    def unregister(self, name: str) -> None:
        entry = self._entries.pop(name, None)
        if entry and entry.service is not None:
            entry.service.close()

    @property
    def table_names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # -- lazy wiring ---------------------------------------------------------------

    def _entry(self, name: str) -> _Entry:
        entry = self._entries.get(name)
        if entry is None:
            raise StormError(
                f"no dataset {name!r} in the catalog; "
                f"registered: {self.table_names}"
            )
        return entry

    def dataset(self, name: str) -> CompiledDataset:
        entry = self._entry(name)
        if entry.dataset is None:
            summaries = self._load_summaries(entry.descriptor)
            if entry.compiled is not None:
                entry.dataset = entry.compiled.over(summaries)
            else:
                entry.dataset = CompiledDataset(entry.descriptor, summaries)
        return entry.dataset

    def _load_summaries(self, descriptor: Descriptor) -> Optional[MinMaxSummaries]:
        path = summaries_path(self.cluster.root, descriptor.name)
        if os.path.exists(path):
            return MinMaxSummaries.load(path)
        return None

    def service(self, name: str) -> QueryService:
        entry = self._entry(name)
        if entry.service is None:
            entry.service = QueryService(
                self.dataset(name),
                self.cluster,
                functions=self.functions,
                cost_model=self.cost_model,
            )
        return entry.service

    # -- views ------------------------------------------------------------------

    def create_view(self, name: str, definition: Union[Query, str]) -> View:
        """Define a named view over a registered dataset (or another view).

        The definition is validated immediately: its chain must bottom
        out at a registered dataset and reference only visible columns.
        """
        query = (
            parse_query(definition) if isinstance(definition, str) else definition
        )
        base = self.views.base_table_of(query.table)
        if base not in self._entries and base != name:
            raise StormError(
                f"view {name!r} is defined over unknown table {base!r}"
            )
        view = self.views.define(name, query)
        try:
            # Probe-resolve SELECT * to surface column errors at define time.
            schema_names = self.dataset(base).schema.names
            self.views.resolve(Query(table=name), schema_names)
        except Exception:
            self.views.drop(name)
            raise
        return view

    def drop_view(self, name: str) -> None:
        self.views.drop(name)

    # -- querying ------------------------------------------------------------------

    def _resolve(self, sql: Union[Query, str]) -> Query:
        query = parse_query(sql) if isinstance(sql, str) else sql
        if query.table in self.views:
            base = self.views.base_table_of(query.table)
            schema_names = self.dataset(base).schema.names
            query = self.views.resolve(query, schema_names)
        return query

    def query(
        self,
        sql: Union[Query, str],
        options: Optional[ExecOptions] = None,
    ) -> QueryResult:
        """Route a query (possibly over a view) to its dataset's service.

        ``options`` carries the execution knobs.
        """
        query = self._resolve(sql)
        return self.service(query.table).submit(query, options)

    def explain(self, sql: Union[Query, str]) -> str:
        query = self._resolve(sql)
        return self.dataset(query.table).explain(query)

    def close(self) -> None:
        for entry in self._entries.values():
            if entry.service is not None:
                entry.service.close()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
