"""Virtualization core: the paper's primary contribution.

Strips and physical files (compile-time geometry), the two-step
Find_File_Groups / Process_File_Groups analysis, aligned file chunks,
query planning, code generation of specialised index functions, and the
chunk extractor.
"""

from .afc import AfcTable, AlignedFileChunkSet, ChunkRef, ExtractionPlan, InnerVar
from .aggregate import (
    AggregateSpec,
    aggregate_rows,
    aggregate_spec,
    finalize,
    merge_partials,
    partial_aggregate,
    summary_answer,
)
from .analysis import (
    Alignment,
    compute_alignment,
    consistent_group,
    enumerate_afcs,
    find_file_groups,
    match_file,
)
from .codegen import GeneratedDataset, compile_descriptor, generate_index_source
from .extractor import Extractor, Mount, local_mount
from .options import DEFAULT_OPTIONS, ExecOptions
from .planner import CompiledDataset, StaticGroup
from .stats import IOStats
from .strips import (
    LoopDim,
    PhysicalFile,
    Strip,
    build_strips,
    enumerate_files,
    row_variable_order,
)
from .table import VirtualTable, concat_tables
from .virtualizer import Virtualizer, open_dataset

__all__ = [
    "AfcTable",
    "AggregateSpec",
    "AlignedFileChunkSet",
    "Alignment",
    "ChunkRef",
    "CompiledDataset",
    "DEFAULT_OPTIONS",
    "ExecOptions",
    "ExtractionPlan",
    "Extractor",
    "GeneratedDataset",
    "IOStats",
    "InnerVar",
    "LoopDim",
    "Mount",
    "PhysicalFile",
    "StaticGroup",
    "Strip",
    "VirtualTable",
    "Virtualizer",
    "aggregate_rows",
    "aggregate_spec",
    "build_strips",
    "compile_descriptor",
    "compute_alignment",
    "concat_tables",
    "consistent_group",
    "enumerate_afcs",
    "enumerate_files",
    "finalize",
    "find_file_groups",
    "generate_index_source",
    "local_mount",
    "match_file",
    "merge_partials",
    "open_dataset",
    "partial_aggregate",
    "row_variable_order",
    "summary_answer",
]
