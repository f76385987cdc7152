"""Meta-data description language (Section 3 of the paper).

Parses the three descriptor components — dataset schema, dataset storage,
and dataset layout — into a validated :class:`Descriptor` that the
virtualization compiler (:mod:`repro.core`) consumes.
"""

from .descriptor import Descriptor, build_descriptor, parse_descriptor
from .expressions import Expr, RangeExpr, parse_expr, parse_range
from .layout import (
    AttrGroup,
    Binding,
    DataClause,
    DatasetNode,
    FilePattern,
    LoopNode,
    parse_file_pattern,
    parse_layout,
)
from .schema import Attribute, Schema, parse_schemas
from .storage import DirEntry, StorageDescriptor, parse_storage
from .types import ScalarType, parse_type, type_from_dtype
from .xml_io import descriptor_to_xml, read_descriptor, xml_to_descriptor

__all__ = [
    "Attribute",
    "AttrGroup",
    "Binding",
    "DataClause",
    "DatasetNode",
    "Descriptor",
    "DirEntry",
    "Expr",
    "FilePattern",
    "LoopNode",
    "RangeExpr",
    "ScalarType",
    "Schema",
    "StorageDescriptor",
    "build_descriptor",
    "descriptor_to_xml",
    "parse_descriptor",
    "parse_expr",
    "parse_file_pattern",
    "parse_layout",
    "parse_range",
    "parse_schemas",
    "parse_storage",
    "parse_type",
    "read_descriptor",
    "type_from_dtype",
    "xml_to_descriptor",
]
