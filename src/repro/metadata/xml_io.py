"""XML embedding of the meta-data description language.

The paper notes that "the description language we have developed can
easily be embedded in an XML file and made machine independent"
(Section 3.1).  This module is that embedding: a lossless XML
serialisation of all three descriptor components, so descriptors can be
exchanged with XML-based tooling (the BinX/BFD/DFDL ecosystem the paper
positions itself against).

Element structure::

    <descriptor>
      <schema name="IPARS">
        <attribute name="REL" type="short int"/>
        ...
      </schema>
      <storage dataset="IparsData" schema="IPARS">
        <dir index="0" node="osu0" path="ipars"/>
      </storage>
      <dataset name="IparsData">
        <datatype schema="IPARS"/>
        <dataindex>REL TIME</dataindex>
        <dataset name="ipars1">
          <dataspace>
            <loop var="GRID" lo="$DIRID*100+1" hi="($DIRID+1)*100" step="1">
              <attributes>X Y Z</attributes>
            </loop>
          </dataspace>
          <data>
            <file pattern="DIR[$DIRID]/COORDS"/>
            <binding var="DIRID" lo="0" hi="3" step="1"/>
          </data>
        </dataset>
      </dataset>
    </descriptor>

Expressions are carried as their textual form (the expression grammar is
already machine independent); round-tripping is exact because ``str()``
of an expression re-parses to an equivalent AST.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, List, Optional

from ..errors import MetadataSyntaxError, MetadataValidationError
from .descriptor import Descriptor, build_descriptor, parse_descriptor
from .expressions import parse_expr, parse_range, RangeExpr
from .layout import (
    AttrGroup,
    Binding,
    DataClause,
    DatasetNode,
    FilePattern,
    LoopNode,
    SpaceItem,
    parse_file_pattern,
)
from .schema import Attribute, Schema
from .storage import DirEntry, StorageDescriptor
from .types import parse_type


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def descriptor_to_xml(descriptor: Descriptor) -> str:
    """Serialise a descriptor to a standalone XML document string."""
    root = ET.Element("descriptor")
    _schema_element(root, _base_schema(descriptor))
    _storage_element(root, descriptor.storage)
    _dataset_element(root, descriptor.layout)
    _indent(root)
    return ET.tostring(root, encoding="unicode")


def _base_schema(descriptor: Descriptor) -> Schema:
    """The schema without layout-defined extra attributes (those are
    serialised inside their DATATYPE elements)."""
    extra = {a.name for node in descriptor.layout.walk() for a in node.extra_attrs}
    return Schema(
        descriptor.schema.name,
        [a for a in descriptor.schema.attributes if a.name not in extra],
    )


def _schema_element(parent: ET.Element, schema: Schema) -> None:
    el = ET.SubElement(parent, "schema", name=schema.name)
    for attr in schema:
        ET.SubElement(el, "attribute", name=attr.name, type=attr.type.name)


def _storage_element(parent: ET.Element, storage: StorageDescriptor) -> None:
    el = ET.SubElement(
        parent, "storage", dataset=storage.dataset_name, schema=storage.schema_name
    )
    for entry in storage.dirs:
        ET.SubElement(
            el, "dir", index=str(entry.index), node=entry.node, path=entry.path
        )


def _dataset_element(parent: ET.Element, node: DatasetNode) -> None:
    el = ET.SubElement(parent, "dataset", name=node.name)
    if node.schema_name:
        ET.SubElement(el, "datatype", schema=node.schema_name)
    for attr in node.extra_attrs:
        ET.SubElement(el, "datatype-attribute", name=attr.name,
                      type=attr.type.name)
    if node.index_attrs:
        ET.SubElement(el, "dataindex").text = " ".join(node.index_attrs)
    if node.dataspace:
        space = ET.SubElement(el, "dataspace")
        for item in node.dataspace:
            _space_element(space, item)
    if node.data.patterns or node.data.bindings:
        data = ET.SubElement(el, "data")
        for pattern in node.data.patterns:
            ET.SubElement(data, "file", pattern=str(pattern))
        for binding in node.data.bindings:
            ET.SubElement(
                data,
                "binding",
                var=binding.var,
                lo=str(binding.range.lo),
                hi=str(binding.range.hi),
                step=str(binding.range.stride),
            )
    for child in node.children:
        _dataset_element(el, child)


def _space_element(parent: ET.Element, item: SpaceItem) -> None:
    if isinstance(item, AttrGroup):
        ET.SubElement(parent, "attributes").text = " ".join(item.names)
        return
    assert isinstance(item, LoopNode)
    el = ET.SubElement(
        parent,
        "loop",
        var=item.var,
        lo=str(item.range.lo),
        hi=str(item.range.hi),
        step=str(item.range.stride),
    )
    for child in item.body:
        _space_element(el, child)


def _indent(el: ET.Element, depth: int = 0) -> None:
    pad = "\n" + "  " * depth
    if len(el):
        if not (el.text or "").strip():
            el.text = pad + "  "
        for child in el:
            _indent(child, depth + 1)
            child.tail = pad + "  "
        el[-1].tail = pad
    elif depth and not (el.text or "").strip():
        el.text = None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def read_descriptor(text: str, dataset_name: Optional[str] = None) -> Descriptor:
    """Parse descriptor text in either form: an XML document (starting
    with ``<``) or the combined schema/storage/layout text."""
    if text.lstrip().startswith("<"):
        return xml_to_descriptor(text, dataset_name)
    return parse_descriptor(text, dataset_name)


def xml_to_descriptor(text: str, dataset_name: Optional[str] = None) -> Descriptor:
    """Parse an XML descriptor document into a validated Descriptor."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise MetadataSyntaxError(f"malformed descriptor XML: {exc}") from exc
    if root.tag != "descriptor":
        raise MetadataSyntaxError(
            f"root element must be <descriptor>, got <{root.tag}>"
        )

    schemas: Dict[str, Schema] = {}
    for el in root.findall("schema"):
        schema = _parse_schema(el)
        schemas[schema.name] = schema

    storages: Dict[str, StorageDescriptor] = {}
    for el in root.findall("storage"):
        storage = _parse_storage(el)
        storages[storage.dataset_name] = storage

    layouts: Dict[str, DatasetNode] = {}
    for el in root.findall("dataset"):
        node = _parse_dataset(el)
        layouts[node.name] = node

    return build_descriptor(schemas, storages, layouts, dataset_name)


def _required(el: ET.Element, name: str) -> str:
    value = el.get(name)
    if value is None:
        raise MetadataSyntaxError(
            f"<{el.tag}> element is missing required attribute {name!r}"
        )
    return value


def _parse_schema(el: ET.Element) -> Schema:
    attributes = [
        Attribute(_required(a, "name"), parse_type(_required(a, "type")))
        for a in el.findall("attribute")
    ]
    return Schema(_required(el, "name"), attributes)


def _parse_storage(el: ET.Element) -> StorageDescriptor:
    dirs = [
        DirEntry(
            int(_required(d, "index")), _required(d, "node"), d.get("path", "")
        )
        for d in el.findall("dir")
    ]
    if not dirs:
        raise MetadataValidationError(
            f"storage for {el.get('dataset')!r} lists no <dir> entries"
        )
    return StorageDescriptor(_required(el, "dataset"), _required(el, "schema"), dirs)


def _parse_range_attrs(el: ET.Element) -> RangeExpr:
    return RangeExpr(
        parse_expr(_required(el, "lo")),
        parse_expr(_required(el, "hi")),
        parse_expr(el.get("step", "1")),
    )


def _parse_space_item(el: ET.Element) -> SpaceItem:
    if el.tag == "attributes":
        names = tuple((el.text or "").split())
        if not names:
            raise MetadataSyntaxError("<attributes> element is empty")
        return AttrGroup(names)
    if el.tag == "loop":
        body = tuple(_parse_space_item(child) for child in el)
        if not body:
            raise MetadataValidationError(
                f"<loop var={el.get('var')!r}> has an empty body"
            )
        return LoopNode(_required(el, "var"), _parse_range_attrs(el), body)
    raise MetadataSyntaxError(f"unexpected <{el.tag}> inside <dataspace>")


def _parse_dataset(el: ET.Element) -> DatasetNode:
    node = DatasetNode(name=_required(el, "name"))
    datatype = el.find("datatype")
    if datatype is not None:
        node.schema_name = _required(datatype, "schema")
    for extra in el.findall("datatype-attribute"):
        node.extra_attrs.append(
            Attribute(_required(extra, "name"), parse_type(_required(extra, "type")))
        )
    dataindex = el.find("dataindex")
    if dataindex is not None:
        node.index_attrs = tuple((dataindex.text or "").split())
    dataspace = el.find("dataspace")
    if dataspace is not None:
        node.dataspace = tuple(_parse_space_item(child) for child in dataspace)
    data = el.find("data")
    patterns: List[FilePattern] = []
    bindings: List[Binding] = []
    if data is not None:
        for f in data.findall("file"):
            patterns.append(parse_file_pattern(_required(f, "pattern")))
        for b in data.findall("binding"):
            bindings.append(Binding(_required(b, "var"), _parse_range_attrs(b)))
    children = [_parse_dataset(child) for child in el.findall("dataset")]
    child_refs = tuple(c.name for c in children)
    node.data = DataClause(
        child_refs=child_refs if not patterns else (),
        patterns=tuple(patterns),
        bindings=tuple(bindings),
    )
    for child in children:
        child.parent = node
        node.children.append(child)
    if node.is_leaf and node.children:
        raise MetadataValidationError(
            f"dataset {node.name!r} has both a dataspace and nested datasets"
        )
    return node
