"""The combined, validated meta-data descriptor.

A :class:`Descriptor` ties together the three components of the meta-data
description (schema, storage, layout) for one dataset and is the unit the
virtualization compiler consumes.  :func:`parse_descriptor` accepts a single
text containing all three components (the style of the paper's Figure 4) or
the components can be supplied separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..errors import MetadataValidationError
from .layout import DatasetNode, parse_layout, root_datasets
from .schema import Schema, parse_schemas
from .storage import StorageDescriptor, parse_storage

if TYPE_CHECKING:  # diag imports metadata
    from ..diag.core import Collector


@dataclass
class Descriptor:
    """A fully-specified dataset description.

    Attributes
    ----------
    schema:
        The virtual relational table schema (Component I), already extended
        with any additional attributes defined in layout DATATYPE clauses.
    storage:
        Node / directory placement (Component II).
    layout:
        Root of the DATASET layout tree (Component III).
    """

    schema: Schema
    storage: StorageDescriptor
    layout: DatasetNode
    all_schemas: Dict[str, Schema] = field(default_factory=dict)
    #: The linter's findings (a :class:`repro.diag.Collector`) from the
    #: last :meth:`validate`; ``None`` until then.
    findings: Optional["Collector"] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        return self.storage.dataset_name

    @property
    def index_attrs(self) -> tuple:
        """Attributes declared in DATAINDEX clauses anywhere in the tree."""
        out: List[str] = []
        for node in self.layout.walk():
            for attr in node.index_attrs:
                if attr not in out:
                    out.append(attr)
        return tuple(out)

    def leaves(self) -> List[DatasetNode]:
        return self.layout.leaves()

    def validate(self) -> None:
        """Run all semantic checks; raises MetadataValidationError.

        The checks live in :mod:`repro.diag.linter`, which collects
        *every* finding (``repro check`` lists them).  Loading keeps the
        fail-fast contract: the first error's message is raised — the
        linter runs its checks in the original order, so which error
        surfaces first, and its text, never changed.  Every finding is
        kept on :attr:`findings`.
        """
        from ..diag.linter import lint_descriptor

        self.findings = lint_descriptor(self)
        first = self.findings.first_error()
        if first is not None:
            raise MetadataValidationError(first.message)


def parse_descriptor(
    text: str,
    dataset_name: Optional[str] = None,
    validate: bool = True,
) -> Descriptor:
    """Parse a combined descriptor text into a validated :class:`Descriptor`.

    Parameters
    ----------
    text:
        Descriptor source containing schema section(s), one storage section,
        and the layout DATASET blocks.
    dataset_name:
        Which dataset to build, when the text declares several storage
        sections.  Defaults to the only one.
    validate:
        Run semantic validation (the default).  The ``repro.diag`` linter
        passes ``False`` so it can collect every finding itself instead of
        stopping at the first error.
    """
    schemas = parse_schemas(text)
    storages = parse_storage(text)
    layouts = parse_layout(text)
    return build_descriptor(schemas, storages, layouts, dataset_name, validate)


def build_descriptor(
    schemas: Dict[str, Schema],
    storages: Dict[str, StorageDescriptor],
    layouts: Dict[str, DatasetNode],
    dataset_name: Optional[str] = None,
    validate: bool = True,
) -> Descriptor:
    """Assemble and validate a Descriptor from parsed components."""
    if not storages:
        raise MetadataValidationError("descriptor has no storage section")
    if dataset_name is None:
        if len(storages) != 1:
            raise MetadataValidationError(
                "descriptor declares multiple datasets "
                f"({sorted(storages)}); pass dataset_name to choose one"
            )
        dataset_name = next(iter(storages))
    if dataset_name not in storages:
        raise MetadataValidationError(
            f"no storage section for dataset {dataset_name!r}"
        )
    storage = storages[dataset_name]

    if storage.schema_name not in schemas:
        raise MetadataValidationError(
            f"storage section references undefined schema "
            f"{storage.schema_name!r}"
        )
    schema = schemas[storage.schema_name]

    root = _select_root(layouts, dataset_name)

    # Fold layout-defined extra attributes into the schema so downstream
    # components see a single attribute namespace.
    extra = []
    for node in root.walk():
        extra.extend(node.extra_attrs)
    if extra:
        schema = schema.extend(extra)

    descriptor = Descriptor(
        schema=schema, storage=storage, layout=root, all_schemas=dict(schemas)
    )
    if validate:
        descriptor.validate()
    return descriptor


def _select_root(layouts: Dict[str, DatasetNode], dataset_name: str) -> DatasetNode:
    roots = root_datasets(layouts)
    for root in roots:
        if root.name == dataset_name:
            return root
    if len(roots) == 1:
        return roots[0]
    raise MetadataValidationError(
        f"no layout DATASET named {dataset_name!r}; "
        f"top-level datasets are {[r.name for r in roots]}"
    )
