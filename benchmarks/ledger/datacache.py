"""On-disk dataset cache with provenance.

A dataset is generated once into ``<data_dir>/<name>-<config hash>/`` and
reused only when its manifest (generator config, seed, byte size, file
count) matches both the request and what is actually on disk; anything
else is regenerated from scratch.  Generation time is recorded in the
manifest and reported as ``datagen_s`` — it is never part of ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core import local_mount
from repro.datasets import ipars, titan

from workloads import DATASETS, DatasetSpec

MANIFEST = "manifest.json"
DESCRIPTOR = "descriptor.desc"
#: ProcessCluster keeps port files and server logs here, inside the data
#: root; they are not part of the dataset.
CLUSTER_DIR = "_cluster"


@dataclass(frozen=True)
class Dataset:
    name: str
    root: str  # the directory repro.connect("local://...") points at
    descriptor: str  # descriptor text
    manifest: Dict[str, object]

    @property
    def datagen_s(self) -> float:
        return float(self.manifest["datagen_s"])


def _identity(spec: DatasetSpec, smoke: bool) -> Dict[str, object]:
    identity = {
        "name": spec.name,
        "kind": spec.kind,
        "layout": spec.layout,
        "config": dataclasses.asdict(spec.pick(smoke)),
    }
    # As JSON reads it back (tuples become lists), so that a stored
    # manifest compares equal to a fresh request.
    return json.loads(json.dumps(identity))


def config_hash(identity: Dict[str, object]) -> str:
    blob = json.dumps(identity, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _measure(root: str) -> Tuple[int, int]:
    """(bytes, file count) of the data files under ``root``."""
    total = count = 0
    for dirpath, dirnames, filenames in os.walk(root):
        if CLUSTER_DIR in dirnames:
            dirnames.remove(CLUSTER_DIR)
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
            count += 1
    return total, count


def _load(path: str, identity: Dict[str, object]) -> Optional[Dataset]:
    """The cached dataset at ``path`` if its manifest checks out."""
    try:
        with open(os.path.join(path, MANIFEST)) as handle:
            manifest = json.load(handle)
        with open(os.path.join(path, DESCRIPTOR)) as handle:
            descriptor = handle.read()
    except (OSError, ValueError):
        return None
    root = os.path.join(path, "data")
    if manifest.get("identity") != identity:
        return None
    if (manifest.get("bytes"), manifest.get("files")) != _measure(root):
        return None
    return Dataset(str(identity["name"]), root, descriptor, manifest)


def cached_dataset(
    name: str, data_dir: str, smoke: bool = False
) -> Optional[Dataset]:
    """The named dataset if a valid copy is on disk."""
    identity = _identity(DATASETS[name], smoke)
    path = os.path.join(data_dir, f"{name}-{config_hash(identity)}")
    return _load(path, identity)


def ensure_dataset(name: str, data_dir: str, smoke: bool = False) -> Dataset:
    """The named dataset, generated now unless a valid copy is cached."""
    cached = cached_dataset(name, data_dir, smoke)
    if cached is not None:
        return cached
    spec = DATASETS[name]
    identity = _identity(spec, smoke)
    path = os.path.join(data_dir, f"{name}-{config_hash(identity)}")

    staging = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    root = os.path.join(staging, "data")
    os.makedirs(root)
    try:
        config = spec.pick(smoke)
        start = time.perf_counter()
        if spec.kind == "ipars":
            descriptor, _ = ipars.generate(config, spec.layout, local_mount(root))
        else:
            descriptor, _ = titan.generate(config, local_mount(root))
        datagen_s = time.perf_counter() - start
        nbytes, files = _measure(root)
        manifest = {
            "identity": identity,
            "seed": config.seed,
            "rows": config.total_rows,
            "bytes": nbytes,
            "files": files,
            "datagen_s": datagen_s,
        }
        with open(os.path.join(staging, DESCRIPTOR), "w") as handle:
            handle.write(descriptor)
        with open(os.path.join(staging, MANIFEST), "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        shutil.rmtree(path, ignore_errors=True)
        os.replace(staging, path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return Dataset(name, os.path.join(path, "data"), descriptor, manifest)
