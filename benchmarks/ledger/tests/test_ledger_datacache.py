"""Datasets generate once and are reused only on a matching manifest."""

import json
import os

import datacache


def test_reuse_needs_a_matching_manifest(tmp_path):
    first = datacache.ensure_dataset("titan-1n", str(tmp_path), smoke=True)
    manifest_path = os.path.join(os.path.dirname(first.root), datacache.MANIFEST)
    stamp = os.path.getmtime(manifest_path)
    assert first.manifest["bytes"] == 4 * 4 * 2 * 2 * 100 * 36
    assert first.manifest["files"] == 1 and first.datagen_s > 0

    again = datacache.ensure_dataset("titan-1n", str(tmp_path), smoke=True)
    assert again.manifest == first.manifest
    assert os.path.getmtime(manifest_path) == stamp  # not regenerated

    # A truncated data file no longer matches the manifest: regenerate.
    data_file = os.path.join(first.root, "osu0", "titan", "chunks.bin")
    with open(data_file, "r+b") as handle:
        handle.truncate(100)
    healed = datacache.ensure_dataset("titan-1n", str(tmp_path), smoke=True)
    assert os.path.getsize(data_file) == healed.manifest["bytes"]

    # So does a manifest written for another configuration.
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["identity"]["config"]["seed"] = 99
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    fresh = datacache.ensure_dataset("titan-1n", str(tmp_path), smoke=True)
    assert fresh.manifest["identity"]["config"]["seed"] == 11


def test_cluster_scratch_files_are_not_part_of_the_dataset(tmp_path):
    dataset = datacache.ensure_dataset("titan-1n", str(tmp_path), smoke=True)
    scratch = os.path.join(dataset.root, datacache.CLUSTER_DIR)
    os.makedirs(scratch)
    with open(os.path.join(scratch, "osu0.log"), "w") as handle:
        handle.write("server log")
    again = datacache.ensure_dataset("titan-1n", str(tmp_path), smoke=True)
    assert os.path.exists(os.path.join(scratch, "osu0.log"))  # kept: reused
    assert again.manifest == dataset.manifest
