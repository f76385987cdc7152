"""Tests for the command-line interface."""

import io
import json
import os

import numpy as np
import pytest

from repro.cli import main
from tests.conftest import PAPER_DESCRIPTOR


@pytest.fixture(scope="module")
def desc_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ipars.desc"
    path.write_text(PAPER_DESCRIPTOR)
    return str(path)


@pytest.fixture(scope="module")
def data_root(paper_dataset):
    _, mount = paper_dataset
    # The mount maps (node, path) under a root; recover the root.
    return os.path.dirname(mount("osu0", "x")[: -len("/x")])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys, desc_file):
        code, out, _ = run(capsys, "validate", desc_file)
        assert code == 0
        assert "descriptor OK" in out
        assert "physical files: 20" in out
        assert "consistent groups: 16" in out

    def test_invalid_descriptor(self, capsys, tmp_path):
        bad = tmp_path / "bad.desc"
        bad.write_text("[S]\nX = float\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nope/nothing.desc")
        assert code == 1


class TestInventory:
    def test_listing(self, capsys, desc_file):
        code, out, _ = run(capsys, "inventory", desc_file)
        assert code == 0
        assert out.count("\n") >= 20
        assert "DIRID=0" in out and "REL=3" in out

    def test_check_ok(self, capsys, desc_file, data_root):
        code, out, _ = run(
            capsys, "inventory", desc_file, "--root", data_root, "--check"
        )
        assert code == 0
        assert "20/20 files match" in out

    def test_check_detects_problems(self, capsys, desc_file, tmp_path):
        code, out, _ = run(
            capsys, "inventory", desc_file, "--root", str(tmp_path), "--check"
        )
        assert code == 1
        assert "MISSING" in out


class TestCodegen:
    def test_stdout(self, capsys, desc_file):
        code, out, _ = run(capsys, "codegen", desc_file)
        assert code == 0
        assert "def index(ranges" in out

    def test_output_file(self, capsys, desc_file, tmp_path):
        target = tmp_path / "gen.py"
        code, out, _ = run(capsys, "codegen", desc_file, "-o", str(target))
        assert code == 0
        compile(target.read_text(), str(target), "exec")


class TestQuery:
    def test_table_format(self, capsys, desc_file, data_root):
        code, out, _ = run(
            capsys, "query", desc_file,
            "SELECT REL, TIME, SOIL FROM IparsData WHERE TIME = 1 AND REL = 0",
            "--root", data_root, "--limit", "5",
        )
        assert code == 0
        assert "(40 rows)" in out
        assert "more rows" in out

    def test_csv_format(self, capsys, desc_file, data_root):
        code, out, _ = run(
            capsys, "query", desc_file,
            "SELECT REL, TIME FROM IparsData WHERE TIME = 2 AND REL = 1",
            "--root", data_root, "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "REL,TIME"
        assert len(lines) == 1 + 40
        assert lines[1] == "1,2"

    def test_npz_format(self, capsys, desc_file, data_root, tmp_path):
        target = str(tmp_path / "result.npz")
        code, out, _ = run(
            capsys, "query", desc_file,
            "SELECT X FROM IparsData WHERE TIME = 1 AND REL = 0",
            "--root", data_root, "--format", "npz", "-o", target,
        )
        assert code == 0
        from repro.core.table import VirtualTable

        table = VirtualTable.load_npz(target)
        assert table.num_rows == 40

    def test_interpreted_flag(self, capsys, desc_file, data_root):
        code, out, _ = run(
            capsys, "query", desc_file,
            "SELECT REL FROM IparsData WHERE TIME = 1 AND REL = 2",
            "--root", data_root, "--interpreted", "--format", "csv",
        )
        assert code == 0
        assert out.strip().splitlines()[1] == "2"

    def test_bad_sql(self, capsys, desc_file, data_root):
        code, _, err = run(
            capsys, "query", desc_file, "SELECT FROM",
            "--root", data_root,
        )
        assert code == 1
        assert "error:" in err


class TestChaos:
    SQL = "SELECT REL, TIME, SOIL FROM IparsData"

    def test_node_down_profile_degrades(self, capsys, desc_file, data_root):
        code, out, _ = run(
            capsys, "chaos", desc_file, self.SQL, "--root", data_root,
            "--profile", "node-down", "--local", "--backoff", "0",
        )
        assert code == 3
        assert "DEGRADED result: lost osu0" in out
        assert "node-down x" in out
        assert "retries attempted: 2" in out

    def test_flaky_open_profile_recovers(self, capsys, desc_file, data_root):
        code, out, _ = run(
            capsys, "chaos", desc_file, self.SQL, "--root", data_root,
            "--profile", "flaky-open", "--local", "--backoff", "0",
        )
        assert code == 0
        assert "full result survived" in out
        assert "raise-on-open x2" in out

    def test_rule_spec_and_no_partial_fails(self, capsys, desc_file,
                                            data_root):
        code, out, err = run(
            capsys, "chaos", desc_file, self.SQL, "--root", data_root,
            "--rule", "node-down:osu1", "--no-partial", "--local",
            "--retries", "1", "--backoff", "0",
        )
        assert code == 1
        assert "query FAILED" in err
        assert "osu1" in err

    def test_no_rules_is_usage_error(self, capsys, desc_file, data_root):
        code, _, err = run(
            capsys, "chaos", desc_file, self.SQL, "--root", data_root,
        )
        assert code == 2
        assert "no fault rules" in err

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("chaos", ["--profile", "node-down", "--clients", "0"],
             "option 'num_clients' must be a positive integer, got 0"),
            ("chaos", ["--profile", "node-down", "--node-timeout", "0"],
             "option 'node_timeout' must be a positive number or None, "
             "got 0.0"),
            ("cluster", ["--retries", "-1"],
             "option 'retries' must be a non-negative integer, got -1"),
            ("trace", ["--clients", "0"],
             "option 'num_clients' must be a positive integer, got 0"),
        ],
    )
    def test_refused_option_values_are_usage_errors(
        self, capsys, tmp_path, command, flags, message
    ):
        # The descriptor does not exist: the value is refused (exit 2)
        # before anything is read, compiled or launched (else exit 1).
        code, out, err = run(
            capsys, command, str(tmp_path / "missing.desc"), self.SQL,
            "--root", str(tmp_path), *flags,
        )
        assert code == 2
        assert err.strip() == f"error: {message}"
        assert out == ""

    def test_bad_rule_spec_reports_error(self, capsys, desc_file, data_root):
        code, _, err = run(
            capsys, "chaos", desc_file, self.SQL, "--root", data_root,
            "--rule", "disk-melt",
        )
        assert code == 1
        assert "unknown fault kind" in err


class TestExplain:
    def test_plan_summary(self, capsys, desc_file):
        code, out, _ = run(
            capsys, "explain", desc_file,
            "SELECT * FROM IparsData WHERE TIME <= 5",
        )
        assert code == 0
        assert "AFCs planned: 80" in out


class TestXmlCommands:
    def test_to_xml_and_query_roundtrip(self, capsys, desc_file, data_root,
                                        tmp_path):
        code, xml, _ = run(capsys, "to-xml", desc_file)
        assert code == 0
        xml_file = tmp_path / "ipars.xml"
        xml_file.write_text(xml)
        # The query command accepts XML descriptors transparently.
        code, out, _ = run(
            capsys, "query", str(xml_file),
            "SELECT REL FROM IparsData WHERE TIME = 1 AND REL = 3",
            "--root", data_root, "--format", "csv",
        )
        assert code == 0
        assert out.strip().splitlines()[1] == "3"

    def test_from_xml_summary(self, capsys, desc_file, tmp_path):
        _, xml, _ = run(capsys, "to-xml", desc_file)
        xml_file = tmp_path / "d.xml"
        xml_file.write_text(xml)
        code, out, _ = run(capsys, "from-xml", str(xml_file))
        assert code == 0
        assert "[IPARS]" in out


class TestVerifyData:
    @pytest.fixture
    def titan_files(self, titan_small, tmp_path):
        config, text, mount, summaries = titan_small
        desc = tmp_path / "titan.desc"
        desc.write_text(text)
        root = os.path.dirname(mount("osu0", "x")[: -len("/x")])
        summ_file = str(tmp_path / "summ.json")
        summaries.save(summ_file)
        return config, str(desc), root, summ_file, mount

    def test_clean_data_verifies(self, capsys, titan_files):
        _, desc, root, summ_file, _ = titan_files
        code, out, _ = run(
            capsys, "verify-data", desc, "--root", root,
            "--summaries", summ_file,
        )
        assert code == 0
        assert "0 mismatch(es)" in out

    def test_detects_stale_summaries(self, capsys, titan_files, tmp_path):
        import shutil
        import numpy as np

        config, desc, root, summ_file, mount = titan_files
        # Corrupt a copy of the data: overwrite part of one node's file.
        copy_root = str(tmp_path / "tampered")
        shutil.copytree(root, copy_root)
        victim = os.path.join(copy_root, "osu0", config.dirname, "chunks.bin")
        with open(victim, "r+b") as handle:
            handle.write(np.full(64, 9e9, dtype="<f4").tobytes())
        code, out, _ = run(
            capsys, "verify-data", desc, "--root", copy_root,
            "--summaries", summ_file,
        )
        assert code == 1
        assert "STALE" in out

    def test_missing_and_orphaned_do_not_cancel(self, capsys, titan_files):
        _, desc, root, summ_file, _ = titan_files
        with open(summ_file) as handle:
            payload = json.load(handle)
        dropped = payload["chunks"].pop()
        payload["chunks"].append(dict(dropped, path="bogus.bin"))
        with open(summ_file, "w") as handle:
            json.dump(payload, handle)
        code, out, _ = run(
            capsys, "verify-data", desc, "--root", root,
            "--summaries", summ_file,
        )
        assert code == 1
        assert "MISSING" in out
        assert "1 orphaned summaries" in out

    def test_a_bound_off_by_less_than_1e_9_is_stale(self, capsys, tmp_path):
        # A stored min of 5e-10 over data whose min is 1e-12 wrongly
        # prunes ``WHERE V < 1e-10``: bounds are compared exactly.
        from tests.test_index_summaries import one_column_dataset

        text, _ = one_column_dataset(
            tmp_path, "double", [[1e-12, 0.5], [0.25, 0.75]]
        )
        desc = tmp_path / "d.desc"
        desc.write_text(text)
        summ_file = str(tmp_path / "summ.json")
        code, _, _ = run(
            capsys, "index-build", str(desc), "--root", str(tmp_path),
            "-o", summ_file,
        )
        assert code == 0
        args = ("verify-data", str(desc), "--root", str(tmp_path),
                "--summaries", summ_file)
        assert run(capsys, *args)[0] == 0
        with open(summ_file) as handle:
            payload = json.load(handle)
        bounds = payload["chunks"][0]["bounds"]["V"]
        assert bounds[0] == 1e-12
        bounds[0] = 5e-10
        with open(summ_file, "w") as handle:
            json.dump(payload, handle)
        code, out, _ = run(capsys, *args)
        assert code == 1
        assert "STALE" in out and "1 mismatch(es)" in out

    def test_missing_summary_file(self, capsys, titan_files):
        _, desc, root, _, _ = titan_files
        code, _, err = run(
            capsys, "verify-data", desc, "--root", root,
            "--summaries", "/nope.json",
        )
        assert code == 2
        assert "index-build" in err


class TestIndexBuild:
    def test_builds_and_persists(self, capsys, titan_small, tmp_path):
        config, text, mount, _ = titan_small
        desc = tmp_path / "titan.desc"
        desc.write_text(text)
        root = os.path.dirname(mount("osu0", "x")[: -len("/x")])
        out_file = str(tmp_path / "summ.json")
        code, out, _ = run(
            capsys, "index-build", str(desc), "--root", root, "-o", out_file
        )
        assert code == 0
        assert f"built {config.total_chunks} chunk summaries" in out
        payload = json.load(open(out_file))
        assert len(payload["chunks"]) == config.total_chunks
