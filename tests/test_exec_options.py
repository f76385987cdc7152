"""Tests for the unified ExecOptions API and the values it accepts."""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings

import repro
from repro.core import ExecOptions, GeneratedDataset, Virtualizer, local_mount, open_dataset
from repro.core.options import DEFAULT_OPTIONS, OPTION_RULES
from repro.errors import TransportError
from repro.net import wire
from repro.obs import NULL_TRACER, Tracer
from repro.storm import Catalog, QueryService, RoundRobinPartitioner, VirtualCluster
from repro.datasets import IparsConfig, ipars
from tests.conftest import assert_tables_equal
from tests.matrix import OPTION_KINDS, option_values


class TestExecOptions:
    def test_defaults(self):
        opts = ExecOptions()
        assert opts.remote is True
        assert opts.parallel is True
        assert opts.num_clients == 1
        assert opts.partitioner is None
        assert opts.batch_rows == 65536
        assert opts.trace is None
        assert opts.coalesce_gap_bytes == 64 * 1024
        assert opts.intra_node_workers == 1
        assert opts.connect_timeout == 5.0
        assert opts.max_connections_per_node == 4
        assert opts.inflight_limit == 64
        assert DEFAULT_OPTIONS == opts

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecOptions().remote = False

    def test_replace(self):
        base = ExecOptions()
        changed = base.replace(remote=False, num_clients=4)
        assert changed.remote is False and changed.num_clients == 4
        assert base.remote is True  # original untouched

    def test_tracer_resolution(self):
        assert ExecOptions().tracer() is NULL_TRACER
        assert ExecOptions(trace=False).tracer() is NULL_TRACER
        assert isinstance(ExecOptions(trace=True).tracer(), Tracer)
        mine = Tracer()
        assert ExecOptions(trace=mine).tracer() is mine

    def test_exported_from_top_level(self):
        assert repro.ExecOptions is ExecOptions
        assert hasattr(repro, "Tracer")
        assert hasattr(repro, "Mount")


@pytest.fixture(scope="module")
def small_service(tmp_path_factory):
    root = tmp_path_factory.mktemp("exec_opts")
    config = IparsConfig(num_rels=1, num_times=4, cells_per_node=10, num_nodes=2)
    cluster = VirtualCluster.create(str(root), config.num_nodes)
    text, _ = ipars.generate(config, "L0", cluster.mount())
    service = QueryService(GeneratedDataset(text), cluster)
    yield text, cluster, service
    service.close()


class TestSubmitOptions:
    def test_options_accepted(self, small_service):
        _, _, service = small_service
        result = service.submit(
            "SELECT X FROM IparsData",
            ExecOptions(remote=True, num_clients=2,
                        partitioner=RoundRobinPartitioner()),
        )
        assert len(result.deliveries) == 2

    def test_pre_options_spellings_are_gone(self, small_service, ipars_l0):
        """The PR-1 per-method keywords were deprecation shims; they now
        fail like any other unknown argument instead of being folded
        into the options."""
        text, cluster, service = small_service
        with Catalog(cluster) as catalog:
            catalog.register(text)
            for legacy in (
                {"num_clients": 2},
                {"partitioner": RoundRobinPartitioner()},
                {"remote": False},
                {"parallel": False},
            ):
                with pytest.raises(TypeError):
                    service.submit("SELECT X FROM IparsData", **legacy)
                with pytest.raises(TypeError):
                    catalog.query("SELECT X FROM IparsData", **legacy)
        _, text, mount = ipars_l0
        with Virtualizer(text, mount) as v:
            with pytest.raises(TypeError):
                v.query_iter("SELECT X FROM IparsData", batch_rows=100)
            with pytest.raises(TypeError):
                v.query_iter("SELECT X FROM IparsData", 100)

    def test_total_stats_computed_once(self, small_service):
        _, _, service = small_service
        result = service.submit(
            "SELECT X FROM IparsData", ExecOptions(remote=False)
        )
        assert result.total_stats is result.total_stats  # cached, not rebuilt


class TestTransportOptions:
    def test_defaults_produce_no_findings(self):
        assert repro.analyze_options(ExecOptions()) == []

    def test_nonsense_knobs_flagged(self):
        for field, value in (
            ("inflight_limit", 0),
            ("max_connections_per_node", -2),
            ("connect_timeout", 0.0),
        ):
            with pytest.raises(ValueError, match=f"option '{field}' must be"):
                ExecOptions(**{field: value})

    def test_backoff_without_retries_warns(self):
        findings = repro.analyze_options(
            ExecOptions(retries=0, retry_backoff=0.5)
        )
        assert [f.code for f in findings] == ["RO303"]
        assert str(findings[0].severity) == "warning"

    def test_strict_rejects_zero_inflight(self):
        # Refused when built, whatever the mode: no transport ever sees it.
        for strict in (True, False):
            with pytest.raises(
                ValueError,
                match="option 'inflight_limit' must be a positive integer, "
                "got 0",
            ):
                ExecOptions(strict=strict, inflight_limit=0)


class TestOptionRules:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("intra_node_workers", 0),
            ("coalesce_gap_bytes", -5),
            ("batch_rows", 0),
            ("retries", -1),
            ("num_clients", 0),
            ("node_timeout", 0),
        ],
    )
    def test_values_no_query_runs_with_are_refused_when_built(
        self, field, value
    ):
        match = f"option '{field}' must be .*, got {value}"
        with pytest.raises(ValueError, match=match):
            ExecOptions(**{field: value})
        with pytest.raises(ValueError, match=match):
            DEFAULT_OPTIONS.replace(**{field: value})
        with pytest.raises(ValueError, match=match):
            repro.connect("local://nowhere", descriptor="-", **{field: value})

    def test_every_judged_field_has_a_kind_in_the_matrix(self):
        assert set(OPTION_KINDS) == set(OPTION_RULES)
        assert set(OPTION_RULES) <= {
            f.name for f in dataclasses.fields(ExecOptions)
        }
        assert len(dataclasses.fields(ExecOptions)) == 31

    def test_replace_refuses_an_unknown_field(self):
        with pytest.raises(TypeError, match="bogus"):
            DEFAULT_OPTIONS.replace(bogus=1)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(option_values())
    def test_a_field_accepts_exactly_its_values(self, case):
        name, value, accepted = case
        if accepted:
            assert getattr(ExecOptions(**{name: value}), name) == value
            changed = DEFAULT_OPTIONS.replace(**{name: value})
            assert changed == ExecOptions(**{name: value})
        else:
            with pytest.raises(ValueError, match=f"option '{name}'"):
                ExecOptions(**{name: value})
            with pytest.raises(ValueError, match=f"option '{name}'"):
                DEFAULT_OPTIONS.replace(**{name: value})

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(option_values(fields=wire._NODE_OPTION_FIELDS))
    def test_a_node_refuses_exactly_what_the_constructor_refuses(self, case):
        name, value, _ = case
        try:
            options = ExecOptions(**{name: value})
        except ValueError as exc:
            with pytest.raises(TransportError) as refused:
                wire.decode_options({name: value})
            assert str(refused.value) == f"malformed EXECUTE: {exc}"
        else:
            # A NumPy scalar crosses as the plain int or str it equals.
            sent = json.loads(json.dumps(wire.encode_options(options)))
            decoded = getattr(wire.decode_options(sent), name)
            assert decoded == value
            assert type(decoded) is (str if name == "vectorize" else int)


class TestVirtualizerOptions:
    def test_query_iter_options_no_warning(self, ipars_l0, recwarn):
        _, text, mount = ipars_l0
        with Virtualizer(text, mount) as v:
            batches = list(
                v.query_iter(
                    "SELECT X FROM IparsData",
                    options=ExecOptions(batch_rows=100),
                )
            )
        assert len(batches) > 1
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_query_accepts_options(self, ipars_l0):
        _, text, mount = ipars_l0
        with Virtualizer(text, mount) as v:
            plain = v.query("SELECT X FROM IparsData WHERE TIME = 1")
            traced = v.query(
                "SELECT X FROM IparsData WHERE TIME = 1",
                options=ExecOptions(trace=True),
            )
        assert_tables_equal(plain, traced)


class TestPathlibSupport:
    def test_local_mount_accepts_path(self, tmp_path):
        mount = local_mount(pathlib.Path(tmp_path))
        assert isinstance(mount("osu0", "x"), str)

    def test_open_dataset_accepts_path(self, ipars_l0, tmp_path):
        _, text, _ = ipars_l0
        # The ipars_l0 mount is rooted where generate() wrote; rebuild the
        # same root as a Path through the mount callable's closure-free API.
        config = IparsConfig(
            num_rels=1, num_times=2, cells_per_node=5, num_nodes=1
        )
        mount = local_mount(str(tmp_path))
        text2, _ = ipars.generate(config, "L0", mount)
        v = open_dataset(text2, pathlib.Path(tmp_path))
        try:
            assert v.query("SELECT X FROM IparsData").num_rows > 0
        finally:
            v.close()

    def test_codegen_path_accepts_path(self, tmp_path):
        config = IparsConfig(
            num_rels=1, num_times=2, cells_per_node=5, num_nodes=1
        )
        mount = local_mount(str(tmp_path))
        text, _ = ipars.generate(config, "L0", mount)
        out = pathlib.Path(tmp_path) / "gen.py"
        with Virtualizer(text, mount, codegen_path=out) as v:
            assert v.query("SELECT X FROM IparsData").num_rows > 0
        assert out.exists()
