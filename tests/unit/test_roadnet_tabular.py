"""Tabular network ingest/export: lossless round trips and hard validation.

Two guarantees under test.  First, ``export_network`` -> ``load_network`` is
the identity for *every* builder in the registry — nodes, segments (lengths,
lanes, speeds), gates and positions all survive JSON and CSV serialization,
including tuple node ids like ``(row, col)``.  Second, the loader rejects
malformed tables with a :class:`RoadNetworkError` that names the offending
row, never a raw ``KeyError`` — hand-authored data deserves an error message
that says which line to fix.
"""

import json
from pathlib import Path

import pytest

from repro.errors import RoadNetworkError
from repro.roadnet.registry import NetworkSpec, builder_names
from repro.roadnet.tabular import (
    FORMAT_TAG,
    export_network,
    load_network,
    network_from_tables,
    network_to_tables,
)

# One small, cheap configuration per registry builder.  "tabular" itself is
# covered by the file round-trip tests below (it needs a file to load).
BUILDER_SPECS = {
    "triangle": NetworkSpec("triangle"),
    "line": NetworkSpec("line", (4,)),
    "grid": NetworkSpec("grid", (3, 3), {"gates_on_border": True}),
    "ring": NetworkSpec("ring", (5,), {"one_way": True}),
    "star": NetworkSpec("star", (3,)),
    "arterial": NetworkSpec("arterial", (2, 4), {"gates_at_ends": True}),
    "two-district": NetworkSpec("two-district", (2, 3)),
    "random-planar": NetworkSpec("random-planar", (12,), {"seed": 3}),
    "midtown": NetworkSpec("midtown", (), {"scale": 0.25}),
    "synthetic-city": NetworkSpec(
        "synthetic-city", (2, 4), {"gates": 2, "seed": 1}
    ),
}


def test_every_registry_builder_is_covered():
    assert set(BUILDER_SPECS) | {"tabular"} == set(builder_names())


def _assert_same_network(a, b):
    assert b.nodes == a.nodes
    assert [s.key for s in b.segments()] == [s.key for s in a.segments()]
    for sa, sb in zip(a.segments(), b.segments()):
        assert sb.length_m == pytest.approx(sa.length_m)
        assert sb.lanes == sa.lanes
        assert sb.speed_limit_mps == pytest.approx(sa.speed_limit_mps)
    assert b.gates == a.gates
    assert b.positions() == a.positions()


@pytest.mark.parametrize("builder", sorted(BUILDER_SPECS))
def test_json_round_trip_per_builder(builder, tmp_path):
    net = BUILDER_SPECS[builder].build()
    (path,) = export_network(net, str(tmp_path / "net.json"))
    _assert_same_network(net, load_network(path))


@pytest.mark.parametrize("builder", sorted(BUILDER_SPECS))
def test_csv_round_trip_per_builder(builder, tmp_path):
    net = BUILDER_SPECS[builder].build()
    nodes_path, links_path = export_network(net, str(tmp_path / "net"), fmt="csv")
    # Loading from either file of the pair works.
    _assert_same_network(net, load_network(nodes_path))
    _assert_same_network(net, load_network(links_path))


def test_document_round_trip_is_exact():
    net = BUILDER_SPECS["grid"].build()
    rebuilt = network_from_tables(network_to_tables(net))
    _assert_same_network(net, rebuilt)
    assert rebuilt.name == net.name
    assert rebuilt.is_open_system == net.is_open_system


def test_bare_prefix_dispatch(tmp_path):
    net = BUILDER_SPECS["triangle"].build()
    export_network(net, str(tmp_path / "tri"), fmt="csv")
    _assert_same_network(net, load_network(str(tmp_path / "tri")))


def test_loaded_network_is_frozen(tmp_path):
    (path,) = export_network(BUILDER_SPECS["triangle"].build(), str(tmp_path / "t.json"))
    net = load_network(path)
    with pytest.raises(RoadNetworkError):
        net.add_segment(1, 99, 10.0)


def test_network_spec_tabular_builder(tmp_path):
    original = BUILDER_SPECS["grid"].build()
    (path,) = export_network(original, str(tmp_path / "g.json"))
    spec = NetworkSpec("tabular", kwargs={"path": path})
    _assert_same_network(original, spec.build())
    # The spec survives its own JSON round trip (how it rides in
    # ExperimentSpec files and sweep stores).
    _assert_same_network(original, NetworkSpec.from_dict(spec.to_dict()).build())


# ------------------------------------------------------- validation rejections
def _doc(nodes, links, **extra):
    doc = {"format": FORMAT_TAG, "name": "t", "nodes": nodes, "links": links}
    doc.update(extra)
    return doc


def _ring_doc():
    """A minimal valid 3-cycle to mutate per test."""
    nodes = [{"id": k} for k in (1, 2, 3)]
    links = [
        {"a": 1, "b": 2, "length_m": 100.0},
        {"a": 2, "b": 3, "length_m": 100.0},
        {"a": 3, "b": 1, "length_m": 100.0},
    ]
    return _doc(nodes, links)


class TestValidation:
    def test_minimal_ring_is_valid(self):
        net = network_from_tables(_ring_doc())
        assert net.num_nodes == 3 and net.num_segments == 3

    def test_bad_format_tag(self):
        doc = _ring_doc()
        doc["format"] = "somebody-elses/9"
        with pytest.raises(RoadNetworkError, match="unsupported network format"):
            network_from_tables(doc)

    def test_empty_tables(self):
        with pytest.raises(RoadNetworkError, match="non-empty 'nodes'"):
            network_from_tables(_doc([], _ring_doc()["links"]))
        with pytest.raises(RoadNetworkError, match="non-empty 'links'"):
            network_from_tables(_doc(_ring_doc()["nodes"], []))

    def test_missing_id(self):
        doc = _ring_doc()
        del doc["nodes"][1]["id"]
        with pytest.raises(RoadNetworkError, match="nodes row 1: missing 'id'"):
            network_from_tables(doc)

    def test_duplicate_node_names_both_rows(self):
        doc = _ring_doc()
        doc["nodes"].append({"id": 2})
        with pytest.raises(
            RoadNetworkError, match="nodes row 3: node 2 already declared in row 1"
        ):
            network_from_tables(doc)

    def test_position_needs_both_axes(self):
        doc = _ring_doc()
        doc["nodes"][0]["x"] = 5.0
        with pytest.raises(RoadNetworkError, match="'x' and 'y' must both"):
            network_from_tables(doc)

    def test_gate_with_both_flags_cleared(self):
        doc = _ring_doc()
        doc["nodes"][0]["gate"] = {"inbound": False, "outbound": False}
        with pytest.raises(RoadNetworkError, match="at least one of inbound/outbound"):
            network_from_tables(doc)

    def test_undeclared_node_reference_names_row_and_column(self):
        doc = _ring_doc()
        doc["links"][2]["b"] = 9
        with pytest.raises(
            RoadNetworkError,
            match=r"links row 2 \(3->9\): column 'b' references undeclared node 9",
        ):
            network_from_tables(doc)

    def test_redeclared_link_names_prior_row(self):
        doc = _ring_doc()
        doc["links"].append({"a": 1, "b": 2, "length_m": 50.0})
        with pytest.raises(
            RoadNetworkError, match="links row 3 .* already declared in row 0"
        ):
            network_from_tables(doc)

    def test_self_loop_rejected(self):
        doc = _ring_doc()
        doc["links"][0]["b"] = 1
        with pytest.raises(RoadNetworkError, match="self-loop"):
            network_from_tables(doc)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("length_m", -3.0, "non-positive length"),
            ("length_m", "soon", "must be numeric"),
            ("lanes", 0, "at least one lane"),
            ("speed_limit_mps", 0.0, "non-positive speed"),
        ],
    )
    def test_bad_link_numbers(self, field, value, message):
        doc = _ring_doc()
        doc["links"][1][field] = value
        with pytest.raises(RoadNetworkError, match=message):
            network_from_tables(doc)

    def test_missing_link_column(self):
        doc = _ring_doc()
        del doc["links"][0]["length_m"]
        with pytest.raises(RoadNetworkError, match="links row 0: missing 'length_m'"):
            network_from_tables(doc)

    def test_inbound_gate_needs_outbound_link(self):
        # 1 -> 2 -> 3 -> 1 one-way ring: every node has exactly one outbound
        # and one inbound link, so drop the outbound of a gated node.
        doc = _ring_doc()
        doc["nodes"].append({"id": 4, "gate": {"inbound": True, "outbound": False}})
        doc["links"].append({"a": 1, "b": 4, "length_m": 10.0})
        with pytest.raises(
            RoadNetworkError, match="inbound gate needs an outbound link"
        ):
            network_from_tables(doc)

    def test_outbound_gate_needs_inbound_link(self):
        doc = _ring_doc()
        doc["nodes"].append({"id": 4, "gate": {"inbound": False, "outbound": True}})
        doc["links"].append({"a": 4, "b": 1, "length_m": 10.0})
        with pytest.raises(
            RoadNetworkError, match="outbound gate needs an inbound link"
        ):
            network_from_tables(doc)

    def test_dangling_node_names_row(self):
        doc = _ring_doc()
        doc["nodes"].append({"id": "island"})
        with pytest.raises(
            RoadNetworkError, match="nodes row 3: node 'island' has no outbound"
        ):
            network_from_tables(doc)

    def test_weak_connectivity_reports_components(self):
        # Two 2-cycles joined by a single one-way bridge: weakly but not
        # strongly connected, so the report must count both components.
        nodes = [{"id": k} for k in (1, 2, 3, 4)]
        links = [
            {"a": 1, "b": 2, "length_m": 10.0},
            {"a": 2, "b": 1, "length_m": 10.0},
            {"a": 3, "b": 4, "length_m": 10.0},
            {"a": 4, "b": 3, "length_m": 10.0},
            {"a": 2, "b": 3, "length_m": 10.0},
        ]
        with pytest.raises(
            RoadNetworkError, match="not strongly connected: 2 components"
        ):
            network_from_tables(_doc(nodes, links))


# ------------------------------------------------------------ file-level errors
class TestFileErrors:
    def test_missing_json_file(self, tmp_path):
        with pytest.raises(RoadNetworkError, match="not found"):
            load_network(str(tmp_path / "nope.json"))

    def test_missing_csv_partner(self, tmp_path):
        (tmp_path / "half.nodes.csv").write_text("id,x,y\n")
        with pytest.raises(RoadNetworkError, match="not found"):
            load_network(str(tmp_path / "half.nodes.csv"))

    def test_invalid_json_document(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(RoadNetworkError, match="not valid JSON"):
            load_network(str(path))

    def test_csv_header_missing_required_column(self, tmp_path):
        (tmp_path / "h.nodes.csv").write_text("x,y\n1,2\n")
        (tmp_path / "h.links.csv").write_text("a,b,length_m\n")
        with pytest.raises(RoadNetworkError, match="missing required column"):
            load_network(str(tmp_path / "h"))

    def test_csv_unquoted_string_id_gets_actionable_error(self, tmp_path):
        (tmp_path / "q.nodes.csv").write_text("id,x,y\nhub,0,0\n")
        (tmp_path / "q.links.csv").write_text("a,b,length_m\n")
        with pytest.raises(RoadNetworkError, match="JSON-encoded per cell"):
            load_network(str(tmp_path / "q"))

    def test_csv_bad_gate_flag(self, tmp_path):
        (tmp_path / "g.nodes.csv").write_text(
            "id,x,y,gate_inbound,gate_outbound,gate_name\n1,0,0,maybe,,\n"
        )
        (tmp_path / "g.links.csv").write_text("a,b,length_m\n")
        with pytest.raises(RoadNetworkError, match="must be true/false"):
            load_network(str(tmp_path / "g"))

    def test_nothing_found_for_bare_prefix(self, tmp_path):
        with pytest.raises(RoadNetworkError, match="no network tables found"):
            load_network(str(tmp_path / "ghost"))

    def test_unknown_export_format(self, tmp_path):
        with pytest.raises(RoadNetworkError, match="unknown network export format"):
            export_network(
                BUILDER_SPECS["triangle"].build(), str(tmp_path / "x"), fmt="xml"
            )


# ---------------------------------------------------------------- parquet gate
def test_parquet_round_trip_or_actionable_gate(tmp_path):
    """With pyarrow installed the parquet pair round-trips; without it the
    error says to use JSON/CSV instead of dying on an ImportError."""
    net = BUILDER_SPECS["grid"].build()
    try:
        import pyarrow  # noqa: F401
    except ImportError:
        with pytest.raises(RoadNetworkError, match="optional 'pyarrow'"):
            export_network(net, str(tmp_path / "p"), fmt="parquet")
        return
    paths = export_network(net, str(tmp_path / "p"), fmt="parquet")
    assert len(paths) == 2
    _assert_same_network(net, load_network(paths[0]))


def test_exported_json_is_stable(tmp_path):
    """Export is deterministic byte for byte (sorted keys, fixed order)."""
    net = BUILDER_SPECS["ring"].build()
    (a,) = export_network(net, str(tmp_path / "a.json"))
    (b,) = export_network(net, str(tmp_path / "b.json"))
    text = Path(a).read_text()
    assert text == Path(b).read_text()
    doc = json.loads(text)
    assert doc["format"] == FORMAT_TAG
