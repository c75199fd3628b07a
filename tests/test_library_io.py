"""Serialization round-trips and content fingerprints for primitive
libraries, and the CSV table writer."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchcert import SwitchingSignal, load_library, load_scenario, run_scenario, save_library
from switchcert.library_io import (
    _TABLE_BLOCK,
    library_fingerprint,
    library_from_dict,
    library_to_dict,
    write_table,
    write_tables,
)

from conftest import make_pair_library, make_primitive
from switchcert import PrimitiveLibrary


def test_round_trip_preserves_every_field(tmp_path):
    library = make_pair_library()
    path = tmp_path / "library.json"
    save_library(library, path)
    loaded = load_library(path)
    assert loaded.ids == library.ids
    for a, b in zip(library, loaded):
        assert np.array_equal(a.map.linear, b.map.linear)
        assert np.array_equal(a.map.fixed_point, b.map.fixed_point)
        assert np.array_equal(a.map.disturbance_gain, b.map.disturbance_gain)
        assert (a.map.quadratic is None) == (b.map.quadratic is None)
        assert np.array_equal(a.lyapunov.weight, b.lyapunov.weight)
        assert np.array_equal(a.lyapunov.center, b.lyapunov.center)
        assert a.basin_level == b.basin_level
        assert a.contraction_rate == b.contraction_rate


def test_quadratic_part_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(3)
    quad = rng.normal(size=(2, 2, 2))
    quad = 0.5 * (quad + np.transpose(quad, (0, 2, 1)))
    library = PrimitiveLibrary((make_primitive(0, quadratic=quad),))
    path = tmp_path / "library.json"
    save_library(library, path)
    loaded = load_library(path)
    assert np.array_equal(loaded.primitives[0].map.quadratic, quad)


def test_dict_round_trip_is_identity_on_the_document(tmp_path):
    library = make_pair_library()
    doc = library_to_dict(library)
    again = library_to_dict(library_from_dict(doc))
    assert doc == again


def test_fingerprint_is_stable_across_loads(tmp_path):
    library = make_pair_library()
    fp = library_fingerprint(library)
    path = tmp_path / "library.json"
    save_library(library, path)
    assert library_fingerprint(load_library(path)) == fp
    assert len(fp) == 64 and set(fp) <= set("0123456789abcdef")


def test_fingerprint_changes_when_content_changes():
    base = make_pair_library()
    bumped = PrimitiveLibrary(
        (make_primitive(0, basin_level=2.0 + 1e-9), make_primitive(1, center=(1.0, 0.0)))
    )
    assert library_fingerprint(base) != library_fingerprint(bumped)


def test_shipped_name_loads_the_packaged_library(walker_library):
    assert library_fingerprint(load_library("shipped-walker")) == library_fingerprint(walker_library)


def test_shipped_library_matches_certificate_fingerprint(walker_library, walker_certificate):
    assert library_fingerprint(walker_library) == walker_certificate.library_fingerprint


def test_serialized_document_is_plain_json(tmp_path):
    library = make_pair_library()
    path = tmp_path / "library.json"
    save_library(library, path)
    doc = json.loads(path.read_text())
    assert isinstance(doc["primitives"], list)
    assert len(doc["primitives"]) == 2
    first = doc["primitives"][0]
    for key in (
        "id",
        "linear",
        "fixed_point",
        "disturbance_gain",
        "lyapunov_weight",
        "basin_level",
        "contraction_rate",
    ):
        assert key in first, key
    assert doc["state_dim"] == 2 and doc["dist_dim"] == 2


def test_malformed_documents_are_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    for body in (b"not json at all", b'{"primitives": ["x"]}', b'{"primitives": 5}',
                 b'{"primitives": [{"id": 0}]}', b"\xff{}"):
        bad.write_bytes(body)
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            load_library(bad)
    try:
        library_from_dict({"primitives": [{"id": 0}]})
    except ValueError:
        pass
    else:
        raise AssertionError("missing fields must raise ValueError")


def test_shipped_documents_conform_to_the_published_schema(walker_library):
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = Path(__file__).resolve().parent.parent / "docs" / "library_schema.json"
    schema = json.loads(schema_path.read_text())
    jsonschema.validate(library_to_dict(walker_library), schema)
    jsonschema.validate(library_to_dict(make_pair_library()), schema)
    try:
        jsonschema.validate({"format": "other", "primitives": []}, schema)
    except jsonschema.ValidationError:
        pass
    else:
        raise AssertionError("schema must reject a wrong format tag and empty member list")


# JSON Schema's integers and numbers exclude true and false, which Python
# reads as 1 and 0; "id": true loaded as member 1 before the loader checked.
@pytest.mark.parametrize("path", [
    ("primitives", 1, "id"),
    ("primitives", 1, "basin_level"),
    ("primitives", 1, "fixed_point", 0),
    ("primitives", 0, "lyapunov_weight", 1, 1),
    ("primitives", 2, "contraction_rate"),
    ("state_dim",),
], ids=lambda path: "/".join(map(str, path)))
def test_loader_and_schema_both_reject_booleans(walker_library, path):
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = Path(__file__).resolve().parent.parent / "docs" / "library_schema.json"
    schema = json.loads(schema_path.read_text())
    document = json.loads(json.dumps(library_to_dict(walker_library)))
    jsonschema.validate(document, schema)
    library_from_dict(document)
    *parents, last = path
    target = document
    for key in parents:
        target = target[key]
    target[last] = True
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(document, schema)
    field = next(key for key in reversed(path) if isinstance(key, str))
    with pytest.raises(ValueError, match=f"^{field} must hold numbers, not booleans$"):
        library_from_dict(document)


def csv_writer_table(path, header, columns):
    """Oracle: ``csv.writer`` rows of ``repr(float(v))`` and ``int(v)`` cells."""
    integral = [np.asarray(c).dtype.kind in "biu" for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([int(v) if whole else repr(float(v))
                             for v, whole in zip(row, integral)])


SPECIAL_FLOATS = (0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, 1e300, 5e-324, 0.1)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([0, 1, 2, 7, _TABLE_BLOCK - 1, _TABLE_BLOCK, _TABLE_BLOCK + 1, 5000]),
       st.integers(0, 2**32 - 1))
def test_write_table_matches_the_csv_writer(tmp_path_factory, rows, seed):
    rng = np.random.default_rng(seed)
    floats = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
    special = rng.random(rows) < 0.3
    floats[special] = rng.choice(SPECIAL_FLOATS, int(special.sum()))
    columns = [
        np.arange(rows),
        floats,
        rng.uniform(-1.0, 1.0, rows),
        rng.integers(-2**62, 2**62, rows),
        rng.random(rows) < 0.5,
        rng.normal(size=(rows, 2)).astype(np.float32)[:, 1],
    ]
    header = ["k", "x", "u", "n", "flag", "single"]
    directory = tmp_path_factory.mktemp("table")
    write_table(directory / "table.csv", header, columns)
    csv_writer_table(directory / "oracle.csv", header, columns)
    assert (directory / "table.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


def test_zero_row_table_is_the_header_line(tmp_path):
    write_table(tmp_path / "empty.csv", ["k", "x"], [np.arange(0), np.zeros(0)])
    assert (tmp_path / "empty.csv").read_bytes() == b"k,x\r\n"


@pytest.mark.parametrize("rows", sorted({0, 1, 511, 512, 513, 1025, _TABLE_BLOCK - 1,
                                         _TABLE_BLOCK, _TABLE_BLOCK + 1}))
def test_tables_written_together_match_each_written_alone(tmp_path, rows):
    rng = np.random.default_rng(rows)
    k = np.arange(rows)
    t = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
    x, y = rng.normal(size=(2, rows))
    flag = rng.random(rows) < 0.5
    n = rng.integers(-2**62, 2**62, rows)
    # t is shared by all three tables, k and x by two, and k twice by one.
    tables = [
        ("a.csv", ["k", "t", "x", "flag"], [k, t, x, flag]),
        ("b.csv", ["t", "y", "n"], [t, y, n]),
        ("c.csv", ["k", "t", "k_again", "x"], [k, t, k, x]),
    ]
    (tmp_path / "together").mkdir()
    (tmp_path / "alone").mkdir()
    write_tables([(tmp_path / "together" / name, header, columns)
                  for name, header, columns in tables])
    for name, header, columns in tables:
        write_table(tmp_path / "alone" / name, header, columns)
        csv_writer_table(tmp_path / f"oracle_{name}", header, columns)
        together = (tmp_path / "together" / name).read_bytes()
        assert together == (tmp_path / "alone" / name).read_bytes(), name
        assert together == (tmp_path / f"oracle_{name}").read_bytes(), name


def test_a_shared_column_is_formatted_once(tmp_path):
    class Counted:
        calls = 0

        def __init__(self, value):
            self.value = value

        def __repr__(self):
            Counted.calls += 1
            return repr(self.value)

    rows = 2 * _TABLE_BLOCK + 1
    shared = np.array([Counted(i / 3) for i in range(rows)], dtype=object)
    write_tables([(tmp_path / "a.csv", ["v"], [shared]),
                  (tmp_path / "b.csv", ["v", "w"], [shared, shared]),
                  (tmp_path / "c.csv", ["k", "v"], [np.arange(rows), shared])])
    assert Counted.calls == rows
    cells = [repr(i / 3) for i in range(rows)]
    assert (tmp_path / "b.csv").read_text().splitlines()[1:] == [f"{c},{c}" for c in cells]


def test_tables_of_unequal_length_are_rejected(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_tables([(tmp_path / "a.csv", ["k"], [np.arange(3)]),
                      (tmp_path / "b.csv", ["k"], [np.arange(4)])])
    with pytest.raises(ValueError, match="differ in length"):
        write_table(tmp_path / "c.csv", ["k", "x"], [np.arange(3), np.zeros(2)])


# Switching signals of the shipped example scenarios.  A numeric change in
# the force integral, the stride update or the policy that flips one
# decision changes these.
GOLDEN_SIGNALS = {
    "curved_leader.json": "1112200012222000122210012220",
    "straight_leader.json": "1" * 30,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SIGNALS))
def test_example_scenario_signals_are_golden(tmp_path, name):
    examples = Path(__file__).resolve().parent.parent / "docs" / "examples"
    trace = run_scenario(load_scenario(examples / name))
    trace.signal.to_csv(tmp_path / "sigma.csv")
    signal = SwitchingSignal.from_csv(tmp_path / "sigma.csv")
    assert "".join(map(str, signal.assignments.tolist())) == GOLDEN_SIGNALS[name]
