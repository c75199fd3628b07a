"""Serialization round-trips and content fingerprints for primitive libraries."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from switchcert import (
    library_from_dict,
    library_fingerprint,
    library_to_dict,
    load_library,
    save_library,
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
