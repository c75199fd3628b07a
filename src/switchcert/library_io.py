"""Document I/O: the one JSON reader and writer, the one CSV writer, and
the library format.

``read_document`` and ``write_document`` are the only places the package
reads or writes a JSON document (libraries, certificates, scenario configs,
reports and manifests); ``write_tables`` writes every CSV table, and
``write_table`` is its one-table case.  The library format stores matrices
as row-major nested lists of IEEE-754 doubles.
``library_fingerprint`` hashes the canonical serialization so certificates
can be pinned to the exact library they were computed for.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .primitives import Primitive, PrimitiveLibrary, PrimitiveMap, QuadraticLyapunov

FORMAT_NAME = "switchcert-library"
FORMAT_VERSION = 1

SHIPPED_LIBRARY = "shipped-walker"
SHIPPED_CERTIFICATE = "shipped"
SHIPPED_STRIDES = "shipped-strides"
# Source names that stand for a document packaged in ``switchcert/data``.
_SHIPPED_FILES = {
    SHIPPED_LIBRARY: "walker_library.json",
    SHIPPED_CERTIFICATE: "walker_certificate.json",
    SHIPPED_STRIDES: "walker_strides.json",
}


def read_document(source: str | Path, parse: Callable) -> tuple:
    """Read one JSON document and return ``(parse(document), raw bytes)``.

    ``source`` is a shipped name (``"shipped-walker"``, ``"shipped"``,
    ``"shipped-strides"``) or a path.  The bytes are read once and parsed
    once, so a caller that hashes the returned bytes hashes exactly what it
    parsed.  A document that is not UTF-8 JSON, or that ``parse`` rejects
    with ``ValueError``, ``KeyError`` or ``TypeError``, raises ``ValueError``
    naming the source; a file that cannot be read raises ``OSError``.
    """
    shipped = _SHIPPED_FILES.get(str(source))
    if shipped is not None:
        raw = resources.files(__package__).joinpath("data", shipped).read_bytes()
    else:
        raw = Path(source).read_bytes()
    try:
        return parse(json.loads(raw.decode())), raw
    except KeyError as exc:
        raise ValueError(f"{source}: missing field {exc}") from exc
    except (ValueError, TypeError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise ValueError(f"{source}: {exc}") from exc


def write_document(path: str | Path, document: dict) -> None:
    """Write ``document`` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


# Rows per block of ``write_tables``.  One block's cells, row strings and
# text are alive at once: writing a scenario bundle peaks at about 0.26 MB
# (tracemalloc) with 256 rows and 0.44 MB with 512, and the larger block
# is no faster.
_TABLE_BLOCK = 256


def write_table(path: str | Path, header: list[str], columns) -> None:
    """Write equal-length columns under a header row as CSV: floats as their
    ``repr`` (the shortest text that reads back to the same double), integer
    and boolean columns as integers, ``,`` between cells and ``\\r\\n`` after
    each line, as ``csv.writer`` writes them.  Rows go out in blocks of
    ``_TABLE_BLOCK``.  This is the one-table case of ``write_tables``."""
    write_tables([(path, header, columns)])


def write_tables(tables) -> None:
    """Write several ``(path, header, columns)`` tables whose columns all
    have the same length, each file exactly as ``write_table`` writes it.

    The tables go out together, one block of ``_TABLE_BLOCK`` rows at a
    time.  A column passed to more than one table (or twice to one) as the
    same object is formatted once per block and its cells are joined into
    every row that shows it; every other column is formatted lazily as its
    rows are joined.  So only one block's cells are ever held, and a shared
    column costs one ``repr`` per value however many tables show it.
    """
    tables = [(path, header, list(columns)) for path, header, columns in tables]
    arrays, uses = {}, {}  # by id of the column as passed
    for _, _, columns in tables:
        for column in columns:
            key = id(column)
            if key not in arrays:
                values = np.asarray(column)
                arrays[key] = values, "{:d}".format if values.dtype.kind in "biu" else repr
            uses[key] = uses.get(key, 0) + 1
    lengths = {len(values) for values, _ in arrays.values()}
    if len(lengths) > 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    rows = lengths.pop() if lengths else 0
    shared = [key for key, count in uses.items() if count > 1]

    def formatted(key, start):
        values, cell = arrays[key]
        return map(cell, values[start:start + _TABLE_BLOCK].tolist())

    with contextlib.ExitStack() as stack:
        bodies = []
        for path, header, columns in tables:
            fh = stack.enter_context(open(path, "w", newline=""))
            fh.write(",".join(header) + "\r\n")
            bodies.append((fh, [id(column) for column in columns]))
        for start in range(0, rows, _TABLE_BLOCK):
            cells = {key: list(formatted(key, start)) for key in shared}
            for fh, keys in bodies:
                block = [cells[key] if key in cells else formatted(key, start) for key in keys]
                fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def primitive_to_dict(primitive: Primitive) -> dict:
    m = primitive.map
    return {
        "id": primitive.id,
        "fixed_point": m.fixed_point.tolist(),
        "linear": m.linear.tolist(),
        "quadratic": None if m.quadratic is None else m.quadratic.tolist(),
        "disturbance_gain": m.disturbance_gain.tolist(),
        "lyapunov_weight": primitive.lyapunov.weight.tolist(),
        "basin_level": primitive.basin_level,
        "contraction_rate": primitive.contraction_rate,
    }


def _reject_booleans(data: dict, names) -> None:
    """Raise ``ValueError`` naming the first of ``names`` that holds a JSON
    true or false at any depth, which the schema's numbers exclude."""
    def has_bool(value) -> bool:
        return isinstance(value, bool) or isinstance(value, list) and any(map(has_bool, value))
    for name in names:
        if has_bool(data.get(name)):
            raise ValueError(f"{name} must hold numbers, not booleans")


def primitive_from_dict(data: dict) -> Primitive:
    if not isinstance(data, dict):
        raise ValueError("primitive entry must be an object")
    _reject_booleans(data, ("id", "fixed_point", "linear", "quadratic", "disturbance_gain",
                            "lyapunov_weight", "basin_level", "contraction_rate"))
    try:
        fixed_point = np.array(data["fixed_point"], dtype=float)
        pm = PrimitiveMap(
            linear=np.array(data["linear"], dtype=float),
            fixed_point=fixed_point,
            disturbance_gain=np.array(data["disturbance_gain"], dtype=float),
            quadratic=None if data.get("quadratic") is None else np.array(data["quadratic"], dtype=float),
        )
        lyap = QuadraticLyapunov(weight=np.array(data["lyapunov_weight"], dtype=float), center=fixed_point)
        return Primitive(
            id=data["id"],
            map=pm,
            lyapunov=lyap,
            basin_level=data["basin_level"],
            contraction_rate=data["contraction_rate"],
        )
    except KeyError as exc:
        raise ValueError(f"primitive entry is missing field {exc}") from exc


def library_to_dict(library: PrimitiveLibrary) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "state_dim": library.state_dim,
        "dist_dim": library.dist_dim,
        "primitives": [primitive_to_dict(p) for p in library],
    }


def library_from_dict(data: dict) -> PrimitiveLibrary:
    if not isinstance(data, dict) or "primitives" not in data:
        raise ValueError("library document must be an object with a 'primitives' array")
    if data.get("format", FORMAT_NAME) != FORMAT_NAME:
        raise ValueError(f"unrecognized library format {data.get('format')!r}")
    _reject_booleans(data, ("version", "state_dim", "dist_dim"))
    library = PrimitiveLibrary(tuple(primitive_from_dict(entry) for entry in data["primitives"]))
    for key, want in (("state_dim", library.state_dim), ("dist_dim", library.dist_dim)):
        if key in data and data[key] != want:
            raise ValueError(f"declared {key}={data[key]} does not match primitives ({want})")
    return library


def library_fingerprint(library: PrimitiveLibrary) -> str:
    """Content hash of the canonical serialization (sha256 hex digest)."""
    canonical = json.dumps(library_to_dict(library), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def save_library(library: PrimitiveLibrary, path: str | Path) -> None:
    write_document(path, library_to_dict(library))


def load_library(source: str | Path) -> PrimitiveLibrary:
    """Load a library from a path, or the packaged one as ``"shipped-walker"``."""
    return read_document(source, library_from_dict)[0]
