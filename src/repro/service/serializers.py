"""JSON-ready views of datasets and models.

One serializer per concept, shared by every surface that talks about it:
``dpcopula inspect --json`` and the service's ``GET /datasets/<id>``
return the same :func:`dataset_summary` document, so scripts written
against one work against the other.

A large sample's records skip Python objects altogether:
:func:`records_json` writes their JSON text straight from the int64
matrix, and the HTTP layer splices that :class:`JSONBytes` value into
the response verbatim.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.data.dataset import Dataset, Schema

#: Records of at least this many cells (rows × columns) are encoded by
#: :func:`records_json`; smaller ones keep ``tolist()``.  In process the
#: encoder already wins at 800 cells, but in a loaded server its NumPy
#: calls cost 3-4× their in-process time, so the constant sits well
#: above that (docs/PERFORMANCE.md, "Response encoding").
RECORDS_JSON_MIN_CELLS = 4096


class JSONBytes(bytes):
    """UTF-8 JSON text of one value, sent as it is.

    ``service/http.py`` splices a top-level ``JSONBytes`` value of a
    response document into the ``json.dumps`` output of the rest, so
    the body is the one ``json.dumps`` would give for the decoded value.
    """


def records_json(values: np.ndarray) -> JSONBytes:
    """A non-empty, non-negative integer matrix as JSON rows, in bytes.

    Equal to ``json.dumps(values.tolist()).encode()``, but built without
    Python objects.  Every cell gets the digit width of the matrix's
    maximum plus its two separator bytes, ``, `` (or ``],`` closing a
    row), in a fixed-width uint8 buffer; leading digit positions stay
    NUL, and ``bytes.translate`` drops every NUL at the end.  Digits
    come from repeated ``divmod`` by 10 on the narrowest unsigned dtype
    that holds the maximum.
    """
    n, m = values.shape
    top = int(values.max())
    width = len(str(top))
    quotient = values.astype(np.min_scalar_type(top))
    cell = width + 2
    # One row: "[", m cells, then " " so that rows join as "], [".
    row = np.zeros(m * cell + 2, dtype=np.uint8)
    row[0], row[-1] = ord("["), ord(" ")
    separators = row[1:-1].reshape(m, cell)[:, width:]
    separators[:] = np.frombuffer(b", ", dtype=np.uint8)
    separators[-1] = np.frombuffer(b"],", dtype=np.uint8)
    buffer = np.empty(1 + n * row.size, dtype=np.uint8)
    buffer[0] = ord("[")
    text = buffer[1:].reshape(n, row.size)
    text[:] = row
    cells = text[:, 1:-1].reshape(n, m, cell)
    digit = np.empty_like(quotient)
    for k in range(width):
        if k:
            significant = quotient != 0
        np.divmod(quotient, 10, out=(quotient, digit))
        digit += ord("0")
        if k:
            digit *= significant  # a leading zero becomes NUL
        cells[:, :, width - 1 - k] = digit
    text[-1, -2:] = (ord("]"), 0)  # the last row closes the outer list
    return JSONBytes(buffer.tobytes().translate(None, b"\0"))


def schema_spec(schema: Schema) -> list:
    """Schema as a JSON-ready ``[[name, domain_size], ...]`` list."""
    return [[a.name, a.domain_size] for a in schema]


def dataset_summary(dataset: Dataset, name: Optional[str] = None) -> Dict[str, Any]:
    """The machine-readable counterpart of ``dpcopula inspect``.

    Mirrors the human-readable output field for field: schema with
    per-attribute domain classification, the total domain space, and
    whether the hybrid method is recommended (any small-domain
    attribute present).
    """
    schema = dataset.schema
    small = set(schema.small_domain_indices())
    summary: Dict[str, Any] = {
        "n_records": dataset.n_records,
        "dimensions": schema.dimensions,
        "domain_space": schema.domain_space(),
        "attributes": [
            {
                "name": attribute.name,
                "domain_size": attribute.domain_size,
                "kind": "small-domain" if j in small else "large-domain",
            }
            for j, attribute in enumerate(schema)
        ],
        "small_domain_attributes": [schema[j].name for j in sorted(small)],
        "hybrid_recommended": bool(small),
    }
    if name is not None:
        summary["dataset_id"] = name
    return summary


def dataset_to_rows(dataset: Dataset) -> Dict[str, Any]:
    """A dataset's records as a JSON-ready columns-plus-rows document.

    ``records`` is a list of rows, or, from
    :data:`RECORDS_JSON_MIN_CELLS` cells up, the same list already
    encoded as :class:`JSONBytes` (``json.loads`` reads it back).
    """
    values = dataset.values
    if values.size >= RECORDS_JSON_MIN_CELLS:
        records: Any = records_json(values)
    else:
        records = values.tolist()
    return {
        "columns": dataset.schema.names,
        "records": records,
        "n_records": dataset.n_records,
    }
