"""The records encoder: ``json.dumps(values.tolist())`` is the reference."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.dataset import Attribute, Dataset, Schema
from repro.service import dataset_to_rows, serializers
from repro.service.serializers import RECORDS_JSON_MIN_CELLS, JSONBytes, records_json

INT64_MAX = 2**63 - 1


def reference(values: np.ndarray) -> bytes:
    return json.dumps(values.tolist()).encode("utf-8")


class TestRecordsJson:
    @pytest.mark.parametrize("n", [1, 2, 25, 1_000])
    @pytest.mark.parametrize("m", [1, 2, 16, 64])
    @pytest.mark.parametrize(
        "top", [0, 9, 10, 99, 100, 499, 99_999, 2**32, INT64_MAX]
    )
    def test_matches_json_dumps(self, n, m, top):
        rng = np.random.default_rng([n, m, top % 997])
        values = rng.integers(0, top, size=(n, m), dtype=np.int64, endpoint=True)
        values[rng.integers(n), rng.integers(m)] = top  # the column maximum
        encoded = records_json(values)
        assert type(encoded) is JSONBytes
        assert encoded == reference(values)

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.int64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
            elements=st.integers(0, INT64_MAX),
        )
    )
    def test_property_matches_json_dumps(self, values):
        assert records_json(values) == reference(values)

    def test_reads_back_as_the_list(self):
        values = np.arange(60, dtype=np.int64).reshape(12, 5)
        assert json.loads(records_json(values)) == values.tolist()


class TestDatasetToRows:
    def _dataset(self, n: int) -> Dataset:
        schema = Schema([Attribute(f"a{j}", 500) for j in range(16)])
        values = np.random.default_rng(n).integers(0, 500, size=(n, 16))
        return Dataset(values, schema)

    @pytest.mark.parametrize(
        "n, encoded", [(25, False), (255, False), (256, True), (10_000, True)]
    )
    def test_size_selects_the_path(self, monkeypatch, n, encoded):
        assert 255 * 16 < RECORDS_JSON_MIN_CELLS == 256 * 16
        calls = []

        def spy(values):
            calls.append(values.shape)
            return records_json(values)

        monkeypatch.setattr(serializers, "records_json", spy)
        dataset = self._dataset(n)
        document = dataset_to_rows(dataset)
        assert calls == ([(n, 16)] if encoded else [])
        assert isinstance(document["records"], JSONBytes) is encoded
        assert document["n_records"] == n
        records = document["records"]
        if encoded:
            assert records == reference(dataset.values)
        else:
            assert records == dataset.values.tolist()
