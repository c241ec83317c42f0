"""Whole serve reports must match their committed capture.

``golden_serve_reports.json`` was generated by
:mod:`tests.online.generate_serve_golden` before the serving loop was
folded into one tenant lifecycle and each lane's producer and consumer
into one coroutine; every cell is re-served here and its
report, minus timing fields, must match the capture exactly —
per-tenant bookkeeping (``batches``, ``max_in_flight``, ``parks``,
``rehydrations``, drain states) and the workload-cache stats included.
"""

import json

import pytest

from tests.online import generate_serve_golden


@pytest.fixture(scope="module")
def golden():
    with open(generate_serve_golden.GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_same_cell_set(golden):
    assert set(golden) == set(generate_serve_golden.CELLS)


@pytest.mark.parametrize("cell", sorted(generate_serve_golden.CELLS))
def test_report_matches_capture(golden, cell):
    assert generate_serve_golden.capture(cell) == golden[cell]
