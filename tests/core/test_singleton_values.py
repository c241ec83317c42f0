"""Coverage functions read their singleton values off the kernel's rows.

``CoverageFunction.singleton_values`` must return exactly what the
generic comprehension returns (:func:`reference`, the loop the robust
and bottleneck rules read): the same keys, values and order.  It must
do so for mapping-built, named array-built and positional coverage
functions, including elements that cover nothing and rows that list an
item twice.  Weighted coverage (its values are ``fsum``s of weights) and
every other family keep the generic path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.functions import (
    AdditiveFunction,
    CoverageFunction,
    CutFunction,
    FacilityLocationFunction,
    WeightedCoverageFunction,
)
from repro.core.submodular import SetFunction


def reference(fn):
    return {e: fn.value(frozenset({e})) for e in sorted(fn.ground_set, key=repr)}


def assert_same_map(got, want):
    assert list(got.items()) == list(want.items())
    assert all(type(v) is float for v in got.values())


NAMES = st.one_of(st.integers(-30, 30), st.text("abc", max_size=3))


@st.composite
def incidences(draw):
    """Rows of item ids (repeats and empty rows allowed), plus names."""
    n_items = draw(st.integers(1, 8))
    rows = draw(st.lists(
        st.lists(st.integers(0, n_items - 1), max_size=6), min_size=1, max_size=12,
    ))
    elements = draw(st.lists(NAMES, min_size=len(rows), max_size=len(rows), unique=True))
    items = draw(st.lists(NAMES, min_size=n_items, max_size=n_items, unique=True))
    return rows, elements, items, n_items


def csr(rows):
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    return indptr, np.array([j for r in rows for j in r], dtype=np.intp)


@settings(max_examples=150, deadline=None)
@given(incidences())
def test_the_kernel_read_equals_the_generic_loop(incidence):
    rows, elements, items, n_items = incidence
    indptr, indices = csr(rows)
    builds = {
        "mapping": lambda: CoverageFunction(
            {e: [items[j] for j in row] for e, row in zip(elements, rows)}
        ),
        "named": lambda: CoverageFunction.from_arrays(
            indptr, indices, elements=elements, items=items
        ),
        "positional": lambda: CoverageFunction.from_arrays(indptr, indices, n_items=n_items),
    }
    for build in builds.values():
        # Two instances: the fast read must not lean on rows the loop built.
        assert_same_map(build().singleton_values(), reference(build()))


@settings(max_examples=50, deadline=None)
@given(incidences(), st.lists(st.floats(0, 5), min_size=8, max_size=8))
def test_weighted_coverage_keeps_the_generic_loop(incidence, weights):
    rows, elements, items, n_items = incidence
    indptr, indices = csr(rows)
    mapped = WeightedCoverageFunction(
        {e: [items[j] for j in row] for e, row in zip(elements, rows)},
        dict(zip(items, weights)),
    )
    positional = WeightedCoverageFunction.from_arrays(indptr, indices, weights[:n_items])
    for fn in (mapped, positional):
        assert_same_map(fn.singleton_values(), reference(fn))


def test_only_unweighted_coverage_overrides_the_generic_loop():
    generic = SetFunction.singleton_values
    assert CoverageFunction.singleton_values is not generic
    for family in (WeightedCoverageFunction, FacilityLocationFunction,
                   AdditiveFunction, CutFunction):
        assert family.singleton_values is generic, family.__name__
