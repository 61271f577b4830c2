"""Property: one trace recipe and one events memo give the stepped stream.

For any service trace description and LRU geometry, the stream phase 1
serves through :func:`repro.cache.events_store.trace_events` — derived
cold from the recipe's reference arrays, served again from the memo, and
loaded from disk — equals :func:`repro.cache.events.extract_events` over
the recipe's materialized instructions, array for array.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings

from repro.cache import events_store, reuse_store
from repro.cache.events import EVENT_ARRAYS, extract_events
from repro.cache.events_store import EVENTS_CACHE_DIR_ENV
from repro.trace.recipe import trace_recipe
from tests.property.strategies import lru_geometries, traces


def _cold_memos():
    events_store.clear_memory()
    reuse_store.clear_memory()


def assert_same_stream(got, expected):
    assert got.n_instructions == expected.n_instructions
    assert got.stats == expected.stats
    for name in EVENT_ARRAYS:
        left, right = getattr(got, name), getattr(expected, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)


@settings(max_examples=60, deadline=None)
@given(trace=traces, config=lru_geometries)
def test_recipe_stream_equals_the_stepped_stream(trace, config):
    expected = extract_events(trace_recipe(trace).instructions(), config)
    previous = os.environ.get(EVENTS_CACHE_DIR_ENV)
    with tempfile.TemporaryDirectory() as store:
        os.environ[EVENTS_CACHE_DIR_ENV] = store
        _cold_memos()
        try:
            cold = events_store.trace_events(trace, config)
            assert_same_stream(cold, expected)
            assert events_store.trace_events(trace, config) is cold
            _cold_memos()
            loaded = events_store.trace_events(trace, config)
            assert loaded is not cold
            assert_same_stream(loaded, expected)
        finally:
            _cold_memos()
            if previous is None:
                os.environ.pop(EVENTS_CACHE_DIR_ENV, None)
            else:
                os.environ[EVENTS_CACHE_DIR_ENV] = previous
