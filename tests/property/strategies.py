"""Hypothesis strategies shared by the property suites: valid service
trace descriptions (the ``trace`` object of ``/v1/simulate``, a sweep and
a campaign spec) and LRU cache geometries."""

from hypothesis import strategies as st

from repro.cache.cache import CacheConfig
from repro.trace.spec92 import SPEC92_PROFILES

spec92_traces = st.fixed_dictionaries(
    {
        "kind": st.just("spec92"),
        "name": st.sampled_from(sorted(SPEC92_PROFILES)),
        "instructions": st.integers(1, 3000),
        "seed": st.integers(0, 2**32 - 1),
    }
)
matmul_traces = st.fixed_dictionaries(
    {
        "kind": st.just("matmul"),
        "n": st.integers(1, 12),
        "tile": st.none() | st.integers(1, 16),
        "element_size": st.integers(1, 16),
        "alu_per_reference": st.integers(0, 5),
    }
)
traces = spec92_traces | matmul_traces
lru_geometries = st.builds(
    lambda line, ways, sets: CacheConfig(line * ways * sets, line, ways),
    st.sampled_from([4, 8, 16, 32, 64]),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([1, 2, 4, 16, 64]),
)
