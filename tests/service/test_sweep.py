"""The streaming sweep endpoint: framing, identity, point-level errors."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.schemas import validate_sweep_stream
from repro.service import ServerConfig, ServerThread, ServiceClient, ServiceError
from repro.util.jsonout import dump_json

TRACE = {"kind": "spec92", "name": "ear", "instructions": 2000, "seed": 11}
CACHES = [
    {"total_bytes": 4096, "line_size": 32, "associativity": 1},
    {"total_bytes": 8192, "line_size": 32, "associativity": 2},
]
GRID = dict(
    trace=TRACE, caches=CACHES, policies=["FS", "BNL3"], memory_cycles=[8.0, 16.0]
)


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServerConfig(), registry=MetricsRegistry()) as handle:
        client = ServiceClient("127.0.0.1", handle.port)
        client.wait_ready()
        yield handle, client
        client.close()


class TestFraming:
    def test_stream_validates_and_covers_the_grid(self, server):
        _, client = server
        records = list(client.sweep(**GRID))
        validate_sweep_stream(records)
        header, summary = records[0], records[-1]
        assert header["points"] == 8
        assert header["grid"] == {"caches": 2, "policies": 2, "memory_cycles": 2}
        assert summary == {"done": True, "errors": 0, "points": 8}
        assert sorted(r["index"] for r in records[1:-1]) == list(range(8))

    def test_point_metadata_reconstructs_the_grid(self, server):
        """index = ((cache_index * len(policies)) + p) * len(betas) + b —
        cache-major enumeration, pinned because clients key plots on it."""
        _, client = server
        for record in list(client.sweep(**GRID))[1:-1]:
            point = record["point"]
            expected = (
                point["cache_index"] * 2 + GRID["policies"].index(point["policy"])
            ) * 2 + GRID["memory_cycles"].index(point["memory_cycle"])
            assert record["index"] == expected
            assert point["cache"] == CACHES[point["cache_index"]]

    def test_invalid_grid_is_an_ordinary_400(self, server):
        """Validation precedes the stream head, so a bad request gets a
        plain error envelope, not a truncated stream."""
        _, client = server
        with pytest.raises(ServiceError) as excinfo:
            list(client.sweep(trace=TRACE, caches=[], policies=["FS"],
                              memory_cycles=[8.0]))
        assert excinfo.value.status == 400


class TestIdentity:
    def test_sweep_results_byte_identical_to_simulate(self, server):
        """Each sweep line's result is exactly what /v1/simulate returns
        for that point — same engine, same caches, same serialization."""
        _, client = server
        for record in list(client.sweep(**GRID))[1:-1]:
            point = record["point"]
            envelope = client.simulate(
                trace=TRACE,
                cache=point["cache"],
                policy=point["policy"],
                memory_cycle=point["memory_cycle"],
            )
            assert dump_json(record["result"]) == dump_json(envelope["result"])

    def test_repeat_sweep_is_fully_cached(self, server):
        _, client = server
        list(client.sweep(**GRID))
        again = list(client.sweep(**GRID))[1:-1]
        assert all(r["cached"] for r in again)


class TestPointErrors:
    def test_expired_deadline_becomes_error_lines_not_a_broken_stream(self):
        """A point that cannot meet its deadline is reported in-stream;
        the stream still terminates with a complete index space."""
        with ServerThread(ServerConfig(), registry=MetricsRegistry()) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            records = list(
                client.sweep(
                    trace={"kind": "matmul", "n": 48},  # slow cold extraction
                    caches=CACHES[:1],
                    policies=["FS"],
                    memory_cycles=[8.0],
                    deadline_ms=1.0,
                )
            )
            validate_sweep_stream(records)
            summary = records[-1]
            assert summary["errors"] == 1
            (point,) = records[1:-1]
            assert point["error"]["code"] == "deadline_exceeded"
            assert point["error"]["status"] == 504
            client.close()
