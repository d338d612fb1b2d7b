"""Wire-format tests: framing, marshalling round-trips, refusals, versioning.

Everything here runs on in-memory byte streams — no sockets — so the
protocol itself is pinned independently of the TCP plumbing: dtype/shape
round-trips for store arrays, IR/config marshalling equality, version and
magic checks, and the explicit refusals (callables never cross the wire).
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import given

from repro.core.strategy import PlanConfig
from repro.runtime import execute_sequential, make_store
from repro.runtime.backends import ExecConfig, RunResult
from repro.serving import PlanRequest, PlanResponse, PlanServer, ServerBusy
from repro.serving.transport import wire
from repro.serving.transport.wire import (
    FrameKind,
    ProtocolVersionMismatch,
    WireError,
)
from repro.ir.builder import aref, assign, loop, program
from repro.workloads.examples import cholesky_loop, example3_loop, figure1_loop
from strategies import loop_programs


def _roundtrip(kind, header, payloads=()):
    buf = io.BytesIO()
    wire.write_frame(buf, kind, header, payloads)
    buf.seek(0)
    return wire.read_frame(buf)


class TestFraming:
    def test_kind_header_payload_roundtrip(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        specs, bodies = wire.array_specs({"x": arr})
        kind, header, payloads = _roundtrip(
            FrameKind.REQUEST, {"arrays": specs, "k": 1}, bodies
        )
        assert kind == FrameKind.REQUEST
        assert header["k"] == 1
        store = wire.arrays_from_payloads(header["arrays"], payloads)
        assert np.array_equal(store["x"], arr)
        assert store["x"].dtype == arr.dtype and store["x"].shape == arr.shape

    def test_bad_magic_rejected(self):
        buf = io.BytesIO(b"HTTP/1.1 200 OK\r\n\r\n")
        with pytest.raises(WireError, match="bad magic"):
            wire.read_frame(buf)

    def test_version_mismatch_raised(self):
        buf = io.BytesIO()
        wire.write_frame(buf, FrameKind.REQUEST, {"arrays": []})
        raw = bytearray(buf.getvalue())
        struct.pack_into(">H", raw, 4, wire.PROTOCOL_VERSION + 1)
        with pytest.raises(ProtocolVersionMismatch):
            wire.read_frame(io.BytesIO(bytes(raw)))

    def test_unknown_kind_rejected(self):
        buf = io.BytesIO()
        wire.write_frame(buf, FrameKind.REQUEST, {"arrays": []})
        raw = bytearray(buf.getvalue())
        raw[6] = 250  # kind byte
        with pytest.raises(WireError, match="unknown frame kind"):
            wire.read_frame(io.BytesIO(bytes(raw)))

    def test_truncated_frame_is_eof(self):
        buf = io.BytesIO()
        arr = np.ones((8, 8))
        specs, bodies = wire.array_specs({"x": arr})
        wire.write_frame(buf, FrameKind.RESPONSE, {"arrays": specs}, bodies)
        with pytest.raises(EOFError):
            wire.read_frame(io.BytesIO(buf.getvalue()[:-16]))

    def test_payload_length_mismatch_rejected(self):
        arr = np.ones(4)
        specs, _ = wire.array_specs({"x": arr})
        with pytest.raises(WireError, match="payload is"):
            wire.arrays_from_payloads(specs, [b"\x00" * 8])

    @staticmethod
    def _frame_of_version(version):
        buf = io.BytesIO()
        wire.write_frame(buf, FrameKind.REQUEST, {"arrays": []})
        raw = bytearray(buf.getvalue())
        struct.pack_into(">H", raw, 4, version)
        return io.BytesIO(bytes(raw))

    def test_protocol_version_five_rejects_version_one_frames(self):
        assert wire.PROTOCOL_VERSION == 5
        with pytest.raises(ProtocolVersionMismatch):
            wire.read_frame(self._frame_of_version(1))

    def test_protocol_version_five_rejects_version_two_frames(self):
        # v2 plan configs still carry a ``selector`` knob this peer lacks.
        with pytest.raises(ProtocolVersionMismatch):
            wire.read_frame(self._frame_of_version(2))

    def test_protocol_version_five_rejects_version_three_frames(self):
        # v3 plan configs still carry ``rng_seed`` / ``exec_config``, and v3
        # exec configs ``lock_free`` / ``mp_context``.
        with pytest.raises(ProtocolVersionMismatch):
            wire.read_frame(self._frame_of_version(3))

    def test_protocol_version_five_rejects_version_four_frames(self):
        # v4 requests carry the program as a JSON object and a ``has_store``
        # flag, and every store whole.
        with pytest.raises(ProtocolVersionMismatch):
            wire.read_frame(self._frame_of_version(4))


class _NoRead(io.BytesIO):
    """A stream that fails the test if a payload read is attempted."""

    def __init__(self, frame: bytes):
        super().__init__(frame)
        self.header_end = len(frame)

    def read(self, n=-1):
        if self.tell() >= self.header_end:
            raise AssertionError("read_frame read past the header")
        return super().read(n)


class TestHeaderValidation:
    """read_frame checks the framing schema before reading any payload."""

    def _frame(self, header) -> bytes:
        buf = io.BytesIO()
        wire.write_frame(buf, FrameKind.REQUEST, header)
        return buf.getvalue()

    @pytest.mark.parametrize(
        "header,match",
        [
            ([1, 2, 3], "JSON object"),
            ("request", "JSON object"),
            ({"arrays": {"x": 8}}, "must be a list"),
            ({"arrays": ["x"]}, "nbytes"),
            ({"arrays": [{"name": "x", "dtype": "<f8", "shape": [1]}]}, "nbytes"),
            ({"arrays": [{"name": "x", "nbytes": -8}]}, "nbytes"),
            ({"arrays": [{"name": "x", "nbytes": 1.5}]}, "nbytes"),
            ({"arrays": [{"name": "x", "nbytes": "8"}]}, "nbytes"),
            ({"arrays": [{"name": "x", "nbytes": True}]}, "nbytes"),
            ({"arrays": [{"name": "x", "nbytes": 2**40}]}, "bound"),
            ({"arrays": [{"nbytes": wire.MAX_PAYLOAD_BYTES}, {"nbytes": 1}]}, "bound"),
        ],
        ids=[
            "list-header", "string-header", "arrays-not-list", "spec-not-object",
            "missing-nbytes", "negative-nbytes", "float-nbytes", "string-nbytes",
            "bool-nbytes", "one-tebibyte", "total-over-bound",
        ],
    )
    def test_malformed_header_is_a_wire_error(self, header, match):
        with pytest.raises(WireError, match=match):
            wire.read_frame(_NoRead(self._frame(header)))

    def test_header_without_arrays_has_no_payloads(self):
        kind, header, payloads = _roundtrip(FrameKind.ERROR, {"request_id": "r"})
        assert (kind, header, payloads) == (FrameKind.ERROR, {"request_id": "r"}, [])


class TestArrayRoundTrip:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(6, dtype=np.int64).reshape(2, 3),
            np.linspace(0, 1, 7, dtype=np.float32),
            np.array([[True, False], [False, True]]),
            np.zeros((3, 0, 2)),  # empty extent round-trips shape exactly
            np.asfortranarray(np.arange(12.0).reshape(3, 4)),  # F-order input
        ],
        ids=["int64-2d", "float32-1d", "bool-2d", "empty-extent", "fortran"],
    )
    def test_dtype_shape_bits_pinned(self, arr):
        specs, bodies = wire.array_specs({"a": arr})
        back = wire.arrays_from_payloads(specs, list(bodies))["a"]
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)
        assert back.flags.writeable  # executors write into served stores

    def test_float_bits_exact_not_approximate(self):
        arr = np.array([0.1, 1e-308, np.pi, -0.0, np.inf])
        specs, bodies = wire.array_specs({"a": arr})
        back = wire.arrays_from_payloads(specs, list(bodies))["a"]
        assert back.tobytes() == np.ascontiguousarray(arr).tobytes()


class TestIRMarshalling:
    @given(prog=loop_programs())
    def test_program_roundtrip_equality(self, prog):
        assert wire.program_from_dict(wire.program_to_dict(prog)) == prog

    @pytest.mark.parametrize(
        "prog",
        [
            figure1_loop(10, 10),
            example3_loop(12),
            cholesky_loop(nmat=1, m=2, n=4, nrhs=1),
        ],
        ids=["fig1", "ex3-multi-stmt", "cholesky-imperfect"],
    )
    def test_curated_programs_roundtrip(self, prog):
        back = wire.program_from_dict(wire.program_to_dict(prog))
        assert back == prog
        # and the round-tripped program *executes* identically
        ref = execute_sequential(prog, {})
        out = execute_sequential(back, {})
        assert all(np.array_equal(ref[k], out[k]) for k in ref)

    def test_fractional_coefficients_roundtrip(self):
        from fractions import Fraction

        from repro.isl.affine import AffineExpr

        expr = AffineExpr.build({"I1": Fraction(1, 2), "N": -2}, Fraction(-3, 4))
        assert wire.affine_from_dict(wire.affine_to_dict(expr)) == expr

    def test_semantics_callable_refused(self):
        prog = program(
            "with-sem",
            loop(
                "I1", 1, 4,
                assign("s1", aref("y", "I1"), [], semantics=lambda *a: 0.0),
            ),
            array_shapes={"y": (8,)},
        )
        with pytest.raises(WireError, match="semantics"):
            wire.program_to_dict(prog)


class TestConfigMarshalling:
    @pytest.mark.parametrize(
        "cfg",
        [
            None,
            PlanConfig(),
            PlanConfig(strategies=("dataflow",)),
        ],
        ids=["none", "defaults", "pinned"],
    )
    def test_plan_config_roundtrip(self, cfg):
        assert wire.plan_config_from_dict(wire.plan_config_to_dict(cfg)) == cfg

    def test_plan_config_carries_only_strategies(self):
        assert sorted(wire.plan_config_to_dict(PlanConfig())) == ["strategies"]

    def test_exec_config_carries_exactly_backend_workers_seed(self):
        assert sorted(wire.exec_config_to_dict(ExecConfig())) == [
            "backend", "seed", "workers",
        ]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("strategies", "pdm"),
            ("strategies", []),
            ("strategies", ["dataflow", "banana"]),
            ("strategies", [["dataflow"]]),
            ("strategies", 3),
            # v3's seed field: the plan config is exactly {strategies}.
            ("rng_seed", True),
            ("rng_seed", 1.5),
            ("rng_seed", "0"),
        ],
        ids=[
            "strategies-str", "strategies-empty", "strategies-unknown",
            "strategies-nested", "strategies-int", "seed-bool", "seed-float",
            "seed-str",
        ],
    )
    def test_bad_plan_config_is_a_wire_error(self, field, value):
        """A malformed plan config is refused when decoded, not inside
        ``plan()`` (a bare string used to become one name per letter)."""
        d = wire.plan_config_to_dict(PlanConfig())
        d[field] = value
        with pytest.raises(WireError, match="bad plan config"):
            wire.plan_config_from_dict(d)

    def test_bad_plan_config_in_a_request_frame_is_a_wire_error(self):
        req = PlanRequest(program=figure1_loop(4, 4), config=PlanConfig())
        header, payloads = wire.request_frame(req)
        header["config"]["strategies"] = "pdm"
        with pytest.raises(WireError, match="bad plan config"):
            wire.decode_request(header, list(payloads))

    @pytest.mark.parametrize(
        "cfg",
        [None, ExecConfig(), ExecConfig(backend="process", workers=2, seed=None)],
        ids=["none", "defaults", "process-unshuffled"],
    )
    def test_exec_config_roundtrip(self, cfg):
        assert wire.exec_config_from_dict(wire.exec_config_to_dict(cfg)) == cfg

    def test_exec_config_at_the_worker_bound_is_accepted(self):
        d = wire.exec_config_to_dict(ExecConfig(backend="process"))
        d["workers"] = wire.MAX_WIRE_WORKERS
        assert wire.exec_config_from_dict(d).workers == wire.MAX_WIRE_WORKERS

    @pytest.mark.parametrize(
        "field, value",
        [
            ("workers", wire.MAX_WIRE_WORKERS + 1),
            ("workers", 10**6),
            ("workers", "7"),
            ("workers", 2.0),
            ("workers", True),
            ("workers", 0),
            ("workers", None),
            ("seed", [1]),
            ("seed", "0"),
            ("seed", True),
            # v3's fields: the exec config is exactly {backend, workers, seed}.
            ("lock_free", 1),
            ("backend", ""),
            ("backend", "threaded"),
            ("backend", "simulated"),
            ("mp_context", "greenlet"),
        ],
        ids=[
            "workers-over-bound", "workers-million", "workers-str", "workers-float",
            "workers-bool", "workers-zero", "workers-null", "seed-list", "seed-str",
            "seed-bool", "lock-free-int", "backend-empty", "backend-threaded",
            "backend-simulated", "mp-context-unknown",
        ],
    )
    def test_bad_exec_config_is_a_wire_error(self, field, value):
        """Out-of-range or mistyped fields are refused as sent, never
        coerced, before any ExecConfig (or pool) exists."""
        d = wire.exec_config_to_dict(ExecConfig(backend="process", workers=2))
        d[field] = value
        with pytest.raises(WireError):
            wire.exec_config_from_dict(d)

    def test_missing_exec_config_field_is_a_wire_error(self):
        d = wire.exec_config_to_dict(ExecConfig())
        del d["seed"]
        with pytest.raises(WireError, match="exactly"):
            wire.exec_config_from_dict(d)

    def test_bad_exec_config_in_a_request_frame_is_a_wire_error(self):
        req = PlanRequest(
            program=figure1_loop(4, 4), exec_config=ExecConfig(backend="process")
        )
        header, payloads = wire.request_frame(req)
        header["exec_config"]["workers"] = 10**6
        with pytest.raises(WireError, match="worker bound"):
            wire.decode_request(header, list(payloads))


class TestRequestResponseFrames:
    def test_request_roundtrip_with_store(self):
        prog = figure1_loop(6, 6)
        store = make_store(prog, fill="random", seed=3)
        req = PlanRequest(
            program=prog,
            params={},
            config=PlanConfig(strategies=("dataflow",)),
            exec_config=ExecConfig(backend="serial", seed=5),
            store=store,
        )
        header, bodies = wire.request_frame(req)
        kind, rheader, payloads = _roundtrip(FrameKind.REQUEST, header, bodies)
        back = wire.decode_request(rheader, payloads)
        assert back.request_id == req.request_id
        assert back.program == prog
        assert back.config == req.config and back.exec_config == req.exec_config
        assert set(back.store) == set(store)
        assert all(np.array_equal(back.store[k], store[k]) for k in store)

    def test_request_without_store_stays_storeless(self):
        req = PlanRequest(program=figure1_loop(4, 4))
        header, bodies = wire.request_frame(req)
        assert bodies == () and header["store"] is None
        _, rheader, payloads = _roundtrip(FrameKind.REQUEST, header, bodies)
        assert wire.decode_request(rheader, payloads).store is None

    def test_response_roundtrip_from_live_server(self):
        prog = example3_loop(10)
        with PlanServer() as srv:
            resp = srv.request(prog, timeout=60)
        header, bodies = wire.response_frame(resp)
        kind, rheader, payloads = _roundtrip(FrameKind.RESPONSE, header, bodies)
        back = wire.decode_response(rheader, payloads)
        assert back.request_id == resp.request_id
        assert back.strategy == resp.strategy and back.scheme == resp.scheme
        assert back.backend == resp.backend
        assert back.explain == resp.explain
        assert back.plan_cache_hit == resp.plan_cache_hit
        assert back.batch_size == resp.batch_size
        assert back.selection == resp.selection
        assert back.timings == pytest.approx(resp.timings)
        assert back.result.phase_stats == resp.result.phase_stats
        assert back.result.meta == resp.result.meta
        for name in resp.result.store:
            assert np.array_equal(back.result.store[name], resp.result.store[name])

    def test_non_json_meta_degrades_to_repr(self):
        result = RunResult(
            store={},
            backend="serial",
            workers=1,
            phase_stats=(),
            elapsed_s=0.0,
            meta={"pool": object()},
        )
        resp = PlanResponse(
            request_id="r2", strategy="s", scheme="s", backend="serial",
            result=result, selection=None, explain="", plan_cache_hit=False,
            pool_reused=False, batch_size=1,
        )
        header, _ = wire.response_frame(resp)
        assert isinstance(header["result"]["meta"]["pool"], str)


class TestBusyAndErrorFrames:
    def test_busy_frame_roundtrip(self):
        busy = ServerBusy(retry_after_ms=75, depth=9, capacity=8)
        kind, header, payloads = _roundtrip(
            FrameKind.BUSY, wire.busy_frame("req-1", busy)
        )
        assert kind == FrameKind.BUSY and payloads == []
        back = ServerBusy.from_header(header)
        assert (back.retry_after_ms, back.depth, back.capacity) == (75, 9, 8)
        assert header["request_id"] == "req-1"

    def test_error_frame_carries_type_and_message(self):
        kind, header, _ = _roundtrip(
            FrameKind.ERROR, wire.error_frame("req-2", ValueError("boom"))
        )
        assert kind == FrameKind.ERROR
        assert header == {
            "request_id": "req-2",
            "error_type": "ValueError",
            "message": "boom",
        }


def _spec(**fields):
    base = {"name": "x", "dtype": "<f8", "shape": [2, 3], "nbytes": 48}
    base.update(fields)
    return base


class TestStoreSpecErrors:
    """A malformed store spec is a WireError, whatever the field."""

    @pytest.mark.parametrize(
        "spec, body",
        [
            (_spec(dtype="zz"), b"\x00" * 48),
            (_spec(dtype="|O"), b"\x00" * 48),
            (_spec(dtype="<U4"), b"\x00" * 48),
            (_spec(dtype="V8"), b"\x00" * 48),
            (_spec(dtype=["<f8"]), b"\x00" * 48),
            (_spec(shape=[-2, -3]), b"\x00" * 48),
            (_spec(shape=[2**62, 4], nbytes=0), b""),
            (_spec(shape=[2.0, 3]), b"\x00" * 48),
            (_spec(shape=[True, 3]), b"\x00" * 48),
            (_spec(shape="2x3"), b"\x00" * 48),
            (_spec(name=7), b"\x00" * 48),
        ],
        ids=[
            "dtype-junk", "dtype-object", "dtype-unicode", "dtype-void",
            "dtype-list", "shape-negative", "shape-wraps-int64", "shape-float",
            "shape-bool", "shape-string", "name-int",
        ],
    )
    def test_bad_full_spec_is_a_wire_error(self, spec, body):
        with pytest.raises(WireError):
            wire.arrays_from_payloads([spec], [body])

    def test_spec_count_must_match_payloads(self):
        with pytest.raises(WireError, match="payloads"):
            wire.arrays_from_payloads([_spec()], [])


def _cells_body(idx, values, reads=()):
    return (np.asarray(idx, dtype="<i8").tobytes()
            + np.asarray(values, dtype="<f8").tobytes()
            + np.asarray(reads, dtype="<i8").tobytes())


def _cells_spec(idx, values, read_idx=(), **fields):
    body = _cells_body(idx, values, read_idx)
    spec = _spec(cells=len(idx), reads=len(read_idx), nbytes=len(body))
    spec.update(fields)
    return spec, body


class TestFootprintCells:
    def test_cells_roundtrip(self):
        arr = np.arange(12.0).reshape(3, 4)
        idx = {"a": np.array([1, 5, 11])}
        reads = {"a": np.array([0, 2])}
        specs, bodies = wire.cell_specs({"a": arr}, idx, reads)
        dtype, shape, got_idx, values, got_reads = wire.cells_from_payloads(
            specs, list(bodies))["a"]
        assert (dtype, shape) == (arr.dtype, arr.shape)
        assert np.array_equal(got_idx, idx["a"])
        assert np.array_equal(values, arr.reshape(-1)[idx["a"]])
        assert np.array_equal(got_reads, reads["a"])

    def test_cells_of_a_fortran_array_are_c_order(self):
        arr = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        specs, bodies = wire.cell_specs({"a": arr}, {"a": np.array([1, 4])})
        values = wire.cells_from_payloads(specs, list(bodies))["a"][3]
        assert values.tolist() == [1.0, 4.0]

    @pytest.mark.parametrize(
        "idx, values, reads, fields, match",
        [
            ([3, 1], [0.0, 0.0], (), {}, "sorted"),
            ([1, 1], [0.0, 0.0], (), {}, "sorted"),
            ([0, 6], [0.0, 0.0], (), {}, "range"),
            ([-1], [0.0], (), {}, "range"),
            ([0], [0.0], (7,), {}, "range"),
            ([0], [0.0], (2, 1), {}, "sorted"),
            ([0, 1], [0.0, 0.0], (), {"cells": 3}, "payload is"),
            ([0, 1], [0.0, 0.0], (), {"cells": 1}, "payload is"),
            ([0], [0.0], (), {"cells": -1}, "non-negative"),
            ([0], [0.0], (), {"reads": "0"}, "non-negative"),
            ([0], [0.0], (), {"shape": [2**40, 2**30]}, "bytes in total"),
        ],
        ids=[
            "unsorted", "duplicate", "past-the-end", "negative", "read-past-end",
            "reads-unsorted", "more-cells-than-values", "fewer-cells-than-values",
            "negative-count", "string-count", "huge-array",
        ],
    )
    def test_bad_cells_are_a_wire_error(self, idx, values, reads, fields, match):
        spec, body = _cells_spec(idx, values, reads, **fields)
        with pytest.raises(WireError, match=match):
            wire.cells_from_payloads([spec], [body])

    def test_duplicate_array_is_a_wire_error(self):
        spec, body = _cells_spec([0], [1.0])
        with pytest.raises(WireError, match="twice"):
            wire.cells_from_payloads([spec, spec], [body, body])

    def test_cells_request_decodes_to_zero_arrays_holding_the_cells(self):
        prog = figure1_loop(4, 4)
        store = make_store(prog, fill="random", seed=1)
        name = sorted(store)[0]
        reads = {name: np.array([0, 3, 7])}
        req = PlanRequest(program=prog, store=store)
        header, _ = wire.request_frame(req)
        header["store"] = "cells"
        header["arrays"], bodies = wire.cell_specs(store, reads)
        back = wire.decode_request(header, list(bodies))
        assert back.footprint and set(back.reads) == set(store)
        assert np.array_equal(back.reads[name], reads[name])
        flat = back.store[name].reshape(-1)
        assert np.array_equal(flat[reads[name]], store[name].reshape(-1)[reads[name]])
        assert np.count_nonzero(np.delete(flat, reads[name])) == 0

    def test_cells_request_refuses_read_indices(self):
        prog = figure1_loop(4, 4)
        store = make_store(prog)
        header, _ = wire.request_frame(PlanRequest(program=prog, store=store))
        header["store"] = "cells"
        header["arrays"], bodies = wire.cell_specs(
            store, {}, {name: np.array([0]) for name in store})
        with pytest.raises(WireError, match="read indices"):
            wire.decode_request(header, list(bodies))

    def test_unknown_store_kind_is_a_wire_error(self):
        header, bodies = wire.request_frame(PlanRequest(program=figure1_loop(4, 4)))
        header["store"] = "diff"
        with pytest.raises(WireError, match="store kind"):
            wire.decode_request(header, list(bodies))


class TestProgramInterning:
    def test_client_encodes_each_program_object_once(self):
        prog = figure1_loop(5, 5)
        text = wire.program_text(prog)
        assert wire.program_text(prog) is text
        assert wire.program_text(figure1_loop(5, 5)) == text  # equal content

    def test_server_decodes_each_text_once(self):
        text = wire.program_text(example3_loop(7))
        first = wire.intern_program(text)
        assert wire.intern_program(str(text)) is first
        assert first == example3_loop(7)

    def test_repeated_requests_reuse_one_program_and_its_fingerprint(self):
        from repro.core.strategy import program_fingerprint

        req = PlanRequest(program=figure1_loop(6, 6))
        header, bodies = wire.request_frame(req)
        a = wire.decode_request(header, list(bodies)).program
        fingerprint = program_fingerprint(a)
        b = wire.decode_request(header, list(bodies)).program
        assert a is b
        assert b.__dict__["_fingerprint"] == fingerprint

    @pytest.mark.parametrize(
        "text",
        ['{"name": "x"}', "[1, 2]", "not json", '{"name": 1, "body": 2}', 7],
        ids=["missing-fields", "list", "junk", "wrong-types", "not-a-string"],
    )
    def test_malformed_program_text_is_a_wire_error(self, text):
        with pytest.raises(WireError):
            wire.intern_program(text)

    def test_bounded_cache_drops_least_recent_by_entries_and_bytes(self):
        cache = wire._BoundedCache(max_entries=2, max_bytes=10)
        for key in "abc":
            cache.put(key, key.upper(), 3)
        assert cache.get("a") is None and cache.get("c") == "C"
        cache.put("d", "D", 8)  # 3 + 8 > 10: "b" then "c" go
        assert cache.stats()["entries"] == 1 and cache.stats()["bytes"] == 8
        cache.put("huge", "H", 11)  # larger than the bound: never kept
        assert cache.get("huge") is None and cache.get("d") == "D"

    def test_bounded_cache_stays_consistent_under_threads(self):
        """More threads than cores hammer one cache with a short switch
        interval; a lost update would leave the byte count off the entries."""
        import sys
        import threading

        cache = wire._BoundedCache(max_entries=16, max_bytes=200)
        errors = []

        def hammer(seed):
            try:
                for k in range(3000):
                    key = (seed * 7 + k) % 40
                    cache.put(key, key, 1 + key % 13)
                    cache.get((key * 3) % 40)
                    if k % 11 == 0:
                        cache.pop(key)
            except Exception as exc:  # noqa: BLE001 - surfaced by the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        entries = cache._entries
        assert len(entries) <= 16
        assert cache.stats()["bytes"] == sum(n for _, n in entries.values()) <= 200

    def test_process_wide_caches_are_bounded(self):
        for cache in (wire._PROGRAM_TEXTS, wire._INTERNED, wire._READ_SETS):
            assert cache.max_entries > 0 and cache.max_bytes > 0


class TestFingerprintCache:
    def test_fingerprint_is_cached_on_the_program(self):
        from repro.core.strategy import program_fingerprint

        prog = figure1_loop(7, 7)
        digest = program_fingerprint(prog)
        assert prog.__dict__["_fingerprint"] == digest
        assert program_fingerprint(prog) is digest

    def test_cached_fingerprint_never_crosses_a_pickle(self):
        """The digest folds in semantics ids, which another process would
        reuse for other callables: a pickled program carries no digest."""
        import copy
        import pickle

        from repro.core.strategy import program_fingerprint

        prog = figure1_loop(7, 7)
        program_fingerprint(prog)
        for back in (pickle.loads(pickle.dumps(prog)), copy.copy(prog),
                     copy.deepcopy(prog)):
            assert back == prog
            assert "_fingerprint" not in back.__dict__
            assert program_fingerprint(back) == program_fingerprint(prog)
