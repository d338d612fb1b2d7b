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
from repro.runtime.backends import ExecConfig, PhaseStats, RunResult
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

    def test_protocol_version_three_rejects_version_one_frames(self):
        assert wire.PROTOCOL_VERSION == 3
        with pytest.raises(ProtocolVersionMismatch):
            wire.read_frame(self._frame_of_version(1))

    def test_protocol_version_three_rejects_version_two_frames(self):
        # v2 plan configs still carry a ``selector`` knob this peer lacks.
        with pytest.raises(ProtocolVersionMismatch):
            wire.read_frame(self._frame_of_version(2))


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

    def test_cost_model_refused(self):
        class FakeCostModel:
            pass

        cfg = ExecConfig.__new__(ExecConfig)  # bypass __post_init__ validation
        object.__setattr__(cfg, "backend", "simulated")
        object.__setattr__(cfg, "workers", 2)
        object.__setattr__(cfg, "seed", 0)
        object.__setattr__(cfg, "lock_free", True)
        object.__setattr__(cfg, "mp_context", None)
        object.__setattr__(cfg, "cost_model", FakeCostModel())
        with pytest.raises(WireError, match="cost_model"):
            wire.exec_config_to_dict(cfg)


class TestConfigMarshalling:
    @pytest.mark.parametrize(
        "cfg",
        [
            None,
            PlanConfig(),
            PlanConfig(
                strategies=("dataflow",),
                rng_seed=None,
                exec_config=ExecConfig(backend="threaded", workers=3, seed=7),
            ),
        ],
        ids=["none", "defaults", "pinned"],
    )
    def test_plan_config_roundtrip(self, cfg):
        assert wire.plan_config_from_dict(wire.plan_config_to_dict(cfg)) == cfg

    def test_plan_config_carries_only_the_three_knobs(self):
        assert sorted(wire.plan_config_to_dict(PlanConfig())) == [
            "exec_config", "rng_seed", "strategies",
        ]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("strategies", "pdm"),
            ("strategies", []),
            ("strategies", ["dataflow", "banana"]),
            ("strategies", [["dataflow"]]),
            ("strategies", 3),
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
        [None, ExecConfig(), ExecConfig(backend="process", workers=2, mp_context="spawn")],
        ids=["none", "defaults", "process-spawn"],
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
            ("lock_free", 1),
            ("backend", ""),
            ("mp_context", "greenlet"),
        ],
        ids=[
            "workers-over-bound", "workers-million", "workers-str", "workers-float",
            "workers-bool", "workers-zero", "workers-null", "seed-list", "seed-str",
            "lock-free-int", "backend-empty", "mp-context-unknown",
        ],
    )
    def test_bad_exec_config_is_a_wire_error(self, field, value):
        """Out-of-range or mistyped fields are refused as sent, never
        coerced, before any ExecConfig (or pool) exists."""
        d = wire.exec_config_to_dict(ExecConfig(backend="process", workers=2))
        d[field] = value
        with pytest.raises(WireError):
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
        assert bodies == () and header["has_store"] is False
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

    def test_simulated_result_without_store(self):
        result = RunResult(
            store=None,
            backend="simulated",
            workers=4,
            phase_stats=(PhaseStats("P1", 10, 10, 4, 0.001),),
            elapsed_s=0.002,
            meta={"makespan": 12.5},
        )
        resp = PlanResponse(
            request_id="r1",
            strategy="dataflow",
            scheme="dataflow",
            backend="simulated",
            result=result,
            selection=None,
            explain="",
            plan_cache_hit=False,
            pool_reused=False,
            batch_size=1,
            timings={"total_s": 0.1},
        )
        header, bodies = wire.response_frame(resp)
        assert bodies == ()
        _, rheader, payloads = _roundtrip(FrameKind.RESPONSE, header, bodies)
        assert wire.decode_response(rheader, payloads).result.store is None

    def test_non_json_meta_degrades_to_repr(self):
        result = RunResult(
            store=None,
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
