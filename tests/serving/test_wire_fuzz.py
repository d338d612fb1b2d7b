"""Decoder fuzz suite: whatever bytes arrive, the server's decoder answers
with a valid request or a :class:`WireError`, and nothing else.

Each example starts from a well-formed request frame — no store, a full
store, or a footprint store of random cells — and mutates it: a header
field replaced or deleted (top level, inside a payload spec, or inside the
program text), the payload specs resized, the frame truncated, a byte
flipped, or bytes appended.  ``read_frame`` + ``decode_request`` then run on
the result as the server's reader thread runs them.
"""

import io
import json

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.ir.program import LoopProgram
from repro.runtime import make_store
from repro.serving import PlanRequest
from repro.serving.transport import wire
from repro.serving.transport.wire import FrameKind, WireError
from repro.workloads.examples import cholesky_loop, example3_loop, figure1_loop

PROGRAMS = [figure1_loop(5, 5), example3_loop(6), cholesky_loop(nmat=1, m=2, n=3, nrhs=1)]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@st.composite
def request_frames(draw):
    """``(header, bodies)`` of a well-formed request frame."""
    prog = draw(st.sampled_from(PROGRAMS))
    kind = draw(st.sampled_from(["none", "full", "cells"]))
    store = make_store(prog, fill="random", seed=draw(st.integers(0, 3)))
    req = PlanRequest(program=prog, store=None if kind == "none" else store)
    wire.forget_reads(req)
    header, bodies = wire.request_frame(req)
    if kind == "cells":
        cells = {
            name: np.unique(np.array(
                draw(st.lists(st.integers(0, arr.size - 1), max_size=6)), dtype=np.int64))
            for name, arr in store.items()
        }
        header["store"] = "cells"
        header["arrays"], bodies = wire.cell_specs(store, cells)
    return header, list(bodies)


def _paths(value, prefix=()):
    """Every key/index path into a JSON value."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for k, child in enumerate(value):
            yield from _paths(child, prefix + (k,))


def _mutate(value, path, replacement, delete):
    """``value`` with the node at ``path`` replaced (or deleted)."""
    if not path:
        return replacement
    parent = value
    for step in path[:-1]:
        parent = parent[step]
    if delete and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return value


@st.composite
def mutated_frames(draw):
    header, bodies = draw(request_frames())
    how = draw(st.sampled_from(
        ["none", "header", "program", "resize", "truncate", "flip", "append"]))
    if how == "header":
        path = draw(st.sampled_from(list(_paths(header))))
        header = _mutate(header, path, draw(json_values), draw(st.booleans()))
    elif how == "program":
        program = json.loads(header["program"])
        path = draw(st.sampled_from(list(_paths(program))))
        program = _mutate(program, path, draw(json_values), draw(st.booleans()))
        header["program"] = json.dumps(program)
    elif how == "resize" and header["arrays"]:
        k = draw(st.integers(0, len(header["arrays"]) - 1))
        spec = header["arrays"][k]
        spec["nbytes"] = max(0, spec["nbytes"] + draw(st.integers(-16, 4096)))
        if draw(st.booleans()):
            bodies[k] = bodies[k] + b"\x00" * max(0, spec["nbytes"] - len(bodies[k]))
    buf = io.BytesIO()
    wire.write_frame(buf, FrameKind.REQUEST, header, tuple(bodies))
    raw = bytearray(buf.getvalue())
    if how == "truncate":
        raw = raw[: draw(st.integers(1, len(raw) - 1))]
    elif how == "flip":
        at = draw(st.integers(0, len(raw) - 1))
        raw[at] ^= draw(st.integers(1, 255))
    elif how == "append":
        raw += draw(st.binary(min_size=1, max_size=64))
    return bytes(raw)


def _assert_valid(req):
    assert isinstance(req, PlanRequest)
    assert isinstance(req.request_id, str)
    assert isinstance(req.program, LoopProgram)
    assert all(isinstance(k, str) and type(v) is int for k, v in req.params.items())
    if req.store is None:
        assert req.reads is None
        return
    for name, arr in req.store.items():
        assert isinstance(arr, np.ndarray) and arr.dtype.kind in "biufc"
        assert arr.flags.writeable
    for name, idx in (req.reads or {}).items():
        assert idx.dtype == np.int64
        assert np.all(np.diff(idx) > 0)
        assert not len(idx) or 0 <= idx[0] <= idx[-1] < req.store[name].size


class TestDecoderFuzz:
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(frame=mutated_frames())
    def test_decoder_yields_a_valid_request_or_a_wire_error(self, frame):
        try:
            _kind, header, payloads = wire.read_frame(io.BytesIO(frame))
            req = wire.decode_request(header, payloads)
        except WireError:
            return
        _assert_valid(req)

    @given(header_and_bodies=request_frames())
    def test_unmutated_frames_decode(self, header_and_bodies):
        header, bodies = header_and_bodies
        buf = io.BytesIO()
        wire.write_frame(buf, FrameKind.REQUEST, header, tuple(bodies))
        buf.seek(0)
        _assert_valid(wire.decode_request(*wire.read_frame(buf)[1:]))

    def test_deeply_nested_header_is_a_wire_error(self):
        buf = io.BytesIO()
        wire.write_frame(buf, FrameKind.REQUEST, {"arrays": []})
        raw = buf.getvalue()
        deep = b"[" * 100_000 + b"]" * 100_000
        frame = raw[:7] + len(deep).to_bytes(4, "big") + deep
        with pytest.raises(WireError):
            wire.read_frame(io.BytesIO(frame))
