"""Framing and marshalling: dataclasses + NumPy stores on a byte stream.

One frame on the wire::

    +--------+---------+------+-------------+----------------+---------...
    | magic  | version | kind | header_len  | header (JSON)  | payloads
    | 4 B    | u16 BE  | u8   | u32 BE      | header_len B   | raw bytes
    +--------+---------+------+-------------+----------------+---------...

The JSON header carries everything structured — request/response fields, the
loop-nest IR, plan/exec configs — plus an ``arrays`` list of payload specs
(``name`` / ``dtype`` / ``shape`` / ``nbytes``).  The payloads are the raw
``ndarray.tobytes()`` bodies, concatenated in spec order, so array data never
passes through JSON and round-trips bit-identically (dtype and shape are
pinned by the spec, C order enforced on send).  :func:`read_frame` checks the
header's framing schema — a JSON object whose ``arrays`` specs declare
non-negative integer ``nbytes`` summing to at most
:data:`MAX_PAYLOAD_BYTES` — before it reads a single payload byte, so a
malformed header is a :class:`WireError`, never an allocation.

Frame kinds: ``REQUEST`` and ``RESPONSE`` carry the serving payloads;
``BUSY`` is the structured back-pressure answer
(:class:`~repro.serving.policy.ServerBusy` as a header); ``ERROR`` reports a
serving- or protocol-side failure and re-raises client-side as
:class:`RemoteServingError`.  A version mismatch is detected on *every*
frame (the version rides the fixed prelude) and raised as
:class:`ProtocolVersionMismatch` — the server answers one ``ERROR`` frame
before hanging up so old clients fail with a message, not a reset.

Deliberate marshalling refusals (clear errors, not silent drops): statement
``semantics`` callables cannot cross the wire, and an execution config naming
an unregistered backend is refused at decode time, before any planning.
Non-JSON ``meta`` values travel as their ``repr``.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import asdict
from fractions import Fraction
from typing import Any, Dict, IO, List, Optional, Tuple

import numpy as np

from ...analysis.features import ProgramFeatures
from ...core.strategy import PlanConfig, SelectionReport
from ...ir.nodes import ArrayRef, Loop, Statement
from ...ir.program import LoopProgram
from ...isl.affine import AffineExpr
from ...runtime.backends import ExecConfig, PhaseStats, RunResult
from ..api import PlanRequest, PlanResponse
from ..policy import ServerBusy

__all__ = [
    "FrameKind",
    "PROTOCOL_VERSION",
    "ProtocolVersionMismatch",
    "RemoteServingError",
    "WireError",
    "read_frame",
    "write_frame",
    "request_frame",
    "response_frame",
    "busy_frame",
    "error_frame",
    "decode_request",
    "decode_response",
    "program_to_dict",
    "program_from_dict",
]

#: First bytes of every frame — a cheap "is this even our protocol" check.
MAGIC = b"RPLN"

#: Bumped on any incompatible change to the frame layout or header schema
#: (2: the plan config lost its three engine-selection knobs; 3: the plan
#: config lost ``selector``, the selection report its ``selector`` and the
#: features their wavefront estimate; 4: the exec config is ``{backend,
#: workers, seed}``, the plan config ``{strategies}``, and a response's
#: result always carries its store).
PROTOCOL_VERSION = 4

#: magic, version, kind, header length.
_PRELUDE = struct.Struct(">4sHBI")

#: Refuse absurd headers before allocating for them (a stray HTTP request
#: hitting the port must not look like a 1 GiB header).
_MAX_HEADER_BYTES = 64 * 1024 * 1024

#: Refuse frames whose payload specs declare more than this many bytes in
#: total, before reading (or allocating for) any of them.
MAX_PAYLOAD_BYTES = 1024 * 1024 * 1024

#: Largest ``exec_config.workers`` a request may ask for: each distinct count
#: can cost the server a process pool of that many workers.
MAX_WIRE_WORKERS = 64


class WireError(RuntimeError):
    """Malformed frame, unknown kind, or unmarshallable payload."""


class ProtocolVersionMismatch(WireError):
    """The peer speaks a different protocol version."""

    def __init__(self, theirs: int, ours: int = PROTOCOL_VERSION):
        super().__init__(
            f"peer protocol version {theirs} != ours {ours}; "
            "upgrade the older side"
        )
        self.theirs = theirs
        self.ours = ours


class RemoteServingError(RuntimeError):
    """An ``ERROR`` frame, re-raised client-side with the remote detail."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.remote_message = message


class FrameKind(enum.IntEnum):
    REQUEST = 1
    RESPONSE = 2
    ERROR = 3
    BUSY = 4


# ---------------------------------------------------------------------------
# frame I/O
# ---------------------------------------------------------------------------


def write_frame(
    stream: IO[bytes],
    kind: FrameKind,
    header: Dict[str, Any],
    payloads: Tuple[bytes, ...] = (),
) -> None:
    """Serialise one frame onto ``stream`` (caller flushes)."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    stream.write(
        _PRELUDE.pack(MAGIC, PROTOCOL_VERSION, int(kind), len(header_bytes))
    )
    stream.write(header_bytes)
    for body in payloads:
        stream.write(body)
    stream.flush()


#: Largest single read: memory grows with the bytes that actually arrive, not
#: with what a header declares.
_READ_CHUNK = 1024 * 1024


def _read_exactly(stream: IO[bytes], n: int) -> bytes:
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = stream.read(min(remaining, _READ_CHUNK))
        if not chunk:
            raise EOFError(f"peer closed mid-frame ({remaining} bytes short)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: IO[bytes]) -> Tuple[FrameKind, Dict[str, Any], List[bytes]]:
    """Read one frame; raises :class:`EOFError` on a cleanly closed stream.

    The payload bodies are returned in header-spec order; use
    :func:`arrays_from_payloads` to rebuild the ndarrays.
    """
    prelude = stream.read(_PRELUDE.size)
    if not prelude:
        raise EOFError("connection closed")
    if len(prelude) < _PRELUDE.size:
        prelude += _read_exactly(stream, _PRELUDE.size - len(prelude))
    magic, version, kind_raw, header_len = _PRELUDE.unpack(prelude)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r} (not a plan-server peer?)")
    if version != PROTOCOL_VERSION:
        raise ProtocolVersionMismatch(version)
    try:
        kind = FrameKind(kind_raw)
    except ValueError:
        raise WireError(f"unknown frame kind {kind_raw}") from None
    if header_len > _MAX_HEADER_BYTES:
        raise WireError(f"header length {header_len} exceeds sanity bound")
    try:
        header = json.loads(_read_exactly(stream, header_len).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError(f"undecodable frame header: {exc}") from None
    sizes = _payload_sizes(header)
    return kind, header, [_read_exactly(stream, n) for n in sizes]


def _payload_sizes(header: Any) -> List[int]:
    """The declared payload sizes, after checking the header's framing schema."""
    if not isinstance(header, dict):
        raise WireError(f"frame header must be a JSON object, got {type(header).__name__}")
    specs = header.get("arrays", [])
    if not isinstance(specs, list):
        raise WireError("frame header 'arrays' must be a list of payload specs")
    sizes: List[int] = []
    for spec in specs:
        nbytes = spec.get("nbytes") if isinstance(spec, dict) else None
        if type(nbytes) is not int or nbytes < 0:
            raise WireError(
                f"payload spec {spec!r} needs a non-negative integer 'nbytes'"
            )
        sizes.append(nbytes)
    if sum(sizes) > MAX_PAYLOAD_BYTES:
        raise WireError(
            f"frame declares {sum(sizes)} payload bytes, over the "
            f"{MAX_PAYLOAD_BYTES}-byte bound"
        )
    return sizes


# ---------------------------------------------------------------------------
# ndarray specs
# ---------------------------------------------------------------------------


def array_specs(
    store: Optional[Dict[str, np.ndarray]],
) -> Tuple[List[Dict[str, Any]], Tuple[bytes, ...]]:
    """Payload specs + raw bodies for a store (``None`` -> no payloads)."""
    if store is None:
        return [], ()
    specs: List[Dict[str, Any]] = []
    bodies: List[bytes] = []
    for name in sorted(store):
        arr = np.ascontiguousarray(store[name])
        specs.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "nbytes": arr.nbytes,
            }
        )
        bodies.append(arr.tobytes())
    return specs, tuple(bodies)


def arrays_from_payloads(
    specs: List[Dict[str, Any]], payloads: List[bytes]
) -> Dict[str, np.ndarray]:
    """Rebuild the store, dtype and shape pinned by the specs."""
    if len(specs) != len(payloads):
        raise WireError(
            f"frame carries {len(payloads)} payloads for {len(specs)} specs"
        )
    store: Dict[str, np.ndarray] = {}
    for spec, body in zip(specs, payloads):
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(s) for s in spec["shape"])
        expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
        if len(body) != int(spec["nbytes"]) or len(body) != expected:
            raise WireError(
                f"array {spec['name']!r}: payload is {len(body)} bytes, "
                f"spec says {spec['nbytes']} for {dtype} {shape}"
            )
        store[spec["name"]] = np.frombuffer(body, dtype=dtype).reshape(shape).copy()
    return store


# ---------------------------------------------------------------------------
# IR marshalling
# ---------------------------------------------------------------------------


def _frac_to_wire(f: Fraction) -> List[int]:
    f = Fraction(f)
    return [f.numerator, f.denominator]


def _frac_from_wire(v: Any) -> Fraction:
    return Fraction(int(v[0]), int(v[1]))


def affine_to_dict(expr: AffineExpr) -> Dict[str, Any]:
    return {
        "coeffs": [[name, _frac_to_wire(c)] for name, c in expr.coeffs],
        "constant": _frac_to_wire(expr.constant),
    }


def affine_from_dict(d: Dict[str, Any]) -> AffineExpr:
    return AffineExpr.build(
        {name: _frac_from_wire(c) for name, c in d["coeffs"]},
        _frac_from_wire(d["constant"]),
    )


def _ref_to_dict(ref: ArrayRef) -> Dict[str, Any]:
    return {
        "array": ref.array,
        "subscripts": [affine_to_dict(s) for s in ref.subscripts],
    }


def _ref_from_dict(d: Dict[str, Any]) -> ArrayRef:
    return ArrayRef(
        d["array"], tuple(affine_from_dict(s) for s in d["subscripts"])
    )


def _node_to_dict(node: Any) -> Dict[str, Any]:
    if isinstance(node, Statement):
        if node.semantics is not None:
            raise WireError(
                f"statement {node.label!r} carries a semantics callable; "
                "callables cannot be marshalled — serve programs with "
                "default semantics (semantics=None)"
            )
        return {
            "node": "statement",
            "label": node.label,
            "writes": [_ref_to_dict(r) for r in node.writes],
            "reads": [_ref_to_dict(r) for r in node.reads],
        }
    if isinstance(node, Loop):
        return {
            "node": "loop",
            "index": node.index,
            "lower": [affine_to_dict(b) for b in node.lower],
            "upper": [affine_to_dict(b) for b in node.upper],
            "body": [_node_to_dict(child) for child in node.body],
            "stride": node.stride,
        }
    raise WireError(f"unmarshallable IR node {type(node).__name__}")


def _node_from_dict(d: Dict[str, Any]) -> Any:
    if d["node"] == "statement":
        return Statement(
            d["label"],
            tuple(_ref_from_dict(r) for r in d["writes"]),
            tuple(_ref_from_dict(r) for r in d["reads"]),
            None,
        )
    if d["node"] == "loop":
        return Loop(
            d["index"],
            tuple(affine_from_dict(b) for b in d["lower"]),
            tuple(affine_from_dict(b) for b in d["upper"]),
            tuple(_node_from_dict(child) for child in d["body"]),
            int(d["stride"]),
        )
    raise WireError(f"unknown IR node kind {d['node']!r}")


def program_to_dict(program: LoopProgram) -> Dict[str, Any]:
    return {
        "name": program.name,
        "body": [_node_to_dict(node) for node in program.body],
        "parameters": list(program.parameters),
        "array_shapes": {
            name: list(shape) for name, shape in program.array_shapes.items()
        },
    }


def program_from_dict(d: Dict[str, Any]) -> LoopProgram:
    return LoopProgram(
        name=d["name"],
        body=tuple(_node_from_dict(node) for node in d["body"]),
        parameters=tuple(d["parameters"]),
        array_shapes={
            name: tuple(int(s) for s in shape)
            for name, shape in d["array_shapes"].items()
        },
    )


# ---------------------------------------------------------------------------
# config marshalling
# ---------------------------------------------------------------------------


def _check_fields(d: Any, fields: Tuple[str, ...], what: str) -> None:
    """A config dict must carry exactly ``fields``: a stale peer's extra
    knob is refused, never silently dropped."""
    if not isinstance(d, dict) or set(d) != set(fields):
        got = sorted(d) if isinstance(d, dict) else type(d).__name__
        raise WireError(f"bad {what}: fields must be exactly {list(fields)}, got {got}")


def exec_config_to_dict(cfg: Optional[ExecConfig]) -> Optional[Dict[str, Any]]:
    if cfg is None:
        return None
    return {"backend": cfg.backend, "workers": cfg.workers, "seed": cfg.seed}


def exec_config_from_dict(d: Optional[Dict[str, Any]]) -> Optional[ExecConfig]:
    """The execution config a peer asked for, validated before any work:
    fields are taken as sent (never coerced), the backend must be registered
    here, and ``workers`` is capped at :data:`MAX_WIRE_WORKERS`, so a request
    cannot make the server fork an arbitrary pool."""
    if d is None:
        return None
    _check_fields(d, ("backend", "workers", "seed"), "exec_config")
    workers = d["workers"]
    if isinstance(workers, int) and workers > MAX_WIRE_WORKERS:
        raise WireError(
            f"exec_config.workers={workers} exceeds the {MAX_WIRE_WORKERS}-worker bound"
        )
    try:
        return ExecConfig(**d)
    except (TypeError, ValueError) as exc:
        raise WireError(f"bad exec_config: {exc}") from None


def plan_config_to_dict(cfg: Optional[PlanConfig]) -> Optional[Dict[str, Any]]:
    if cfg is None:
        return None
    return {"strategies": list(cfg.strategies) if cfg.strategies is not None else None}


def plan_config_from_dict(d: Optional[Dict[str, Any]]) -> Optional[PlanConfig]:
    """The plan config a peer asked for; :class:`PlanConfig` validates every
    field as sent (a bare string or an unknown strategy name is refused here,
    not inside ``plan()``)."""
    if d is None:
        return None
    _check_fields(d, ("strategies",), "plan config")
    try:
        return PlanConfig(**d)
    except (TypeError, ValueError) as exc:
        raise WireError(f"bad plan config: {exc}") from None


def _selection_to_dict(sel: Optional[SelectionReport]) -> Optional[Dict[str, Any]]:
    if sel is None:
        return None
    return {
        "order": list(sel.order),
        "scores": [[s, v, r] for s, v, r in sel.scores],
        "features": asdict(sel.features) if isinstance(sel.features, ProgramFeatures) else None,
        "bucket": sel.bucket,
        "source": sel.source,
    }


def _selection_from_dict(d: Optional[Dict[str, Any]]) -> Optional[SelectionReport]:
    if d is None:
        return None
    return SelectionReport(
        order=tuple(d["order"]),
        scores=tuple((s, float(v), r) for s, v, r in d["scores"]),
        features=(
            ProgramFeatures(**d["features"]) if d["features"] is not None else None
        ),
        bucket=d["bucket"],
        source=d["source"],
    )


# ---------------------------------------------------------------------------
# request / response frames
# ---------------------------------------------------------------------------


def request_frame(req: PlanRequest) -> Tuple[Dict[str, Any], Tuple[bytes, ...]]:
    """Header + payloads for one :class:`PlanRequest`."""
    specs, bodies = array_specs(req.store)
    header = {
        "request_id": req.request_id,
        "program": program_to_dict(req.program),
        "params": {k: int(v) for k, v in dict(req.params).items()},
        "config": plan_config_to_dict(req.config),
        "exec_config": exec_config_to_dict(req.exec_config),
        "has_store": req.store is not None,
        "arrays": specs,
    }
    return header, bodies


def decode_request(header: Dict[str, Any], payloads: List[bytes]) -> PlanRequest:
    store = (
        arrays_from_payloads(header["arrays"], payloads)
        if header["has_store"]
        else None
    )
    return PlanRequest(
        program=program_from_dict(header["program"]),
        params=dict(header["params"]),
        config=plan_config_from_dict(header["config"]),
        exec_config=exec_config_from_dict(header["exec_config"]),
        store=store,
        request_id=header["request_id"],
    )


def _json_safe_meta(meta: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in meta.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            out[key] = repr(value)  # observability value, not a round-trip one
        else:
            out[key] = value
    return out


def response_frame(resp: PlanResponse) -> Tuple[Dict[str, Any], Tuple[bytes, ...]]:
    """Header + payloads for one :class:`PlanResponse`."""
    result = resp.result
    specs, bodies = array_specs(result.store)
    header = {
        "request_id": resp.request_id,
        "strategy": resp.strategy,
        "scheme": resp.scheme,
        "backend": resp.backend,
        "selection": _selection_to_dict(resp.selection),
        "explain": resp.explain,
        "plan_cache_hit": resp.plan_cache_hit,
        "pool_reused": resp.pool_reused,
        "batch_size": resp.batch_size,
        "timings": dict(resp.timings),
        "result": {
            "backend": result.backend,
            "workers": result.workers,
            "elapsed_s": result.elapsed_s,
            "meta": _json_safe_meta(dict(result.meta)),
            "phase_stats": [asdict(p) for p in result.phase_stats],
        },
        "arrays": specs,
    }
    return header, bodies


def decode_response(header: Dict[str, Any], payloads: List[bytes]) -> PlanResponse:
    rd = header["result"]
    result = RunResult(
        store=arrays_from_payloads(header["arrays"], payloads),
        backend=rd["backend"],
        workers=int(rd["workers"]),
        phase_stats=tuple(PhaseStats(**p) for p in rd["phase_stats"]),
        elapsed_s=float(rd["elapsed_s"]),
        meta=dict(rd["meta"]),
    )
    return PlanResponse(
        request_id=header["request_id"],
        strategy=header["strategy"],
        scheme=header["scheme"],
        backend=header["backend"],
        result=result,
        selection=_selection_from_dict(header["selection"]),
        explain=header["explain"],
        plan_cache_hit=bool(header["plan_cache_hit"]),
        pool_reused=bool(header["pool_reused"]),
        batch_size=int(header["batch_size"]),
        timings={k: float(v) for k, v in header["timings"].items()},
    )


def busy_frame(request_id: str, busy: ServerBusy) -> Dict[str, Any]:
    return {"request_id": request_id, **busy.to_header()}


def error_frame(
    request_id: Optional[str], error: BaseException
) -> Dict[str, Any]:
    return {
        "request_id": request_id,
        "error_type": type(error).__name__,
        "message": str(error),
    }
