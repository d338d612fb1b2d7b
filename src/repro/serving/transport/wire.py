"""Framing and marshalling: dataclasses + NumPy stores on a byte stream.

One frame on the wire::

    +--------+---------+------+-------------+----------------+---------...
    | magic  | version | kind | header_len  | header (JSON)  | payloads
    | 4 B    | u16 BE  | u8   | u32 BE      | header_len B   | raw bytes
    +--------+---------+------+-------------+----------------+---------...

The JSON header carries everything structured — request/response fields,
plan/exec configs, the loop-nest IR as one canonical JSON text — plus an
``arrays`` list of payload specs, one per store array.  The payloads are raw
bytes, concatenated in spec order, so array data never passes through JSON
and round-trips bit-identically.  :func:`read_frame` checks the header's
framing schema — a JSON object whose ``arrays`` specs declare non-negative
integer ``nbytes`` summing to at most :data:`MAX_PAYLOAD_BYTES` — before it
reads a single payload byte, so a malformed header is a :class:`WireError`,
never an allocation.

A spec always names the array's ``name``, ``dtype`` (a numeric NumPy dtype
string) and ``shape``; a store travels in one of two forms:

* **full** — the spec's payload is the whole array, ``ndarray.tobytes()``
  in C order;
* **cells** — the spec adds ``cells`` and ``reads`` counts and its payload
  is ``cells`` little-endian int64 flat indices (sorted, unique, in range),
  then the ``cells`` values at them, then ``reads`` more such indices.

Neither end re-ships what the other already holds:

* **program interning** — the client encodes each program object's text
  once (:func:`program_text`, a bounded memo keyed by identity) and the
  server decodes each distinct text once (:func:`intern_program`, a table
  bounded by entries and bytes), so repeated requests reuse one
  :class:`~repro.ir.program.LoopProgram` and everything cached on it: its
  fingerprint and the ``compiled`` backend's lowered kernel;
* **footprint stores** (:mod:`repro.serving.transport.footprint`) — a
  client store is answered with the cells the run wrote, which the client
  writes into its own arrays.  The first answer for a (program, params,
  array shapes and dtypes) key also carries the plan's read set; the
  client caches it (process-wide, bounded) and from then on sends only
  those cells.  The server checks them against its own read set before it
  runs anything.  A plan that touches no fewer cells than its arrays hold
  keeps full stores both ways.

Frame kinds: ``REQUEST`` and ``RESPONSE`` carry the serving payloads;
``BUSY`` is the structured back-pressure answer
(:class:`~repro.serving.policy.ServerBusy` as a header); ``ERROR`` reports a
serving- or protocol-side failure and re-raises client-side as
:class:`RemoteServingError`.  A version mismatch is detected on *every*
frame (the version rides the fixed prelude) and raised as
:class:`ProtocolVersionMismatch` — the server answers one ``ERROR`` frame
before hanging up so old clients fail with a message, not a reset.
:func:`decode_request` and :func:`decode_response` turn any malformed field
into a :class:`WireError`.

Deliberate marshalling refusals (clear errors, not silent drops): statement
``semantics`` callables cannot cross the wire, and an execution config naming
an unregistered backend is refused at decode time, before any planning.
Non-JSON ``meta`` values travel as their ``repr``.
"""

from __future__ import annotations

import enum
import json
import math
import struct
import threading
from collections import OrderedDict
from dataclasses import asdict
from fractions import Fraction
from typing import Any, Dict, IO, List, Mapping, Optional, Tuple

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
    "TruncatedFrame",
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
    "program_text",
    "intern_program",
    "cache_stats",
]

#: First bytes of every frame — a cheap "is this even our protocol" check.
MAGIC = b"RPLN"

#: Bumped on any incompatible change to the frame layout or header schema
#: (2: the plan config lost its three engine-selection knobs; 3: the plan
#: config lost ``selector``, the selection report its ``selector`` and the
#: features their wavefront estimate; 4: the exec config is ``{backend,
#: workers, seed}``, the plan config ``{strategies}``, and a response's
#: result always carries its store; 5: the program travels as one canonical
#: JSON text, and a store as its full arrays or as footprint cells).
PROTOCOL_VERSION = 5

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


class TruncatedFrame(WireError, EOFError):
    """The peer closed the stream mid-frame: a malformed frame that is also
    an end of stream."""


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
            raise TruncatedFrame(f"peer closed mid-frame ({remaining} bytes short)")
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
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
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

#: Exceptions a decoder turns into :class:`WireError`: what indexing,
#: converting and constructing from a malformed header raises.
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError,
              ArithmeticError, RecursionError)

#: Array kinds a store may hold: bool, signed and unsigned integer, float and
#: complex.  Objects, strings, records and dates are refused.
_NUMERIC_KINDS = frozenset("biufc")

_INDEX = np.dtype("<i8")
_EMPTY_INDEX = np.zeros(0, dtype=np.int64)


def _array_spec(spec: Any) -> Tuple[str, np.dtype, Tuple[int, ...], int]:
    """``(name, dtype, shape, cells)`` of a payload spec, checked: a numeric
    dtype and non-negative integer extents, the cell count in Python ints
    (an int64 product could wrap)."""
    if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
        raise WireError(f"payload spec {spec!r} needs a string 'name'")
    name, raw, shape = spec["name"], spec.get("dtype"), spec.get("shape")
    try:
        dtype = np.dtype(raw) if isinstance(raw, str) else None
    except (TypeError, ValueError, SyntaxError):  # what np.dtype raises for junk
        dtype = None
    if dtype is None or dtype.kind not in _NUMERIC_KINDS:
        raise WireError(f"array {name!r}: dtype {raw!r} is not a numeric dtype")
    if not isinstance(shape, list) or any(
        type(extent) is not int or extent < 0 for extent in shape
    ):
        raise WireError(f"array {name!r}: shape {shape!r} needs non-negative integer extents")
    return name, dtype, tuple(shape), math.prod(shape)


def _count(spec: Dict[str, Any], field: str) -> int:
    value = spec.get(field)
    if type(value) is not int or value < 0:
        raise WireError(f"array {spec['name']!r}: {field!r} must be a non-negative integer")
    return value


def _check_specs(specs: Any, payloads: List[bytes]) -> List[Dict[str, Any]]:
    if not isinstance(specs, list) or len(specs) != len(payloads):
        got = len(specs) if isinstance(specs, list) else type(specs).__name__
        raise WireError(f"frame carries {len(payloads)} payloads for specs {got}")
    return specs


def array_specs(
    store: Optional[Dict[str, np.ndarray]],
) -> Tuple[List[Dict[str, Any]], Tuple[bytes, ...]]:
    """Payload specs + raw bodies for a full store (``None`` -> no payloads)."""
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
    """Rebuild a full store, dtype and shape pinned by the specs."""
    store: Dict[str, np.ndarray] = {}
    for spec, body in zip(_check_specs(specs, payloads), payloads):
        name, dtype, shape, size = _array_spec(spec)
        expected = dtype.itemsize * size
        if len(body) != spec["nbytes"] or len(body) != expected:
            raise WireError(
                f"array {name!r}: payload is {len(body)} bytes, "
                f"spec says {spec['nbytes']} for {dtype} {shape}"
            )
        store[name] = np.frombuffer(body, dtype=dtype).reshape(shape).copy()
    return store


def _indices(name: str, body: bytes, count: int, offset: int, size: int) -> np.ndarray:
    idx = np.frombuffer(body, dtype=_INDEX, count=count, offset=offset).astype(np.int64)
    if count and (idx[0] < 0 or idx[-1] >= size or np.any(idx[1:] <= idx[:-1])):
        raise WireError(
            f"array {name!r}: footprint indices must be sorted, unique and in "
            f"range(0, {size})"
        )
    return idx


def cell_specs(
    arrays: Dict[str, np.ndarray],
    cells: Dict[str, np.ndarray],
    reads: Optional[Dict[str, np.ndarray]] = None,
) -> Tuple[List[Dict[str, Any]], Tuple[bytes, ...]]:
    """Payload specs + bodies for a footprint store: each array's values at
    its ``cells`` flat indices (none where it has no entry), followed by its
    ``reads`` indices when given."""
    specs: List[Dict[str, Any]] = []
    bodies: List[bytes] = []
    for name in sorted(arrays):
        arr = arrays[name]
        idx = cells.get(name, _EMPTY_INDEX)
        read = _EMPTY_INDEX if reads is None else reads.get(name, _EMPTY_INDEX)
        values = np.take(arr, idx)
        body = b"".join((idx.astype(_INDEX).tobytes(), values.tobytes(),
                         read.astype(_INDEX).tobytes()))
        specs.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "cells": len(idx),
                "reads": len(read),
                "nbytes": len(body),
            }
        )
        bodies.append(body)
    return specs, tuple(bodies)


#: One decoded footprint spec: ``(dtype, shape, indices, values, reads)``.
Cells = Tuple[np.dtype, Tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]


def cells_from_payloads(
    specs: List[Dict[str, Any]], payloads: List[bytes]
) -> Dict[str, Cells]:
    """Decode footprint specs: the checks of :func:`arrays_from_payloads`,
    plus sorted, unique, in-range indices, as many as there are values, and
    whole arrays no larger than :data:`MAX_PAYLOAD_BYTES` (the receiver
    allocates them)."""
    out: Dict[str, Cells] = {}
    total = 0
    for spec, body in zip(_check_specs(specs, payloads), payloads):
        name, dtype, shape, size = _array_spec(spec)
        if name in out:
            raise WireError(f"array {name!r} appears twice")
        total += dtype.itemsize * size
        if total > MAX_PAYLOAD_BYTES:
            raise WireError(
                f"footprint arrays hold over {MAX_PAYLOAD_BYTES} bytes in total"
            )
        cells, reads = _count(spec, "cells"), _count(spec, "reads")
        expected = cells * (_INDEX.itemsize + dtype.itemsize) + reads * _INDEX.itemsize
        if len(body) != spec["nbytes"] or len(body) != expected:
            raise WireError(
                f"array {name!r}: payload is {len(body)} bytes, spec says "
                f"{spec['nbytes']} for {cells} {dtype} cells and {reads} read indices"
            )
        values_at = cells * _INDEX.itemsize
        out[name] = (
            dtype,
            shape,
            _indices(name, body, cells, 0, size),
            np.frombuffer(body, dtype=dtype, count=cells, offset=values_at).copy(),
            _indices(name, body, reads, values_at + cells * dtype.itemsize, size),
        )
    return out


# ---------------------------------------------------------------------------
# the caches that keep both ends from re-shipping what they hold
# ---------------------------------------------------------------------------


class _BoundedCache:
    """A thread-safe LRU map bounded by entries and by bytes, with hit and
    miss counters.  A value larger than the byte bound is not kept."""

    def __init__(self, max_entries: int, max_bytes: int):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Any) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Any, value: Any, nbytes: int) -> None:
        if nbytes > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            while len(self._entries) > self.max_entries or self._bytes > self.max_bytes:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped

    def pop(self, key: Any) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "bytes": self._bytes,
                    "hits": self.hits, "misses": self.misses}


#: Client side: each program object's wire text, keyed by identity (the
#: entry holds the program, so its id is not reused while it lives).
_PROGRAM_TEXTS = _BoundedCache(max_entries=256, max_bytes=16 * 1024 * 1024)

#: Server side: each distinct program text's decoded program.
_INTERNED = _BoundedCache(max_entries=256, max_bytes=16 * 1024 * 1024)

#: Client side: the read sets servers returned, keyed by
#: :func:`_store_key`.  Process-wide, so a reconnecting client keeps them.
_READ_SETS = _BoundedCache(max_entries=1024, max_bytes=64 * 1024 * 1024)


def program_text(program: LoopProgram) -> str:
    """The canonical JSON text of ``program`` (its :func:`program_to_dict`),
    encoded once per program object."""
    hit = _PROGRAM_TEXTS.get(id(program))
    if hit is not None and hit[0] is program:
        return hit[1]
    text = json.dumps(program_to_dict(program), separators=(",", ":"), sort_keys=True)
    _PROGRAM_TEXTS.put(id(program), (program, text), len(text))
    return text


def intern_program(text: Any) -> LoopProgram:
    """The program a wire text describes, decoded once per distinct text;
    a malformed text is a :class:`WireError`."""
    if not isinstance(text, str):
        raise WireError(f"'program' must be a JSON text, got {type(text).__name__}")
    program = _INTERNED.get(text)
    if program is None:
        try:
            program = program_from_dict(json.loads(text))
        except _MALFORMED as exc:
            raise WireError(f"undecodable program: {type(exc).__name__}: {exc}") from None
        _INTERNED.put(text, program, len(text))
    return program


def _store_key(program: LoopProgram, params: Mapping[str, int],
               store: Dict[str, np.ndarray]) -> tuple:
    """What a plan's read set depends on: the program, the parameters and
    the shapes of the arrays (the dtypes pick the cell size)."""
    return (
        program_text(program),
        tuple(sorted((str(k), int(v)) for k, v in params.items())),
        tuple((name, store[name].shape, store[name].dtype.str) for name in sorted(store)),
    )


def remember_reads(req: PlanRequest, reads: Dict[str, np.ndarray]) -> None:
    """Cache the read set a server returned for ``req``'s store."""
    nbytes = sum(idx.nbytes for idx in reads.values())
    _READ_SETS.put(_store_key(req.program, req.params, req.store), reads, nbytes)


def forget_reads(req: PlanRequest) -> None:
    """Drop the cached read set of ``req``'s store (a server refused it)."""
    if req.store is not None:
        _READ_SETS.pop(_store_key(req.program, req.params, req.store))


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Entries, bytes, hits and misses of this process's wire caches: the
    client's program texts and read sets, the server's interned programs."""
    return {
        "program_texts": _PROGRAM_TEXTS.stats(),
        "interned_programs": _INTERNED.stats(),
        "read_sets": _READ_SETS.stats(),
    }


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
    """Header + payloads for one :class:`PlanRequest`.

    A store whose read set this process holds (:func:`remember_reads`)
    travels as those cells only; any other store travels whole."""
    store_kind: Optional[str] = None
    specs: List[Dict[str, Any]] = []
    bodies: Tuple[bytes, ...] = ()
    if req.store is not None:
        reads = _READ_SETS.get(_store_key(req.program, req.params, req.store))
        if reads is None:
            store_kind = "full"
            specs, bodies = array_specs(req.store)
        else:
            store_kind = "cells"
            specs, bodies = cell_specs(req.store, reads)
    header = {
        "request_id": req.request_id,
        "program": program_text(req.program),
        "params": {k: int(v) for k, v in dict(req.params).items()},
        "config": plan_config_to_dict(req.config),
        "exec_config": exec_config_to_dict(req.exec_config),
        "store": store_kind,
        "arrays": specs,
    }
    return header, bodies


def _params_from_wire(params: Any) -> Dict[str, int]:
    if not isinstance(params, dict) or any(
        type(v) is not int for v in params.values()
    ):
        raise WireError(f"'params' must map names to integers, got {params!r}")
    return dict(params)


def _store_from_cells(cells: Dict[str, Cells]) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Zero arrays holding the sent cells, and each array's sent indices."""
    store: Dict[str, np.ndarray] = {}
    reads: Dict[str, np.ndarray] = {}
    for name, (dtype, shape, idx, values, extra) in cells.items():
        if len(extra):
            raise WireError(f"array {name!r}: a request carries no read indices")
        arr = np.zeros(shape, dtype=dtype)
        arr.reshape(-1)[idx] = values
        store[name] = arr
        reads[name] = idx
    return store, reads


def decode_request(header: Dict[str, Any], payloads: List[bytes]) -> PlanRequest:
    """The :class:`PlanRequest` a frame describes; any malformed field is a
    :class:`WireError`."""
    try:
        request_id = header["request_id"]
        if not isinstance(request_id, str):
            raise WireError(f"'request_id' must be a string, got {request_id!r}")
        store_kind = header["store"]
        store: Optional[Dict[str, np.ndarray]] = None
        reads: Optional[Dict[str, np.ndarray]] = None
        if store_kind == "full":
            store = arrays_from_payloads(header["arrays"], payloads)
        elif store_kind == "cells":
            store, reads = _store_from_cells(cells_from_payloads(header["arrays"], payloads))
        elif store_kind is not None:
            raise WireError(f"unknown store kind {store_kind!r}")
        elif payloads:
            raise WireError("a request without a store carries payloads")
        return PlanRequest(
            program=intern_program(header["program"]),
            params=_params_from_wire(header["params"]),
            config=plan_config_from_dict(header["config"]),
            exec_config=exec_config_from_dict(header["exec_config"]),
            store=store,
            request_id=request_id,
            footprint=store is not None,
            reads=reads,
        )
    except _MALFORMED as exc:
        raise WireError(f"malformed request: {type(exc).__name__}: {exc}") from None


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
    """Header + payloads for one :class:`PlanResponse`: the written cells
    (and the read set, when the response names it) for a footprint answer,
    the whole store otherwise."""
    result = resp.result
    if resp.writes is None:
        store_kind = "full"
        specs, bodies = array_specs(result.store)
    else:
        store_kind = "cells"
        written = {name: result.store[name] for name in resp.writes}
        specs, bodies = cell_specs(written, resp.writes, resp.reads)
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
        "store": store_kind,
        "reads": resp.reads is not None,
        "arrays": specs,
    }
    return header, bodies


def decode_response(header: Dict[str, Any], payloads: List[bytes]) -> PlanResponse:
    """The :class:`PlanResponse` a frame describes.  A footprint answer's
    ``result.store`` holds each array's written values, in the order of
    its ``writes`` indices; any malformed field is a :class:`WireError`."""
    try:
        writes = reads = None
        if header["store"] == "full":
            store = arrays_from_payloads(header["arrays"], payloads)
        elif header["store"] == "cells":
            cells = cells_from_payloads(header["arrays"], payloads)
            store = {name: c[3] for name, c in cells.items()}
            writes = {name: c[2] for name, c in cells.items()}
            if header["reads"]:
                reads = {name: c[4] for name, c in cells.items()}
        else:
            raise WireError(f"unknown store kind {header['store']!r}")
        rd = header["result"]
        result = RunResult(
            store=store,
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
            writes=writes,
            reads=reads,
        )
    except _MALFORMED as exc:
        raise WireError(f"malformed response: {type(exc).__name__}: {exc}") from None


def write_cells(
    store: Dict[str, np.ndarray],
    writes: Dict[str, np.ndarray],
    values: Dict[str, np.ndarray],
) -> None:
    """Write a footprint answer's cells into the client's own arrays, in
    place (any memory layout), as ``execute(store=...)`` does."""
    for name, idx in writes.items():
        arr = store.get(name)
        if arr is None or (len(idx) and idx[-1] >= arr.size):
            raise WireError(f"answer writes cells of array {name!r} the request did not send")
        np.put(arr, idx, values[name])


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
