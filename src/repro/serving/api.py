"""Request/response payloads of the plan-serving daemon.

The wire format of :class:`~repro.serving.server.PlanServer` is deliberately
thin: a request carries the loop nest IR plus the knobs the one-shot
:func:`repro.core.strategy.plan` / :func:`repro.runtime.backends.execute`
pair already takes, and a response carries the unified
:class:`~repro.runtime.backends.RunResult` plus the planning provenance
(:class:`~repro.core.strategy.SelectionReport`, ``explain()`` text) and the
serving-side amortisation facts (plan-cache hit, pool reuse, batch size).
Nothing is serialised — the server is memory-resident, in-process, and the
payloads are plain dataclasses so a transport layer can be bolted on later
without touching the server.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from ..core.strategy import PlanConfig, SelectionReport
from ..ir.program import LoopProgram
from ..runtime.backends import ExecConfig, RunResult

__all__ = ["PlanRequest", "PlanResponse"]


def _new_request_id() -> str:
    return uuid.uuid4().hex


@dataclass(frozen=True)
class PlanRequest:
    """One unit of admission: plan ``program`` at ``params`` and execute it.

    ``store`` (when given) is the client's own arrays; the executed results
    are written back into it, mirroring ``execute(store=...)``.  When omitted
    the server builds the program's canonical store
    (:func:`repro.runtime.backends.make_store`).  ``config`` tunes planning,
    ``exec_config`` picks the backend/worker count — both default to the
    library defaults, and for the ``process`` backend the server swaps in its
    persistent worker pool instead of forking a fresh one.

    Two fields serve the wire transport's footprint stores
    (:mod:`repro.serving.transport.footprint`) and stay unset in process.
    ``footprint=True`` says the client keeps its own store: the response
    names the cells the run wrote (:attr:`PlanResponse.writes`), so only
    those travel back.  ``reads`` says ``store`` holds only these flat
    indices per array (zero elsewhere), the read set the client cached from
    an earlier response; the server refuses the request unless it is the
    plan's own.
    """

    program: LoopProgram
    params: Mapping[str, int] = field(default_factory=dict)
    config: Optional[PlanConfig] = None
    exec_config: Optional[ExecConfig] = None
    store: Optional[Dict[str, np.ndarray]] = None
    request_id: str = field(default_factory=_new_request_id)
    footprint: bool = False
    reads: Optional[Dict[str, np.ndarray]] = None


@dataclass(frozen=True)
class PlanResponse:
    """What the server hands back for one :class:`PlanRequest`.

    ``result.store`` holds the executed arrays (the request's own store when
    one was supplied).  ``plan_cache_hit`` / ``pool_reused`` expose whether
    the warm paths fired; ``batch_size`` is how many requests the admission
    queue drained into the same serving batch (barrier amortisation is
    observable, not just claimed).  ``timings`` has ``plan_s`` /
    ``execute_s`` / ``total_s`` wall-clock seconds, and ``queue_s``, the
    admission wait from the end of ``submit`` to the start of planning.

    ``writes`` and ``reads`` answer a ``footprint`` request whose plan
    touches fewer cells than its arrays hold: the sorted flat indices each
    array's cells were written at, and (when the request carried its whole
    store) read at.  The wire then ships only the written cells, and a
    response decoded from such a frame holds, in ``result.store``, each
    array's written values in that order, until the
    :class:`~repro.serving.transport.TransportClient` writes them into the
    request's own arrays.
    """

    request_id: str
    strategy: str
    scheme: str
    backend: str
    result: RunResult
    selection: Optional[SelectionReport]
    explain: str
    plan_cache_hit: bool
    pool_reused: bool
    batch_size: int
    timings: Dict[str, float] = field(default_factory=dict)
    writes: Optional[Dict[str, np.ndarray]] = None
    reads: Optional[Dict[str, np.ndarray]] = None
