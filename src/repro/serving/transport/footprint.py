"""Footprint stores: the array cells a served run really reads and writes.

A plan's run reads only the cells its read references reach, its read set
R, and changes only the cells its write references reach, its write set W.
Both are sorted, unique C-order flat indices per array, worked out once per
plan (and array shapes) from the analysis' statement domains
(:meth:`~repro.dependence.analysis.DependenceAnalysis.statement_domain_array`)
through the lockstep executor's own indexer
(:func:`repro.runtime.lockstep._flat_index`), and cached on the plan
(:attr:`Plan.footprints <repro.core.strategy.Plan.footprints>`).

R is enough to run a request: under the default statement semantics, the
only one the wire carries, a written value depends on nothing but the cells
read and the iteration vector.  So a server that holds R's initial values,
and zeros elsewhere, writes the same W cells as one that holds the whole
store, whatever the order of reads and writes.

A plan whose R ∪ W is not smaller than its arrays keeps full stores.  The
check first bounds |R ∪ W| by the closed-form instance count of the plan's
features times the references of a statement, so a large symbolic nest is
refused without enumerating its domain.
"""

from __future__ import annotations

from math import prod
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

import numpy as np

from ...codegen.python_source import _integer_subscripts
from ...core.strategy import Plan
from ...runtime.lockstep import _flat_index
from .wire import WireError

__all__ = ["Footprint", "plan_footprint", "request_footprint", "footprint_stats"]

_EMPTY = np.zeros(0, dtype=np.int64)


class Footprint(NamedTuple):
    """Per array, the flat indices a plan's run reads and writes."""

    reads: Dict[str, np.ndarray]
    writes: Dict[str, np.ndarray]

    @property
    def nbytes(self) -> int:
        return sum(idx.nbytes for part in self for idx in part.values())


def _compute(p: Plan, store_shapes: Dict[str, Tuple[int, ...]]) -> Optional[Footprint]:
    contexts = p.program.statement_contexts()
    names = {ref.array for ctx in contexts for ref in ctx.statement.references()}
    if not names <= set(store_shapes):
        return None  # the run itself reports the missing array
    shapes = {name: store_shapes[name] for name in names}
    cells = sum(prod(shape) for shape in shapes.values())
    features = p.selection.features if p.selection is not None else None
    if features is None:
        from ...analysis.features import program_features

        features = program_features(p.program, p.params, p.analysis, p.fingerprint)
    refs = max((len(ctx.statement.reads) + len(ctx.statement.writes) for ctx in contexts),
               default=0)
    if features.n_points * refs >= cells:
        return None
    found: Tuple[Dict[str, list], Dict[str, list]] = ({}, {})
    for ctx in contexts:
        column = {name: k for k, name in enumerate(ctx.index_names)}
        if not all(_integer_subscripts(ref, column) for ref in ctx.statement.references()):
            return None
        rows = p.analysis.statement_domain_array(ctx.statement.label)
        for part, refs_of in zip(found, (ctx.statement.reads, ctx.statement.writes)):
            for ref in refs_of:
                try:
                    flat = _flat_index(ref, rows, column, shapes[ref.array])
                except IndexError:
                    return None  # the run itself reports the bad subscript
                part.setdefault(ref.array, []).append(flat)
    reads, writes = (
        {name: np.unique(np.concatenate(part[name])) if name in part else _EMPTY
         for name in shapes}
        for part in found
    )
    if sum(len(np.union1d(reads[name], writes[name])) for name in shapes) >= cells:
        return None
    return Footprint(reads, writes)


def plan_footprint(p: Plan, shapes: Dict[str, Tuple[int, ...]]) -> Optional[Footprint]:
    """``p``'s footprint over a store of arrays of the given ``shapes``, by
    the arrays its program references, or ``None`` when the plan keeps full
    stores.  Cached on the plan for the last shapes it was asked for."""
    key = tuple(sorted(shapes.items()))
    if key not in p.footprints:
        footprint = _compute(p, shapes)
        p.footprints.clear()
        p.footprints[key] = footprint
    return p.footprints[key]


def request_footprint(
    p: Plan,
    store: Optional[Dict[str, np.ndarray]],
    reads: Optional[Dict[str, np.ndarray]] = None,
) -> Optional[Footprint]:
    """The footprint a served request is answered with, or ``None`` for a
    full store.  ``reads`` are the indices a footprint store holds: unless
    they are the plan's read set, this raises :class:`WireError` before
    anything runs."""
    footprint = None
    if store is not None:
        footprint = plan_footprint(p, {name: arr.shape for name, arr in store.items()})
    if reads is not None:
        if footprint is None:
            raise WireError(
                f"footprint store refused: the plan of {p.program.name!r} "
                "keeps full stores"
            )
        for name in set(reads) | set(footprint.reads):
            sent = reads.get(name, _EMPTY)
            if not np.array_equal(sent, footprint.reads.get(name, _EMPTY)):
                raise WireError(
                    f"footprint store refused: array {name!r} holds {len(sent)} "
                    f"cells, not the read set of the plan of {p.program.name!r}"
                )
    return footprint


def footprint_stats(plans: Iterable[Plan]) -> Dict[str, int]:
    """How many footprints ``plans`` hold, and their index bytes."""
    held = [fp for p in plans for fp in list(p.footprints.values()) if fp is not None]
    return {"cached": len(held), "bytes": sum(fp.nbytes for fp in held)}
