"""Speedup-report helpers.

Small, pure functions that the benchmarks and the analysis reports share:
speedup tables over thread counts, and comparisons between schemes (who
wins at each processor count, where curves cross).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.schedule import Schedule
from .simulator import CostModel, speedup_curve

__all__ = [
    "SpeedupTable",
    "compare_schemes",
    "crossover_points",
]


@dataclass(frozen=True)
class SpeedupTable:
    """Speedups of several schemes over a common processor range."""

    processors: Tuple[int, ...]
    series: Mapping[str, Mapping[int, float]]

    def winner(self, p: int) -> str:
        """The scheme with the highest speedup at ``p`` processors.

        A scheme whose series has no entry for ``p`` counts as 0.0 speedup
        (it simply cannot win there) instead of raising ``KeyError``.
        """
        return max(self.series, key=lambda name: self.series[name].get(p, 0.0))

    def row(self, name: str) -> List[float]:
        return [self.series[name][p] for p in self.processors]

    def as_rows(self) -> List[Tuple[str, List[float]]]:
        return [(name, self.row(name)) for name in self.series]

    def format(self, precision: int = 2) -> str:
        """A fixed-width text table (the benchmarks print these)."""
        header = "scheme".ljust(14) + "".join(f"p={p}".rjust(9) for p in self.processors)
        lines = [header]
        for name, values in self.as_rows():
            lines.append(
                name.ljust(14) + "".join(f"{v:.{precision}f}".rjust(9) for v in values)
            )
        return "\n".join(lines)


def compare_schemes(
    schedules: Mapping[str, Schedule],
    processors: Sequence[int] = (1, 2, 3, 4),
    cost_models: Optional[Mapping[str, CostModel]] = None,
    sequential_work: Optional[int] = None,
) -> SpeedupTable:
    """Simulate several schemes and collect their speedup curves.

    ``cost_models`` optionally gives each scheme its own cost model (e.g. the
    REC WHILE chains run with ``instance_cost_factor < 1``); schemes without an
    entry use the default model.
    """
    series: Dict[str, Dict[int, float]] = {}
    for name, schedule in schedules.items():
        cm = (cost_models or {}).get(name)
        series[name] = speedup_curve(schedule, processors, cm, sequential_work)
    return SpeedupTable(tuple(processors), series)


def crossover_points(
    table: SpeedupTable, first: str, second: str
) -> List[int]:
    """Processor counts at which the winner between two schemes changes.

    Returns the list of ``p`` where the sign of ``speedup(first) −
    speedup(second)`` differs from the sign at ``p − 1`` (used to check the
    paper's "REC drops below PDM beyond 3 threads" claim for Example 4).
    """
    crossings: List[int] = []
    prev_sign: Optional[int] = None
    for p in table.processors:
        diff = table.series[first][p] - table.series[second][p]
        sign = (diff > 0) - (diff < 0)
        if prev_sign is not None and sign != 0 and prev_sign != 0 and sign != prev_sign:
            crossings.append(p)
        if sign != 0:
            prev_sign = sign
    return crossings
