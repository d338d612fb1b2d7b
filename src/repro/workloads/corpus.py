"""A synthetic benchmark corpus standing in for the SPECfp95 static study.

§1 of the paper motivates the technique with static statistics gathered over
SPECfp95 and a 12-benchmark study by Shen, Li & Yew:

* more than 46 % of the nested loops contain non-uniform data dependences,
* about 45 % of two-dimensional array reference pairs have coupled linear
  subscripts,
* about 12.8 % of the coupled subscripts generate non-uniform dependences.

The original benchmark sources are proprietary and not available offline, so
the reproducible artifact is the *classifier* (which of a corpus' loops are
coupled / uniform / non-uniform) plus a corpus generator whose composition is
calibrated to the published percentages.  The statistics experiment (E12) runs
the classifier over the generated corpus and checks that it recovers the
generation fractions — i.e. the measurement methodology is validated even
though the original inputs cannot be.

Beyond the composition study, the module hosts the **selection corpus**: named,
seeded program *families* spanning the feature axes the selection table in
:mod:`repro.core.strategy` is keyed on — deep rectangular and triangular nests,
imperfect nests, non-uniform / coupled / separable dependences, parametric
bounds, and real kernels (:func:`lu_kernel`, :func:`sor_kernel` alongside the
paper's Cholesky).  ``benchmarks/bench_strategy_selection.py`` sweeps every
registered strategy over :func:`selection_corpus` to regenerate the calibrated
table ``plan()`` ranks strategies by.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ..ir.builder import aref, assign, loop, program
from ..ir.program import LoopProgram
from .synthetic import (
    SyntheticLoopSpec,
    large_cholesky_nest,
    large_triangular_loop,
    random_coupled_loop,
)

__all__ = [
    "CorpusComposition",
    "SPECFP95_LIKE",
    "build_corpus",
    "CorpusEntry",
    "corpus_families",
    "family_entries",
    "selection_corpus",
    "lu_kernel",
    "sor_kernel",
    "DEFAULT_CORPUS_SEED",
    "CORPUS_SIZES",
]


@dataclass(frozen=True)
class CorpusComposition:
    """Target composition of a synthetic corpus.

    ``coupled_fraction`` — fraction of loops whose reference pairs couple loop
    indices in both references (the remainder use separable, single-index
    subscripts);
    ``nonuniform_given_coupled`` — among coupled loops, the fraction whose
    coefficient matrices differ (producing non-uniform distances).
    """

    name: str
    loops: int
    coupled_fraction: float
    nonuniform_given_coupled: float


#: Composition calibrated to the paper's §1 numbers: roughly 45 % of reference
#: pairs coupled, and enough of those non-uniform that ≈46 % of loops carry a
#: non-uniform dependence is plausible at loop granularity.  We keep the two
#: published knobs and derive the third.
SPECFP95_LIKE = CorpusComposition(
    name="specfp95-like",
    loops=200,
    coupled_fraction=0.45,
    nonuniform_given_coupled=0.5,
)


def build_corpus(
    composition: CorpusComposition = SPECFP95_LIKE,
    seed: int = 20040815,
    n1: int = 8,
    n2: int = 8,
) -> List[SyntheticLoopSpec]:
    """Generate a corpus with the requested composition (deterministic)."""
    rng = random.Random(seed)
    specs: List[SyntheticLoopSpec] = []
    for k in range(composition.loops):
        coupled = rng.random() < composition.coupled_fraction
        if coupled:
            uniform = rng.random() >= composition.nonuniform_given_coupled
            spec = random_coupled_loop(
                rng, n1=n1, n2=n2, force_uniform=uniform, name=f"{composition.name}-{k}"
            )
        else:
            # Separable subscripts: diagonal matrices (each subscript uses a
            # single distinct loop index), always uniform.
            spec = _separable_loop(rng, n1, n2, name=f"{composition.name}-{k}")
        specs.append(spec)
    return specs


def _separable_loop(
    rng: random.Random, n1: int, n2: int, name: str
) -> SyntheticLoopSpec:
    """A loop whose subscripts are separable (X[I1+c1, I2+c2] both sides)."""
    from ..ir.builder import aref, assign, loop, program
    from ..ir.nodes import ArrayRef

    c1, c2 = rng.randint(0, 3), rng.randint(0, 3)
    d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
    size = n1 + n2 + 10
    body = assign(
        "s",
        aref("x", f"I1+{c1}", f"I2+{c2}"),
        [aref("x", f"I1+{d1}", f"I2+{d2}")],
    )
    prog = program(
        name,
        loop("I1", 1, n1, loop("I2", 1, n2, body)),
        array_shapes={"x": (size, size)},
    )
    A = ((1, 0), (0, 1))
    return SyntheticLoopSpec(
        program=prog,
        A=A,
        a=(c1, c2),
        B=A,
        b=(d1, d2),
        coupled=False,
        uniform=True,
        full_rank=True,
        bounds=(n1, n2),
    )


# ---------------------------------------------------------------------------
# real kernels
# ---------------------------------------------------------------------------


def lu_kernel(n: int, name: str = "lu") -> LoopProgram:
    """Right-looking LU factorization without pivoting (one array, no pivots).

        DO K = 1, n
          DO I = K+1, n
            s1:  a(I, K) = f(a(I, K), a(K, K))          ! column scale
            DO J = K+1, n
              s2:  a(I, J) = f(a(I, J), a(I, K), a(K, J))  ! trailing update

    An imperfect, non-rectangular (trapezoidal) depth-3 nest whose dependences
    are the classic LU pattern: each elimination step K writes the trailing
    submatrix the next step reads.
    """
    s1 = assign("s1", aref("a", "I", "K"), [aref("a", "I", "K"), aref("a", "K", "K")])
    s2 = assign(
        "s2",
        aref("a", "I", "J"),
        [aref("a", "I", "J"), aref("a", "I", "K"), aref("a", "K", "J")],
    )
    return program(
        name,
        loop("K", 1, n, loop("I", "K+1", n, s1, loop("J", "K+1", n, s2))),
        array_shapes={"a": (n + 1, n + 1)},
    )


def sor_kernel(n: int, name: str = "sor") -> LoopProgram:
    """Gauss–Seidel successive over-relaxation on an (n+2)² grid.

        DO I = 1, n
          DO J = 1, n
            s:  u(I+1, J+1) = f(u(I, J+1), u(I+1, J), u(I+2, J+1),
                                u(I+1, J+2), u(I+1, J+1))

    A perfect rectangular nest with several *uniform* dependence pairs (flow
    from the west/north neighbours, anti to the east/south) — the wavefront
    workload uniformization schemes and tiling are built for.
    """
    body = assign(
        "s",
        aref("u", "I+1", "J+1"),
        [
            aref("u", "I", "J+1"),
            aref("u", "I+1", "J"),
            aref("u", "I+2", "J+1"),
            aref("u", "I+1", "J+2"),
            aref("u", "I+1", "J+1"),
        ],
    )
    return program(
        name,
        loop("I", 1, n, loop("J", 1, n, body)),
        array_shapes={"u": (n + 3, n + 3)},
    )


# ---------------------------------------------------------------------------
# the selection corpus: seeded, parameterized program families
# ---------------------------------------------------------------------------

#: Seed every corpus consumer (bench, tests, CI smoke) defaults to.
DEFAULT_CORPUS_SEED = 20040815

#: Named size presets for :func:`selection_corpus`: per-family loop bounds.
#: ``small`` keeps every program under ~300 points (CI smoke / unit tests);
#: ``medium`` is the calibration size the checked-in table is generated at.
CORPUS_SIZES: Dict[str, Dict[str, int]] = {
    "small": {
        "deep-rectangular": 5,
        "triangular": 8,
        "imperfect": 6,
        "nonuniform-coupled": 8,
        "coupled-uniform": 8,
        "separable": 8,
        "reversal-1d": 16,
        "parametric": 8,
        "lu": 6,
        "sor": 8,
    },
    "medium": {
        "deep-rectangular": 8,
        "triangular": 16,
        "imperfect": 10,
        "nonuniform-coupled": 40,
        "coupled-uniform": 12,
        "separable": 12,
        "reversal-1d": 40,
        "parametric": 40,
        "lu": 9,
        "sor": 12,
    },
}
# The ``medium`` bounds of the non-uniform families are deliberately in the
# scaling regime the paper's figure-3 experiments run at (n ≳ 40): below
# that, barrier and phase-start overheads dominate the simulated times and
# misrank the schemes relative to their asymptotic behaviour.


@dataclass(frozen=True)
class CorpusEntry:
    """One selection-corpus program: family, unique name, concrete params."""

    family: str
    name: str
    program: LoopProgram
    params: Dict[str, int] = field(default_factory=dict)


def _family_deep_rectangular(seed: int, n: int) -> List[CorpusEntry]:
    """Depth-3 rectangular nests with one uniform pair (dense-box spaces)."""
    entries = []
    for tag, write_subs in (
        ("diag", ("I1+1", "I2+1", "I3+1")),
        ("plane", ("I1+1", "I2", "I3+1")),
    ):
        body = assign("s", aref("x", *write_subs), [aref("x", "I1", "I2", "I3")])
        prog = program(
            f"deep-rect-{tag}",
            loop("I1", 1, n, loop("I2", 1, n, loop("I3", 1, n, body))),
            array_shapes={"x": (n + 2, n + 2, n + 2)},
        )
        entries.append(CorpusEntry("deep-rectangular", f"deep-rect-{tag}", prog))
    return entries


def _family_triangular(seed: int, n: int) -> List[CorpusEntry]:
    """Triangular 2-D nests (inner bound = outer index), uniform pair."""
    tri = large_triangular_loop(n, name="triangular-diag")
    body = assign("s", aref("x", "I1+1", "I2"), [aref("x", "I1", "I2")])
    col = program(
        "triangular-col",
        loop("I1", 1, n, loop("I2", 1, "I1", body)),
        array_shapes={"x": (n + 2, n + 2)},
    )
    return [
        CorpusEntry("triangular", "triangular-diag", tri),
        CorpusEntry("triangular", "triangular-col", col),
    ]


def _family_imperfect(seed: int, n: int) -> List[CorpusEntry]:
    """Imperfect nests: the scaled Cholesky panel plus a row-sweep/diagonal mix."""
    chol = large_cholesky_nest(n, name="imperfect-chol-panel")
    s1 = assign("s1", aref("x", "I", "J"), [aref("x", "I-1", "J")])
    s2 = assign("s2", aref("y", "I"), [aref("x", "I", "I")])
    sweep = program(
        "imperfect-row-sweep",
        loop("I", 1, n, loop("J", 1, n, s1), s2),
        array_shapes={"x": (n + 1, n + 1), "y": (n + 1,)},
    )
    return [
        CorpusEntry("imperfect", "imperfect-chol-panel", chol),
        CorpusEntry("imperfect", "imperfect-row-sweep", sweep),
    ]


def _family_nonuniform_coupled(seed: int, n: int) -> List[CorpusEntry]:
    """Random full-rank coupled pairs with differing matrices (non-uniform)."""
    rng = random.Random(seed)
    entries = []
    for k in range(3):
        spec = random_coupled_loop(
            rng, n1=n, n2=n, force_uniform=False, force_full_rank=True,
            name=f"nonuniform-coupled-{k}",
        )
        entries.append(
            CorpusEntry("nonuniform-coupled", spec.program.name, spec.program)
        )
    return entries


def _family_coupled_uniform(seed: int, n: int) -> List[CorpusEntry]:
    """Coupled subscripts with identical matrices (uniform distances).

    The first entry is deterministic with a guaranteed in-range distance —
    ``x(I1+I2, I2) = x(I1+I2-1, I2-1)`` carries the uniform dependence
    ``(0, 1)`` through a coupled first dimension; the second is a random
    full-rank uniform pair (whose solutions may leave the bounds — the
    dependence-free coupled bucket is a real corpus point too).
    """
    body = assign(
        "s", aref("x", "I1+I2", "I2"), [aref("x", "I1+I2-1", "I2-1")]
    )
    shift = program(
        "coupled-uniform-shift",
        loop("I1", 1, n, loop("I2", 1, n, body)),
        array_shapes={"x": (2 * n + 2, n + 2)},
    )
    rng = random.Random(seed + 1)
    spec = random_coupled_loop(
        rng, n1=n, n2=n, force_uniform=True, force_full_rank=True,
        name="coupled-uniform-rand",
    )
    return [
        CorpusEntry("coupled-uniform", "coupled-uniform-shift", shift),
        CorpusEntry("coupled-uniform", spec.program.name, spec.program),
    ]


def _family_separable(seed: int, n: int) -> List[CorpusEntry]:
    """Separable single-index subscripts (always uniform)."""
    rng = random.Random(seed + 2)
    entries = []
    for k in range(2):
        spec = _separable_loop(rng, n, n, name=f"separable-{k}")
        entries.append(CorpusEntry("separable", spec.program.name, spec.program))
    return entries


def _family_reversal_1d(seed: int, n: int) -> List[CorpusEntry]:
    """Figure 2's 1-D family: ``a(2*I) = a(n+1-I)`` — short monotonic chains."""
    body = assign("s", aref("a", "2*I"), [aref("a", f"{n + 1}-I")])
    prog = program(
        f"reversal-{n}",
        loop("I", 1, n, body),
        array_shapes={"a": (2 * n + 2,)},
    )
    return [CorpusEntry("reversal-1d", f"reversal-{n}", prog)]


def _family_parametric(seed: int, n: int) -> List[CorpusEntry]:
    """Symbolic-bound programs planned at concrete params (shapes sized to n)."""
    body = assign("s", aref("x", "I1+1", "I2+1"), [aref("x", "I1", "I2")])
    stencil = program(
        "parametric-stencil",
        loop("I1", 1, "N", loop("I2", 1, "N", body)),
        parameters=("N",),
        array_shapes={"x": (n + 2, n + 2)},
    )
    nu_body = assign(
        "s", aref("a", "3*I1+1", "2*I1+I2-1"), [aref("a", "I1+3", "I2+1")]
    )
    nonuniform = program(
        "parametric-nonuniform",
        loop("I1", 1, "N", loop("I2", 1, "N", nu_body)),
        parameters=("N",),
        array_shapes={"a": (3 * n + 4, 3 * n + 4)},
    )
    return [
        CorpusEntry("parametric", "parametric-stencil", stencil, {"N": n}),
        CorpusEntry("parametric", "parametric-nonuniform", nonuniform, {"N": n}),
    ]


def _family_lu(seed: int, n: int) -> List[CorpusEntry]:
    return [CorpusEntry("lu", "lu-kernel", lu_kernel(n, name="lu-kernel"))]


def _family_sor(seed: int, n: int) -> List[CorpusEntry]:
    return [CorpusEntry("sor", "sor-kernel", sor_kernel(n, name="sor-kernel"))]


_FAMILIES: "OrderedDict[str, Callable[[int, int], List[CorpusEntry]]]" = OrderedDict(
    [
        ("deep-rectangular", _family_deep_rectangular),
        ("triangular", _family_triangular),
        ("imperfect", _family_imperfect),
        ("nonuniform-coupled", _family_nonuniform_coupled),
        ("coupled-uniform", _family_coupled_uniform),
        ("separable", _family_separable),
        ("reversal-1d", _family_reversal_1d),
        ("parametric", _family_parametric),
        ("lu", _family_lu),
        ("sor", _family_sor),
    ]
)


def corpus_families() -> Tuple[str, ...]:
    """The selection-corpus family names, in sweep order."""
    return tuple(_FAMILIES)


def family_entries(
    family: str, seed: int = DEFAULT_CORPUS_SEED, n: int | None = None,
    size: str = "small",
) -> List[CorpusEntry]:
    """The entries of one family at an explicit bound ``n`` (or a size preset)."""
    if family not in _FAMILIES:
        raise KeyError(
            f"unknown corpus family {family!r}; choose from {', '.join(_FAMILIES)}"
        )
    if n is None:
        n = CORPUS_SIZES[size][family]
    return _FAMILIES[family](seed, n)


def selection_corpus(
    seed: int = DEFAULT_CORPUS_SEED, size: str = "small"
) -> List[CorpusEntry]:
    """The full seeded selection corpus at a named size preset.

    Deterministic: the same ``(seed, size)`` always yields the same programs,
    so the calibrated table regenerated from it is reproducible bit-for-bit.
    """
    if size not in CORPUS_SIZES:
        raise KeyError(
            f"unknown corpus size {size!r}; choose from {', '.join(CORPUS_SIZES)}"
        )
    entries: List[CorpusEntry] = []
    for family in _FAMILIES:
        entries.extend(family_entries(family, seed=seed, size=size))
    return entries
