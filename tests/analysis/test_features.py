"""Tests for the program-feature layer (repro.analysis.features).

The features feed strategy selection, so the facts asserted here are the ones
selection reads: nest shape, coupling, uniformity, the Lemma 1
single-coupled-pair gate, and the bucket key the calibrated table is indexed
by — plus the fingerprint-keyed cache contract
(repeated planning of the same nest never re-extracts).
"""

import pytest

from repro.analysis.features import (
    ProgramFeatures,
    clear_feature_cache,
    feature_cache_stats,
    program_features,
)
from repro.workloads.corpus import lu_kernel, sor_kernel
from repro.workloads.examples import (
    cholesky_loop,
    example2_loop,
    example3_loop,
    figure1_loop,
    figure2_loop,
)
from repro.workloads.synthetic import large_triangular_loop, large_uniform_loop


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_feature_cache()
    yield
    clear_feature_cache()


def _two_shift_uniform_loop(n1, n2):
    """Like ``large_uniform_loop`` but with a second read ``x(I1, I2+1)``,
    giving two distinct uniform distances (1,1) and (1,0).  The closed-form
    O(1) feature path requires exactly one distinct distance, so this program
    exercises the enumerating path."""
    from repro.ir.builder import aref, assign, loop, program

    body = assign(
        "s",
        aref("x", "I1+1", "I2+1"),
        [aref("x", "I1", "I2"), aref("x", "I1", "I2+1")],
    )
    return program(
        "two-shift-uniform",
        loop("I1", 1, n1, loop("I2", 1, n2, body)),
        array_shapes={"x": (n1 + 2, n2 + 2)},
    )


class TestExtraction:
    def test_figure1_features(self):
        f = program_features(figure1_loop(10, 10))
        assert f.program == "figure1"
        assert f.nest_depth == 2 and f.n_statements == 1
        assert f.perfect_nest and f.rectangular
        assert f.n_points == 100
        assert f.coupled_subscripts and f.single_coupled_pair
        assert f.uniform is False
        assert f.n_dependences > 0
        assert f.bucket() == "perfect|1cp|coupled|nonuniform|rect|d2|dep"

    def test_figure2_is_depth1_nonuniform(self):
        f = program_features(figure2_loop(20))
        assert f.nest_depth == 1 and f.uniform is False
        assert f.bucket() == "perfect|1cp|separable|nonuniform|rect|d1|dep"

    def test_uniform_stencil(self):
        f = program_features(large_uniform_loop(12, 12))
        assert f.uniform is True

    def test_triangular_space_is_not_rectangular(self):
        f = program_features(large_triangular_loop(10))
        assert not f.rectangular
        assert f.n_points == 55

    def test_imperfect_nest_features(self):
        f = program_features(example3_loop(12))
        assert not f.perfect_nest
        assert f.uniform is None
        assert f.n_points == sum(
            1 for _ in example3_loop(12).sequential_iterations({})
        )

    def test_sor_is_multi_pair_uniform(self):
        f = program_features(sor_kernel(8))
        assert f.perfect_nest and f.uniform is True
        assert not f.single_coupled_pair  # several pairs carry dependences
        assert f.n_reference_pairs > 1

    def test_lu_is_imperfect_nonrectangular(self):
        f = program_features(lu_kernel(6))
        assert not f.perfect_nest and not f.rectangular
        assert f.nest_depth == 3

    def test_parametric_features_depend_on_params(self):
        prog = figure1_loop()  # symbolic N1/N2
        small = program_features(prog, {"N1": 6, "N2": 6})
        large = program_features(prog, {"N1": 10, "N2": 10})
        assert small.n_points == 36 and large.n_points == 100

    def test_dependence_density_and_dicts(self):
        f = program_features(figure2_loop(20))
        assert f.dependence_density == pytest.approx(f.n_dependences / 20)
        info = f.as_dict()
        assert info["bucket"] == f.bucket()
        assert isinstance(f.describe(), str) and "depth=1" in f.describe()


class TestWavefrontSampling:
    """The dataflow wavefront probe and its sampling cap are gone; the
    enumerating path that two distinct uniform distances take still counts
    points and dependences exactly, never from a sampled prefix."""

    def test_small_space_is_exact(self):
        f = program_features(_two_shift_uniform_loop(40, 40), cache=False)
        assert f.n_points == 40 * 40
        # distances (1,1) and (1,0): 39*39 diagonal plus 39*40 vertical pairs
        assert f.n_dependences == 39 * 39 + 39 * 40


class TestClosedFormFeatures:
    """Symbolic-eligible nests (rectangular, exactly one uniform distance)
    get O(1)-in-N features: exact closed-form counts, no point or pair
    enumeration."""

    def test_counts_match_enumeration_exactly(self):
        f = program_features(large_uniform_loop(12, 12), cache=False)
        assert f.n_points == 144
        assert f.n_dependences == 11 * 11
        assert f.uniform is True and f.single_coupled_pair

    def test_huge_space_is_closed_form(self):
        # 10⁸ points: enumeration is impossible, the closed form is exact.
        f = program_features(large_uniform_loop(10_000, 10_000), cache=False)
        assert f.n_points == 10**8
        assert f.n_dependences == 9_999**2

    def test_two_distinct_shifts_fall_back_to_enumeration(self):
        f = program_features(_two_shift_uniform_loop(12, 9), cache=False)
        assert f.uniform is True and not f.single_coupled_pair
        assert f.n_points == 12 * 9
        # distances (1,1) and (1,0): 11*8 diagonal plus 11*9 vertical pairs
        assert f.n_dependences == 11 * 8 + 11 * 9


class TestFeatureCache:
    def test_cache_hits_on_refetch(self):
        program_features(figure1_loop(8, 8))
        stats = feature_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        program_features(figure1_loop(8, 8))  # fresh but equal program object
        stats = feature_cache_stats()
        assert stats["hits"] == 1 and stats["size"] == 1

    def test_params_key_separately(self):
        prog = figure1_loop()
        a = program_features(prog, {"N1": 6, "N2": 6})
        b = program_features(prog, {"N1": 8, "N2": 8})
        assert a is not b and feature_cache_stats()["size"] == 2

    def test_cache_false_bypasses(self):
        program_features(figure1_loop(8, 8), cache=False)
        assert feature_cache_stats() == {"size": 0, "hits": 0, "misses": 0}

    def test_plan_shares_the_cache(self):
        """A default plan() extracts features once; re-planning hits."""
        from repro.core.strategy import plan

        plan(cholesky_loop(nmat=1, m=2, n=4, nrhs=1), cache=False)
        first = feature_cache_stats()
        assert first["misses"] >= 1
        plan(cholesky_loop(nmat=1, m=2, n=4, nrhs=1), cache=False)
        again = feature_cache_stats()
        assert again["hits"] >= 1
        assert again["misses"] == first["misses"]

    def test_pinned_plan_skips_extraction(self):
        from repro.core.strategy import PlanConfig, plan

        plan(
            example2_loop(8),
            config=PlanConfig(strategies=("dataflow",)), cache=False,
        )
        assert feature_cache_stats() == {"size": 0, "hits": 0, "misses": 0}


class TestFeatureCacheThreadSafety:
    def test_concurrent_extraction_keeps_cache_coherent(self):
        """Many threads extracting features of a handful of programs must
        never corrupt the LRU; counters stay coherent and bounded."""
        import threading

        progs = [figure1_loop(6 + i, 6) for i in range(4)]
        errors = []

        def worker(worker_id):
            try:
                for i in range(25):
                    program_features(progs[(worker_id + i) % len(progs)])
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = feature_cache_stats()
        assert stats["size"] <= len(progs)
        assert stats["hits"] + stats["misses"] == 6 * 25
