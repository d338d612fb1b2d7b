"""Tests for repro.isl.lexorder: lexicographic comparisons."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl.lexorder import is_lex_positive, lex_compare, lex_le, lex_lt

vectors = st.lists(st.integers(-5, 5), min_size=3, max_size=3).map(tuple)


class TestTupleComparisons:
    def test_basic(self):
        assert lex_lt((1, 5), (2, 0))
        assert lex_lt((1, 5), (1, 6))
        assert not lex_lt((1, 5), (1, 5))
        assert lex_le((1, 5), (1, 5))
        assert lex_compare((2, 0), (1, 9)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lex_lt((1,), (1, 2))

    def test_is_lex_positive(self):
        assert is_lex_positive((0, 0, 1))
        assert is_lex_positive((2, -5, 0))
        assert not is_lex_positive((0, 0, 0))
        assert not is_lex_positive((0, -1, 5))

    @given(vectors, vectors)
    @settings(max_examples=60)
    def test_matches_python_tuple_order(self, a, b):
        assert lex_lt(a, b) == (a < b)
        assert lex_le(a, b) == (a <= b)
        assert lex_compare(a, b) == ((a > b) - (a < b))

    @given(vectors, vectors)
    @settings(max_examples=60)
    def test_trichotomy(self, a, b):
        assert (lex_lt(a, b) + lex_lt(b, a) + (a == b)) == 1
