"""Tests for ternary values and words, including property-based algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TCAMError
from repro.tcam.trit import (
    TernaryWord,
    Trit,
    drive_vector,
    mismatch_counts,
    prefix_word,
    random_word,
    sl_drive,
    word_from_int,
    word_from_string,
)

trits = st.sampled_from([Trit.ZERO, Trit.ONE, Trit.X])
words = st.lists(trits, min_size=1, max_size=24).map(TernaryWord)


class TestTrit:
    def test_from_char_all_forms(self):
        assert Trit.from_char("0") is Trit.ZERO
        assert Trit.from_char("1") is Trit.ONE
        assert Trit.from_char("x") is Trit.X
        assert Trit.from_char("X") is Trit.X

    def test_from_char_rejects_garbage(self):
        with pytest.raises(TCAMError):
            Trit.from_char("2")

    def test_roundtrip_chars(self):
        for t in Trit:
            assert Trit.from_char(t.to_char()) is t

    @given(a=trits, b=trits)
    def test_match_symmetric(self, a, b):
        assert a.matches(b) == b.matches(a)

    @given(a=trits)
    def test_x_matches_everything(self, a):
        assert Trit.X.matches(a)
        assert a.matches(Trit.X)

    def test_specified_mismatch(self):
        assert not Trit.ZERO.matches(Trit.ONE)


class TestTernaryWord:
    def test_parse_and_str_roundtrip(self):
        w = word_from_string("10XX01")
        assert str(w) == "10XX01"

    def test_rejects_empty(self):
        with pytest.raises(TCAMError):
            word_from_string("")

    def test_rejects_bad_values(self):
        with pytest.raises(TCAMError):
            TernaryWord([0, 1, 3])

    def test_equality_and_hash(self):
        a = word_from_string("10X")
        b = word_from_string("10X")
        c = word_from_string("100")
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_indexing_and_slicing(self):
        w = word_from_string("10X1")
        assert w[0] is Trit.ONE
        assert str(w[1:3]) == "0X"

    def test_array_readonly(self):
        w = word_from_string("10")
        with pytest.raises(ValueError):
            w.as_array()[0] = 1

    @given(w=words)
    @settings(max_examples=50)
    def test_word_matches_itself(self, w):
        assert w.matches(w)

    @given(w=words)
    @settings(max_examples=50)
    def test_all_x_key_matches_everything(self, w):
        key = TernaryWord([Trit.X] * len(w))
        assert w.matches(key)

    @given(w=words, k=words)
    @settings(max_examples=50)
    def test_match_symmetric_in_stored_and_key(self, w, k):
        if len(w) == len(k):
            assert w.matches(k) == k.matches(w)

    def test_mismatch_count_counts_conducting_cells(self):
        stored = word_from_string("1010")
        key = word_from_string("1111")
        assert stored.mismatch_count(key) == 2

    def test_mismatch_rejects_width_mismatch(self):
        with pytest.raises(TCAMError):
            word_from_string("10").mismatch_count(word_from_string("100"))


class TestVectorizedMismatch:
    def test_matches_scalar_path(self, rng):
        stored_words = [random_word(16, rng, 0.3) for _ in range(20)]
        key = random_word(16, rng)
        matrix = np.stack([w.as_array() for w in stored_words])
        vec = mismatch_counts(matrix, key.as_array())
        for i, w in enumerate(stored_words):
            assert vec[i] == w.mismatch_count(key)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(TCAMError):
            mismatch_counts(np.zeros((3, 4), dtype=np.int8), np.zeros(5, dtype=np.int8))


class TestConstructors:
    def test_word_from_int_msb_first(self):
        assert str(word_from_int(5, 4)) == "0101"

    def test_word_from_int_rejects_overflow(self):
        with pytest.raises(TCAMError):
            word_from_int(16, 4)

    def test_prefix_word(self):
        assert str(prefix_word(0b1010, 2, 4)) == "10XX"

    def test_prefix_word_full_length(self):
        assert str(prefix_word(0b1010, 4, 4)) == "1010"

    def test_prefix_word_rejects_bad_length(self):
        with pytest.raises(TCAMError):
            prefix_word(0, 5, 4)

    def test_random_word_x_fraction_extremes(self, rng):
        w0 = random_word(64, rng, x_fraction=0.0)
        w1 = random_word(64, rng, x_fraction=1.0)
        assert str(w0).count("X") == 0
        assert str(w1).count("X") == 64

    def test_random_word_rejects_bad_fraction(self, rng):
        with pytest.raises(TCAMError):
            random_word(8, rng, x_fraction=1.5)


class TestDriveVector:
    def test_packing(self):
        assert drive_vector(word_from_string("01X")) == (
            sl_drive(Trit.ZERO)[0] * 2 + sl_drive(Trit.ZERO)[1],
            sl_drive(Trit.ONE)[0] * 2 + sl_drive(Trit.ONE)[1],
            0,
        )

    def test_x_drives_nothing(self):
        assert drive_vector(word_from_string("XX")) == (0, 0)
