"""Tests for TEVoT feature generation (Eq. 3)."""

import numpy as np
import pytest

from repro.core.features import (
    FeatureSpec,
    build_feature_matrix,
    build_training_set,
    feature_row,
    operand_bits,
    stream_bits,
)
from repro.timing import OperatingCondition, paper_corner_grid
from repro.workloads import OperandStream, random_stream


@pytest.fixture
def stream():
    return random_stream(10, seed=0)


COND = OperatingCondition(0.85, 50.0)


class TestFeatureSpec:
    def test_dimension_with_history_matches_eq3(self):
        spec = FeatureSpec(operand_width=32, include_history=True)
        assert spec.n_features == 130  # 64 + 64 + V + T

    def test_dimension_without_history(self):
        spec = FeatureSpec(operand_width=32, include_history=False)
        assert spec.n_features == 66

    def test_column_names_length(self):
        spec = FeatureSpec()
        assert len(spec.column_names()) == spec.n_features
        assert spec.column_names()[-2:] == ["V", "T"]


class TestStreamBits:
    def test_bit_expansion_roundtrip(self, stream):
        bits = stream_bits(stream)
        assert bits.shape == (11, 64)
        word = int(stream.a[3])
        got = sum(int(bits[3, i]) << i for i in range(32))
        assert got == word

    def test_b_operand_in_upper_half(self, stream):
        bits = stream_bits(stream)
        word = int(stream.b[5])
        got = sum(int(bits[5, 32 + i]) << i for i in range(32))
        assert got == word


    @pytest.mark.parametrize("width", [1, 3, 8, 13, 32, 64])
    def test_operand_bits_match_shift_and_mask(self, width):
        top = (1 << width) - 1
        rng = np.random.default_rng(width)
        words = np.concatenate((np.array([0, top, top >> 1], np.uint64),
                                rng.integers(0, top, 40, endpoint=True,
                                             dtype=np.uint64)))
        ref = (words[:, None] >> np.arange(width, dtype=np.uint64)) & 1
        bits = operand_bits(words, width)
        assert bits.dtype == np.float32 and bits.shape == (43, width)
        np.testing.assert_array_equal(bits, ref)
        # a strided column of a 2-D array gives the same rows
        pairs = np.stack((words, words[::-1]), axis=1)
        np.testing.assert_array_equal(operand_bits(pairs[:, 1], width),
                                      ref[::-1])


class TestBuildFeatureMatrix:
    def test_shape(self, stream):
        X = build_feature_matrix(stream, COND)
        assert X.shape == (10, 130)

    def test_history_columns_are_previous_cycle(self, stream):
        X = build_feature_matrix(stream, COND)
        bits = stream_bits(stream)
        np.testing.assert_array_equal(X[:, :64], bits[1:])
        np.testing.assert_array_equal(X[:, 64:128], bits[:-1])

    def test_condition_columns(self, stream):
        X = build_feature_matrix(stream, COND)
        assert np.all(X[:, 128] == np.float32(0.85))
        assert np.all(X[:, 129] == np.float32(50.0))

    def test_no_history_spec(self, stream):
        X = build_feature_matrix(stream, COND,
                                 FeatureSpec(include_history=False))
        assert X.shape == (10, 66)


class TestBuildTrainingSet:
    def test_stacks_conditions(self, stream):
        conds = [OperatingCondition(0.81, 0), OperatingCondition(1.0, 100)]
        delays = np.arange(20, dtype=np.float32).reshape(2, 10)
        X, y = build_training_set(stream, conds, delays)
        assert X.shape == (20, 130)
        assert y.shape == (20,)
        np.testing.assert_array_equal(y[:10], delays[0])
        assert np.all(X[:10, 128] == np.float32(0.81))
        assert np.all(X[10:, 128] == np.float32(1.0))

    def test_max_rows_subsamples(self, stream):
        conds = [OperatingCondition(0.81, 0)]
        delays = np.zeros((1, 10))
        X, y = build_training_set(stream, conds, delays, max_rows=4, seed=0)
        assert X.shape[0] == 4

    def test_shape_validation(self, stream):
        with pytest.raises(ValueError):
            build_training_set(stream, [COND], np.zeros((2, 10)))
        with pytest.raises(ValueError):
            build_training_set(stream, [COND], np.zeros((1, 7)))


class TestFeatureRow:
    @pytest.mark.parametrize("history", [True, False])
    @pytest.mark.parametrize("width", [8, 32])
    def test_rows_equal_the_feature_matrix_on_every_corner(self, width,
                                                           history):
        """Row for row, as float64 bytes: the bits of random operands
        and of ``0`` and ``2**w - 1``, and V/T rounded to float32 (0.81
        and 0.83 are not float32 values), on all 100 Table-I corners."""
        top = (1 << width) - 1
        rng = np.random.default_rng(width)
        a = np.concatenate((rng.integers(0, top, 8, endpoint=True),
                            [0, top, 0, top, top]))
        b = np.concatenate((rng.integers(0, top, 8, endpoint=True),
                            [top, 0, 0, top, top]))
        stream = OperandStream("row", a, b)
        spec = FeatureSpec(operand_width=width, include_history=history)
        words = [(int(a[t]), int(b[t]), int(a[t - 1]), int(b[t - 1]))
                 [:4 if history else 2] for t in range(1, len(a))]
        for cond in paper_corner_grid():
            X = build_feature_matrix(stream, cond, spec).astype(np.float64)
            rows = [feature_row(w, cond.voltage, cond.temperature, width)
                    for w in words]
            assert all(type(x) is float for row in rows for x in row)
            assert np.array(rows).tobytes() == X.tobytes(), cond

    @pytest.mark.parametrize("word", [256, -1, 2**40])
    def test_operand_outside_width_raises(self, word):
        with pytest.raises(ValueError, match="does not fit in 8 bits"):
            feature_row((1, word), 0.9, 25.0, operand_width=8)
        with pytest.raises(ValueError, match="does not fit in 8 bits"):
            feature_row((word, 1, 0, 0), 0.9, 25.0, operand_width=8)

    def test_odd_width_drops_the_padding_bits(self):
        row = feature_row((0b101, 0b11), 1.0, 0.0, operand_width=3)
        assert row == [1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0]
