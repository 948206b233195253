import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hybridpose.binning import (
    MAX_ANGLE,
    MIN_ANGLE,
    BinHierarchy,
    BinScheme,
    bin_center,
    coarsen,
    decode_positions,
    encode,
    encode_all,
    expect_decode,
    make_hierarchy,
)

HIERARCHY = make_hierarchy()

in_range_angles = st.floats(min_value=-99.0, max_value=99.0, allow_nan=False)


def test_canonical_hierarchy_shape():
    assert tuple(s.n_bins for s in HIERARCHY.levels) == (198, 66, 18, 6, 2)
    assert [s.bin_width for s in HIERARCHY.levels] == [1.0, 3.0, 11.0, 33.0, 99.0]
    assert (MIN_ANGLE, MAX_ANGLE) == (-99.0, 99.0)


def test_scheme_validation():
    for n_bins in (0, -3, 4.0, True, "4"):
        with pytest.raises(ValueError, match=f"n_bins must be a positive integer, got {n_bins!r}"):
            BinScheme(n_bins)


def test_hierarchy_validation():
    with pytest.raises(ValueError, match="divide"):
        make_hierarchy((198, 50))
    with pytest.raises(ValueError, match="decrease"):
        make_hierarchy((66, 66))
    with pytest.raises(ValueError, match="at least one"):
        BinHierarchy(())
    # A bool is not a bin count: True would otherwise build a 1-bin hierarchy.
    with pytest.raises(ValueError, match="n_bins must be a positive integer, got True"):
        make_hierarchy((True,))
    with pytest.raises(ValueError, match="bin_counts must be a list or tuple, got 198"):
        make_hierarchy(198)


def test_encode_examples():
    assert encode(0.0, HIERARCHY.levels[1]) == 33
    assert encode(0.0, HIERARCHY.finest) == 99
    assert encode(-99.0, HIERARCHY.finest) == 0
    assert encode(99.0, HIERARCHY.finest) == 197  # top edge joins the last bin
    assert encode(99.0, HIERARCHY.levels[4]) == 1


def test_encode_range_errors():
    with pytest.raises(ValueError, match="outside"):
        encode(99.0001, HIERARCHY.finest)
    with pytest.raises(ValueError, match="outside"):
        encode(-99.0001, HIERARCHY.finest)
    with pytest.raises(ValueError, match="finite"):
        encode(float("nan"), HIERARCHY.finest)


def test_encode_all_examples():
    assert encode_all(0.0, HIERARCHY) == (99, 33, 9, 3, 1)
    assert encode_all(50.5, HIERARCHY) == (149, 49, 13, 4, 1)
    assert encode_all(-99.0, HIERARCHY) == (0, 0, 0, 0, 0)


@given(in_range_angles)
def test_encode_consistent_across_levels(angle):
    finest = HIERARCHY.finest
    fine_idx = encode(angle, finest)
    for scheme in HIERARCHY.levels[1:]:
        assert coarsen(fine_idx, finest, scheme) == encode(angle, scheme)


@given(in_range_angles)
def test_quantization_bound(angle):
    for scheme in HIERARCHY.levels:
        err = abs(bin_center(encode(angle, scheme), scheme) - angle)
        assert err <= scheme.bin_width / 2.0 + 1e-12


def test_coarsen_examples():
    assert coarsen(197, HIERARCHY.levels[0], HIERARCHY.levels[1]) == 65
    assert coarsen(99, HIERARCHY.levels[0], HIERARCHY.levels[4]) == 1
    assert coarsen(0, HIERARCHY.levels[0], HIERARCHY.levels[4]) == 0


def test_coarsen_errors():
    with pytest.raises(ValueError, match="divide"):
        coarsen(5, HIERARCHY.levels[1], HIERARCHY.levels[2])  # 66 -> 18 is not nested
    with pytest.raises(IndexError, match="out of range"):
        coarsen(198, HIERARCHY.levels[0], HIERARCHY.levels[1])


def test_bin_center_examples():
    finest = HIERARCHY.finest
    assert bin_center(0, finest) == -98.5
    assert bin_center(98, finest) == -0.5
    assert bin_center(99, finest) == 0.5
    assert bin_center(197, finest) == 98.5
    two = HIERARCHY.levels[4]
    assert bin_center(0, two) == -49.5
    assert bin_center(1, two) == 49.5
    with pytest.raises(IndexError):
        bin_center(198, finest)
    with pytest.raises(IndexError):
        bin_center(-1, finest)


def test_expect_decode_one_hot_recovers_centers():
    for scheme in HIERARCHY.levels:
        for k in range(scheme.n_bins):
            probs = np.zeros(scheme.n_bins)
            probs[k] = 1.0
            assert expect_decode(probs, scheme) == bin_center(k, scheme)


def test_expect_decode_uniform_is_zero():
    for scheme in HIERARCHY.levels:
        probs = np.full(scheme.n_bins, 1.0 / scheme.n_bins)
        assert abs(expect_decode(probs, scheme)) < 1e-9


def test_decode_peaked_example():
    finest = HIERARCHY.finest
    probs = np.zeros(198)
    probs[100] = 0.8
    probs[99] = 0.1
    probs[101] = 0.1
    assert abs(expect_decode(probs, finest) - 1.5) < 1e-12


def test_half_half_neighbors_decode_between():
    probs = np.zeros(198)
    probs[98] = 0.5
    probs[99] = 0.5
    assert expect_decode(probs, HIERARCHY.finest) == 0.0


def test_expect_decode_edge_convention():
    rng = np.random.default_rng(0)
    for scheme in HIERARCHY.levels:
        probs = rng.dirichlet(np.ones(scheme.n_bins))
        center = expect_decode(probs, scheme, convention="center")
        edge = expect_decode(probs, scheme, convention="edge")
        assert abs((center - edge) - scheme.bin_width / 2.0) < 1e-9
    with pytest.raises(ValueError, match="convention"):
        decode_positions(HIERARCHY.finest, "midpoint")
    # Built once per scheme and convention and shared between callers, so no
    # caller may write to it.
    for scheme in HIERARCHY.levels:
        for convention in ("center", "edge"):
            positions = decode_positions(scheme, convention)
            assert positions is decode_positions(scheme, convention)
            with pytest.raises(ValueError, match="read-only"):
                positions[0] = 0.0


def test_expect_decode_stays_inside_range():
    rng = np.random.default_rng(1)
    for scheme in HIERARCHY.levels:
        for _ in range(50):
            probs = rng.dirichlet(np.full(scheme.n_bins, 0.3))
            value = expect_decode(probs, scheme)
            assert MIN_ANGLE < value < MAX_ANGLE


def test_expect_decode_is_linear():
    rng = np.random.default_rng(2)
    scheme = HIERARCHY.levels[1]
    p = rng.dirichlet(np.ones(scheme.n_bins))
    q = rng.dirichlet(np.ones(scheme.n_bins))
    for lam in (0.0, 0.25, 0.7, 1.0):
        mix = lam * p + (1.0 - lam) * q
        expected = lam * expect_decode(p, scheme) + (1.0 - lam) * expect_decode(q, scheme)
        assert abs(expect_decode(mix, scheme) - expected) < 1e-9


def test_prob_validation():
    finest = HIERARCHY.finest
    with pytest.raises(ValueError, match="sum"):
        expect_decode(np.full(198, 0.9 / 198), finest)
    with pytest.raises(ValueError, match="nonnegative"):
        bad = np.full(198, 1.0 / 198)
        bad[0] = -bad[0]
        bad[1] += 2.0 / 198
        expect_decode(bad, finest)
    with pytest.raises(ValueError, match="expected 198"):
        expect_decode(np.full(66, 1.0 / 66), finest)
    with pytest.raises(ValueError, match="finite"):
        bad = np.full(198, 1.0 / 198)
        bad[5] = float("nan")
        expect_decode(bad, finest)
