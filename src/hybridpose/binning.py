"""Nested angle-bin schemes and the encode/decode operations on them.

Every angle is binned over one fixed range, [MIN_ANGLE, MAX_ANGLE] =
[-99, +99] degrees, as in the paper and in Hopenet (arXiv 1710.00925).  A
BinScheme splits that range into equal-width bins; a BinHierarchy stacks
several schemes, finest first, with every coarser bin count dividing the
finest one.  An angle is floored into its bin once, at the finest level;
every coarser label is derived from that fine label by integer division
(``coarsen``), so the coarse bin always contains the fine one.  The
canonical hierarchy has 198/66/18/6/2 bins (widths 1/3/11/33/99 degrees).

Decoding supports two conventions for the representative position of bin i:
its center ``MIN_ANGLE + (i + 0.5) * width`` (default) or its left edge
``MIN_ANGLE + i * width``, the position Hopenet decodes with.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinHierarchy",
    "make_hierarchy",
    "encode",
    "encode_all",
    "coarsen",
    "bin_center",
    "expect_decode",
]

CANONICAL_BIN_COUNTS = (198, 66, 18, 6, 2)
MIN_ANGLE = -99.0
MAX_ANGLE = 99.0

# Each decode convention's bin position, in bin widths past the bin's left edge.
_DECODE_OFFSETS = {"center": 0.5, "edge": 0.0}
DECODE_CONVENTIONS = tuple(_DECODE_OFFSETS)

_PROB_SUM_TOL = 1e-6
_SHOWN_CHARS = 40  # the most of a value that a field check's error shows


def _shown(value) -> str:
    """``repr(value)`` cut to _SHOWN_CHARS characters.  A longer int shows as its leading
    digits and digit count, never as text whole: past 4,300 digits Python refuses that."""
    n = abs(value) if type(value) is int else 0
    if n >= 10**_SHOWN_CHARS:
        digits = int(n.bit_length() * math.log10(2))  # the count, or one less
        digits += n >= 10**digits
        return f"{'-' * (value < 0)}{n // 10 ** (digits - _SHOWN_CHARS)}... ({digits} digits)"
    return _cut(repr(value))


def _cut(text: str) -> str:
    """``text`` cut to _SHOWN_CHARS characters, with "..." where it was cut."""
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def _float(text: str) -> float:
    """``float(text)``, whose error quotes the text through ``_shown``."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"could not convert string to float: {_shown(text)}") from None


def _check_int(name: str, value, minimum: int) -> None:
    """An integer field: a float, a bool or a value below ``minimum`` is a ValueError."""
    if type(value) is not int or value < minimum:
        kinds = {0: "a nonnegative integer", 1: "a positive integer"}
        kind = kinds.get(minimum, f"an integer of at least {minimum}")
        raise ValueError(f"{name} must be {kind}, got {_shown(value)}")


def _check_real(name: str, value, minimum: float = 0.0) -> float:
    """A real field, numpy scalars included, as a float: a bool, a string, a
    non-finite value or one below ``minimum`` is a ValueError."""
    try:
        finite = isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if isinstance(value, bool) or not (finite and value >= minimum):
        kind = {0: " and nonnegative", -math.inf: ""}.get(minimum, f" and at least {minimum}")
        raise ValueError(f"{name} must be finite{kind}, got {_shown(value)}")
    return float(value)


@dataclass(frozen=True)
class BinScheme:
    """Equal-width binning of the closed range [MIN_ANGLE, MAX_ANGLE]."""

    n_bins: int

    def __post_init__(self) -> None:
        _check_int("n_bins", self.n_bins, 1)

    @property
    def bin_width(self) -> float:
        return (MAX_ANGLE - MIN_ANGLE) / self.n_bins


@dataclass(frozen=True)
class BinHierarchy:
    """Bin schemes ordered finest to coarsest."""

    levels: tuple[BinScheme, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("hierarchy needs at least one level")
        levels = tuple(self.levels)
        counts = [s.n_bins for s in levels]
        for coarse, fine in zip(counts[1:], counts[:-1]):
            if coarse >= fine:
                raise ValueError(f"bin counts must strictly decrease, got {counts}")
        for coarse in counts[1:]:
            if counts[0] % coarse != 0:
                raise ValueError(f"coarse bin count {coarse} does not divide finest {counts[0]}")
        object.__setattr__(self, "levels", levels)

    @property
    def finest(self) -> BinScheme:
        return self.levels[0]

    @property
    def depth(self) -> int:
        return len(self.levels)


def make_hierarchy(bin_counts: tuple[int, ...] = CANONICAL_BIN_COUNTS) -> BinHierarchy:
    """Build a hierarchy; with no arguments, the canonical 198/66/18/6/2 one."""
    if not isinstance(bin_counts, (list, tuple)):
        raise ValueError(f"bin_counts must be a list or tuple, got {_shown(bin_counts)}")
    return BinHierarchy(tuple(BinScheme(n) for n in bin_counts))


def _check_in_range(angles) -> None:
    """The one check of the bin range: every angle must lie in [MIN_ANGLE, MAX_ANGLE]."""
    a = np.asarray(angles, dtype=float)
    outside = (a < MIN_ANGLE) | (a > MAX_ANGLE)
    if outside.any():
        raise ValueError(
            f"angle {float(a[outside].flat[0])} outside bin range [{MIN_ANGLE}, {MAX_ANGLE}]"
        )


def _bin_index(angles, scheme: BinScheme):
    """Floor into bins, the top edge joining the last bin; callers range-check first."""
    index = np.floor((angles - MIN_ANGLE) / scheme.bin_width).astype(int)
    return np.minimum(index, scheme.n_bins - 1)


def encode(angle: float, scheme: BinScheme) -> int:
    """Map an angle to its bin index; the top edge belongs to the last bin."""
    a = float(angle)
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {angle!r}")
    _check_in_range(a)
    return int(_bin_index(a, scheme))


def encode_all(angle: float, hierarchy: BinHierarchy) -> tuple[int, ...]:
    """Encode one angle at the finest level and coarsen it to every level, finest first."""
    fine = encode(angle, hierarchy.finest)
    return tuple(coarsen(fine, hierarchy.finest, scheme) for scheme in hierarchy.levels)


def coarsen(fine_index: int, fine: BinScheme, coarse: BinScheme) -> int:
    """Map a fine bin index to the coarse bin containing the same angles."""
    if fine.n_bins % coarse.n_bins != 0:
        raise ValueError(
            f"coarse bin count {coarse.n_bins} does not divide fine count {fine.n_bins}"
        )
    if not 0 <= fine_index < fine.n_bins:
        raise IndexError(f"fine index {fine_index} out of range [0, {fine.n_bins})")
    return fine_index * coarse.n_bins // fine.n_bins


def bin_center(index: int, scheme: BinScheme) -> float:
    """Angle at the center of bin ``index``."""
    if not 0 <= index < scheme.n_bins:
        raise IndexError(f"bin index {index} out of range [0, {scheme.n_bins})")
    return MIN_ANGLE + (index + 0.5) * scheme.bin_width


@functools.cache
def decode_positions(scheme: BinScheme, convention: str = "center") -> np.ndarray:
    """Representative angle of every bin under the convention, as a cached, read-only array."""
    if convention not in DECODE_CONVENTIONS:
        raise ValueError(f"unknown decode convention {convention!r}")
    offset = _DECODE_OFFSETS[convention]
    positions = MIN_ANGLE + (np.arange(scheme.n_bins) + offset) * scheme.bin_width
    positions.setflags(write=False)
    return positions


def expect_decode(probs, scheme: BinScheme, convention: str = "center") -> float:
    """Expectation of the bin positions under a probability vector."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.shape[0] != scheme.n_bins:
        raise ValueError(f"expected {scheme.n_bins} probabilities, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("probabilities contain non-finite entries")
    if (p < 0.0).any():
        raise ValueError(f"probabilities must be nonnegative, min is {p.min()!r}")
    total = float(p.sum())
    if abs(total - 1.0) > _PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within {_PROB_SUM_TOL:g}")
    return float(p @ decode_positions(scheme, convention))
