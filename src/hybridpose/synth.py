"""Synthetic pose regression task with a known answer.

A fixed rig of 3D landmark points is rotated by a sampled orientation and
orthographically projected by dropping the frontal (depth) coordinate.  The
flattened lateral/vertical coordinates of all points, plus optional Gaussian
noise, form the feature vector; the sampled orientation is the target.

The rig is non-coplanar and deliberately asymmetric about the sagittal
plane so that the orientation, including the sign of yaw, is recoverable
from a single noiseless projection.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

import numpy as np

from .angles import ANGLE_NAMES, PoseAngles, euler_to_rotation
from .binning import _check_in_range, _check_int, _check_real

__all__ = [
    "SynthConfig",
    "Dataset",
    "make_dataset",
    "format_dataset",
    "load_dataset",
]

DEFAULT_YAW_RANGE = (-75.0, 75.0)
DEFAULT_PITCH_RANGE = (-60.0, 60.0)
DEFAULT_ROLL_RANGE = (-50.0, 50.0)


# The rig, RIG_POINTS: 12 stylized head landmarks, frontal x, lateral y (left
# positive), vertical z.  The right ear, crown and the single left cheek point
# break mirror symmetry so that the sign of yaw is observable.  Scaled to max
# point norm 1 and read-only.
_RAW_RIG_POINTS = np.array(
    [
        [1.00, 0.00, 0.00],   # nose tip
        [0.95, 0.00, 0.20],   # nose bridge
        [0.85, 0.00, -0.55],  # chin
        [0.80, 0.00, 0.55],   # forehead
        [0.80, 0.28, 0.25],   # left eye
        [0.80, -0.28, 0.25],  # right eye
        [0.78, 0.22, -0.30],  # left mouth corner
        [0.78, -0.22, -0.30], # right mouth corner
        [0.05, 0.62, 0.05],   # left ear
        [0.05, -0.62, 0.00],  # right ear
        [0.30, 0.05, 0.78],   # crown
        [0.70, 0.45, -0.10],  # left cheek
    ]
)

RIG_POINTS = _RAW_RIG_POINTS / np.linalg.norm(_RAW_RIG_POINTS, axis=1).max()
RIG_POINTS.setflags(write=False)


def _check_range(name: str, bounds: tuple[float, float]) -> tuple[float, float]:
    if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
        raise ValueError(f"{name} must be a (lower, upper) pair, got {bounds!r}")
    lo, hi = (_check_real(f"{name}[{i}]", b, -math.inf) for i, b in enumerate(bounds))
    if lo > hi:
        raise ValueError(f"{name} lower bound {lo} exceeds upper bound {hi}")
    try:
        _check_in_range((lo, hi))
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return (lo, hi)


@dataclass(frozen=True)
class SynthConfig:
    """Dataset size, sampling ranges, noise level and split fraction."""

    n_samples: int
    seed: int = 0
    yaw_range: tuple[float, float] = DEFAULT_YAW_RANGE
    pitch_range: tuple[float, float] = DEFAULT_PITCH_RANGE
    roll_range: tuple[float, float] = DEFAULT_ROLL_RANGE
    noise_sigma: float = 0.01
    val_fraction: float = 0.2

    def __post_init__(self) -> None:
        _check_int("n_samples", self.n_samples, 2)
        _check_int("seed", self.seed, 0)
        for name in ("yaw_range", "pitch_range", "roll_range"):
            object.__setattr__(self, name, _check_range(name, getattr(self, name)))
        _check_real("noise_sigma", self.noise_sigma)
        if not 0.0 < _check_real("val_fraction", self.val_fraction) < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction!r}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """(n, d) features and (n, 3) yaw, pitch, roll in degrees, one row per sample.

    Both are read-only C-contiguous float64 copies of the arrays given,
    checked once on construction: shapes, n >= 1, every value finite.
    Writing to an input array later cannot change the dataset."""

    features: np.ndarray
    angles: np.ndarray

    def __post_init__(self) -> None:
        f = np.array(self.features, dtype=float, order="C")
        a = np.array(self.angles, dtype=float, order="C")
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise ValueError(f"features must be a nonempty (n, d) array, got shape {f.shape}")
        if a.shape != (f.shape[0], 3):
            raise ValueError(f"angles must have shape ({f.shape[0]}, 3), got {a.shape}")
        if not np.isfinite(f).all():
            raise ValueError("features contain non-finite values")
        if not np.isfinite(a).all():
            raise ValueError("angles contain non-finite values")
        f.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "angles", a)

    def __len__(self) -> int:
        return self.features.shape[0]

    def __reduce__(self):  # unpickled through the constructor, so read-only again
        return (Dataset, (self.features, self.angles))


def sample_pose(rng: np.random.Generator, cfg: SynthConfig) -> PoseAngles:
    """Draw yaw, pitch, roll independently and uniformly from the ranges."""
    return PoseAngles(
        rng.uniform(*cfg.yaw_range),
        rng.uniform(*cfg.pitch_range),
        rng.uniform(*cfg.roll_range),
    )


def render_features(
    pose: PoseAngles, noise_sigma: float = 0.0, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Rotate the rig, drop the frontal coordinate, flatten, add noise.

    The output has length 2 * n_points, laid out per point as (lateral,
    vertical), i.e. [y0, z0, y1, z1, ...].
    """
    _check_real("noise_sigma", noise_sigma)
    rotated = RIG_POINTS @ euler_to_rotation(pose).T
    features = rotated[:, 1:3].ravel()
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("noise_sigma > 0 requires an rng")
        features = features + rng.normal(0.0, noise_sigma, features.shape)
    return features


def make_dataset(cfg: SynthConfig) -> tuple[Dataset, Dataset]:
    """Generate samples and split deterministically, last fraction as validation."""
    rng = np.random.default_rng(cfg.seed)
    features = np.empty((cfg.n_samples, 2 * len(RIG_POINTS)))
    angles = np.empty((cfg.n_samples, 3))
    for i in range(cfg.n_samples):
        pose = sample_pose(rng, cfg)
        features[i] = render_features(pose, cfg.noise_sigma, rng)
        angles[i] = (pose.yaw, pose.pitch, pose.roll)
    n_val = int(round(cfg.n_samples * cfg.val_fraction))
    n = cfg.n_samples - min(max(n_val, 1), cfg.n_samples - 1)
    return Dataset(features[:n], angles[:n]), Dataset(features[n:], angles[n:])


def format_dataset(data: Dataset) -> str:
    """One comma-separated line per sample: features then yaw, pitch, roll."""
    rows = np.hstack((data.features, data.angles)).tolist()
    return "\n".join(",".join(map(repr, row)) for row in rows) + "\n"


class _LineBlock(NamedTuple):
    """Where a block of a dataset file's nonblank lines starts, so that any
    process can read it: the text-mode ``tell()`` cookie right after the
    previous block's last nonblank line (0 for the first block), the count of
    lines before that point, and the block's count of nonblank lines; with the
    file's path and the field count of its first nonblank line."""

    path: object
    arity: int
    cookie: int
    lines_before: int
    rows: int


def _frame_lines(path, block_rows: int) -> Iterator[_LineBlock]:
    """The nonblank lines of a dataset file in blocks of ``block_rows`` (the
    last may be shorter), as positions: no line is kept.  A file of none is
    one empty block; one that cannot be read again from a position, such as
    a pipe, raises."""
    arity, cookie, lines_before, rows = None, 0, 0, 0
    with open(path, errors="surrogateescape") as fh:
        if not fh.seekable():
            raise ValueError(f"{path}: cannot seek in this file; give a regular file, not a pipe")
        # readline, not iteration over the file, which would disable tell().
        for lineno, line in enumerate(iter(fh.readline, ""), start=1):
            if line.isspace():
                continue
            if arity is None:
                arity = line.count(",") + 1
            rows += 1
            if rows == block_rows:
                yield _LineBlock(path, arity, cookie, lines_before, rows)
                cookie, lines_before, rows = fh.tell(), lineno, 0
    if rows or arity is None:
        yield _LineBlock(path, arity, cookie, lines_before, rows)


def _parse_block(block: _LineBlock) -> Dataset:
    """A block of ``_frame_lines`` as a Dataset, read from its position in its file.

    Mapped over ``_frame_lines`` in order, it raises at the first bad line in
    file order, once every block before it has passed."""
    path, arity, cookie, lines_before, rows = block
    with open(path, errors="surrogateescape") as fh:
        fh.seek(cookie)
        return _parse_lines(path, fh, lines_before, rows, arity)


def _parse_lines(path, fh, lines_before=0, rows=None, arity=None) -> Dataset:
    """The first ``rows`` nonblank lines (all if None) of file ``fh``, whose
    first line is line ``lines_before + 1`` of ``path``, in the format_dataset
    layout as a Dataset.

    Its first bad line raises, naming the file and line: too few fields or a
    count other than ``arity`` (by default the first row's), a non-numeric
    field, or a non-finite value; so does a file of no row."""
    features, angles, line_numbers = array("d"), array("d"), array("l")
    numbered = ((i, line) for i, line in enumerate(fh, lines_before + 1) if not line.isspace())
    for n, (lineno, line) in enumerate(islice(numbered, rows)):
        line_numbers.append(lineno)
        parts = line.strip().split(",")
        arity = arity or len(parts)
        error = None
        if len(parts) < 5:
            error = f"expected at least 5 fields, got {len(parts)}"
        elif len(parts) != arity:
            error = f"expected {arity} fields, got {len(parts)}"
        else:
            try:
                features.extend(map(float, parts[:-3]))
                angles.extend(map(float, parts[-3:]))
            except ValueError:
                error = "non-numeric field"
        if error is not None:
            # A non-finite value on an earlier line of this block comes first.
            if n:
                del features[n * (arity - 3) :], angles[n * 3 :]
                _checked_block(path, features, angles, line_numbers[:n])
            raise ValueError(f"{path}: line {lineno}: {error}")
    if not line_numbers:
        raise ValueError(f"{path}: dataset file is empty")
    return _checked_block(path, features, angles, line_numbers)


def _checked_block(path, features: array, angles: array, line_numbers: array) -> Dataset:
    """Parsed rows, from their two flat buffers, as a Dataset; the first row with
    a non-finite value raises, naming its line, with angles reported first."""
    x = np.frombuffer(features).reshape(len(line_numbers), -1)
    y = np.frombuffer(angles).reshape(-1, 3)
    finite_y = np.isfinite(y)
    row = int(np.argmin(np.isfinite(x).all(axis=1) & finite_y.all(axis=1)))
    where = f"{path}: line {line_numbers[row]}"
    if not finite_y[row].all():
        col = int(np.argmin(finite_y[row]))
        raise ValueError(f"{where}: {ANGLE_NAMES[col]} must be finite, got {float(y[row, col])!r}")
    if not np.isfinite(x[row]).all():
        raise ValueError(f"{where}: features contain non-finite values")
    return Dataset(x, y)


def load_dataset(path) -> Dataset:
    """The whole dataset file as one Dataset; blank lines are skipped.

    Read once, line by line, so a pipe serves and the file's lines are never
    all held at once; its first bad line in file order raises."""
    with open(path, errors="surrogateescape") as fh:
        return _parse_lines(path, fh)
