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

import numpy as np

from .angles import ANGLE_NAMES, PoseAngles, euler_to_rotation
from .binning import CANONICAL_MAX_ANGLE, CANONICAL_MIN_ANGLE

__all__ = [
    "Rig",
    "DEFAULT_RIG",
    "SynthConfig",
    "Dataset",
    "make_dataset",
    "format_dataset",
    "load_dataset",
]

DEFAULT_YAW_RANGE = (-75.0, 75.0)
DEFAULT_PITCH_RANGE = (-60.0, 60.0)
DEFAULT_ROLL_RANGE = (-50.0, 50.0)


@dataclass(frozen=True, eq=False)
class Rig:
    """Constant 3D landmark points, shape (n_points, 3), in head coordinates."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 4:
            raise ValueError(f"rig needs at least 4 points of shape (n, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("rig points contain non-finite values")
        centered = pts - pts.mean(axis=0)
        if np.linalg.matrix_rank(centered) != 3:
            raise ValueError("rig points are coplanar; orientation would be ambiguous")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def max_norm(self) -> float:
        return float(np.linalg.norm(self.points, axis=1).max())


# Stylized head landmarks: frontal x, lateral y (left positive), vertical z.
# The right ear, crown and the single left cheek point break mirror symmetry
# so that the sign of yaw is observable.  Scaled to max point norm 1.
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

DEFAULT_RIG = Rig(_RAW_RIG_POINTS / np.linalg.norm(_RAW_RIG_POINTS, axis=1).max())


def _check_range(name: str, bounds: tuple[float, float]) -> tuple[float, float]:
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} bounds must be finite, got {bounds!r}")
    if lo > hi:
        raise ValueError(f"{name} lower bound {lo} exceeds upper bound {hi}")
    if lo < CANONICAL_MIN_ANGLE or hi > CANONICAL_MAX_ANGLE:
        raise ValueError(
            f"{name} must lie within [{CANONICAL_MIN_ANGLE}, {CANONICAL_MAX_ANGLE}], "
            f"got ({lo}, {hi})"
        )
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
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be at least 2, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        object.__setattr__(self, "yaw_range", _check_range("yaw_range", self.yaw_range))
        object.__setattr__(self, "pitch_range", _check_range("pitch_range", self.pitch_range))
        object.__setattr__(self, "roll_range", _check_range("roll_range", self.roll_range))
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma!r}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction!r}")


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only C-contiguous float64 array.

    A float64 C-contiguous array is kept as it is if it and every array in its
    ``.base`` chain are read-only; anything else is copied, since whoever holds
    a writeable array over the same memory may still write to it.
    """
    a = np.asarray(values)
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if isinstance(base, np.ndarray):
        a = np.array(a, dtype=float, order="C")
    else:
        a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Dataset:
    """(n, d) features and (n, 3) yaw, pitch, roll in degrees, one row per sample.

    Both are float64, C-contiguous and read-only, checked once on
    construction: shapes, n >= 1, every value finite.  An input array is
    copied unless it and every array it views are read-only, so writing to
    such an array later cannot change the dataset; the read-only arrays that
    ``load_dataset`` and ``make_dataset`` pass are kept without a copy.  The
    memory under a read-only array that no array owns (``np.frombuffer``) is
    trusted not to change."""

    features: np.ndarray
    angles: np.ndarray

    def __post_init__(self) -> None:
        f = _read_only(self.features)
        a = _read_only(self.angles)
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise ValueError(f"features must be a nonempty (n, d) array, got shape {f.shape}")
        if a.shape != (f.shape[0], 3):
            raise ValueError(f"angles must have shape ({f.shape[0]}, 3), got {a.shape}")
        if not np.isfinite(f).all():
            raise ValueError("features contain non-finite values")
        if not np.isfinite(a).all():
            raise ValueError("angles contain non-finite values")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "angles", a)

    def __len__(self) -> int:
        return self.features.shape[0]


def sample_pose(rng: np.random.Generator, cfg: SynthConfig) -> PoseAngles:
    """Draw yaw, pitch, roll independently and uniformly from the ranges."""
    return PoseAngles(
        rng.uniform(*cfg.yaw_range),
        rng.uniform(*cfg.pitch_range),
        rng.uniform(*cfg.roll_range),
    )


def render_features(
    rig: Rig,
    pose: PoseAngles,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Rotate the rig, drop the frontal coordinate, flatten, add noise.

    The output has length 2 * n_points, laid out per point as (lateral,
    vertical), i.e. [y0, z0, y1, z1, ...].
    """
    if noise_sigma < 0.0:
        raise ValueError(f"noise_sigma must be nonnegative, got {noise_sigma!r}")
    rotated = rig.points @ euler_to_rotation(pose).T
    features = rotated[:, 1:3].ravel()
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("noise_sigma > 0 requires an rng")
        features = features + rng.normal(0.0, noise_sigma, features.shape)
    return features


def make_dataset(cfg: SynthConfig, rig: Rig = DEFAULT_RIG) -> tuple[Dataset, Dataset]:
    """Generate samples and split deterministically, last fraction as validation."""
    rng = np.random.default_rng(cfg.seed)
    features = np.empty((cfg.n_samples, 2 * rig.n_points))
    angles = np.empty((cfg.n_samples, 3))
    for i in range(cfg.n_samples):
        pose = sample_pose(rng, cfg)
        features[i] = render_features(rig, pose, cfg.noise_sigma, rng)
        angles[i] = (pose.yaw, pose.pitch, pose.roll)
    features.setflags(write=False)
    angles.setflags(write=False)
    n_val = int(round(cfg.n_samples * cfg.val_fraction))
    n = cfg.n_samples - min(max(n_val, 1), cfg.n_samples - 1)
    return Dataset(features[:n], angles[:n]), Dataset(features[n:], angles[n:])


def format_dataset(data: Dataset) -> str:
    """One comma-separated line per sample: features then yaw, pitch, roll."""
    rows = np.hstack((data.features, data.angles)).tolist()
    return "\n".join(",".join(map(repr, row)) for row in rows) + "\n"


def load_dataset(path) -> Dataset:
    """Parse a dataset file in the format_dataset layout into two flat buffers."""
    features, angles, line_numbers = array("d"), array("d"), array("l")
    arity = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 5:
                raise ValueError(
                    f"{path}: line {lineno}: expected at least 5 fields, got {len(parts)}"
                )
            if arity is None:
                arity = len(parts)
            elif len(parts) != arity:
                raise ValueError(
                    f"{path}: line {lineno}: expected {arity} fields, got {len(parts)}"
                )
            try:
                features.extend(map(float, parts[:-3]))
                angles.extend(map(float, parts[-3:]))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
            line_numbers.append(lineno)
    if not line_numbers:
        raise ValueError(f"{path}: dataset file is empty")
    # Only these views reach the buffers, so read-only they pass into Dataset uncopied.
    x, y = np.frombuffer(features), np.frombuffer(angles)
    x.setflags(write=False)
    y.setflags(write=False)
    x = x.reshape(-1, arity - 3)
    y = y.reshape(-1, 3)
    # The first row with a non-finite value (row 0 if none); angles are reported first.
    finite_y = np.isfinite(y)
    row = int(np.argmin(np.isfinite(x).all(axis=1) & finite_y.all(axis=1)))
    where = f"{path}: line {line_numbers[row]}"
    if not finite_y[row].all():
        col = int(np.argmin(finite_y[row]))
        raise ValueError(f"{where}: {ANGLE_NAMES[col]} must be finite, got {float(y[row, col])!r}")
    if not np.isfinite(x[row]).all():
        raise ValueError(f"{where}: features contain non-finite values")
    return Dataset(x, y)
