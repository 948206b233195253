"""Euler-angle arithmetic, rotation matrices, and the MAE metric.

Convention
----------
Orientations are intrinsic Tait-Bryan yaw/pitch/roll angles in degrees,
applied in that order to a right-handed head frame:

    x: frontal axis (out of the face)
    y: lateral axis (toward the left ear)
    z: vertical axis (up)

so yaw rotates about the vertical axis, pitch about the lateral axis and
roll about the frontal axis.  The composed matrix is

    R = Rz(yaw) @ Ry(pitch) @ Rx(roll)

which written out with cy = cos(yaw), sy = sin(yaw), cp/sp for pitch and
cr/sr for roll is

    [[cy*cp, cy*sp*sr - sy*cr, cy*sp*cr + sy*sr],
     [sy*cp, sy*sp*sr + cy*cr, sy*sp*cr - cy*sr],
     [  -sp,            cp*sr,            cp*cr]]

The inverse extraction is unambiguous for |pitch| < 90 degrees.  At the
degenerate |pitch| = 90 the yaw/roll split is not observable; we report
roll = 0 there and fold the remainder into yaw.

All public angles are degrees.  Radians appear only transiently inside the
trig calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binning import _check_int, _check_real

__all__ = [
    "PoseAngles",
    "MaeReport",
    "check_rotation_matrix",
    "euler_to_rotation",
    "rotation_to_euler",
    "mae",
]

ANGLE_NAMES = ("yaw", "pitch", "roll")


@dataclass(frozen=True)
class PoseAngles:
    """One head orientation as yaw/pitch/roll, in degrees."""

    yaw: float
    pitch: float
    roll: float

    def __post_init__(self) -> None:
        for name in ANGLE_NAMES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))

    def as_array(self) -> np.ndarray:
        return np.array([self.yaw, self.pitch, self.roll], dtype=float)


@dataclass(frozen=True)
class MaeReport:
    """Per-angle mean absolute errors plus their arithmetic mean, in degrees."""

    yaw_mae: float
    pitch_mae: float
    roll_mae: float
    mean_mae: float
    n_samples: int

    def __post_init__(self) -> None:
        for name in ("yaw_mae", "pitch_mae", "roll_mae", "mean_mae"):
            _check_real(name, getattr(self, name))
        _check_int("n_samples", self.n_samples, 1)
        recombined = (self.yaw_mae + self.pitch_mae + self.roll_mae) / 3.0
        if abs(recombined - self.mean_mae) > 1e-9:
            raise ValueError(
                f"mean_mae {self.mean_mae!r} does not match per-angle mean {recombined!r}"
            )


def check_rotation_matrix(rotation, tol: float = 1e-6) -> np.ndarray:
    """Validate a 3x3 rotation matrix and return it as a float array.

    Rejects matrices whose R^T R deviates from the identity by more than
    ``tol`` in any entry, and reflections (determinant near -1).  ``tol``
    itself must be finite and nonnegative.
    """
    _check_real("tol", tol)
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("rotation contains non-finite entries")
    deviation = float(np.abs(r.T @ r - np.eye(3)).max())
    if deviation > tol:
        raise ValueError(
            f"matrix is not orthonormal: max |R^T R - I| = {deviation:.3g} exceeds tol {tol:g}"
        )
    det = float(np.linalg.det(r))
    if abs(det - 1.0) > tol:
        raise ValueError(f"matrix determinant {det:.6f} is not +1 (reflection or scaling)")
    return r


def euler_to_rotation(pose: PoseAngles) -> np.ndarray:
    """Compose the rotation matrix Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    y, p, r = (math.radians(v) for v in (pose.yaw, pose.pitch, pose.roll))
    cy, sy = math.cos(y), math.sin(y)
    cp, sp = math.cos(p), math.sin(p)
    cr, sr = math.cos(r), math.sin(r)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


def rotation_to_euler(rotation, tol: float = 1e-6) -> PoseAngles:
    """Extract yaw/pitch/roll in degrees from a rotation matrix.

    The input is validated against the orthonormality tolerance first.  At
    |pitch| = 90 degrees (gimbal lock) roll is reported as 0 and yaw absorbs
    the free parameter.
    """
    r = check_rotation_matrix(rotation, tol=tol)
    sp = -r[2, 0]
    if abs(sp) >= 1.0 - 1e-12:
        # Degenerate: only yaw -/+ roll is observable; pin roll to 0.
        pitch = math.copysign(90.0, sp)
        yaw = math.degrees(math.atan2(-r[0, 1], r[1, 1]))
        roll = 0.0
    else:
        pitch = math.degrees(math.asin(sp))
        yaw = math.degrees(math.atan2(r[1, 0], r[0, 0]))
        roll = math.degrees(math.atan2(r[2, 1], r[2, 2]))
    return PoseAngles(yaw, pitch, roll)


def mae(pred, truth) -> MaeReport:
    """Mean absolute error per angle between paired (n, 3) yaw/pitch/roll arrays.

    Differences are plain ``|pred - truth|`` in degrees with no wrap-around;
    inputs are expected to live well inside (-180, 180).
    """
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    for name, a in (("predictions", pred), ("truths", truth)):
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValueError(f"{name} must be an (n, 3) array, got shape {a.shape}")
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs {len(truth)} truths")
    if len(pred) == 0:
        raise ValueError("cannot compute MAE of an empty sequence")
    err = np.abs(pred - truth).mean(axis=0)
    yaw_mae, pitch_mae, roll_mae = (float(v) for v in err)
    mean_mae = (yaw_mae + pitch_mae + roll_mae) / 3.0
    return MaeReport(yaw_mae, pitch_mae, roll_mae, mean_mae, n_samples=len(pred))
