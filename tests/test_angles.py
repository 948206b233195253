import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from hybridpose.angles import (
    MaeReport,
    PoseAngles,
    check_rotation_matrix,
    euler_to_rotation,
    mae,
    rotation_to_euler,
)


def random_poses(n, rng, pitch_limit=89.0):
    return [
        PoseAngles(
            rng.uniform(-179.0, 179.0),
            rng.uniform(-pitch_limit, pitch_limit),
            rng.uniform(-179.0, 179.0),
        )
        for _ in range(n)
    ]


def test_pose_angles_rejects_non_finite():
    with pytest.raises(ValueError, match="yaw"):
        PoseAngles(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError, match="pitch"):
        PoseAngles(0.0, float("inf"), 0.0)


def test_pose_angles_coerces_to_float():
    p = PoseAngles(1, 2, 3)
    assert isinstance(p.yaw, float) and p.as_array().dtype == float


def test_identity_round_trip():
    r = euler_to_rotation(PoseAngles(0.0, 0.0, 0.0))
    assert np.allclose(r, np.eye(3), atol=0.0)
    p = rotation_to_euler(np.eye(3))
    assert (p.yaw, p.pitch, p.roll) == (0.0, 0.0, 0.0)


def test_yaw_90_gives_permutation_matrix():
    r = euler_to_rotation(PoseAngles(90.0, 0.0, 0.0))
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(r - expected).max() < 1e-12
    # the frontal axis maps onto the lateral axis
    assert np.abs(r @ np.array([1.0, 0.0, 0.0]) - np.array([0.0, 1.0, 0.0])).max() < 1e-12


def test_round_trip_fixture():
    p = PoseAngles(12.3, -40.1, 7.7)
    q = rotation_to_euler(euler_to_rotation(p))
    assert abs(q.yaw - p.yaw) < 1e-9
    assert abs(q.pitch - p.pitch) < 1e-9
    assert abs(q.roll - p.roll) < 1e-9


def test_round_trip_random():
    rng = np.random.default_rng(11)
    for p in random_poses(1000, rng):
        q = rotation_to_euler(euler_to_rotation(p))
        err = max(abs(q.yaw - p.yaw), abs(q.pitch - p.pitch), abs(q.roll - p.roll))
        assert err < 1e-9, (p, q)


def test_matches_scipy_intrinsic_zyx():
    rng = np.random.default_rng(3)
    for p in random_poses(300, rng):
        ours = euler_to_rotation(p)
        ref = Rotation.from_euler("ZYX", [p.yaw, p.pitch, p.roll], degrees=True).as_matrix()
        assert np.abs(ours - ref).max() < 1e-12
        back = Rotation.from_matrix(ours).as_euler("ZYX", degrees=True)
        q = rotation_to_euler(ours)
        assert np.abs(np.array([q.yaw, q.pitch, q.roll]) - back).max() < 1e-9


def test_gimbal_lock_reports_zero_roll():
    r = euler_to_rotation(PoseAngles(30.0, 90.0, 25.0))
    q = rotation_to_euler(r)
    assert q.roll == 0.0
    assert q.pitch == 90.0
    assert abs(q.yaw - 5.0) < 1e-9
    # same rotation either way
    assert np.abs(euler_to_rotation(q) - r).max() < 1e-12


def test_gimbal_lock_negative_pitch():
    r = euler_to_rotation(PoseAngles(-20.0, -90.0, 10.0))
    q = rotation_to_euler(r)
    assert q.roll == 0.0 and q.pitch == -90.0
    assert np.abs(euler_to_rotation(q) - r).max() < 1e-12


def test_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        rotation_to_euler(np.eye(3) * 1.05)


def test_rejects_reflection():
    with pytest.raises(ValueError, match="determinant"):
        rotation_to_euler(np.diag([1.0, 1.0, -1.0]))


def test_rejects_bad_shape_and_nan():
    with pytest.raises(ValueError, match="3x3"):
        check_rotation_matrix(np.eye(4))
    bad = np.eye(3)
    bad[0, 0] = float("nan")
    with pytest.raises(ValueError, match="finite"):
        check_rotation_matrix(bad)
    for tol in (True, "1e-6", float("nan"), -1.0):
        with pytest.raises(ValueError, match=f"tol must be finite and nonnegative, got {tol!r}"):
            check_rotation_matrix(np.eye(3), tol=tol)


def test_mae_zero_and_offset():
    truths = np.array([[1.0, -2.0, 3.0], [-10.0, 20.0, -30.0]])
    report = mae(truths, truths)
    assert report.yaw_mae == report.pitch_mae == report.roll_mae == report.mean_mae == 0.0
    report = mae(truths + 1.0, truths)
    assert abs(report.yaw_mae - 1.0) < 1e-12
    assert abs(report.mean_mae - 1.0) < 1e-12


def test_mae_known_fixture():
    report = mae(np.array([[4.820, 6.227, 5.137]]), np.zeros((1, 3)))
    assert round(report.mean_mae, 4) == 5.3947
    assert round(report.mean_mae, 3) == 5.395


def test_mae_symmetry_and_permutation():
    rng = np.random.default_rng(5)
    preds = np.array([p.as_array() for p in random_poses(20, rng)])
    truths = np.array([p.as_array() for p in random_poses(20, rng)])
    a = mae(preds, truths)
    b = mae(truths, preds)
    assert a == b
    order = rng.permutation(20)
    c = mae(preds[order], truths[order])
    assert abs(c.mean_mae - a.mean_mae) < 1e-12


def test_mae_errors():
    p = np.zeros((1, 3))
    with pytest.raises(ValueError, match="length mismatch: 1 predictions vs 2 truths"):
        mae(p, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="empty"):
        mae(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError, match=r"truths must be an \(n, 3\) array, got shape \(1, 2\)"):
        mae(p, np.zeros((1, 2)))
    with pytest.raises(ValueError, match=r"predictions must be an \(n, 3\) array, got shape \(3,\)"):
        mae(np.zeros(3), p)
    with pytest.raises(ValueError, match="yaw_mae must be finite and nonnegative, got nan"):
        MaeReport(float("nan"), 1.0, 1.0, 1.0, n_samples=1)
    with pytest.raises(ValueError, match="roll_mae must be finite and nonnegative, got True"):
        MaeReport(1.0, 1.0, True, 1.0, n_samples=1)
    with pytest.raises(ValueError, match="mean_mae must be finite and nonnegative, got '1'"):
        MaeReport(1.0, 1.0, 1.0, "1", n_samples=1)
    for n in (1.5, True, 0):
        with pytest.raises(ValueError, match=f"n_samples must be a positive integer, got {n!r}"):
            MaeReport(1.0, 1.0, 1.0, 1.0, n_samples=n)


def test_mae_report_consistency_enforced():
    with pytest.raises(ValueError, match="mean_mae"):
        MaeReport(1.0, 1.0, 1.0, 2.0, n_samples=3)
    with pytest.raises(ValueError, match="n_samples"):
        MaeReport(1.0, 1.0, 1.0, 1.0, n_samples=0)
