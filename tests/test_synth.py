import numpy as np
import pytest

from hybridpose.angles import PoseAngles, euler_to_rotation, rotation_to_euler
from hybridpose.synth import (
    DEFAULT_RIG,
    Dataset,
    Rig,
    SynthConfig,
    format_dataset,
    load_dataset,
    make_dataset,
    render_features,
    sample_pose,
)


def recover_pose(features, rig):
    """Least-squares oracle: solve rows 1 and 2 of R from the projection.

    The observed lateral column is P @ R[1] and the vertical column is
    P @ R[2]; the remaining row follows from orthonormality.
    """
    obs = features.reshape(-1, 2)
    row1, *_ = np.linalg.lstsq(rig.points, obs[:, 0], rcond=None)
    row2, *_ = np.linalg.lstsq(rig.points, obs[:, 1], rcond=None)
    row0 = np.cross(row1, row2)
    return rotation_to_euler(np.vstack([row0, row1, row2]), tol=1e-6)


def test_default_rig_geometry():
    assert DEFAULT_RIG.n_points == 12
    assert abs(DEFAULT_RIG.max_norm - 1.0) < 1e-12
    centered = DEFAULT_RIG.points - DEFAULT_RIG.points.mean(axis=0)
    assert np.linalg.matrix_rank(centered) == 3


def test_default_rig_is_asymmetric():
    # No mirror symmetry about the sagittal plane, otherwise yaw sign darkens.
    mirrored = DEFAULT_RIG.points * np.array([1.0, -1.0, 1.0])
    dists = np.linalg.norm(mirrored[:, None, :] - DEFAULT_RIG.points[None, :, :], axis=2)
    assert dists.min(axis=1).max() > 0.01


def test_rig_rejects_coplanar_points():
    flat = np.column_stack([np.arange(6.0), np.arange(6.0) ** 2, np.zeros(6)])
    with pytest.raises(ValueError, match="coplanar"):
        Rig(flat)
    with pytest.raises(ValueError, match="at least 4"):
        Rig(np.eye(3))


def test_sample_pose_respects_ranges():
    cfg = SynthConfig(n_samples=2, yaw_range=(-75, 75), pitch_range=(-60, 60), roll_range=(-50, 50))
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = sample_pose(rng, cfg)
        assert -75 <= p.yaw <= 75
        assert -60 <= p.pitch <= 60
        assert -50 <= p.roll <= 50


def test_sample_pose_zero_width_ranges():
    cfg = SynthConfig(n_samples=2, yaw_range=(0, 0), pitch_range=(0, 0), roll_range=(0, 0))
    rng = np.random.default_rng(0)
    p = sample_pose(rng, cfg)
    assert (p.yaw, p.pitch, p.roll) == (0.0, 0.0, 0.0)


def test_sample_pose_mean_is_centered():
    cfg = SynthConfig(n_samples=2)
    rng = np.random.default_rng(123)
    draws = np.array([sample_pose(rng, cfg).as_array() for _ in range(100_000)])
    assert np.abs(draws.mean(axis=0)).max() < 1.0


def test_synth_config_validation():
    with pytest.raises(ValueError, match="yaw_range"):
        SynthConfig(n_samples=10, yaw_range=(-120.0, 120.0))
    with pytest.raises(ValueError, match="pitch_range"):
        SynthConfig(n_samples=10, pitch_range=(30.0, 20.0))
    with pytest.raises(ValueError, match="n_samples"):
        SynthConfig(n_samples=1)
    with pytest.raises(ValueError, match="noise_sigma"):
        SynthConfig(n_samples=10, noise_sigma=-0.1)
    with pytest.raises(ValueError, match="val_fraction"):
        SynthConfig(n_samples=10, val_fraction=1.0)


def test_render_identity_pose_is_canonical_projection():
    features = render_features(DEFAULT_RIG, PoseAngles(0.0, 0.0, 0.0))
    assert (features == DEFAULT_RIG.points[:, 1:3].ravel()).all()


def test_render_matches_rotation_matrix():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pose = PoseAngles(rng.uniform(-75, 75), rng.uniform(-60, 60), rng.uniform(-50, 50))
        features = render_features(DEFAULT_RIG, pose)
        rotated = DEFAULT_RIG.points @ euler_to_rotation(pose).T
        assert np.abs(features - rotated[:, 1:3].ravel()).max() == 0.0


def test_render_noise_is_seed_deterministic():
    pose = PoseAngles(10.0, -5.0, 3.0)
    a = render_features(DEFAULT_RIG, pose, 0.01, np.random.default_rng(9))
    b = render_features(DEFAULT_RIG, pose, 0.01, np.random.default_rng(9))
    assert (a == b).all()
    with pytest.raises(ValueError, match="rng"):
        render_features(DEFAULT_RIG, pose, 0.01, None)


def test_noiseless_features_bounded_by_rig_norm():
    rng = np.random.default_rng(2)
    cfg = SynthConfig(n_samples=2)
    for _ in range(200):
        features = render_features(DEFAULT_RIG, sample_pose(rng, cfg))
        assert np.abs(features).max() <= DEFAULT_RIG.max_norm + 1e-12


def test_pose_recoverable_from_noiseless_features():
    rng = np.random.default_rng(3)
    cfg = SynthConfig(n_samples=2)
    for _ in range(100):
        pose = sample_pose(rng, cfg)
        features = render_features(DEFAULT_RIG, pose)
        got = recover_pose(features, DEFAULT_RIG)
        assert abs(got.yaw - pose.yaw) < 1e-6
        assert abs(got.pitch - pose.pitch) < 1e-6
        assert abs(got.roll - pose.roll) < 1e-6


def test_make_dataset_split_sizes():
    train, val = make_dataset(SynthConfig(n_samples=10, seed=0))
    assert (len(train), len(val)) == (8, 2)
    train, val = make_dataset(SynthConfig(n_samples=2500, seed=0))
    assert (len(train), len(val)) == (2000, 500)
    assert train.features.shape == (2000, 24) and val.angles.shape == (500, 3)
    for part in (train, val):
        assert part.features.flags.c_contiguous and part.angles.flags.c_contiguous
    # Both splits are views of make_dataset's own tables, not copies.
    assert train.features.base is val.features.base is not None
    assert train.angles.base is val.angles.base is not None


def test_make_dataset_is_deterministic():
    cfg = SynthConfig(n_samples=40, seed=21)
    a_train, a_val = make_dataset(cfg)
    b_train, b_val = make_dataset(cfg)
    assert format_dataset(a_train) == format_dataset(b_train)
    assert format_dataset(a_val) == format_dataset(b_val)
    c_train, _ = make_dataset(SynthConfig(n_samples=40, seed=22))
    assert format_dataset(a_train) != format_dataset(c_train)


def test_dataset_file_roundtrip(tmp_path):
    train, _ = make_dataset(SynthConfig(n_samples=12, seed=5))
    path = tmp_path / "train.csv"
    path.write_text(format_dataset(train))
    loaded = load_dataset(path)
    assert len(loaded) == len(train)
    assert (loaded.features == train.features).all()
    assert (loaded.angles == train.angles).all()
    assert loaded.features.flags.c_contiguous and loaded.angles.flags.c_contiguous
    # Views of load_dataset's parse buffers, not copies.
    assert not loaded.features.flags.owndata and not loaded.angles.flags.owndata


def test_load_dataset_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_dataset(path)
    path.write_text("1.0,2.0,0.5,1.0,2.0,3.0\n1.0,x,0.5,1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_dataset(path)
    path.write_text("1.0,2.0,0.5,1.0,2.0,3.0\n1.0,nan,0.5,1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 2: features contain non-finite"):
        load_dataset(path)
    path.write_text("\n1.0,2.0,0.5,1.0,2.0,inf\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 2: roll must be finite, got inf"):
        load_dataset(path)


def test_dataset_validation():
    features, angles = np.zeros((2, 4)), np.zeros((2, 3))
    data = Dataset(features, angles)
    assert len(data) == 2
    with pytest.raises(ValueError, match="read-only"):
        data.features[0, 0] = 1.0
    features[0, 1] = np.nan
    angles[0, 0] = np.nan
    # Writeable inputs were copied: writing to them later leaves the dataset as checked.
    assert np.isfinite(data.features).all() and np.isfinite(data.angles).all()
    # So was a read-only view of a writeable array.
    base = np.zeros((2, 4))
    view = base.view()
    view.setflags(write=False)
    data = Dataset(view, np.zeros((2, 3)))
    base[0, 0] = np.nan
    assert np.isfinite(data.features).all()
    with pytest.raises(ValueError, match="features contain non-finite"):
        Dataset(features, angles)
    angles[1, 2] = np.inf
    with pytest.raises(ValueError, match="angles contain non-finite"):
        Dataset(np.zeros((2, 4)), angles)
    with pytest.raises(ValueError, match="nonempty"):
        Dataset(np.zeros((0, 4)), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="nonempty"):
        Dataset(np.zeros(4), np.zeros(3))
    with pytest.raises(ValueError, match=r"angles must have shape \(2, 3\)"):
        Dataset(np.zeros((2, 4)), np.zeros((3, 3)))
