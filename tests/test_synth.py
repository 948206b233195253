import os
import pickle
import sys
from array import array

import numpy as np
import pytest

from hybridpose.angles import PoseAngles, euler_to_rotation, rotation_to_euler
from hybridpose.synth import (
    RIG_POINTS,
    Dataset,
    SynthConfig,
    format_dataset,
    load_dataset,
    _frame_lines,
    _parse_block,
    make_dataset,
    render_features,
    sample_pose,
)


def recover_pose(features):
    """Least-squares oracle: solve rows 1 and 2 of R from the projection.

    The observed lateral column is P @ R[1] and the vertical column is
    P @ R[2]; the remaining row follows from orthonormality.
    """
    obs = features.reshape(-1, 2)
    row1, *_ = np.linalg.lstsq(RIG_POINTS, obs[:, 0], rcond=None)
    row2, *_ = np.linalg.lstsq(RIG_POINTS, obs[:, 1], rcond=None)
    row0 = np.cross(row1, row2)
    return rotation_to_euler(np.vstack([row0, row1, row2]), tol=1e-6)


def test_default_rig_geometry():
    assert RIG_POINTS.shape == (12, 3) and RIG_POINTS.dtype == np.float64
    assert not RIG_POINTS.flags.writeable
    assert np.isfinite(RIG_POINTS).all()
    assert abs(np.linalg.norm(RIG_POINTS, axis=1).max() - 1.0) < 1e-12
    # Not coplanar, otherwise the orientation would be ambiguous.
    centered = RIG_POINTS - RIG_POINTS.mean(axis=0)
    assert np.linalg.matrix_rank(centered) == 3


def test_default_rig_is_asymmetric():
    # No mirror symmetry about the sagittal plane, otherwise yaw sign darkens.
    mirrored = RIG_POINTS * np.array([1.0, -1.0, 1.0])
    dists = np.linalg.norm(mirrored[:, None, :] - RIG_POINTS[None, :, :], axis=2)
    assert dists.min(axis=1).max() > 0.01


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
    with pytest.raises(ValueError, match="n_samples must be an integer of at least 2, got 1"):
        SynthConfig(n_samples=1)
    with pytest.raises(ValueError, match=r"yaw_range: angle -120.0 outside bin range"):
        SynthConfig(n_samples=10, yaw_range=(-120.0, 0.0))
    with pytest.raises(ValueError, match=r"roll_range must be a \(lower, upper\) pair"):
        SynthConfig(n_samples=10, roll_range=(0.0, 1.0, 2.0))
    # A float, bool, string, NaN or too large an int fails naming the field,
    # before make_dataset runs.
    for field, value in [
        ("n_samples", 10.7), ("n_samples", True), ("seed", 1.5), ("seed", "0"),
        ("noise_sigma", float("nan")), ("noise_sigma", True), ("val_fraction", "0.2"),
        ("yaw_range", (True, 1.0)), ("pitch_range", ("-10", 10.0)),
        ("roll_range", (0.0, float("nan"))), ("yaw_range", (0, 10**400)),
        ("noise_sigma", 10**400),
    ]:
        with pytest.raises(ValueError, match=f"^{field}"):
            SynthConfig(**{"n_samples": 10, field: value})


def test_render_identity_pose_is_canonical_projection():
    features = render_features(PoseAngles(0.0, 0.0, 0.0))
    assert (features == RIG_POINTS[:, 1:3].ravel()).all()


def test_render_matches_rotation_matrix():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pose = PoseAngles(rng.uniform(-75, 75), rng.uniform(-60, 60), rng.uniform(-50, 50))
        features = render_features(pose)
        rotated = RIG_POINTS @ euler_to_rotation(pose).T
        assert np.abs(features - rotated[:, 1:3].ravel()).max() == 0.0


def test_render_noise_is_seed_deterministic():
    pose = PoseAngles(10.0, -5.0, 3.0)
    a = render_features(pose, 0.01, np.random.default_rng(9))
    b = render_features(pose, 0.01, np.random.default_rng(9))
    assert (a == b).all()
    with pytest.raises(ValueError, match="rng"):
        render_features(pose, 0.01, None)
    for sigma in (float("nan"), True, "0.01"):
        with pytest.raises(ValueError, match="noise_sigma must be finite and nonnegative"):
            render_features(pose, sigma, np.random.default_rng(9))


def test_noiseless_features_bounded_by_rig_norm():
    rng = np.random.default_rng(2)
    cfg = SynthConfig(n_samples=2)
    for _ in range(200):
        features = render_features(sample_pose(rng, cfg))
        assert np.abs(features).max() <= 1.0 + 1e-12


def test_pose_recoverable_from_noiseless_features():
    rng = np.random.default_rng(3)
    cfg = SynthConfig(n_samples=2)
    for _ in range(100):
        pose = sample_pose(rng, cfg)
        features = render_features(pose)
        got = recover_pose(features)
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


def test_load_dataset_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_dataset(path)
    path.write_text("1.0,2.0,0.5,1.0,2.0,3.0\n1.0,x,0.5,1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(path)
    for empty in ("", "\n  \n"):
        path.write_text(empty)
        with pytest.raises(ValueError, match=r"bad\.csv: dataset file is empty"):
            load_dataset(path)
    path.write_text("1.0,2.0,0.5,1.0,2.0,3.0\n1.0,nan,0.5,1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 2: features contain non-finite"):
        load_dataset(path)
    path.write_text("\n1.0,2.0,0.5,1.0,2.0,inf\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 2: roll must be finite, got inf"):
        load_dataset(path)
    if sys.platform == "linux":  # the file is read once, so a pipe serves
        r, w = os.pipe()
        os.write(w, b"\n1.0,2.0,0.5,1.0,2.0,3.0\n")
        os.close(w)
        try:
            data = load_dataset(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert (data.features.tolist(), data.angles.tolist()) == ([[1.0, 2.0, 0.5]], [[1.0, 2.0, 3.0]])


def parsed_blocks(path, block_rows):
    """The file's blocks as eval's workers parse them: ``_parse_block`` over
    ``_frame_lines``, each block's position sent through pickle."""
    return (_parse_block(pickle.loads(pickle.dumps(b))) for b in _frame_lines(path, block_rows))


def write_rows(path, rows, newline, blank, trailing=True):
    """Write ``rows`` as lines ending in ``newline``, with ``i % 3`` lines of
    ``blank`` before row i, and return each row's line number.  A first line of
    spaces puts a line end on the last byte of the reader's first 8 KB chunk."""
    lines = [line for i, row in enumerate(rows) for line in [blank] * (i % 3) + [row]]
    rest = newline.join(lines) + newline * trailing
    ends = [i for i in range(len(rest)) if rest.startswith(newline, i)]
    first = " " * (8191 - len(newline) - max(i for i in ends if i < 8191 - len(newline)))
    lines.insert(0, first)
    path.write_bytes((first + newline + rest).encode("utf-8", "surrogateescape"))
    assert path.read_bytes()[8191:8192] == newline[0].encode()
    assert path.read_bytes().endswith(rows[-1].encode() + newline.encode() * trailing)
    return [lines.index(row) + 1 for row in rows]


def test_dataset_blocks_split_the_rows_of_load_dataset(tmp_path):
    train, _ = make_dataset(SynthConfig(n_samples=40, seed=5))
    path = tmp_path / "train.csv"
    for newline, blank, trailing in [
        ("\n", "", True),
        ("\r\n", "", True),
        ("\r", "", True),  # a lone carriage return ends a line too
        ("\n", " \t ", True),  # whitespace-only lines count as blank
        ("\n", "", False),  # no newline after the last row
        ("\r\n", "\t", False),
    ]:
        form = (newline, blank, trailing)
        rows = format_dataset(train).splitlines()
        write_rows(path, rows, newline, blank, trailing)
        whole = load_dataset(path)
        assert (whole.features == train.features).all(), form
        assert (whole.angles == train.angles).all(), form
        for block_rows in (1, 2, 3, 1000):
            blocks = list(parsed_blocks(path, block_rows))
            assert [len(b) for b in blocks[:-1]] == [block_rows] * (len(blocks) - 1), form
            assert (np.concatenate([b.features for b in blocks]) == whole.features).all(), form
            assert (np.concatenate([b.angles for b in blocks]) == whole.angles).all(), form
        # A \xff byte, read as a lone surrogate, fails its line, found by number.
        rows[20] = rows[20].replace(",", ",\udcff", 1)
        message = f"{path}: line {write_rows(path, rows, newline, blank, trailing)[20]}: non-numeric field"
        for block_rows in (1, 2, 3, 1000):
            with pytest.raises(ValueError) as info:
                list(parsed_blocks(path, block_rows))
            assert str(info.value) == message, (form, block_rows)
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == message, form


GOOD = "1.0,2.0,0.5,1.0,2.0,3.0"
NAN = "1.0,nan,0.5,1.0,2.0,3.0"


@pytest.mark.parametrize("lines, bad_line, message", [
    # A non-finite value wins over a later line's field-count or non-numeric error.
    ([GOOD, NAN, "1.0,2.0,3.0"], 2, "features contain non-finite values"),
    ([GOOD, "1.0,2.0,0.5,1.0,2.0,-inf", GOOD + ",4.0"], 2, "roll must be finite, got -inf"),
    ([NAN, GOOD, GOOD, "x" + GOOD], 1, "features contain non-finite values"),
    ([GOOD, GOOD, GOOD, NAN, "x" + GOOD], 4, "features contain non-finite values"),
    # And the parse error wins over a later non-finite value.
    ([GOOD, "1.0,2.0,3.0", NAN], 2, "expected at least 5 fields, got 3"),
    ([GOOD, GOOD, GOOD + ",4.0", NAN], 3, "expected 6 fields, got 7"),
])
def test_first_bad_line_wins(tmp_path, lines, bad_line, message):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    for block_rows in (1, 2, 3, 1000):  # within one block and across blocks
        with pytest.raises(ValueError) as info:
            list(parsed_blocks(path, block_rows))
        assert str(info.value) == f"{path}: line {bad_line}: {message}", block_rows
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}: line {bad_line}: {message}"


def test_dataset_blocks_before_the_bad_line_are_yielded(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([GOOD] * 5 + ["x"]) + "\n")
    blocks = parsed_blocks(path, 2)
    assert [len(next(blocks)), len(next(blocks))] == [2, 2]
    with pytest.raises(ValueError, match="line 6: expected at least 5 fields, got 1"):
        next(blocks)


def test_a_pickled_dataset_stays_read_only():
    data = Dataset(np.arange(8.0).reshape(2, 4), np.zeros((2, 3)))
    copy = pickle.loads(pickle.dumps(data))
    assert (copy.features == data.features).all() and (copy.angles == data.angles).all()
    assert not copy.features.flags.writeable and not copy.angles.flags.writeable


def test_dataset_validation():
    features, angles = np.zeros((2, 4)), np.zeros((2, 3))
    data = Dataset(features, angles)
    assert len(data) == 2
    with pytest.raises(ValueError, match="read-only"):
        data.features[0, 0] = 1.0
    features[0, 1] = np.nan
    angles[0, 0] = np.nan
    # The inputs were copied: writing to them later leaves the dataset as checked.
    assert np.isfinite(data.features).all() and np.isfinite(data.angles).all()
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


def read_only_view(a):
    view = a.view()
    view.setflags(write=False)
    return view


def read_only_frombuffer(a):
    view = np.frombuffer(array("d", a.ravel().tolist())).reshape(a.shape)
    view.setflags(write=False)
    return view


@pytest.mark.parametrize("wrap", [np.asarray, read_only_view, read_only_frombuffer],
                         ids=["writeable", "read-only view", "frombuffer"])
def test_dataset_never_shares_memory_with_its_input(wrap):
    features, angles = wrap(np.arange(8.0).reshape(2, 4)), wrap(np.ones((2, 3)))
    data = Dataset(features, angles)
    for got, given in ((data.features, features), (data.angles, angles)):
        assert not np.shares_memory(got, given)
        assert got.flags.owndata and got.flags.c_contiguous and not got.flags.writeable
        assert (got == given).all()
