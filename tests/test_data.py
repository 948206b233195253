import numpy as np
import pytest

from hybridpose.angles import PoseAngles, euler_to_rotation, rotation_to_euler
from hybridpose.data import (
    ANNOTATION_HEADER,
    ParseError,
    PREDICTIONS_HEADER,
    format_annotation_csv,
    format_biwi_pose,
    format_predictions_csv,
    parse_annotation_csv,
    parse_biwi_pose,
)

IDENTITY_POSE = "1 0 0\n0 1 0\n0 0 1\n\n0 0 0\n"


def test_parse_identity_pose():
    rotation, translation = parse_biwi_pose(IDENTITY_POSE)
    assert (rotation == np.eye(3)).all()
    assert (translation == np.zeros(3)).all()
    assert rotation_to_euler(rotation) == PoseAngles(0.0, 0.0, 0.0)


def test_pose_text_roundtrip_recovers_angles():
    rng = np.random.default_rng(0)
    for _ in range(100):
        pose = PoseAngles(rng.uniform(-75, 75), rng.uniform(-60, 60), rng.uniform(-50, 50))
        rotation = euler_to_rotation(pose)
        text = format_biwi_pose(rotation, translation=(10.0, -3.5, 250.0))
        parsed, translation = parse_biwi_pose(text)
        assert (parsed == rotation).all()
        assert (translation == np.array([10.0, -3.5, 250.0])).all()
        got = rotation_to_euler(parsed)
        assert abs(got.yaw - pose.yaw) < 1e-6
        assert abs(got.pitch - pose.pitch) < 1e-6
        assert abs(got.roll - pose.roll) < 1e-6


def test_pose_blank_line_is_optional():
    rotation, translation = parse_biwi_pose("1 0 0\n0 1 0\n0 0 1\n5 6 7\n")
    assert (rotation == np.eye(3)).all()
    assert (translation == np.array([5.0, 6.0, 7.0])).all()


def test_pose_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2") as info:
        parse_biwi_pose("1 0 0\n0 1\n0 0 1\n0 0 0\n")
    assert info.value.line == 2
    with pytest.raises(ParseError, match="line 3"):
        parse_biwi_pose("1 0 0\n0 1 0\n0 x 1\n0 0 0\n")
    with pytest.raises(ParseError, match="4 .*lines|expected"):
        parse_biwi_pose("1 0 0\n0 1 0\n")
    with pytest.raises(ParseError, match="line"):
        parse_biwi_pose("1 0 0\n0 1 0\n0 0 1\n0 0 0\n1 2 3\n")


def test_pose_rejects_non_orthonormal_matrix():
    text = "1.1 0 0\n0 1 0\n0 0 1\n0 0 0\n"
    with pytest.raises(ParseError, match="line 1"):
        parse_biwi_pose(text)
    # reflection: valid orthogonal matrix but determinant -1
    with pytest.raises(ParseError, match="line 1"):
        parse_biwi_pose("1 0 0\n0 1 0\n0 0 -1\n0 0 0\n")


def test_annotation_csv_roundtrip():
    ids = ["a", "b"]
    angles = np.array([[1.5, -2.25, 0.0], [-10.0, 3.0, 99.0]])
    text = format_annotation_csv(ids, angles)
    assert text.splitlines() == [ANNOTATION_HEADER, "a,1.5,-2.25,0.0", "b,-10.0,3.0,99.0"]
    parsed_ids, parsed = parse_annotation_csv(text)
    assert list(parsed_ids.items()) == [("a", 0), ("b", 1)]
    assert parsed.shape == (2, 3) and (parsed == angles).all()
    with pytest.raises(ValueError, match=r"angles must be an \(n, 3\) array of length 1"):
        format_annotation_csv(["a"], angles)


def test_annotation_csv_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_annotation_csv("wrong,header,row,here\na,1,2,3\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_annotation_csv(f"{ANNOTATION_HEADER}\na,1,2\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_annotation_csv(f"{ANNOTATION_HEADER}\na,1,2,3\nb,1,x,3\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_annotation_csv(f"{ANNOTATION_HEADER}\na,1,2,3\na,4,5,6\n")
    with pytest.raises(ParseError, match="empty id"):
        parse_annotation_csv(f"{ANNOTATION_HEADER}\n,1,2,3\n")
    with pytest.raises(ParseError, match="line 3: yaw must be finite, got nan"):
        parse_annotation_csv(f"{ANNOTATION_HEADER}\na,1,2,3\nb,nan,2,3\n")
    # header-only file is an empty table, not an error
    ids, angles = parse_annotation_csv(f"{ANNOTATION_HEADER}\n")
    assert ids == {} and angles.shape == (0, 3)
    with pytest.raises(ParseError, match="line 1"):
        parse_annotation_csv("")


def test_formatters_reject_ids_that_cannot_round_trip():
    one = np.zeros((1, 3))
    for bad in ("a,b", "a\nb", "a\rb", "a\x0cb", "", " a"):
        with pytest.raises(ValueError, match="cannot be written to a CSV row"):
            format_annotation_csv([bad], one)
        with pytest.raises(ValueError, match="cannot be written to a CSV row"):
            format_predictions_csv([bad], one, one)
    ids, angles = parse_annotation_csv(format_annotation_csv(["a b", "7"], np.zeros((2, 3))))
    assert list(ids) == ["a b", "7"]


def test_predictions_csv_layout():
    text = format_predictions_csv(
        ["s1", "s2"],
        np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 0.0]]),
        np.array([[1.1, 2.2, 3.3], [-0.9, 0.4, 0.1]]),
    )
    lines = text.splitlines()
    assert lines[0] == PREDICTIONS_HEADER
    assert lines[1:] == ["s1,1.0,2.0,3.0,1.1,2.2,3.3", "s2,-1.0,0.5,0.0,-0.9,0.4,0.1"]
    with pytest.raises(ValueError, match="length"):
        format_predictions_csv(["s1"], np.zeros((1, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="length"):
        format_predictions_csv(["s1", "s2"], np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        format_predictions_csv(["s1"], np.zeros((1, 2)), np.zeros((1, 2)))
