"""Parsers and formatters for pose ground-truth files.

Two text formats are handled:

* Pose matrix files: three whitespace-separated rows of a rotation matrix,
  an optional blank line, then one translation row.  This matches the
  per-frame ground-truth layout of common RGB-D head pose recordings.
* Annotation CSV: header ``id,yaw,pitch,roll`` then one record per line,
  angles in degrees.

All parse failures raise ParseError with a 1-based line number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import PoseAngles, check_rotation_matrix

__all__ = [
    "ParseError",
    "AnnotationRecord",
    "ANNOTATION_HEADER",
    "PREDICTIONS_HEADER",
    "parse_biwi_pose",
    "format_biwi_pose",
    "parse_annotation_csv",
    "format_annotation_csv",
    "format_predictions_csv",
]

ANNOTATION_HEADER = "id,yaw,pitch,roll"
PREDICTIONS_HEADER = "id,yaw_pred,pitch_pred,roll_pred,yaw_true,pitch_true,roll_true"


class ParseError(ValueError):
    """Malformed input text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class AnnotationRecord:
    """One labeled sample: an identifier, its pose, and where it came from."""

    sample_id: str
    pose: PoseAngles
    source: str = "csv"

    def __post_init__(self) -> None:
        if not self.sample_id:
            raise ValueError("sample_id must be nonempty")


def _parse_number_row(line: str, lineno: int, expected: int) -> list[float]:
    tokens = line.split()
    if len(tokens) != expected:
        raise ParseError(f"expected {expected} numbers, found {len(tokens)}", line=lineno)
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            raise ParseError(f"non-numeric token {tok!r}", line=lineno) from None
    return values


def parse_biwi_pose(text: str, tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Parse a pose matrix file into (rotation, translation).

    Expects exactly three matrix rows and one translation row of three
    numbers each; blank lines between them are ignored.  The rotation is
    validated for orthonormality within ``tol``.
    """
    numbered = [
        (lineno, line) for lineno, line in enumerate(text.splitlines(), start=1) if line.strip()
    ]
    if len(numbered) != 4:
        raise ParseError(
            f"expected 3 matrix rows plus 1 translation row, found {len(numbered)} "
            "nonblank lines",
            line=numbered[-1][0] if numbered else 1,
        )
    rows = [_parse_number_row(line, lineno, 3) for lineno, line in numbered[:3]]
    translation = np.array(_parse_number_row(numbered[3][1], numbered[3][0], 3))
    rotation = np.array(rows)
    try:
        rotation = check_rotation_matrix(rotation, tol=tol)
    except ValueError as exc:
        raise ParseError(str(exc), line=numbered[0][0]) from None
    return rotation, translation


def format_biwi_pose(rotation, translation=(0.0, 0.0, 0.0)) -> str:
    """Render a rotation and translation in the pose matrix file layout."""
    r = check_rotation_matrix(rotation, tol=1e-6)
    t = np.asarray(translation, dtype=float)
    if t.shape != (3,):
        raise ValueError(f"translation must have 3 components, got shape {t.shape}")
    lines = [" ".join(repr(float(v)) for v in row) for row in r]
    lines.append("")
    lines.append(" ".join(repr(float(v)) for v in t))
    return "\n".join(lines) + "\n"


def parse_annotation_csv(text: str, source: str = "csv") -> list[AnnotationRecord]:
    """Parse an ``id,yaw,pitch,roll`` CSV into records, order preserved."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != ANNOTATION_HEADER:
        found = lines[0].strip() if lines else ""
        raise ParseError(
            f"expected header {ANNOTATION_HEADER!r}, found {found!r}", line=1
        )
    records = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, found {len(parts)}", line=lineno)
        sample_id = parts[0].strip()
        if not sample_id:
            raise ParseError("empty id", line=lineno)
        if sample_id in seen:
            raise ParseError(f"duplicate id {sample_id!r}", line=lineno)
        seen.add(sample_id)
        try:
            angles = [float(p) for p in parts[1:]]
            pose = PoseAngles(*angles)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        records.append(AnnotationRecord(sample_id, pose, source))
    return records


def format_annotation_csv(records) -> str:
    lines = [ANNOTATION_HEADER]
    for rec in records:
        p = rec.pose
        lines.append(f"{rec.sample_id},{p.yaw!r},{p.pitch!r},{p.roll!r}")
    return "\n".join(lines) + "\n"


def format_predictions_csv(ids, predictions, truths) -> str:
    """Render (n, 3) yaw/pitch/roll arrays of predictions and truths, one row per id."""
    pred = np.asarray(predictions, dtype=float)
    truth = np.asarray(truths, dtype=float)
    if pred.ndim != 2 or pred.shape[1] != 3 or truth.shape != pred.shape:
        raise ValueError(
            f"predictions and truths must be (n, 3) arrays of equal length, "
            f"got shapes {pred.shape} and {truth.shape}"
        )
    if len(ids) != pred.shape[0]:
        raise ValueError(f"{len(ids)} ids for {pred.shape[0]} predictions: lengths differ")
    lines = [PREDICTIONS_HEADER]
    for sample_id, p, t in zip(ids, pred.tolist(), truth.tolist()):
        lines.append(f"{sample_id}," + ",".join(map(repr, p + t)))
    return "\n".join(lines) + "\n"

