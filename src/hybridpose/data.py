"""Parsers and formatters for pose ground-truth files.

Two text formats are handled:

* Pose matrix files: three whitespace-separated rows of a rotation matrix,
  an optional blank line, then one translation row.  This matches the
  per-frame ground-truth layout of common RGB-D head pose recordings.
* Annotation CSV: header ``id,yaw,pitch,roll`` then one record per line,
  angles in degrees.  In memory it is a dict from each id to its row of an
  (n, 3) yaw/pitch/roll array, in file order, as is either side of a predictions CSV.

All parse failures raise ParseError with a 1-based line number.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable

import numpy as np

from .angles import ANGLE_NAMES, check_rotation_matrix
from .binning import _float, _shown

__all__ = [
    "ParseError",
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


def _parse_number_row(line: str, lineno: int, expected: int) -> list[float]:
    tokens = line.split()
    if len(tokens) != expected:
        raise ParseError(f"expected {expected} numbers, found {len(tokens)}", line=lineno)
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            raise ParseError(f"non-numeric token {_shown(tok)}", line=lineno) from None
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


def parse_annotation_csv(
    text: str | Iterable[str], side: str = "true"
) -> tuple[dict[str, int], np.ndarray]:
    """Parse an ``id,yaw,pitch,roll`` CSV into {id: row} and an (n, 3) angle array, in file order.

    ``text`` is the CSV's text, or its lines as ``str.splitlines`` gives them,
    which are parsed as they come: only the ids and angles are kept.  Of a
    predictions CSV, ``side`` "pred" keeps the ``*_pred`` angles, "true" the others.
    """
    if side not in ("pred", "true"):
        raise ValueError(f"side must be 'pred' or 'true', got {_shown(side)}")
    lines = iter(text.splitlines() if isinstance(text, str) else text)
    header = next(lines, "").strip()
    first = {ANNOTATION_HEADER: 1, PREDICTIONS_HEADER: 1 if side == "pred" else 4}.get(header)
    if first is None:
        expected = f"{ANNOTATION_HEADER!r} or {PREDICTIONS_HEADER!r}"
        raise ParseError(f"expected header {expected}, found {_shown(header)}", line=1)
    fields = header.count(",") + 1
    ids, angles = {}, array("d")
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != fields:
            raise ParseError(f"expected {fields} fields, found {len(parts)}", line=lineno)
        sample_id = parts[0].strip()
        if not sample_id:
            raise ParseError("empty id", line=lineno)
        if sample_id in ids:
            raise ParseError(f"duplicate id {_shown(sample_id)}", line=lineno)
        try:
            row = [_float(p) for p in parts[first : first + 3]]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        for name, value in zip(ANGLE_NAMES, row):
            if not math.isfinite(value):
                raise ParseError(f"{name} must be finite, got {value!r}", line=lineno)
        ids[sample_id] = len(ids)
        angles.extend(row)
    return ids, np.frombuffer(angles).reshape(len(ids), 3)


def _check_rows(ids, values, name: str) -> np.ndarray:
    """``values`` as an (n, 3) float array with one yaw/pitch/roll row per id."""
    a = np.asarray(values, dtype=float)
    if a.shape != (len(ids), 3):
        raise ValueError(
            f"{name} must be an (n, 3) array of length {len(ids)}, one row per id, "
            f"got shape {a.shape}"
        )
    return a


def _check_ids(ids) -> None:
    """Raise ValueError unless every id reads back as itself from a CSV row.

    ``parse_annotation_csv`` splits lines with ``str.splitlines`` and fields
    at commas, and strips the id; an empty id is an error there.
    """
    for sample_id in ids:
        text = str(sample_id)
        if "," in text or text.splitlines() != [text] or text.strip() != text:
            raise ValueError(
                f"id {text!r} cannot be written to a CSV row: ids must be nonempty, "
                "without a comma, a line break or surrounding whitespace"
            )


def format_annotation_csv(ids, angles) -> str:
    """Render an (n, 3) yaw/pitch/roll array, one ``id,yaw,pitch,roll`` row per id."""
    _check_ids(ids)
    lines = [ANNOTATION_HEADER]
    for sample_id, row in zip(ids, _check_rows(ids, angles, "angles").tolist()):
        lines.append(f"{sample_id}," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def format_predictions_csv(ids, predictions, truths) -> str:
    """Render (n, 3) yaw/pitch/roll arrays of predictions and truths, one row per id."""
    pred = _check_rows(ids, predictions, "predictions")
    truth = _check_rows(ids, truths, "truths")
    _check_ids(ids)
    lines = [PREDICTIONS_HEADER]
    for sample_id, p, t in zip(ids, pred.tolist(), truth.tolist()):
        lines.append(f"{sample_id}," + ",".join(map(repr, p + t)))
    return "\n".join(lines) + "\n"
