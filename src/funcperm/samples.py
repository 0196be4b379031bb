"""Ingestion and validation of discretely observed functional samples.

A sample is a set of N units, each observed as a path of J values on a
shared time grid of J slots, plus a group label per unit; the grid holds
only J.  Group ids must be the contiguous integers 0..S, and group 0 is
the control group by convention.

CSV contract (UTF-8, one leading byte-order mark allowed, comma
separated, no quoting of numeric fields)::

    id,group,t1,...,tJ
    1,0,0.31,0.28,...
    2,1,0.05,0.11,...

``id`` labels a unit and must be unique; ids are compared after stripping
surrounding whitespace, and a blank id or a repeat is rejected.
``group`` is a base-10 integer, path values are base-10 decimals.
Missing or non-finite values are rejected, never imputed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

from .rng import _index


class SampleFormatError(ValueError):
    """An input stream violates the sample CSV contract."""


# A message about non-contiguous group ids lists at most this many of the
# missing ones.
_LISTED_MISSING = 10

# The largest group id: labels are held as int64.
_MAX_GROUP_ID = int(np.iinfo(np.int64).max)


def _missing_groups(labels: np.ndarray) -> tuple[list[int], int]:
    """The first ``_LISTED_MISSING`` group ids below the largest label that
    no label takes, and how many such ids there are.

    ``labels`` are nonnegative integers.  The ids come from the sorted
    distinct labels, so the cost does not grow with the largest label.
    """
    ids = np.unique(labels).tolist()
    listed: list[int] = []
    below = 0
    for group in ids:
        listed.extend(range(below, min(group, below + _LISTED_MISSING - len(listed))))
        below = group + 1
    return listed, below - len(ids)


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Shared observation grid of ``horizon`` slots, 1..horizon.

    Only the number of slots matters to the statistics, so it is all the
    grid holds; it must be an integer (not a bool) of at least one.
    """

    horizon: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", _index(self.horizon))
        if self.horizon < 1:
            raise ValueError(f"time grid needs at least one point, got {self.horizon}")

    @staticmethod
    def regular(n_points: int) -> "TimeGrid":
        """Grid with slots 1..n_points."""
        return TimeGrid(n_points)


@dataclass(frozen=True)
class FunctionalSample:
    """N observed paths with group labels on a shared grid.

    Immutable after construction; safe to share across parallel readers.
    """

    paths: np.ndarray  # (N, J) float
    labels: np.ndarray  # (N,) int, contiguous group ids 0..S
    grid: TimeGrid

    def __post_init__(self) -> None:
        paths = np.asarray(self.paths, dtype=float)
        labels = np.asarray(self.labels)
        if paths.ndim != 2:
            raise ValueError("paths must be a 2-d matrix")
        if labels.shape != (paths.shape[0],):
            raise ValueError("labels must have one entry per path")
        if paths.shape[0] < 1:
            raise ValueError("sample must contain at least one path")
        if paths.shape[1] != self.grid.horizon:
            raise ValueError(
                f"paths have {paths.shape[1]} columns but grid has "
                f"{self.grid.horizon} points"
            )
        if not np.all(np.isfinite(paths)):
            raise ValueError("paths contain non-finite values")
        if labels.dtype.kind not in "iu":
            raise ValueError("group ids must be integers")
        labels = labels.astype(int, copy=False)
        if labels.min() < 0:
            raise ValueError("group ids must be nonnegative")
        if _missing_groups(labels)[1]:
            raise ValueError("non-contiguous group ids")
        object.__setattr__(self, "paths", _frozen(paths))
        object.__setattr__(self, "labels", _frozen(labels))

    @property
    def n_units(self) -> int:
        return self.paths.shape[0]

    @property
    def n_groups(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(int(c) for c in np.bincount(self.labels))


Source = Union[str, Path, bytes, BinaryIO, io.TextIOBase]


def _text_lines(source: Source):
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    # spreadsheet "CSV UTF-8" exports begin with a byte-order mark
    return io.StringIO(data.removeprefix("\ufeff"))


def _finite_values(row: list[str], row_no: int) -> list[float]:
    """Parse a row's path values one token at a time.

    Raises :class:`SampleFormatError` at the first token that is not a
    finite decimal; a row of finite values whose sum merely overflows is
    returned as parsed.
    """
    values = []
    for col, token in enumerate(row[2:], start=3):
        try:
            value = float(token)
        except ValueError:
            value = float("nan")
        if not math.isfinite(value):
            raise SampleFormatError(
                f"non-numeric value at (row {row_no}, col {col})"
            )
        values.append(value)
    return values


def load_samples(source: Source) -> FunctionalSample:
    """Parse and validate a CSV stream into a :class:`FunctionalSample`.

    ``source`` may be a path, raw bytes, or an open file object.  Each
    contract violation raises :class:`SampleFormatError` with a message
    identifying the offending row and column.
    """
    reader = csv.reader(_text_lines(source))
    try:
        header = next(reader)
    except StopIteration:
        raise SampleFormatError("empty input: missing header row") from None
    header = [h.strip() for h in header]
    if len(header) < 3 or header[0] != "id" or header[1] != "group":
        raise SampleFormatError(
            "malformed header: expected 'id,group,t1,...,tJ', got "
            f"{','.join(header) or '(blank)'}"
        )
    n_fields = len(header)
    n_times = n_fields - 2

    rows: list[list[float]] = []
    labels: list[int] = []
    id_rows: dict[str, int] = {}
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue  # ignore blank lines
        if len(row) != n_fields:
            raise SampleFormatError(
                f"malformed row {row_no}: expected {n_fields} fields, "
                f"got {len(row)}"
            )
        unit = row[0].strip()
        if not unit:
            raise SampleFormatError(f"blank id at row {row_no}")
        first = id_rows.setdefault(unit, row_no)
        if first != row_no:
            raise SampleFormatError(
                f"duplicate id '{unit}' at rows {first} and {row_no}"
            )
        try:
            group = int(row[1])
        except ValueError:
            raise SampleFormatError(
                f"missing or non-integer group id at row {row_no}"
            ) from None
        if group < 0:
            raise SampleFormatError(f"negative group id at row {row_no}")
        if group > _MAX_GROUP_ID:
            raise SampleFormatError(f"group id beyond the int64 range at row {row_no}")
        # One float() pass and one finiteness test per row; a row that
        # fails either is rescanned token by token to locate the fault.
        try:
            values = list(map(float, row[2:]))
        except ValueError:
            values = None
        if values is None or not math.isfinite(sum(values)):
            values = _finite_values(row, row_no)
        labels.append(group)
        rows.append(values)

    if not rows:
        raise SampleFormatError("empty input: no data rows")

    label_arr = np.asarray(labels, dtype=np.int64)
    listed, n_missing = _missing_groups(label_arr)
    if n_missing:
        more = f" and {n_missing - len(listed)} more" if n_missing > len(listed) else ""
        raise SampleFormatError(
            f"non-contiguous group ids: no rows for group(s) {', '.join(map(str, listed))}{more}"
        )
    grid = TimeGrid.regular(n_times)
    return FunctionalSample(np.asarray(rows, dtype=float), label_arr, grid)


def serialize_samples(sample: FunctionalSample) -> bytes:
    """Render a sample back to the CSV wire format.

    Paths and labels round-trip exactly through :func:`load_samples`
    (values are written with ``repr``).  Ids do not: a sample keeps none,
    so rows are numbered 1..N in row order.
    """
    buf = io.StringIO()
    time_names = [f"t{j}" for j in range(1, sample.grid.horizon + 1)]
    buf.write(",".join(["id", "group"] + time_names) + "\n")
    for i in range(sample.n_units):
        fields = [str(i + 1), str(int(sample.labels[i]))]
        fields += [repr(float(v)) for v in sample.paths[i]]
        buf.write(",".join(fields) + "\n")
    return buf.getvalue().encode("utf-8")


def split_by_group(sample: FunctionalSample) -> list[np.ndarray]:
    """Per-group path matrices, preserving input row order within groups."""
    return [sample.paths[sample.labels == s] for s in range(sample.n_groups)]


def pooled_by_group(sample: FunctionalSample) -> tuple[np.ndarray, tuple[int, ...]]:
    """Stack the per-group matrices control-first.

    Returns the pooled (N, J) matrix whose rows are grouped in blocks of
    the returned sizes; this is the canonical row order assumed by the
    permutation engine (plan 0, the identity, assigns label s to block s).
    """
    groups = split_by_group(sample)
    return np.vstack(groups), sample.group_sizes
