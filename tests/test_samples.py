import csv
import io

import numpy as np
import pytest

from funcperm import (
    FunctionalSample,
    SampleFormatError,
    TimeGrid,
    load_samples,
    pooled_by_group,
    serialize_samples,
    split_by_group,
)

MINIMAL = b"id,group,t1,t2\n1,0,0.5,1.5\n2,1,-0.25,2.0\n"


def test_load_minimal_two_rows():
    sample = load_samples(MINIMAL)
    assert sample.n_units == 2
    assert sample.grid.horizon == 2
    assert sample.group_sizes == (1, 1)
    assert sample.paths.tolist() == [[0.5, 1.5], [-0.25, 2.0]]


def test_load_accepts_path(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_bytes(MINIMAL)
    assert load_samples(path).n_units == 2
    assert load_samples(str(path)).n_units == 2
    with open(path, "rb") as fh:
        assert load_samples(fh).n_units == 2


def test_nan_token_rejected_with_location():
    bad = b"id,group,t1,t2\n1,0,0.5,NaN\n2,1,0.0,1.0\n"
    with pytest.raises(SampleFormatError, match=r"non-numeric value at \(row 2, col 4\)"):
        load_samples(bad)


def test_non_numeric_token_rejected():
    bad = b"id,group,t1,t2\n1,0,0.5,oops\n2,1,0.0,1.0\n"
    with pytest.raises(SampleFormatError, match="non-numeric value"):
        load_samples(bad)


def test_gap_in_group_ids_rejected():
    bad = b"id,group,t1\n1,0,0.5\n2,2,1.0\n"
    with pytest.raises(SampleFormatError, match="non-contiguous group ids"):
        load_samples(bad)


def test_wrong_field_count_rejected():
    bad = b"id,group,t1,t2\n1,0,0.5\n"
    with pytest.raises(SampleFormatError, match="malformed row 2"):
        load_samples(bad)


def test_negative_group_rejected():
    bad = b"id,group,t1\n1,-1,0.5\n"
    with pytest.raises(SampleFormatError, match="negative group id"):
        load_samples(bad)


def test_missing_group_rejected():
    bad = b"id,group,t1\n1,,0.5\n"
    with pytest.raises(SampleFormatError, match="missing or non-integer group id"):
        load_samples(bad)


def test_empty_inputs_rejected():
    with pytest.raises(SampleFormatError, match="missing header"):
        load_samples(b"")
    with pytest.raises(SampleFormatError, match="no data rows"):
        load_samples(b"id,group,t1\n")


def test_header_must_lead_with_id_group():
    with pytest.raises(SampleFormatError, match="malformed header"):
        load_samples(b"group,id,t1\n0,1,0.5\n")


def test_round_trip_identity():
    rng = np.random.default_rng(3)
    paths = rng.normal(size=(7, 5))
    labels = np.array([0, 1, 0, 2, 1, 0, 2])
    sample = FunctionalSample(paths, labels, TimeGrid.regular(5))
    back = load_samples(serialize_samples(sample))
    assert back.paths.dtype == sample.paths.dtype
    assert back.paths.tobytes() == sample.paths.tobytes()
    assert np.array_equal(back.labels, sample.labels)
    assert back.grid == sample.grid


def test_split_by_group_order_preserved():
    paths = np.array([[1.0], [2.0], [3.0]])
    sample = FunctionalSample(paths, [0, 1, 0], TimeGrid.regular(1))
    groups = split_by_group(sample)
    assert [g.tolist() for g in groups] == [[[1.0], [3.0]], [[2.0]]]


def test_split_single_group_returns_paths():
    paths = np.array([[1.0, 2.0], [3.0, 4.0]])
    sample = FunctionalSample(paths, [0, 0], TimeGrid.regular(2))
    (only,) = split_by_group(sample)
    assert np.array_equal(only, paths)


def test_five_group_sizes_echoed():
    # control plus four treatments with realistic cohort sizes
    sizes = (524, 236, 227, 251, 254)
    labels = np.repeat(np.arange(5), sizes)
    rng = np.random.default_rng(0)
    sample = FunctionalSample(rng.normal(size=(sum(sizes), 3)), labels, TimeGrid.regular(3))
    assert sample.group_sizes == sizes
    assert [g.shape[0] for g in split_by_group(sample)] == list(sizes)


def test_split_concatenation_is_row_permutation():
    rng = np.random.default_rng(8)
    for _ in range(5):
        n_groups = int(rng.integers(2, 5))
        n = int(rng.integers(n_groups, 30))
        labels = rng.integers(0, n_groups, size=n)
        labels[:n_groups] = np.arange(n_groups)  # keep all groups populated
        paths = rng.normal(size=(n, 4))
        sample = FunctionalSample(paths, labels, TimeGrid.regular(4))
        pooled, sizes = pooled_by_group(sample)
        assert sum(sizes) == n
        # same multiset of rows
        key = lambda m: sorted(map(tuple, np.round(m, 12).tolist()))
        assert key(pooled) == key(paths)


def test_validation_of_direct_construction():
    grid = TimeGrid.regular(2)
    with pytest.raises(ValueError, match="non-finite"):
        FunctionalSample(np.array([[np.inf, 0.0]]), [0], grid)
    with pytest.raises(ValueError, match="non-contiguous"):
        FunctionalSample(np.zeros((2, 2)), [0, 2], grid)
    with pytest.raises(ValueError, match="columns"):
        FunctionalSample(np.zeros((2, 3)), [0, 1], grid)


def test_huge_group_id_lists_a_capped_few_missing_groups():
    # an id of 2**40 must not cost 2**40 counts
    bad = b"id,group,t1\n1,0,0.5\n2,1099511627776,1.0\n"
    with pytest.raises(SampleFormatError) as err:
        load_samples(bad)
    assert str(err.value) == (
        "non-contiguous group ids: no rows for group(s) "
        "1, 2, 3, 4, 5, 6, 7, 8, 9, 10 and 1099511627765 more"
    )


def test_group_id_beyond_int64_rejected():
    bad = b"id,group,t1\n1,0,0.5\n2,99999999999999999999,1.0\n"
    with pytest.raises(SampleFormatError, match=r"^group id beyond the int64 range at row 3$"):
        load_samples(bad)


def test_direct_construction_with_a_huge_group_id_rejected():
    with pytest.raises(ValueError, match="non-contiguous"):
        FunctionalSample(np.zeros((2, 2)), [0, 2**40], TimeGrid.regular(2))


def test_direct_construction_with_fractional_labels_rejected():
    with pytest.raises(ValueError, match="group ids must be integers"):
        FunctionalSample(np.zeros((3, 2)), [0, 0.7, 1.2], TimeGrid.regular(2))


def test_direct_construction_with_bool_labels_rejected():
    # True and False are not group ids 1 and 0
    with pytest.raises(ValueError, match="group ids must be integers"):
        FunctionalSample(np.zeros((3, 2)), np.array([True, False, True]), TimeGrid.regular(2))


def test_time_grid_invariants():
    assert TimeGrid.regular(4).horizon == 4 and TimeGrid.regular(4) == TimeGrid(4)
    grid = TimeGrid(np.int64(3))
    assert type(grid.horizon) is int and grid.horizon == 3
    with pytest.raises(ValueError, match="at least one"):
        TimeGrid(0)
    # True is a flag, not the horizon 1, and a float is not truncated
    for bad in (True, 2.0):
        with pytest.raises(TypeError):
            TimeGrid.regular(bad)


def test_sample_is_immutable():
    sample = load_samples(MINIMAL)
    with pytest.raises(ValueError):
        sample.paths[0, 0] = 99.0


def test_duplicate_id_rejected_with_both_rows():
    # ids compare as stripped strings
    bad = b"id,group,t1\n1,0,0.5\n 2,1,1.0\n3,0,0.0\n2 ,1,0.25\n"
    with pytest.raises(SampleFormatError, match=r"^duplicate id '2' at rows 3 and 5$"):
        load_samples(bad)


def test_duplicate_id_checked_in_file_order():
    # an earlier fault wins over a later duplicate ...
    bad = b"id,group,t1\n1,0,0.5\n2,1,nan\n1,0,0.0\n"
    with pytest.raises(SampleFormatError, match=r"non-numeric value at \(row 3, col 3\)"):
        load_samples(bad)
    # ... and within a row the id is checked right after the field count
    bad = b"id,group,t1\n1,0,0.5\n2,1,1.0\n1,x,nan\n"
    with pytest.raises(SampleFormatError, match=r"duplicate id '1' at rows 2 and 4"):
        load_samples(bad)
    bad = b"id,group,t1\n1,0,0.5\n2,1,1.0\n1,0\n"
    with pytest.raises(SampleFormatError, match="malformed row 4"):
        load_samples(bad)


def test_blank_id_rejected():
    for bad in (
        b"id,group,t1\n,0,0.5\n2,1,1.0\n",
        b"id,group,t1\n1,0,0.5\n  ,1,1.0\n",
    ):
        with pytest.raises(SampleFormatError, match=r"^blank id at row \d$"):
            load_samples(bad)
    # two blank ids: the first one is reported, not a duplicate
    bad = b"id,group,t1\n1,0,0.5\n ,1,1.0\n3,0,0.0\n,1,0.25\n"
    with pytest.raises(SampleFormatError, match=r"^blank id at row 3$"):
        load_samples(bad)
    # the blank check comes before the duplicate check, in file order
    bad = b"id,group,t1\n1,0,0.5\n1,1,1.0\n,0,0.0\n"
    with pytest.raises(SampleFormatError, match=r"^duplicate id '1' at rows 2 and 3$"):
        load_samples(bad)


def test_finite_values_with_overflowing_sum_accepted():
    sample = load_samples(b"id,group,t1,t2\n1,0,1e308,1e308\n2,1,-1e308,-1e308\n")
    assert sample.paths.tolist() == [[1e308, 1e308], [-1e308, -1e308]]


def test_first_bad_row_decides_the_error():
    bad = b"id,group,t1,t2\n1,0,0.5,1.0\n2,1,0.5,nan\n3,0,0.0,1.0\n4,1,0.5\n"
    with pytest.raises(SampleFormatError, match=r"^non-numeric value at \(row 3, col 4\)$"):
        load_samples(bad)


def _oracle_load(data: bytes) -> FunctionalSample:
    """Reference parser: the sample contract checked one token at a time, ids aside."""
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
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
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue  # ignore blank lines
        if len(row) != n_fields:
            raise SampleFormatError(
                f"malformed row {row_no}: expected {n_fields} fields, "
                f"got {len(row)}"
            )
        try:
            group = int(row[1])
        except ValueError:
            raise SampleFormatError(
                f"missing or non-integer group id at row {row_no}"
            ) from None
        if group < 0:
            raise SampleFormatError(f"negative group id at row {row_no}")
        values = []
        for col, token in enumerate(row[2:], start=3):
            try:
                value = float(token)
            except ValueError:
                value = float("nan")
            if not np.isfinite(value):
                raise SampleFormatError(
                    f"non-numeric value at (row {row_no}, col {col})"
                )
            values.append(value)
        labels.append(group)
        rows.append(values)

    if not rows:
        raise SampleFormatError("empty input: no data rows")

    label_arr = np.asarray(labels)
    present = np.bincount(label_arr)
    if np.any(present == 0):
        missing = [str(s) for s in np.flatnonzero(present == 0)]
        raise SampleFormatError(
            f"non-contiguous group ids: no rows for group(s) {', '.join(missing)}"
        )
    grid = TimeGrid.regular(n_times)
    return FunctionalSample(np.asarray(rows, dtype=float), label_arr, grid)


VALUE_FAULTS = ("nan", "inf", "-inf", "1e999", "oops", "")
ODD_VALID_TOKENS = (" 1.5 ", "1_0", "+2e-3")


def _faulty_csv(rng, n_faults: int) -> bytes:
    n_rows, width = int(rng.integers(2, 8)), int(rng.integers(1, 5))
    labels = rng.integers(0, 3, size=n_rows)
    rows = []
    for unit, label in enumerate(labels, start=1):
        tokens = [
            str(rng.choice(ODD_VALID_TOKENS)) if rng.random() < 0.3 else repr(float(v))
            for v in rng.normal(size=width)
        ]
        rows.append([str(unit), str(label)] + tokens)
    # value faults go in before a field-count fault can shorten their row
    for kind in sorted(rng.integers(3, size=n_faults), reverse=True):
        row = rows[int(rng.integers(n_rows))]
        if kind == 2:
            row[2 + int(rng.integers(width))] = str(rng.choice(VALUE_FAULTS))
        elif kind == 1:  # a bad group
            row[1] = str(rng.choice(["-1", "x", "", "1.5"]))
        elif rng.random() < 0.5:  # a wrong field count
            row.pop()
        else:
            row.append("0.5")
    header = ["id", "group"] + [f"t{j}" for j in range(1, width + 1)]
    return "\n".join(",".join(r) for r in [header] + rows).encode() + b"\n"


def _outcome(load, data: bytes):
    try:
        sample = load(data)
    except SampleFormatError as err:
        return str(err)
    return sample.paths.tobytes(), sample.labels.tolist()


def test_row_parse_matches_per_token_oracle():
    rng = np.random.default_rng(12)
    outcomes = []
    for case in range(600):
        data = _faulty_csv(rng, n_faults=case % 3)
        outcome = _outcome(load_samples, data)
        assert outcome == _outcome(_oracle_load, data), data
        outcomes.append(outcome)
    messages = [o for o in outcomes if isinstance(o, str)]
    # every kind of fault, and clean files, actually occurred
    for fragment in ("malformed row", "non-integer group", "negative group",
                     "non-numeric value", "non-contiguous"):
        assert any(fragment in m for m in messages), fragment
    assert len(messages) < len(outcomes)
