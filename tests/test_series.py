import csv
import math
import re
import tracemalloc
from datetime import datetime

import numpy as np
import pytest

from s2ip.series import (ParseError, SeriesError, SeriesFrame, SplitSpec,
                         Standardizer, Window, WindowSpec, chronological_split,
                         few_shot_truncate, load_csv, window_count, windows)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def frame_of_length(t, n=1):
    values = np.arange(t * n, dtype=np.float64).reshape(t, n)
    return SeriesFrame(tuple(range(t)), values, tuple(f"c{i}" for i in range(n)))


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_small_csv(tmp_path):
    path = write(tmp_path, "t,a,b\n1,1.0,2.0\n2,1.5,2.5\n3,2.0,3.0\n")
    frame = load_csv(path)
    assert frame.length == 3
    assert frame.n_channels == 2
    assert frame.channel_names == ("a", "b")
    assert np.array_equal(frame.values[:, 0], [1.0, 1.5, 2.0])


def test_load_bad_value_names_row(tmp_path):
    path = write(tmp_path, "t,a,b\n1,1.0,2.0\n2,x,2.5\n3,2.0,3.0\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(path)


def test_load_etth_shaped_file(tmp_path):
    # hourly-shaped file: 17,420 rows, 7 channels
    t = 17420
    rng = np.random.default_rng(0)
    lines = ["t," + ",".join(f"v{i}" for i in range(7))]
    data = rng.normal(size=(t, 7))
    for i in range(t):
        lines.append(str(i) + "," + ",".join(f"{v:.6f}" for v in data[i]))
    path = write(tmp_path, "\n".join(lines) + "\n")
    frame = load_csv(path)
    assert frame.length == 17420
    assert frame.n_channels == 7


def test_row_widths_are_checked_before_the_allocation(tmp_path):
    # a 3000-column header, then 3000 one-cell rows: 19.4 KiB. The cells as
    # Python strings cost about 28 times the file; sized from the header,
    # the value array took 69.2 MiB (3600 times) before this error was raised
    path = write(tmp_path, "t," + ",".join(str(i) for i in range(3000))
                 + "\n" + "1\n" * 3000)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError,
                           match="^row 2: expected 3001 columns, got 1$"):
            load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * path.stat().st_size


def test_load_empty_file(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(SeriesError):
        load_csv(path)


def test_load_header_only(tmp_path):
    path = write(tmp_path, "t,a\n")
    with pytest.raises(SeriesError):
        load_csv(path)


def test_load_non_monotonic_timestamps(tmp_path):
    path = write(tmp_path, "t,a\n1,1.0\n3,2.0\n2,3.0\n")
    with pytest.raises(SeriesError, match="increasing"):
        load_csv(path)


def test_load_iso_timestamps(tmp_path):
    path = write(tmp_path,
                 "t,a\n2021-01-01T00:00:00,1.0\n2021-01-01T01:00:00,2.0\n")
    frame = load_csv(path)
    assert frame.length == 2


def test_iso_timestamps_are_not_tried_as_integers(tmp_path, monkeypatch):
    """int() sees the integer cells of a column that falls back to the
    row-by-row parse, and none of its ISO-8601 cells."""
    import s2ip.series as series
    seen = []
    monkeypatch.setattr(series, "int", lambda text: seen.append(text)
                        or int(text), raising=False)
    path = write(tmp_path, "t,a\n2021-01-01T00:00:00,1.0\n"
                           "2021-01-01 01:00:00,2.0\n2021-01-02,3.0\n")
    assert load_csv(path).timestamps == (datetime(2021, 1, 1),
                                         datetime(2021, 1, 1, 1),
                                         datetime(2021, 1, 2))
    assert seen == ["2021-01-01T00:00:00"]  # the bulk map's first cell
    seen.clear()
    path = write(tmp_path, "t,a\n-3,1.0\n1_0,2.0\n 20160701 ,3.0\n")
    assert load_csv(path).timestamps == (-3, 10, 20160701)
    with pytest.raises(ParseError, match="row 3: cannot parse timestamp '1-0'"):
        load_csv(write(tmp_path, "t,a\n-3,1.0\n1-0,2.0\n"))


def test_load_missing_value_rejected(tmp_path):
    path = write(tmp_path, "t,a\n1,1.0\n2,\n3,3.0\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(path)


def test_load_missing_value_forward_fill(tmp_path):
    path = write(tmp_path, "t,a\n1,1.0\n2,\n3,3.0\n")
    frame = load_csv(path, forward_fill=True)
    assert np.array_equal(frame.values[:, 0], [1.0, 1.0, 3.0])


def test_forward_fill_cannot_fill_first_row(tmp_path):
    path = write(tmp_path, "t,a\n1,\n2,2.0\n")
    with pytest.raises(ParseError):
        load_csv(path, forward_fill=True)


def test_load_non_utf8_names_the_file(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"t,a\n1,\xff2\n")
    with pytest.raises(ParseError, match=f"^cannot read CSV file {path}: "
                                         "'utf-8' codec can't decode"):
        load_csv(path)


def test_load_field_past_the_csv_limit_is_a_parse_error(tmp_path):
    # an unclosed quote makes the rest of the file one field
    path = write(tmp_path, 't,a\n1,"' + "1" * 200_000 + "\n")
    with pytest.raises(ParseError, match="field larger than field limit"):
        load_csv(path)


# ---------------------------------------------------------------------------
# seeded CSV fuzz: every mutation of a valid file loads or raises
# SeriesError, and no load allocates more than a bound set by its size
# ---------------------------------------------------------------------------

CSV_FUZZ_CASES = 200
# inserted bytes: ones the format gives meaning to, a byte that is never
# UTF-8 (0xff) and NUL
CSV_JUNK = b',"\n\r.-+e0123456789 nNaIf:T\xff\x00'


def csv_mutation(blob: bytes, rng) -> bytes:
    """``blob`` with junk inserted, a span deleted, bytes overwritten, or
    the tail cut off."""
    at = int(rng.integers(len(blob)))
    kind = rng.integers(4)
    if kind == 0:
        junk = rng.choice(np.frombuffer(CSV_JUNK, np.uint8),
                          size=int(rng.integers(1, 9)))
        return blob[:at] + junk.tobytes() + blob[at:]
    if kind == 1:
        return blob[:at] + blob[at + int(rng.integers(1, 64)):]
    if kind == 2:
        out = bytearray(blob)
        for i in rng.integers(len(blob), size=int(rng.integers(1, 9))):
            out[i] = int(rng.integers(256))
        return bytes(out)
    return blob[:at]


def test_csv_fuzz_loads_or_raises_series_error_within_a_memory_bound(tmp_path):
    from s2ip.harness import synthetic_frame, write_frame_csv

    valid = tmp_path / "valid.csv"
    write_frame_csv(synthetic_frame(785, 2, [24, 96], 0.01, 0.1, seed=0),
                    valid)
    blob = valid.read_bytes()
    rng = np.random.default_rng(17)
    path = tmp_path / "mutated.csv"
    outcomes = {"loaded": 0, "refused": 0}
    tracemalloc.start()
    try:
        for case in range(CSV_FUZZ_CASES):
            path.write_bytes(csv_mutation(blob, rng))
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                load_csv(path, forward_fill=bool(case % 2))
                outcomes["loaded"] += 1
            except SeriesError:
                outcomes["refused"] += 1
            peak = tracemalloc.get_traced_memory()[1] - before
            # a valid default file, and the worst of these cases, peak at
            # 64 KiB plus 6.3 times their size: twice that factor is allowed
            assert peak <= (64 << 10) + 13 * path.stat().st_size, case
    finally:
        tracemalloc.stop()
    assert outcomes["loaded"] and outcomes["refused"]


# ---------------------------------------------------------------------------
# the bulk parse against the row-by-row loader it replaced: the same frame,
# bit for bit, or the same exception type and message
# ---------------------------------------------------------------------------

def _row_timestamp(text, row):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"row {row}: cannot parse timestamp {text!r}") from None


def row_by_row_load_csv(path, *, forward_fill=False):
    """``load_csv`` as it was before clean files were parsed in bulk, with
    the frame's own errors numbered by file row too (the header is row 1)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read CSV file {path}: {exc}") from None
    if not rows:
        raise SeriesError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2:
        raise ParseError("row 1: header must name a timestamp and at least one channel")
    channel_names = tuple(header[1:])
    n = len(channel_names)
    if len(rows) < 2:
        raise SeriesError(f"{path}: no data rows")
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise ParseError(f"row {row_no}: expected {n + 1} columns, got {len(row)}")
    timestamps = []
    values = np.empty((len(rows) - 1, n), dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        row_no = i + 2
        timestamps.append(_row_timestamp(row[0], row_no))
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell == "" or cell.lower() == "nan":
                if forward_fill and i > 0:
                    values[i, j] = values[i - 1, j]
                    continue
                raise ParseError(f"row {row_no}: missing value in column "
                                 f"{channel_names[j]!r}")
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ParseError(f"row {row_no}: cannot parse value {cell!r} in "
                                 f"column {channel_names[j]!r}") from None
            if not math.isfinite(values[i, j]):
                raise ParseError(f"row {row_no}: non-finite value in column "
                                 f"{channel_names[j]!r}")
    return SeriesFrame(tuple(timestamps), values, channel_names)


def load_outcome(load, path, forward_fill):
    try:
        return load(path, forward_fill=forward_fill)
    except Exception as exc:  # any refusal: its type and message are compared
        return type(exc), str(exc)


def assert_loads_as_row_by_row(path, forward_fill=False):
    """Returns the frame, or the (type, message) of the refusal."""
    want = load_outcome(row_by_row_load_csv, path, forward_fill)
    got = load_outcome(load_csv, path, forward_fill)
    if isinstance(want, tuple):
        assert got == want
        return got
    assert isinstance(got, SeriesFrame), got
    assert got.channel_names == want.channel_names
    assert got.timestamps == want.timestamps
    assert list(map(type, got.timestamps)) == list(map(type, want.timestamps))
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    return got


@pytest.mark.parametrize("text", [
    "t,a,b\n1,1.0,2.0\n2,1.5,2.5\n3,2.0,3.0\n",
    "t,a\n2021-01-01T00:00:00,1.0\n2021-01-01T01:00:00,2.0\n",
    "t,a\n2021-01-01 00:00:00+00:00,1.0\n2021-01-01 01:00:00+01:00,2.0\n"
    "2021-01-01 02:00:00+00:00,3.0\n",
    "t,a\n20160701,1.0\n20160702,2.0\n",
    "t , a ,b\n 1 , 1.5 ,\t-2.0\t\n2\t,  0.25,3 \n",
    't,"a, quoted",b\n"1","1.5","-0"\n"2","2.5e-3","3"\n',
    "t,a\n1,1e-300\n2,-2.5E+10\n3,.5\n4,-0.0\n5,1_000.5\n",
    "t,a\r\n1,1.0\r\n\r\n2,2.0\r\n",
    "t,a\n1,1.0\n2,x\n3,2.0\nfive,3.0\n",
    "t,a\n1,1.0\n2,2.0\n3,3.0\nfive,3.0\n",
    "t,a\n2021-01-01,1.0\n2021-01-02,x\nJan 3,2.0\n",
    "t,a\n2021-01-01,1.0\n2021-01-02,2.0\nJan 3,2.0\n",
    "t,a\n1,1.0\n2,inf\n3,-Infinity\n",
    "t,a\n1,1.0\n2,NaN\n3, \n",
    "t,a\n1,1.0\n3,2.0\n2,3.0\n",
    "t,a\n1,1.0\n1,2.0\n",
    "t,a,b\n1,1.0\n2,2.0,3.0\n",
    "t,a\n",
    "t\n1\n",
])
@pytest.mark.parametrize("forward_fill", [False, True])
def test_bulk_parse_matches_row_by_row_on_small_files(tmp_path, text,
                                                       forward_fill):
    assert_loads_as_row_by_row(write(tmp_path, text), forward_fill)


def test_bulk_parse_matches_row_by_row_on_default_and_etth_shaped_files(
        tmp_path):
    from s2ip.harness import synthetic_frame, write_frame_csv

    default = tmp_path / "default.csv"
    write_frame_csv(synthetic_frame(785, 2, [24, 96], 0.01, 0.1, seed=0),
                    default)
    frame = assert_loads_as_row_by_row(default)
    assert frame.values.shape == (785, 2)
    rng = np.random.default_rng(1)
    lines = ["t," + ",".join(f"v{i}" for i in range(7))]
    data = rng.normal(size=(17420, 7))
    lines += [f"{i}," + ",".join(f"{v:.6f}" for v in data[i])
              for i in range(17420)]
    etth = write(tmp_path, "\n".join(lines) + "\n", name="etth.csv")
    frame = assert_loads_as_row_by_row(etth)
    assert frame.values.shape == (17420, 7)


def test_bulk_parse_matches_row_by_row_on_the_fuzz_cases(tmp_path):
    from s2ip.harness import synthetic_frame, write_frame_csv

    valid = tmp_path / "valid.csv"
    write_frame_csv(synthetic_frame(785, 2, [24, 96], 0.01, 0.1, seed=0),
                    valid)
    blob = valid.read_bytes()
    rng = np.random.default_rng(17)  # the cases of the fuzz test above
    path = tmp_path / "mutated.csv"
    refused = 0
    for _ in range(CSV_FUZZ_CASES):
        path.write_bytes(csv_mutation(blob, rng))
        for forward_fill in (False, True):
            outcome = assert_loads_as_row_by_row(path, forward_fill)
            refused += isinstance(outcome, tuple)
    assert 0 < refused < 2 * CSV_FUZZ_CASES


def test_a_bad_value_wins_over_a_later_bad_timestamp(tmp_path):
    path = write(tmp_path, "t,a\n1,1.0\n2,x\n3,2.0\nfive,3.0\n")
    assert assert_loads_as_row_by_row(path) == (
        ParseError, "row 3: cannot parse value 'x' in column 'a'")


def test_forward_fill_matches_row_by_row(tmp_path):
    path = write(tmp_path, "t,a,b\n1,1.0,2.0\n2,,nan\n3, NaN ,3.5\n4,4.0,\n")
    frame = assert_loads_as_row_by_row(path, forward_fill=True)
    assert np.array_equal(frame.values,
                          [[1.0, 2.0], [1.0, 2.0], [1.0, 3.5], [4.0, 3.5]])


@pytest.mark.parametrize("text, message", [
    ("t,a\n1,1.0\n2020-01-01,2.0\n3,2.5\n",
     "timestamps mix kinds at row 3: 1 then 2020-01-01 00:00:00"),
    ("t,a\n2020-01-01,1.0\n2020-01-02T00:00:00+00:00,2.0\n",
     "timestamps mix kinds at row 3: 2020-01-01 00:00:00 then "
     "2020-01-02 00:00:00+00:00"),
])
def test_mixed_timestamp_kinds_are_a_parse_error_naming_the_row(
        tmp_path, text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_csv(write(tmp_path, text))


def test_a_disorder_before_mixed_kinds_is_reported_first(tmp_path):
    path = write(tmp_path, "t,a\n3,1.0\n2,2.0\n2020-01-01,2.5\n")
    with pytest.raises(SeriesError,
                       match="^timestamps not strictly increasing at row 3$"):
        load_csv(path)


def test_frame_errors_of_a_csv_name_file_rows(tmp_path):
    # the header is row 1, as in every error load_csv raises itself
    path = write(tmp_path, "t,a\n1,1.0\n3,2.0\n2,3.0\n")
    with pytest.raises(SeriesError,
                       match="^timestamps not strictly increasing at row 4$"):
        load_csv(path)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_split_exact():
    train, val, test = chronological_split(frame_of_length(100), SplitSpec())
    assert (train.length, val.length, test.length) == (70, 10, 20)


def test_split_remainder_to_train():
    train, val, test = chronological_split(frame_of_length(101), SplitSpec())
    assert (train.length, val.length, test.length) == (71, 10, 20)


def test_split_degenerate_all_train():
    train, val, test = chronological_split(frame_of_length(10),
                                           SplitSpec(1.0, 0.0, 0.0))
    assert (train.length, val.length, test.length) == (10, 0, 0)


def test_split_concatenation_reconstructs():
    rng = np.random.default_rng(1)
    for _ in range(25):
        t = int(rng.integers(3, 200))
        frame = frame_of_length(t, n=2)
        fractions = rng.dirichlet(np.ones(3))
        spec = SplitSpec(*(fractions / fractions.sum()))
        train, val, test = chronological_split(frame, spec)
        rebuilt = np.vstack([train.values, val.values, test.values])
        assert np.array_equal(rebuilt, frame.values)
        assert train.timestamps + val.timestamps + test.timestamps == frame.timestamps


def test_split_fractions_validated():
    with pytest.raises(SeriesError):
        SplitSpec(0.5, 0.5, 0.5)
    with pytest.raises(SeriesError):
        SplitSpec(-0.1, 0.6, 0.5)


# ---------------------------------------------------------------------------
# few-shot truncation
# ---------------------------------------------------------------------------

def test_few_shot_tenth_of_hundred():
    out = few_shot_truncate(frame_of_length(100), 0.10)
    assert out.length == 10


def test_few_shot_paper_sized_split():
    train = frame_of_length(8545)
    assert few_shot_truncate(train, 0.10).length == 854
    assert few_shot_truncate(train, 0.05).length == 427


def test_few_shot_is_prefix():
    frame = frame_of_length(57, n=3)
    out = few_shot_truncate(frame, 0.4)
    assert np.array_equal(out.values, frame.values[:out.length])


def test_few_shot_empty_result_rejected():
    with pytest.raises(SeriesError):
        few_shot_truncate(frame_of_length(5), 0.1)
    with pytest.raises(SeriesError):
        few_shot_truncate(frame_of_length(5), 0.0)


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------

def test_window_count_examples():
    assert window_count(100, WindowSpec(24, 12)) == 65
    assert window_count(36, WindowSpec(24, 12)) == 1
    assert window_count(35, WindowSpec(24, 12)) == 0


def test_windows_exact_fit():
    frame = frame_of_length(36)
    out = windows(frame, WindowSpec(24, 12))
    assert len(out) == 1
    assert np.array_equal(out[0].input, frame.values[:24, 0])
    assert np.array_equal(out[0].target, frame.values[24:, 0])


def test_windows_empty_when_short():
    assert windows(frame_of_length(35), WindowSpec(24, 12)) == []


def test_windows_are_contiguous_slices():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = int(rng.integers(5, 120))
        lookback = int(rng.integers(1, 20))
        horizon = int(rng.integers(1, 10))
        stride = int(rng.integers(1, 6))
        frame = frame_of_length(t, n=2)
        spec = WindowSpec(lookback, horizon, stride)
        out = windows(frame, spec)
        expected = window_count(t, spec) * frame.n_channels
        assert len(out) == expected
        per_channel = expected // frame.n_channels if frame.n_channels else 0
        for i, w in enumerate(out):
            k = i % per_channel if per_channel else 0
            start = k * stride
            col = frame.values[:, w.channel]
            assert np.array_equal(w.input, col[start:start + lookback])
            assert np.array_equal(w.target,
                                  col[start + lookback:start + lookback + horizon])


def copied_windows(frame, spec):
    """The oracle: every window's input and target copied out of the
    frame's column, as ``windows`` built them before it returned views."""
    out = []
    count = window_count(frame.length, spec)
    for ch in range(frame.n_channels):
        col = frame.channel(ch)
        for k in range(count):
            start = k * spec.stride
            mid = start + spec.lookback
            out.append(Window(ch, col[start:mid].copy(),
                              col[mid:mid + spec.horizon].copy()))
    return out


def random_frame(t, n, seed=0):
    values = np.random.default_rng(seed).normal(size=(t, n))
    return SeriesFrame(tuple(range(t)), values, tuple(f"c{i}" for i in range(n)))


def same_window(got, want):
    return (type(got.channel) is int and got.channel == want.channel
            and np.array_equal(got.input, want.input)
            and np.array_equal(got.target, want.target))


@pytest.mark.parametrize("length", [97, 36, 35, 0],
                         ids=["many", "exactly-one", "none", "empty-frame"])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("stride", [1, 3])
def test_windows_match_the_copying_construction(length, channels, stride):
    frame = random_frame(length, channels, seed=length + channels + stride)
    spec = WindowSpec(24, 12, stride)
    lazy, oracle = windows(frame, spec), copied_windows(frame, spec)
    assert len(lazy) == len(oracle) == window_count(length, spec) * channels
    assert all(same_window(got, want) for got, want in zip(lazy, oracle))
    assert len(list(lazy)) == len(oracle)
    for i in range(-len(oracle), len(oracle)):
        assert same_window(lazy[i], oracle[i])
        assert same_window(lazy[np.int64(i)], oracle[i])
    for index in (len(oracle), -len(oracle) - 1):
        with pytest.raises(IndexError):
            lazy[index]
    assert lazy == oracle and oracle == lazy
    assert bool(lazy) == bool(oracle)


def test_window_slices_match_list_slices():
    frame = random_frame(60, 3, seed=4)
    spec = WindowSpec(8, 4, 3)
    lazy, oracle = windows(frame, spec), copied_windows(frame, spec)
    for s in (slice(None, 5), slice(5, None), slice(-7, -2), slice(None, None, -1),
              slice(1, 40, 4), slice(30, 2, -3), slice(100, None)):
        part = lazy[s]
        assert len(part) == len(oracle[s])
        assert all(same_window(g, w) for g, w in zip(part, oracle[s]))
        assert part == oracle[s]
    # a slice of a slice indexes the same windows as the list does
    assert same_window(lazy[2:40][::3][-1], oracle[2:40][::3][-1])
    assert lazy[:0] == [] and not lazy[:0]


def test_windows_are_read_only_unit_stride_views():
    frame = random_frame(50, 2, seed=5)
    window = windows(frame, WindowSpec(16, 8, 2))[-1]
    for arr in (window.input, window.target):
        assert arr.strides == (arr.itemsize,)
        with pytest.raises(ValueError):
            arr[0] = 99.0
    with pytest.raises(ValueError):
        window.input += 1.0
    assert np.array_equal(window.input, frame.values[-24:-8, 1])


def test_empty_windows_compare_equal_to_empty_list():
    empty = windows(frame_of_length(35), WindowSpec(24, 12))
    assert empty == [] and [] == empty and empty == ()
    assert not empty and len(empty) == 0 and list(empty) == []
    assert windows(frame_of_length(36), WindowSpec(24, 12)) != []
    assert empty != "" and empty != 0


def test_windows_memory_is_the_size_of_the_frame():
    # an ETTh1-shaped frame: 17,420 rows, 7 channels, 121,107 windows of
    # 96 + 24 steps. Copying every window retained ~146 MiB of 0.93 MiB
    frame = random_frame(17420, 7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = windows(frame, WindowSpec(96, 24))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(out) == 121107
    assert retained <= 2 * frame.values.nbytes + 2 ** 20


def test_window_spec_validation():
    with pytest.raises(SeriesError):
        WindowSpec(0, 5)
    with pytest.raises(SeriesError):
        WindowSpec(5, 0)
    with pytest.raises(SeriesError):
        WindowSpec(5, 5, 0)


# ---------------------------------------------------------------------------
# standardization and frame invariants
# ---------------------------------------------------------------------------

def test_standardizer_round_trip():
    rng = np.random.default_rng(3)
    frame = SeriesFrame(tuple(range(50)),
                        rng.normal(5.0, 3.0, size=(50, 2)), ("a", "b"))
    scaler = Standardizer.fit(frame)
    scaled = scaler.transform(frame)
    assert abs(scaled.values.mean()) < 1e-12
    for c in range(2):
        back = scaler.inverse(scaled.values[:, c], c)
        assert np.allclose(back, frame.values[:, c], atol=1e-12)


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e307])
def test_standardizer_refuses_a_channel_whose_moments_overflow(scale):
    # the squared deviations of std overflow first, then the sum of mean
    rng = np.random.default_rng(4)
    values = rng.normal(5.0, 3.0, size=(50, 3))
    values[:, 1] *= scale
    frame = SeriesFrame(tuple(range(50)), values, ("a", "b", "c"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SeriesError, match="^channel 'b' is too large to "
                           "standardize: its mean or std is not finite$"):
            Standardizer.fit(frame)


def test_standardizer_keeps_large_finite_moments():
    rng = np.random.default_rng(5)
    values = rng.normal(5.0, 3.0, size=(50, 2)) * np.array([1.0, 1e150])
    scaler = Standardizer.fit(SeriesFrame(tuple(range(50)), values,
                                          ("a", "b")))
    assert np.array_equal(scaler.mean, values.mean(axis=0))
    assert np.array_equal(scaler.std, values.std(axis=0))


def test_standardizer_refuses_an_empty_training_split():
    with pytest.raises(SeriesError, match="empty training split"):
        Standardizer.fit(frame_of_length(10).slice_rows(0, 0))


def test_frame_rejects_nan():
    with pytest.raises(SeriesError):
        SeriesFrame((0, 1), np.array([[1.0], [np.nan]]), ("a",))


def test_frame_values_immutable():
    frame = frame_of_length(4)
    with pytest.raises(ValueError):
        frame.values[0, 0] = 99.0
