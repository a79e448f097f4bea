"""The CSV codec: exact round trips, ``csv.writer`` bytes and reader errors."""

import codecs
import csv
import io
import struct
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from expcurve import (
    HindcastConfig,
    HindcastTable,
    SeriesTable,
    SurrogateSpec,
    TechSeries,
    build_experience,
    ingest_csv,
    load_reference_params,
    make_dataset,
    read_errors_csv,
    read_params_csv,
    run_hindcast,
    write_csv,
    write_errors_csv,
)
from expcurve import _csvio
from expcurve._csvio import _CHUNK, _fmt
from expcurve.estimators import full_sample_estimates
from expcurve.hindcast import ERROR_COLUMNS
from expcurve.params_io import PARAM_COLUMNS, write_params_csv
from expcurve.series import DERIVED_COLUMNS, REQUIRED_COLUMNS

# Names csv.writer must quote (comma, quote, line break) or that are not
# ASCII; none has surrounding whitespace, which ingest_csv strips.
ODD_NAMES = ("solar, thin film", 'the "best" cell', "Ünïcødé ☀ 太阳能", "two\nlines", "plain")


def csv_writer_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def file_text(path) -> str:
    with open(path, newline="", encoding="utf-8") as fh:
        return fh.read()


def odd_dataset(T=12):
    ds = make_dataset(SurrogateSpec(n_tech=len(ODD_NAMES), T=T, seed=17, n_ensembles=1), 0)
    return SeriesTable(ODD_NAMES, ds.T, ds.years, ds.cost, ds.production)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestReadErrorsCsv:
    HEADER = ",".join(ERROR_COLUMNS) + "\r\n"
    ROW = "tech,2000,2,moore,0.5,0.25,0.125,2.8,2,1.25\r\n"

    def write(self, tmp_path, text):
        path = tmp_path / "errors.csv"
        path.write_bytes(text.encode("utf-8"))
        return path

    def test_one_row(self, tmp_path):
        table = read_errors_csv(self.write(tmp_path, self.HEADER + self.ROW))
        assert len(table) == 1
        assert table.technology.tolist() == ["tech"] and table.model.tolist() == ["moore"]
        assert table.m.tolist() == [5]  # A = tau + tau**2 / m = 2 + 4 / 5
        assert table == HindcastTable(
            technology=["tech"], origin_year=[2000], tau=[2], model=["moore"], raw_error=[0.5],
            K_hat=[0.25], sigma_eta_hat=[0.125], A=[2.8], normalized_error=[2.0],
            pooled_error=[1.25], m=[5],
        )

    def test_missing_column(self, tmp_path):
        header = ",".join(c for c in ERROR_COLUMNS if c not in ("tau", "A")) + "\r\n"
        with pytest.raises(ValueError, match=r"^error CSV missing column\(s\): tau, A$"):
            read_errors_csv(self.write(tmp_path, header))

    def test_row_with_missing_fields(self, tmp_path):
        short = self.ROW.rsplit(",", 1)[0] + "\r\n"
        # a blank line is not a data row
        for body, row in ((short, 1), (self.ROW + short + self.ROW, 2), ("\r\n" + self.ROW + short, 2)):
            with pytest.raises(ValueError, match=f"^error CSV has a row with missing fields at data row {row}$"):
                read_errors_csv(self.write(tmp_path, self.HEADER + body))

    def test_row_with_missing_fields_after_first_block(self, tmp_path):
        short = self.ROW.rsplit(",", 1)[0] + "\r\n"
        with pytest.raises(ValueError, match="^error CSV has a row with missing fields at data row 5001$"):
            read_errors_csv(self.write(tmp_path, self.HEADER + self.ROW * 5000 + short))

    def test_unparsable_value_names_its_row_in_the_file(self, tmp_path):
        bad = self.ROW.replace(",0.25,", ",oops,")
        for before in (2, 4499):  # in the first block, then in the second
            text = self.HEADER + self.ROW * before + bad + self.ROW * 3
            with pytest.raises(ValueError, match=rf"^error CSV: .*'oops'.* at data row {before + 1},"):
                read_errors_csv(self.write(tmp_path, text))

    def test_unrecoverable_window_size(self, tmp_path):
        zero_gap = self.ROW.replace(",2.8,", ",2,")  # A - tau = 0
        window_one = self.ROW.replace(",2.8,", ",6,")  # A = tau + tau**2, so m = 1
        for bad in (zero_gap, window_one):
            with pytest.raises(ValueError, match="window size m cannot be recovered from tau and A"):
                read_errors_csv(self.write(tmp_path, self.HEADER + self.ROW + bad))

    def test_header_only_gives_empty_table(self, tmp_path):
        table = read_errors_csv(self.write(tmp_path, self.HEADER))
        assert len(table) == 0
        assert table.tau.dtype == np.int64 and table.raw_error.dtype == float
        assert table.technology.dtype.kind == "U" and table.m.dtype == np.int64

    def test_columns_by_name_blank_lines_and_blocks(self, tmp_path):
        # reordered and extra columns, a blank line, and more rows than one block
        cols = ["extra"] + list(reversed(ERROR_COLUMNS))
        row = dict(zip(ERROR_COLUMNS, self.ROW.strip().split(",")), extra="x")
        line = ",".join(row[c] for c in cols) + "\r\n"
        text = ",".join(cols) + "\r\n" + line * 4096 + "\r\n" + line * 5
        table = read_errors_csv(self.write(tmp_path, text))
        assert len(table) == 4101
        assert set(table.tau.tolist()) == {2} and set(table.m.tolist()) == {5}


def kernel_text(values) -> list[str]:
    """The writer's text of each of ``values``, in which 0xFF marks the
    bytes of a row that are no part of its text."""
    rows = _csvio._float_text(np.asarray(values, dtype=float))
    return [bytes(row).replace(b"\xff", b"").decode() for row in rows]


def is_tie(value: float) -> bool:
    """Whether 17 significant digits of ``value`` fall on an exact tie: its
    exact decimal expansion has 18 significant digits, the last a 5."""
    digits = Decimal(value).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


class TestFloatFallback:
    """``_fmt`` formats exactly the floats outside the kernel's range, finite
    magnitudes in ``[1e-4, 1e16)``, and those on an exact tie, once each."""

    @pytest.mark.parametrize("n", [_CHUNK, 2 * _CHUNK])
    def test_fmt_formats_exactly_the_values_outside_the_kernel(self, tmp_path, monkeypatch, n):
        calls = []

        def counted(value):
            calls.append(value)
            return _fmt(value)

        rng = np.random.default_rng(n)
        x = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(np.log(1e-6), np.log(1e20), n))
        x[rng.choice(n, 6, replace=False)] = [0.0, -0.0, np.nan, np.inf, 1e15 + 0.25, 5e-324]
        y = np.repeat(x[: n // 4], 4)  # each value four times
        monkeypatch.setattr(_csvio, "_fmt", counted)
        path = tmp_path / "x.csv"
        _csvio.write_csv(path, ["x", "y"], [[x, y]])
        fallback = [
            v for v in x.tolist() + y.tolist()
            if not (1e-4 <= abs(v) < 1e16) or is_tie(v)
        ]
        assert sorted(map(float_bits, calls)) == sorted(map(float_bits, fallback))
        assert 0 < len(calls) < n
        rows = zip(map(_fmt, x.tolist()), map(_fmt, y.tolist()))
        assert file_text(path) == csv_writer_text(["x", "y"], rows)


class TestFloatKernel:
    """The kernel's text is ``_fmt``'s, byte for byte."""

    EDGES = [
        1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0),
        # in the kernel's range no double rounds up to a power of ten at 17
        # digits; 1e-14, which lies just below 10**-14, does outside it
        1e-14, 0.1, 0.01, 0.001, np.nextafter(0.001, 0), np.nextafter(10.0, 0), 10.0, 1e15,
        0.3, -0.3, 1e15 + 0.25, -(1e15 + 0.25), 123456789012345.67, 0.5, 2.5,
        0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 1e308,
        -1.3118095100000001e140,
    ]
    NANS = [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001]

    def test_named_edges(self):
        values = np.array(self.EDGES + [np.array(b, np.uint64).view(float) for b in self.NANS])
        assert kernel_text(values) == [_fmt(v) for v in values.tolist()]
        assert is_tie(1e15 + 0.25) and not is_tie(0.3)

    def test_every_exponent_and_sign(self):
        # a value with each digit count, at each exponent of the kernel's range
        values = np.outer(10.0 ** np.arange(-4, 16), [1.0, 1.5, 1.25, 1.0000000000000002, 9.87654321])
        values = np.concatenate([values.ravel(), -values.ravel()])
        assert kernel_text(values) == [_fmt(v) for v in values.tolist()]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_floats(self, values):
        assert kernel_text(values) == [_fmt(v) for v in values]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_bit_patterns(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(float)
        assert kernel_text(values) == [_fmt(v) for v in values.tolist()]

    def test_special_values_raise_no_warning(self, tmp_path):
        # the tier-1 run turns every RuntimeWarning into an error
        path = tmp_path / "x.csv"
        values = np.array([np.nan, np.inf, -np.inf, 1e308, 5e-324, -0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _csvio.write_csv(path, ["x"], [[values]])
        assert file_text(path) == csv_writer_text(["x"], [[_fmt(v)] for v in values.tolist()])

    def test_widest_fallback_among_kernel_texts(self, tmp_path):
        path = tmp_path / "x.csv"
        values = np.array([0.5, -1.3118095100000001e140, -0.00012345678901234567, 3.0])
        _csvio.write_csv(path, ["x", "n"], [[values, np.arange(4)]])
        rows = [[_fmt(v), i] for i, v in enumerate(values.tolist())]
        assert file_text(path) == csv_writer_text(["x", "n"], rows)


class TestRoundTrips:
    """Write then read with odd technology names; the bytes are those that
    ``csv.writer`` writes for the same rows, with ``_fmt`` floats."""

    def test_errors_csv(self, tmp_path):
        # uncapped horizons make more rows than two write and read blocks
        table = run_hindcast(build_experience(odd_dataset(T=50)), HindcastConfig(m=4, tau_max=None))
        assert len(table) > 2 * _CHUNK
        path = tmp_path / "errors.csv"
        write_errors_csv(path, table)
        rows = [
            [r.technology, r.origin_year, r.tau, r.model]
            + [_fmt(getattr(r, c)) for c in ERROR_COLUMNS[4:]]
            for r in table
        ]
        assert file_text(path) == csv_writer_text(ERROR_COLUMNS, rows)
        back = read_errors_csv(path)
        assert sorted(set(back.technology.tolist())) == sorted(ODD_NAMES)
        for name in ERROR_COLUMNS[:4] + ("m",):
            assert_array_equal(getattr(back, name), getattr(table, name))
            assert getattr(back, name).dtype == getattr(table, name).dtype
        for name in ERROR_COLUMNS[4:]:
            assert_array_equal(bits(getattr(back, name)), bits(getattr(table, name)))

    def test_params_csv(self, tmp_path):
        table = full_sample_estimates(build_experience(odd_dataset()))
        path = tmp_path / "params.csv"
        write_params_csv(path, table)
        expected = [[name, T, *map(_fmt, values)] for name, T, *values in table.tolist()]
        assert file_text(path) == csv_writer_text(PARAM_COLUMNS, expected)
        back = read_params_csv(path)
        assert back.dtype == table.dtype
        assert back["technology"].tolist() == list(ODD_NAMES)
        assert_array_equal(back["T"], table["T"])
        for c in PARAM_COLUMNS[2:]:
            assert_array_equal(bits(back[c]), bits(table[c]))

    def test_series_csv_built_and_unbuilt(self, tmp_path):
        # the derived experience columns are filled for a built table and
        # left empty for an unbuilt one
        raw = odd_dataset()
        for dataset in (build_experience(raw), raw):
            path = tmp_path / "series.csv"
            write_csv(path, dataset)
            built = dataset.experience is not None
            expected = []
            for ts in dataset:
                for i in range(ts.T):
                    expected.append(
                        [
                            ts.name,
                            int(ts.years[i]),
                            _fmt(ts.cost[i]),
                            _fmt(ts.production[i]),
                            _fmt(ts.experience[i]) if built else "",
                            _fmt(ts.log_cost[i]),
                            _fmt(ts.log_experience[i]) if built else "",
                        ]
                    )
            assert file_text(path) == csv_writer_text(REQUIRED_COLUMNS + DERIVED_COLUMNS, expected)
            back = ingest_csv(path)
            assert [ts.name for ts in back] == list(ODD_NAMES)
            for ts, b in zip(dataset, back):
                assert_array_equal(b.years, ts.years)
                assert_array_equal(bits(b.cost), bits(ts.cost))
                assert_array_equal(bits(b.production), bits(ts.production))

    def test_empty_dataset_writes_the_header(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, SeriesTable.from_series([]))
        assert file_text(path) == csv_writer_text(REQUIRED_COLUMNS + DERIVED_COLUMNS, [])


class TestParamTable:
    def test_one_dtype(self, tmp_path):
        estimated = full_sample_estimates(build_experience(odd_dataset()))
        path = tmp_path / "params.csv"
        write_params_csv(path, estimated)
        for table in (estimated, read_params_csv(path), load_reference_params()):
            assert table.dtype.names == PARAM_COLUMNS
            assert table.dtype["technology"].kind == "U"
            assert table.dtype["T"] == np.int64
            assert all(table.dtype[c] == np.float64 for c in PARAM_COLUMNS[2:])
        # its rows still read field by field
        assert [int(r["T"]) for r in estimated] == estimated["T"].tolist()

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "params.csv"
        path.write_text(",".join(PARAM_COLUMNS) + "\n")
        with pytest.raises(ValueError, match="^parameter CSV has no rows$"):
            read_params_csv(path)


def test_byte_order_mark_is_skipped(tmp_path):
    # as in Excel's "CSV UTF-8" export; the writers add none
    dataset = odd_dataset()
    data, params = tmp_path / "data.csv", tmp_path / "params.csv"
    write_csv(data, dataset)
    write_params_csv(params, full_sample_estimates(build_experience(dataset)))
    for path in (data, params):
        assert not path.read_bytes().startswith(codecs.BOM_UTF8)
        path.with_name("bom_" + path.name).write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    plain, bom = ingest_csv(data), ingest_csv(tmp_path / "bom_data.csv")
    for c in ("names", "T", "years", "cost", "production"):
        assert_array_equal(getattr(bom, c), getattr(plain, c))
    assert read_params_csv(tmp_path / "bom_params.csv").tobytes() == read_params_csv(params).tobytes()


positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False)
names = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), min_size=1, max_size=12
).map(str.strip).filter(bool)


@st.composite
def datasets(draw):
    """One to four series of 3 to 8 years with arbitrary positive costs, as
    a table with experience built or as an unbuilt one."""
    built = draw(st.booleans())
    out = []
    for name in draw(st.lists(names, min_size=1, max_size=4, unique=True)):
        T = draw(st.integers(3, 8))
        cost = draw(st.lists(positive, min_size=T, max_size=T))
        year0 = draw(st.integers(1800, 2100))
        if built:
            # production within a factor of 4 of its first value and growing,
            # so the experience build neither fails nor loses increments
            base = draw(st.floats(min_value=1e-300, max_value=1e299))
            factors = draw(st.lists(st.floats(1.0, 2.0), min_size=T - 2, max_size=T - 2))
            production = [base] + sorted(base * f for f in factors) + [base * 4.0]
        else:
            production = draw(st.lists(positive, min_size=T, max_size=T))
        out.append(TechSeries(name, np.arange(year0, year0 + T), cost, production))
    table = SeriesTable.from_series(out)
    return build_experience(table) if built else table


class TestSeriesRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(datasets(), st.randoms(use_true_random=False))
    def test_write_then_ingest_is_exact(self, tmp_path_factory, dataset, rnd):
        # as written, and with the data rows in a random order: ingest then
        # orders the technologies by first appearance
        path = tmp_path_factory.mktemp("rt") / "series.csv"
        write_csv(path, dataset)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        rnd.shuffle(rows)
        shuffled = path.with_name("shuffled.csv")
        with open(shuffled, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)
        by_name = {ts.name: ts for ts in dataset}
        for p, order in ((path, list(by_name)), (shuffled, list(dict.fromkeys(r[0] for r in rows)))):
            back = ingest_csv(p)
            assert [b.name for b in back] == order
            for b in back:
                ts = by_name[b.name]
                assert_array_equal(b.years, ts.years)
                assert_array_equal(bits(b.cost), bits(ts.cost))
                assert_array_equal(bits(b.production), bits(ts.production))


def float_bits(v: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", v))[0]


NAN, NAN_PAYLOAD, NAN_NEGATIVE = 0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000
# Neighbours whose bits differ, three of them with the same text.
TWINS = [
    (float_bits(0.0), float_bits(-0.0)),
    (NAN, NAN_PAYLOAD),
    (NAN_PAYLOAD, NAN_NEGATIVE),
    (float_bits(np.inf), float_bits(-np.inf)),
]
run_values = st.lists(
    st.one_of(st.sampled_from(TWINS), st.floats().map(lambda v: (float_bits(v),))),
    min_size=1, max_size=6,
).map(lambda groups: [b for group in groups for b in group])


@st.composite
def column_blocks(draw):
    """A header and zero to two blocks of float, int and text columns. A
    ``runs`` column is piecewise constant, so its runs may cross a chunk
    boundary; a ``distinct`` column has no two equal neighbours; a ``wide``
    column has both signs and magnitudes from 1e-6 to 1e20, in and out of
    the kernel's range."""
    kinds = st.sampled_from(("runs", "distinct", "wide", "int", "text"))
    kinds = draw(st.lists(kinds, min_size=1, max_size=5))
    blocks = []
    for _ in range(draw(st.integers(0, 2))):
        n = draw(st.one_of(st.integers(0, 6), st.integers(_CHUNK - 2, _CHUNK + 2), st.just(2 * _CHUNK + 1)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        block = []
        for kind in kinds:
            if kind == "runs":
                bits = draw(run_values)
                cuts = draw(st.lists(st.integers(0, n), min_size=len(bits) - 1, max_size=len(bits) - 1))
                lengths = np.diff([0, *sorted(cuts), n])
                block.append(np.repeat(np.array(bits, dtype=np.uint64), lengths).view(float))
            elif kind == "distinct":
                block.append(rng.standard_normal(n))
            elif kind == "wide":
                block.append(rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(np.log(1e-6), np.log(1e20), n)))
            elif kind == "int":
                block.append(rng.integers(-3, 3, n))
            else:
                block.append(rng.choice(np.array(ODD_NAMES), n))
        blocks.append(block)
    return [f"c{i}" for i in range(len(kinds))], blocks


class TestDistinctText:
    @pytest.mark.parametrize("shape", ["run-free", "run-heavy", "mixed", "empty"])
    @pytest.mark.parametrize("kind", ["text", "int"])
    def test_equals_plain_unique(self, shape, kind):
        values = np.array(["wright", "moore", "a,b", "Ünï"]) if kind == "text" else np.array([7, -3, 0, 12])
        order = {
            "run-free": np.tile([0, 1, 2, 1, 3], 40),
            "run-heavy": np.repeat([3, 0, 2, 0, 1], [50, 70, 1, 30, 49]),
            "mixed": np.r_[np.repeat([1, 2], 60), np.tile([0, 3], 40), [1], np.repeat(2, 19)],
            "empty": np.array([], dtype=int),
        }[shape]
        col = values[order]
        table, index = _csvio._distinct_text(col, False)
        unique, inverse = np.unique(col, return_inverse=True)
        assert_array_equal(index, inverse)
        want = [(_csvio._quote(v, False) if kind == "text" else str(v)).encode() for v in unique.tolist()]
        assert [row.tobytes().rstrip(b"\xff") for row in table] == want


class TestWriterProperty:
    @settings(max_examples=60, deadline=None)
    @given(column_blocks())
    def test_bytes_are_csv_writer_bytes(self, tmp_path_factory, case):
        header, blocks = case
        path = tmp_path_factory.mktemp("w") / "out.csv"
        _csvio.write_csv(path, header, blocks)
        rows = []
        for block in blocks:
            rows += zip(*(
                [_fmt(v) for v in col.tolist()] if col.dtype.kind == "f" else col.tolist()
                for col in block
            ))
        # line by line, so that a failure shows its first lines, not a diff
        # of two long texts
        got = file_text(path).split("\r\n")
        want = csv_writer_text(header, rows).split("\r\n")
        wrong = [(g, w) for g, w in zip(got, want) if g != w][:3]
        assert len(got) == len(want) and not wrong, wrong

    def test_lone_empty_text_is_quoted(self, tmp_path):
        # csv.writer quotes the one field of a row when it is empty, so that
        # the row is no blank line, which the reader would skip
        path = tmp_path / "out.csv"
        names = np.array(["a", "", "b,c", ""])
        for header in ([""], ["name"]):
            _csvio.write_csv(path, header, [[names]])
            assert file_text(path) == csv_writer_text(header, [[v] for v in names.tolist()])
        assert _csvio.read_csv(path, {"name": str}, "x")["name"].tolist() == names.tolist()

    def test_text_is_read_as_str_of_any_str_type(self, tmp_path):
        path = tmp_path / "out.csv"
        _csvio.write_csv(path, ["name"], [[np.array(["ab", "c"])]])
        for kind in (str, np.str_, "U1"):
            assert _csvio.read_csv(path, {"name": kind}, "x")["name"].tolist() == ["ab", "c"]
        for kind in (bytes, np.bytes_, np.void):
            with pytest.raises(ValueError, match="^x: column 'name' asked for as .*; text is read as str$"):
                _csvio.read_csv(path, {"name": kind}, "x")

    @pytest.mark.parametrize("header", [[""], ["", "x"], ["x", ""]])
    def test_empty_header_name_round_trips(self, tmp_path, header):
        # NumPy renames an empty structured-dtype field, so the reader names
        # its fields by position
        path = tmp_path / "out.csv"
        values = {"": np.array(["a", "", "b,c"]), "x": np.array([0.5, -0.0, np.nan])}
        _csvio.write_csv(path, header, [[values[name] for name in header]])
        back = _csvio.read_csv(path, {name: {"": str, "x": float}[name] for name in header}, "x")
        assert list(back) == header
        assert back[""].tolist() == values[""].tolist()
        if "x" in header:
            assert_array_equal(bits(back["x"]), bits(values["x"]))
