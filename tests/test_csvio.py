"""The CSV codec: exact round trips, ``csv.writer`` bytes and reader errors."""

import codecs
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from expcurve import (
    HindcastConfig,
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
        assert table.origin_index is None and table.wright_variance is None

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
        with pytest.raises(ValueError, match="window size m cannot be recovered from tau and A"):
            read_errors_csv(self.write(tmp_path, self.HEADER + self.ROW + zero_gap))

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
