import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from expcurve import (
    DataError,
    DiffSeries,
    SeriesTable,
    TechSeries,
    build_experience,
    growth_stats,
    ingest_csv,
    write_csv,
)
from expcurve.series import GROWTH_FLOOR, _discrete_growth


def built(ts):
    """``ts`` with experience built, through a table of one series."""
    return build_experience(SeriesTable.from_series([ts]))[0]


def make_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


VALID = """technology,year,cost,production
A,2000,1.0,1
A,2001,0.9,1
A,2002,0.8,1
"""


class TestIngest:
    def test_minimal_valid(self, tmp_path):
        series = ingest_csv(make_csv(tmp_path, VALID))
        assert len(series) == 1
        ts = series[0]
        assert ts.name == "A"
        assert ts.T == 3
        assert_allclose(ts.cost, [1.0, 0.9, 0.8])
        assert ts.experience is None

    def test_rows_sorted_by_year(self, tmp_path):
        text = (
            "technology,year,cost,production\n"
            "A,2002,0.8,3\nA,2000,1.0,1\nA,2001,0.9,2\n"
        )
        ts = ingest_csv(make_csv(tmp_path, text))[0]
        assert list(ts.years) == [2000, 2001, 2002]
        assert_allclose(ts.production, [1, 2, 3])

    def test_missing_column(self, tmp_path):
        text = "technology,year,cost\nA,2000,1.0\n"
        with pytest.raises(DataError, match="missing column"):
            ingest_csv(make_csv(tmp_path, text))

    def test_non_positive_cost(self, tmp_path):
        text = VALID.replace("A,2001,0.9,1", "A,2001,0.0,1")
        with pytest.raises(DataError, match="non-positive cost"):
            ingest_csv(make_csv(tmp_path, text))

    def test_non_positive_production(self, tmp_path):
        text = VALID.replace("A,2001,0.9,1", "A,2001,0.9,-2")
        with pytest.raises(DataError, match="non-positive production"):
            ingest_csv(make_csv(tmp_path, text))

    def test_year_gap(self, tmp_path):
        text = (
            "technology,year,cost,production\n"
            "A,2000,1.0,1\nA,2002,0.9,1\nA,2003,0.8,1\n"
        )
        with pytest.raises(DataError, match="gap in years"):
            ingest_csv(make_csv(tmp_path, text))

    def test_duplicate_year(self, tmp_path):
        text = VALID + "A,2002,0.7,1\n"
        with pytest.raises(DataError, match="duplicate year"):
            ingest_csv(make_csv(tmp_path, text))

    def test_too_few_rows(self, tmp_path):
        text = "technology,year,cost,production\nA,2000,1.0,1\nA,2001,0.9,1\n"
        with pytest.raises(DataError, match="fewer than 3"):
            ingest_csv(make_csv(tmp_path, text))

    @pytest.mark.parametrize(
        "row, column, value, message",
        [
            (5000, 2, "bad", r"tech 2 line 5002: unparsable value \(.*'bad'"),
            (5001, 2, "0", r"tech 3 line 5003: non-positive cost$"),
            (5002, 3, "-2", r"tech 4 line 5004: non-positive production$"),
            (5003, 0, "", r"data\.csv line 5005: empty technology name$"),
            (5004, 1, "1713", r"tech 6 line 5006: duplicate year 1713$"),
            (5599, 1, "1800", r"tech 6 line 5601: gap in years \(1798 -> 1800\)$"),
            (5005, slice(3, None), [], r"tech 0 line 5007: row with missing fields$"),
            (5000, 2, '"at row 7"', r"tech 2 line 5002: unparsable value \(.*'at row 7'.* row 5001,"),
            (5000, 2, '"missing fields"', r"tech 2 line 5002: unparsable value \(.*'missing fields'"),
        ],
        ids=["unparsable", "cost", "production", "empty-name", "duplicate-year", "gap", "short-row",
             "value-reads-like-a-row", "value-reads-like-a-short-row"],
    )
    def test_error_carries_name_and_line(self, tmp_path, row, column, value, message):
        # 7 technologies of 800 years, one year of each after another: more
        # rows than one parser block, with the fault in the second block; the
        # faulty row and its kind come from the reader, not from its message
        rows = [[f"tech {r % 7}", str(1000 + r // 7), "1.5", "2.5"] for r in range(7 * 800)]
        rows[row][column] = value
        text = "technology,year,cost,production\n" + "".join(",".join(r) + "\n" for r in rows)
        with pytest.raises(DataError, match="^" + message):
            ingest_csv(make_csv(tmp_path, text))

    def test_short_row_that_ends_before_its_name(self, tmp_path):
        text = "year,cost,production,technology\n2000,1.0,1,A\n2001,0.9\n2002,0.8,3,A\n"
        with pytest.raises(DataError, match=r"^data\.csv line 3: row with missing fields$"):
            ingest_csv(make_csv(tmp_path, text))

    def test_bad_value_named_by_its_own_row(self, tmp_path):
        # a later row that ends before its name does not hide the faulty
        # row's technology
        text = "year,cost,production,technology\n1,1.0,1.0,A\n2,oops,2.0,A\n3,0.8,4.0,A\n4,0.7\n"
        with pytest.raises(DataError, match=r"^A line 3: unparsable value \(.*'oops'"):
            ingest_csv(make_csv(tmp_path, text, name="bad.csv"))

    @pytest.mark.parametrize(
        "value, message",
        [("x", r"A line 5: unparsable value \(.*'x'"), ("-1", r"A line 5: non-positive cost$")],
        ids=["unparsable", "contract"],
    )
    def test_line_counts_blank_lines(self, tmp_path, value, message):
        text = f"technology,year,cost,production\nA,2000,1,1\n\n\nA,2001,{value},1\nA,2002,1,1\n"
        with pytest.raises(DataError, match="^" + message):
            ingest_csv(make_csv(tmp_path, text))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_cost_names_its_line(self, tmp_path, value):
        text = f"technology,year,cost,production\nB,2000,1,1\nB,2001,1,1\n\nB,2002,{value},1\n"
        with pytest.raises(DataError, match=r"^B line 5: non-finite cost$"):
            ingest_csv(make_csv(tmp_path, text))

    def test_line_counts_line_breaks_in_quoted_names(self, tmp_path):
        # each row of "B\nC" spans two lines; the year gap is on line 7
        row = '"B\nC",{},1,1\n'
        text = "technology,year,cost,production\n" + row.format(2000) + row.format(2001)
        text += "\n" + row.format(2003)
        with pytest.raises(DataError, match=r"^B\nC line 7: gap in years \(2001 -> 2003\)$"):
            ingest_csv(make_csv(tmp_path, text))

    def test_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        ts = TechSeries(
            "noisy",
            np.arange(1990, 2010),
            np.exp(rng.normal(0, 1, 20)),
            np.exp(rng.normal(0, 1, 20)),
        )
        ts = built(ts)
        out = tmp_path / "out.csv"
        write_csv(out, SeriesTable.from_series([ts]))
        back = ingest_csv(out)[0]
        assert np.array_equal(back.years, ts.years)
        assert np.array_equal(back.cost, ts.cost)
        assert np.array_equal(back.production, ts.production)

    def test_round_trip_without_experience(self, tmp_path):
        ts = TechSeries("raw", [1, 2, 3], [2.0, 1.5, 1.25], [1.0, 2.0, 3.0])
        out = tmp_path / "raw.csv"
        write_csv(out, SeriesTable.from_series([ts]))
        back = ingest_csv(out)[0]
        assert back.experience is None
        assert np.array_equal(back.cost, ts.cost)


class TestTechSeries:
    def test_log_cost_reconstruction(self):
        rng = np.random.default_rng(0)
        cost = np.exp(rng.normal(0, 2, 50))
        ts = TechSeries("x", np.arange(50), cost, np.ones(50) * 2)
        assert_allclose(np.exp(ts.log_cost), cost, rtol=1e-12)

    def test_arrays_read_only(self):
        ts = TechSeries("x", [1, 2, 3], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            ts.cost[0] = 5.0

    def test_scale_invariance_of_diffs(self):
        rng = np.random.default_rng(3)
        cost = np.exp(rng.normal(0, 1, 12))
        prod = np.exp(rng.normal(0.1, 0.2, 12)).cumsum() + 1
        a = built(TechSeries("a", np.arange(12), cost, prod))
        b = built(TechSeries("b", np.arange(12), 7.3 * cost, prod))
        assert_allclose(a.diffs().y, b.diffs().y, atol=1e-14)
        assert_allclose(a.diffs().x, b.diffs().x, atol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field, message",
        [
            ("cost", "non-finite cost"),
            ("production", "non-finite production"),
            ("experience", "experience must be finite"),
        ],
    )
    def test_non_finite_values_rejected(self, field, message, bad):
        # the same invariants ingest_csv enforces; a last-place inf also
        # slips past a plain strictly-increasing check on experience
        values = {f: [1.0, 2.0, 3.0, 4.0] for f in ("cost", "production", "experience")}
        values[field][3 if field == "experience" else 1] = bad
        with pytest.raises(DataError, match=message):
            TechSeries("x", [1, 2, 3, 4], **values)


def discrete_growth(production):
    q = np.asarray(production, dtype=float)
    return _discrete_growth(q[None], np.array([len(q)]))[0]


class TestDiscreteGrowth:
    def test_doubling(self):
        assert discrete_growth([1, 2, 4]) == pytest.approx(1.0, abs=1e-12)

    def test_flat_series_flagged(self):
        g = discrete_growth([5, 5, 5])
        assert g == pytest.approx(0.0, abs=1e-15)
        assert not g > GROWTH_FLOOR

    def test_exact_geometric(self):
        assert discrete_growth([1, 1.1, 1.21]) == pytest.approx(0.1, abs=1e-12)

    def test_uses_only_endpoints(self):
        q = [1, 100, 0.01, 4]
        assert discrete_growth(q) == pytest.approx(4 ** (1 / 3) - 1, rel=1e-12)
        ts = built(TechSeries("A", [0, 1, 2, 3], [1.0, 0.9, 0.8, 0.7], q))
        assert growth_stats(ts).g_d == discrete_growth(q)


class TestBuildExperience:
    def test_hand_recursion(self):
        ts = TechSeries("A", [0, 1, 2], [1.0, 0.9, 0.8], [1.0, 2.0, 4.0])
        ts = built(ts)
        assert_allclose(ts.experience, [1.0, 2.0, 4.0], rtol=1e-14)
        assert_allclose(ts.log_experience, [0.0, math.log(2), math.log(4)], rtol=1e-14)

    def test_constant_production_rejected(self):
        ts = TechSeries("A", [0, 1, 2], [1.0, 0.9, 0.8], [3.0, 3.0, 3.0])
        with pytest.raises(DataError, match="zero production growth"):
            built(ts)

    def test_geometric_production_gives_constant_growth(self):
        g_d = 0.17
        T = 15
        q = 2.5 * (1 + g_d) ** np.arange(T)
        ts = built(TechSeries("g", np.arange(T), np.ones(T), q))
        x = np.diff(ts.log_experience)
        assert_allclose(x, math.log(1 + g_d), rtol=1e-10)
        # correction consistency: Z_t = Q_t / g_d at every t
        assert_allclose(ts.experience, q / g_d, rtol=1e-10)

    def test_accumulation_identity_and_monotone(self):
        rng = np.random.default_rng(11)
        q = np.exp(rng.normal(0.1, 0.3, 25)).cumsum()
        ts = built(TechSeries("m", np.arange(25), np.ones(25), q))
        z = ts.experience
        assert np.all(np.diff(z) > 0)
        assert_allclose(np.diff(z), q[:-1], rtol=1e-12)


class TestGrowthStats:
    def _series_from_dlq(self, dlq):
        q = np.exp(np.concatenate([[0.0], np.cumsum(dlq)]))
        return built(TechSeries("s", np.arange(len(q)), np.ones(len(q)), q))

    def test_constant_diffs(self):
        gs = growth_stats(self._series_from_dlq([0.1, 0.1]))
        assert gs.g == pytest.approx(0.1, abs=1e-12)
        assert gs.sigma_q == pytest.approx(0.0, abs=1e-12)

    def test_hand_sample_std(self):
        gs = growth_stats(self._series_from_dlq([0.0, 0.2]))
        assert gs.g == pytest.approx(0.1, abs=1e-12)
        assert gs.sigma_q == pytest.approx(math.sqrt(0.02), rel=1e-12)

    def test_geometric_production_zero_sigma_x(self):
        gs = growth_stats(self._series_from_dlq([0.1, 0.1, 0.1, 0.1]))
        assert gs.sigma_x == pytest.approx(0.0, abs=1e-10)

    def test_requires_experience(self):
        ts = TechSeries("s", [0, 1, 2], [1, 1, 1], [1, 2, 4])
        with pytest.raises(DataError, match="experience not built"):
            growth_stats(ts)


class TestDiffSeries:
    def test_shape_checks(self):
        with pytest.raises(DataError):
            DiffSeries(y=[1.0, 2.0], x=[1.0])
        with pytest.raises(DataError, match="positive"):
            DiffSeries(y=[1.0, 2.0], x=[1.0, -1.0])

    def test_m(self):
        assert DiffSeries(y=[1.0, 2.0], x=[1.0, 1.0]).m == 2


def two_series(first="a", second="b"):
    return [
        TechSeries(first, np.arange(1990, 2000), np.linspace(2.0, 1.0, 10), np.arange(1.0, 11.0)),
        TechSeries(second, np.arange(2000, 2010), np.linspace(3.0, 1.5, 10), np.arange(2.0, 12.0)),
    ]


class TestSeriesTable:
    def test_columns_rows_and_sub_tables(self):
        table = build_experience(SeriesTable.from_series(two_series()))
        assert len(table) == 2 and table.T.tolist() == [10, 10]
        assert table.names.tolist() == ["a", "b"]
        assert_allclose(table.log_cost, np.log(table.cost), rtol=0, atol=0)
        a, b = table
        assert (a.name, b.name) == ("a", "b")
        assert np.array_equal(b.years, np.arange(2000, 2010))
        assert np.array_equal(table[-1].experience, table.experience[10:])
        assert np.array_equal(a.log_experience, table.log_experience[:10])
        sub = table[table.names == "b"]
        assert isinstance(sub, SeriesTable) and len(sub) == 1
        assert np.array_equal(sub[0].cost, b.cost) and np.array_equal(sub.experience, b.experience)
        assert table[::-1].names.tolist() == ["b", "a"]
        assert np.array_equal(table[[1, 0]].years[:10], b.years)
        with pytest.raises(IndexError):
            table[2]

    def test_columns_and_row_views_are_read_only(self):
        table = SeriesTable.from_series(two_series())
        with pytest.raises(ValueError):
            table.cost[0] = 5.0
        with pytest.raises(ValueError):
            table[1].production[0] = 5.0

    def test_experience_for_all_or_none(self):
        raw = two_series()
        with pytest.raises(DataError, match="all of its series or for none"):
            SeriesTable.from_series([built(raw[0]), raw[1]])

    def test_unbuilt_table_has_no_log_experience(self):
        with pytest.raises(DataError, match="experience not built"):
            SeriesTable.from_series(two_series()).log_experience

    def test_lengths_must_match(self):
        with pytest.raises(DataError, match="lengths differ"):
            SeriesTable(["a"], [3], [1, 2, 3], [1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(DataError, match="lengths differ"):
            TechSeries("a", [1, 2, 3], [1.0, 1.0, 1.0], [1.0, 1.0])

    def test_empty_name_rejected(self):
        with pytest.raises(DataError, match="^empty technology name$"):
            TechSeries("", [1, 2, 3], [1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="^empty technology name$"):
            SeriesTable.from_series(two_series(second=""))

    def test_duplicate_name_rejected(self):
        # two series named "a" would be written to one CSV and read back as
        # one 20-year series
        with pytest.raises(DataError, match="^a: duplicate technology name$"):
            SeriesTable.from_series(two_series(second="a"))

    def test_faults_name_their_technology(self):
        raw = two_series()
        with pytest.raises(DataError, match="^b: gap in years \\(2001 -> 2003\\)$"):
            SeriesTable(["a", "b"], [10, 10], np.r_[raw[0].years, 2000, 2001, range(2003, 2011)],
                        np.ones(20), np.ones(20))
        with pytest.raises(DataError, match="^b: experience must be finite"):
            SeriesTable(["a", "b"], [10, 10], np.r_[raw[0].years, raw[1].years], np.ones(20),
                        np.ones(20), np.r_[np.arange(1.0, 11.0), 5.0, np.arange(5.0, 14.0)])

    def test_flat_log_experience_rejected(self):
        # experience strictly increasing, but too little for its log to move:
        # every Wright fit divides by the log steps, so the contract refuses it
        z = [1e20, 1e20 + 2**14, 1e20 + 2**15]
        assert np.all(np.diff(z) > 0) and not np.all(np.diff(np.log(z)) > 0)
        columns = [1, 2, 3], [1.0, 0.9, 0.8], [1.0, 1.0, 1.0]
        with pytest.raises(DataError, match="^a: experience must be finite, positive and strictly increasing$"):
            SeriesTable(["a"], [3], *columns, z)
        with pytest.raises(DataError, match="^a: experience must be finite, positive and strictly increasing$"):
            TechSeries("a", *columns, z)
        # a year's production of 3e-8 adds 8 ulps to an experience of 2e7,
        # which its log does not see
        with pytest.raises(DataError, match="^a: experience must be finite, positive and strictly increasing$"):
            build_experience(SeriesTable(["a"], [3], *columns[:2], [1.0, 3e-8, 1.0000001]))


# the checks no other test reaches, and a row whose cost and production both
# break the contract, which is named by its production
@pytest.mark.parametrize("call, message", [
    (lambda: DiffSeries(y=[], x=[]), "^need at least one difference$"),
    (lambda: SeriesTable(["a"], [3], [1, 2, 3], [1.0, 0.0, 1.0], [1.0, math.inf, 1.0]),
     "^a: non-finite production$"),
    (lambda: SeriesTable(["a"], [3], [1, 2, 3], [1.0, math.nan, 1.0], [1.0, -2.0, 1.0]),
     "^a: non-positive production$"),
], ids=["no-differences", "zero-cost-inf-production", "nan-cost-negative-production"])
def test_contract_checks(call, message):
    with pytest.raises(DataError, match=message):
        call()
