"""The CLI contract, checked on one in-process run of ``cli.main``.

The property tests that feed generated input files to the CLI share it.
Whatever its inputs, a run exits 0 with finite outputs, or exits 1 with one
error line and nothing written, and no NumPy warning escapes.
"""

import contextlib
import csv
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import event, settings, strategies as st

from expcurve.cli import main

# the same examples on every run, unless pytest loads the `fuzz` profile
# (conftest.py)
if settings.get_current_profile_name() == "fuzz":
    PROPERTY = settings()
else:
    PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)

# values at and past the edges of the floats
EXTREMES = [
    0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308,
    math.nan, math.inf, -math.inf,
]

# columns that hold no computed float: text, and comparison.csv's ratio,
# which is inf or nan where the Moore variance is zero
UNCHECKED = {"technology", "model", "band_width_ratio"}

# what a hindcast warns of: a series too short for one window, and the
# windows of zero residual scale
DOCUMENTED_WARNING = re.compile(r".+: too short for m=|\d+ window\(s\) had zero residual scale")


def value(lo, hi, odds=8):
    """A float in ``[lo, hi]``, or one time in ``odds`` an extreme."""
    return st.integers(0, odds - 1).flatmap(
        lambda k: st.floats(lo, hi) if k else st.sampled_from(EXTREMES)
    )


def no_nan(file, record, column) -> bool:
    return False


def check_run(files: dict, argv: list, error_prefix: str, nan_allowed=no_nan) -> None:
    """Write ``files`` (stem: text) as CSVs, run ``argv`` in process and
    check the contract; ``{stem}`` in ``argv`` stands for that file's path.

    On exit 0, every float cell is finite, but a ``nan`` where
    ``nan_allowed(file name, record, column)`` says it is documented.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = {stem: Path(tmp) / f"{stem}.csv" for stem in files}
        for stem, text in files.items():
            paths[stem].write_text(text)
        out = Path(tmp) / "out"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--output-dir", str(out)] + [str(a).format(**paths) for a in argv])
        event(f"exit {code}")
        for w in caught:
            assert w.category is UserWarning and DOCUMENTED_WARNING.match(str(w.message)), w
        assert code in (0, 1)
        if code == 1:
            message = err.getvalue()
            assert message.startswith(error_prefix) and message.count("\n") == 1, message
            assert message.endswith("\n")
            assert list(out.iterdir()) == []
            return
        for path in out.glob("*.csv"):
            with open(path, newline="") as fh:
                for record in csv.DictReader(fh):
                    for column, cell in record.items():
                        if column in UNCHECKED:
                            continue
                        number = float(cell)
                        assert math.isfinite(number) or (
                            math.isnan(number) and nan_allowed(path.name, record, column)
                        ), (path.name, column, cell)
