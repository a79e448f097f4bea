import subprocess
import sys
from pathlib import Path

import pytest

import expcurve
from expcurve import variance


@pytest.mark.parametrize("module", [expcurve, variance], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_diagnostics_does_not_load_surrogate():
    # Load expcurve.diagnostics under a bare package, so the package
    # __init__ (which imports every module) does not run, then use the
    # volatility-law check that needs sigma_x_theory.
    src = Path(expcurve.__file__).parent
    code = f"""
import sys, types
pkg = types.ModuleType("expcurve")
pkg.__path__ = [{str(src)!r}]
sys.modules["expcurve"] = pkg
from expcurve.diagnostics import tanh_check
tanh_check([(0.1, 0.1, 0.02, 0.1)])
assert "expcurve.surrogate" not in sys.modules, "diagnostics loaded surrogate"
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_does_not_load_scipy_stats():
    # The reference CDFs come from scipy.special; importing scipy.stats
    # would cost most of the CLI's start-up time.
    code = f"""
import sys
sys.path.insert(0, {str(Path(expcurve.__file__).parent.parent)!r})
import expcurve.cli
assert "scipy.stats" not in sys.modules, "importing expcurve.cli loaded scipy.stats"
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
