import re
import shlex
import warnings
from pathlib import Path

from expcurve.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs(tmp_path, monkeypatch):
    # the README's python block reads data.csv from the working directory
    argv = ["--output-dir", tmp_path, "simulate", "--n-tech", 4, "--periods", 25, "--ensembles", 0]
    assert main([str(a) for a in argv]) == 0
    (tmp_path / "dataset.csv").rename(tmp_path / "data.csv")
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, str(README), "exec"), namespace)
    assert "sigma_x_theory" in namespace  # its last statement ran


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    # the README's shell examples, in order, in one working directory
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = [line for block in blocks for line in block.splitlines() if line.startswith("expcurve ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
    assert capsys.readouterr().err == ""
