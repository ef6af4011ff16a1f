import runpy
import sys
from pathlib import Path

from drowsy import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_population_experiment_report_equals_compare(tmp_path, monkeypatch, capsys):
    script = SCRIPTS / "population_experiment.py"
    outdir = tmp_path / "population"
    monkeypatch.setattr(
        sys, "argv", [str(script), "--outdir", str(outdir), "--drivers", "2", "--duration", "20"]
    )
    assert runpy.run_path(str(script))["main"]() == 0
    capsys.readouterr()

    report = tmp_path / "compare.json"
    assert cli.main(["compare", "--input", str(outdir), "--json", str(report)]) == 0
    assert capsys.readouterr().out == (outdir / "report.txt").read_text()
    assert report.read_bytes() == (outdir / "report.json").read_bytes()
