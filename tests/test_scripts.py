import runpy
import sys
from pathlib import Path

import pytest

from drowsy import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_population_experiment_report_equals_compare(tmp_path, monkeypatch, capsys):
    script = SCRIPTS / "population_experiment.py"
    outdir = tmp_path / "population"
    monkeypatch.setattr(
        sys, "argv", [str(script), "--outdir", str(outdir), "--drivers", "2", "--duration", "20"]
    )
    assert runpy.run_path(str(script))["main"]() == 0
    assert capsys.readouterr().out == (outdir / "report.txt").read_text()

    report = tmp_path / "compare.json"
    assert cli.main(
        ["compare", "--input", str(outdir), "--calib-duration", "6.0", "--json", str(report)]
    ) == 0
    assert capsys.readouterr().out == (outdir / "report.txt").read_text()
    assert report.read_bytes() == (outdir / "report.json").read_bytes()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--calib-window", "nan"], "duration_s must be finite, got nan"),
        (["--drivers", "0"], "population size must be at least 1"),
        (["--ear-range", "0.3", "0.2"], "empty baseline EAR range (0.3, 0.2)"),
        (["--duration", "-1"], "fps and duration must be positive"),
        (["--noise-sigma", "-1"], "noise_sigma cannot be negative"),
    ],
)
def test_population_experiment_bad_argument_is_input_error(tmp_path, monkeypatch, capsys, flags,
                                                           message):
    script = SCRIPTS / "population_experiment.py"
    outdir = tmp_path / "population"
    monkeypatch.setattr(
        sys, "argv", [str(script), "--outdir", str(outdir), "--drivers", "1", "--duration", "10",
                      *flags]
    )
    assert runpy.run_path(str(script))["main"]() == 1
    captured = capsys.readouterr()
    assert captured.err == f"drowsy: {message}\n"
    assert captured.out == ""
    assert not (outdir / "report.txt").exists()
    assert not (outdir / "report.json").exists()
    assert not list(outdir.glob("driver*.frames.jsonl"))
