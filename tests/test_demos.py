"""Each demo's `main()` runs to the end; the demos are written against the
public API, so a change that breaks one of its calls fails here."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


def test_the_demos_are_found():
    assert [p.name for p in DEMOS] == ["cloud_count_sweep.py",
                                       "compare_heuristics.py",
                                       "queue_calibration.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_runs(path, tmp_path, monkeypatch, capsys):
    # a demo may write files relative to the working directory
    monkeypatch.chdir(tmp_path)
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
