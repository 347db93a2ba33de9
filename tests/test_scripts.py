"""The runnable studies in scripts/ run end to end on small inputs."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, header, n_rows", [
    ("synthetic_recovery", ["--seeds", "1", "--epochs", "1", "--n-docs", "60"],
     "seed\tpurity\tprobe_accuracy\tseconds", 2),  # one seed, then the mean
    ("delta_sweep_timing", ["--deltas", "0.1,0.5", "--n-docs", "40", "--epochs", "1"],
     "delta\tedges\tbuild_seconds\ttrain_seconds", 2),  # one row per delta
])
def test_script_runs(capsys, name, argv, header, n_rows):
    assert load_script(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + n_rows
