"""Smoke test of tools/setup_cost.py, the per-module and first-use set-up cost report."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_one_repeat_reports_every_module():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "setup_cost.py"), "--repeat", "1"],
                            capture_output=True, text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    modules_table, fills_table = result.stdout.split("\n\n")
    header, *rows, total = modules_table.splitlines()
    assert header.split() == ["module", "bytes", "lines", "compile_ms", "exec_ms"]
    modules = sorted(path for path in (ROOT / "src" / "mss").glob("*.py"))
    assert [row.split()[0] for row in rows] == [path.name for path in modules]
    for row, path in zip(rows, modules):
        _, size, lines, compile_ms, exec_ms = row.split()
        assert int(size) == path.stat().st_size
        assert int(lines) == path.read_text().count("\n")
        assert float(compile_ms) > 0 and float(exec_ms) >= 0
    assert total.split()[0] == "total"
    assert int(total.split()[1]) == sum(path.stat().st_size for path in modules)

    header, *fills, total = fills_table.splitlines()
    assert header.split() == ["first_use", "ms"]
    assert [row.split()[0] for row in fills] == ["stabilizer_states(1)", "single_qubit_cliffords",
                                                 "stabilizer_states(2)", "wigner_distance(1q)",
                                                 "wigner_distance(2q)"]
    times = [float(row.split()[1]) for row in fills]
    assert all(t > 0 for t in times)
    assert total.split()[0] == "total"
    # each printed figure is rounded to 0.01 ms
    assert float(total.split()[1]) == pytest.approx(sum(times), abs=0.005 * (len(times) + 1))
