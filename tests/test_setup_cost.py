"""Smoke test of tools/setup_cost.py, the per-module set-up cost report."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_repeat_reports_every_module():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "setup_cost.py"), "--repeat", "1"],
                            capture_output=True, text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    header, *rows, total = result.stdout.splitlines()
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
