import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_code_size_counts_add_up():
    """tools/code_size.py runs on src/conecert: its per-file counts sum to `code_lines`, and its
    per-function counts to at most that"""
    tool, package = ROOT / "tools" / "code_size.py", ROOT / "src" / "conecert"
    run = subprocess.run([sys.executable, str(tool), str(package)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    size = json.loads(run.stdout)
    assert size["code_lines"] == sum(size["files"].values()) > 0
    assert 0 < size["functions"]["faces.py:NullSpaceResult.basis"]
    assert sum(size["functions"].values()) <= size["code_lines"]
