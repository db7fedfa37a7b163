import json
import subprocess
import sys
from pathlib import Path

import colligations
from colligations.documents import emit_document, random_document

ROOT = Path(__file__).resolve().parents[1]


def test_compare_verify_finds_a_tree_identical_to_itself(tmp_path):
    (tmp_path / "multi.json").write_text(emit_document(random_document("multi", 2)))
    runs = [
        ["verify", "multi-oracle", "--trials", "2", "--seed", "3"],
        ["verify", "doublecoset-dilation", "--trials", "2", "--tol-surface-guard", "0.01"],
        ["eval", "multi.json", "--grid", '{"type":"ball","count":4,"seed":1}'],
        ["eval", "missing.json", "--point", "0.5"],
    ]
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    src = str(Path(colligations.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_verify.py"), src, src, "--argv", "runs.json"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == ["4 of 4 runs identical"]
