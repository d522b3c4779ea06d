"""The README's library quick start runs as written."""

import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the snippet reads data/iris.csv from the repository root
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert math.isfinite(report.qe) and math.isfinite(report.te)
    qe, te, dead = capsys.readouterr().out.split()
    assert (float(qe), float(te), int(dead)) == (report.qe, report.te, report.dead_unit_count)
