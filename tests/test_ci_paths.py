"""Every script the CI workflow runs exists in the tree.

The bench job is non-blocking, so a script deleted without its CI step
would only show up there as a red step nobody has to look at.  This check
fails locally instead: every ``benchmarks/``, ``perfbench/`` and
``examples/`` ``.py`` path named in ``.github/workflows/ci.yml`` must be a
file.  A regex over the text is enough; no YAML parser is needed.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
SCRIPT_PATH = re.compile(r"\b(?:benchmarks|perfbench|examples)/[\w./-]*\.py\b")


def test_every_script_named_in_ci_exists():
    paths = sorted(set(SCRIPT_PATH.findall(WORKFLOW.read_text())))
    assert paths, f"no benchmarks/perfbench/examples script named in {WORKFLOW}"
    missing = [path for path in paths if not (ROOT / path).is_file()]
    assert not missing, f"{WORKFLOW.name} names scripts that do not exist: {missing}"
