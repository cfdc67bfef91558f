"""The README's Library example runs as written and prints what it says."""

import os
import re
import subprocess
import sys
from pathlib import Path

import arctree

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.M | re.S).group(1)


def test_library_example_prints_as_documented():
    # The example is run as a script, with the arctree under test first on
    # the path and every warning raised as an error.
    env = dict(os.environ, PYTHONWARNINGS="error")
    src = str(Path(arctree.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", library_example()],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "TerminationReason.REACHED_LAMBDA_MAX 24\n"
