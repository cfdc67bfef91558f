"""The README's Library example runs as written and prints what it says."""

import re
from pathlib import Path

from conftest import run_fresh

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.M | re.S).group(1)


def test_library_example_prints_as_documented():
    # The example is run as a script, with the arctree under test first on
    # the path and every warning raised as an error.
    out = run_fresh(library_example())
    assert out == "TerminationReason.REACHED_LAMBDA_MAX 24\n"
