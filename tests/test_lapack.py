"""How arctree.problem loads scipy's LAPACK wrappers, each case in a fresh
interpreter with every warning raised as an error."""

import textwrap

from arctree import data_path
from arctree.cli import main
from conftest import run_fresh

CIRCLE = [
    "--params", str(data_path("circle.params")),
    "--initial-point", str(data_path("circle_start.txt")),
]
KS = [
    "--problem", "ks",
    "--params", str(data_path("ks_n128.params")),
    "--initial-point", str(data_path("ks_start_n128.txt")),
    "--budget", "12",
    "--workers", "3",
]


def last_line(code: str) -> str:
    """The last line code prints in a fresh interpreter (see run_fresh)."""
    return run_fresh(code).splitlines()[-1]


def test_a_circle_run_imports_no_scipy_linalg_package(tmp_path):
    # The packaged KS example runs after it, in the same interpreter.
    circle = CIRCLE + ["--outdir", str(tmp_path / "circle")]
    ks = KS + ["--outdir", str(tmp_path / "ks")]
    out = last_line(
        f"""
        import sys
        import arctree.cli
        assert arctree.cli.main({circle!r}) == 0
        assert arctree.cli.main({ks!r}) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    assert out == "['scipy.linalg._flapack']"


def test_arctree_and_scipy_linalg_share_one_module_in_either_order():
    check = """
        import arctree.problem as problem
        import scipy.linalg.lapack as lapack
        for name in ("dgetrf", "dgetrs"):
            assert getattr(problem, name) is getattr(lapack, name), name
        assert not hasattr(problem, "dlange")
        print("ok")
        """
    assert last_line(check) == "ok"
    first_scipy = "import scipy.linalg.lapack\n" + textwrap.dedent(check)
    assert last_line(first_scipy) == "ok"


def test_without_a_flapack_file_the_routines_come_from_scipy_linalg(tmp_path):
    # scipy's directory, as the loader finds it, is an empty one.
    empty = tmp_path / "empty"
    empty.mkdir()
    out = last_line(
        f"""
        import importlib.util, sys
        from importlib.machinery import ModuleSpec

        real_find_spec = importlib.util.find_spec

        def find_spec(name, package=None):
            if name != "scipy":
                return real_find_spec(name, package)
            spec = ModuleSpec("scipy", None, is_package=True)
            spec.submodule_search_locations = [{str(empty)!r}]
            return spec

        importlib.util.find_spec = find_spec
        import arctree.cli
        import arctree.problem as problem
        import scipy.linalg.lapack as lapack
        assert problem._flapack is lapack
        assert problem.dgetrf is lapack.dgetrf
        argv = {CIRCLE + ["--outdir", str(tmp_path / "fallback")]!r}
        assert arctree.cli.main(argv) == 0
        print("ok")
        """
    )
    assert out == "ok"
    assert main(CIRCLE + ["--outdir", str(tmp_path / "loaded")]) == 0
    fallback = (tmp_path / "fallback" / "curve.txt").read_bytes()
    assert fallback == (tmp_path / "loaded" / "curve.txt").read_bytes()
