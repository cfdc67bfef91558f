"""The four continuation workloads the benchmark runs through the CLI.

Every input is a packaged, deterministic file under ``src/arctree/data``,
so a workload's curve, rounds and corrector steps repeat exactly from
run to run; the seed a run is given changes none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DATA = Path("src", "arctree", "data")


@dataclass(frozen=True)
class Workload:
    name: str
    # "ks" or "circle": the CLI --problem and the offline re-verification.
    problem: str
    params_file: Path
    start_file: Path
    # Further CLI arguments.
    extra: tuple[str, ...]
    # Runs of one timing sample; a circle run is too short to time alone.
    runs_per_sample: int = 1
    # Workload whose curve.txt this one must reproduce byte for byte.
    reference: str | None = None

    def argv(self, root: Path, outdir: Path) -> list[str]:
        """CLI arguments with data paths resolved against the checkout root."""
        return [
            "--problem", self.problem,
            "--params", str(root / self.params_file),
            "--initial-point", str(root / self.start_file),
            *self.extra,
            "--outdir", str(outdir),
        ]


def _ks(name: str, extra: tuple[str, ...], reference: str | None = None) -> Workload:
    return Workload(
        name=name,
        problem="ks",
        params_file=DATA / "ks_n128.params",
        start_file=DATA / "ks_start_n128.txt",
        extra=("--budget", "12") + extra,
        reference=reference,
    )


WORKLOADS: dict[str, Workload] = {
    # The paper's headline run; the corrector round is almost all of wall.
    "ks128-tree": _ks("ks128-tree", ("--workers", "1")),
    # The only workload where WorkerPool threads run; it must write the
    # same curve as ks128-tree.
    "ks128-tree-w2": _ks("ks128-tree-w2", ("--workers", "2"), reference="ks128-tree"),
    # Same kernels, no tree: the plain single-threaded serial baseline.
    "ks128-serial": _ks("ks128-serial", ("--algo", "serial-pac")),
    # 1x2 linear algebra: per-step overhead and tree bookkeeping dominate.
    "circle-tree": Workload(
        name="circle-tree",
        problem="circle",
        params_file=DATA / "circle.params",
        start_file=DATA / "circle_start.txt",
        extra=("--workers", "1"),
        runs_per_sample=10,
    ),
}
