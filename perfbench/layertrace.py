"""Per-layer spans, recorded from outside the program.

``LayerTrace`` rebinds, in each arctree module, the functions that module
calls into, so a CLI run goes through timing wrappers at every layer
boundary: the engine's round phases and bootstrap, the bordered Newton
step and the LU it binds, the problem's residual and Jacobian callables,
the curve writer and the CLI's preparation.  The original functions are
put back when the trace ends.

A wrapper only appends one flat record per call, so tracing stays cheap;
nesting (which span caused which) is rebuilt per thread after the run,
from the intervals, by ``summarize``.
"""

from __future__ import annotations

import importlib
from threading import get_ident
from time import perf_counter

# (module, attribute, span name).  A target the program no longer has is
# skipped and listed in LayerTrace.missing; its metrics read 0.
TARGETS = (
    ("arctree.engine", "spawn_round", "spawn"),
    ("arctree.engine", "corrector_round", "correct"),
    ("arctree.engine", "prune_tree", "prune"),
    ("arctree.engine", "advance_root", "advance"),
    ("arctree.engine", "bootstrap", "bootstrap"),
    ("arctree.baselines", "bootstrap", "bootstrap"),
    ("arctree.problem", "bordered_newton_step", "step"),
    ("arctree.problem", "lu_factor", "lu"),
    ("arctree.problem", "lu_solve", "lu"),
    ("arctree.cli", "write_curve_point", "write"),
    ("arctree.cli", "parse_parameters", "prepare"),
    ("arctree.cli", "read_initial_point", "prepare"),
    ("arctree.cli", "resolve_problem", "prepare"),
)

ROUND_PHASES = ("spawn", "correct", "prune", "advance")


class LayerTrace:
    """Installs the timing wrappers on enter and restores them on exit.

    Each call appends ``(name, start, end, thread, failed, value)``, where
    value is what the round phases report: children spawned, (steps,
    worker threads) of a corrector round, nodes pruned, points emitted.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTrace":
        self.missing = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[tuple]:
        """Records made since the last take, in order of completion."""
        records = list(self.records)
        self.records.clear()
        return records

    def _wrapper(self, name: str, attr: str, fn):
        if attr in ("spawn_round", "advance_root"):
            pick = (lambda r: r) if attr == "spawn_round" else (lambda r: r[1])
            return self._timed(name, fn, value=lambda args, result, _: pick(result))
        if attr == "corrector_round":
            return self._timed(
                name, fn, value=lambda args, result, _: (result, args[3].n_workers)
            )
        if attr == "prune_tree":
            # Node counts are taken outside the prune span's interval.
            return self._timed(
                name,
                fn,
                before=lambda args: _count_nodes(args[0]),
                value=lambda args, result, before: before - _count_nodes(args[0]),
            )
        if attr == "resolve_problem":
            timed = self._timed(name, fn)

            def resolve(*args, **kwargs):
                resolved = timed(*args, **kwargs)
                problem = resolved[0] if isinstance(resolved, tuple) else resolved
                problem.residual = self._timed("residual", problem.residual)
                if problem.jacobian is not None:
                    problem.jacobian = self._timed("jacobian", problem.jacobian)
                return resolved

            return resolve
        return self._timed(name, fn)

    def _timed(self, name: str, fn, before=None, value=None):
        record = self.records.append

        def timed(*args, **kwargs):
            pre = before(args) if before is not None else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                record((name, start, perf_counter(), get_ident(), True, None))
                raise
            end = perf_counter()
            extra = value(args, result, pre) if value is not None else None
            record((name, start, end, get_ident(), False, extra))
            return result

        return timed


def _count_nodes(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


class Span:
    __slots__ = ("name", "start", "end", "failed", "value", "parent", "child")

    def __init__(self, record: tuple):
        self.name, self.start, self.end, _, self.failed, self.value = record
        self.parent: Span | None = None
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def spans(records: list[tuple]) -> list[Span]:
    """Spans with parents and child time, rebuilt per thread from intervals."""
    threads: dict[int, list[Span]] = {}
    out = []
    for record in records:
        span = Span(record)
        threads.setdefault(record[3], []).append(span)
        out.append(span)
    for group in threads.values():
        group.sort(key=lambda s: (s.start, -s.end))
        open_spans: list[Span] = []
        for span in group:
            while open_spans and open_spans[-1].end <= span.start:
                open_spans.pop()
            if open_spans:
                span.parent = open_spans[-1]
                span.parent.child += span.duration
            open_spans.append(span)
    return out


def summarize(records: list[tuple], wall: float) -> dict:
    """Reduce one traced run's records to per-run layer figures.

    Times are in seconds.  ``engine_steps`` counts bordered Newton steps
    outside bootstrap, which is the run's corrector-step count for the
    tree engine and for serial-pac alike.
    """
    by: dict[str, list[Span]] = {}
    for span in spans(records):
        by.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(s.duration for s in by.get(name, ()))

    phases = [by.get(p, []) for p in ROUND_PHASES]
    rounds = [sum(s.duration for s in group) for group in zip(*phases)]
    steps = by.get("step", [])
    engine_steps = [s for s in steps if s.parent is None or s.parent.name != "bootstrap"]
    correct = by.get("correct", [])
    busy_capacity = sum(s.duration * s.value[1] for s in correct)
    return {
        "wall": wall,
        "rounds": len(correct),
        "round_times": rounds,
        "corrector_steps": sum(s.value[0] for s in correct),
        "spawned": sum(s.value for s in by.get("spawn", ())),
        "emitted": sum(s.value for s in by.get("advance", ())),
        "pruned": sum(s.value for s in by.get("prune", ())),
        "prune_calls": len(by.get("prune", ())),
        **{f"{p}_time": total(p) for p in ROUND_PHASES},
        "bootstrap_time": total("bootstrap"),
        "step_calls": len(steps),
        "step_times": [s.duration for s in steps],
        "step_self_time": sum(s.duration - s.child for s in steps),
        "step_failures": sum(s.failed for s in steps),
        "engine_steps": len(engine_steps),
        "pool_busy": (
            sum(s.duration for s in engine_steps) / busy_capacity if busy_capacity else 0.0
        ),
        "lu_time": total("lu"),
        "jacobian_calls": len(by.get("jacobian", ())),
        "jacobian_time": total("jacobian"),
        "residual_calls": len(by.get("residual", ())),
        "residual_time": total("residual"),
        "write_calls": len(by.get("write", ())),
        "write_time": total("write"),
        "prepare_time": total("prepare"),
    }
