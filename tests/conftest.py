"""Shared fixtures and tree builders for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import arctree
from arctree import RunParams
from arctree.tree import Color, TreeNode


def run_fresh(code: str) -> str:
    """Run code in a new interpreter under -W error; return its stdout.

    The arctree under test comes first on the new interpreter's path.
    """
    env = dict(os.environ)
    src = str(Path(arctree.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def held_turn() -> threading.Lock:
    """A new lock, acquired: the turn a corrector step's caller holds."""
    turn = threading.Lock()
    turn.acquire()
    return turn


def make_params(**overrides) -> RunParams:
    """Circle-sized defaults; individual tests override what they probe."""
    base = dict(
        n_dim=2,
        lambda_min=-0.995,
        lambda_max=1.5,
        lambda_index=1,
        delta_lambda=0.01,
        h_min=1e-8,
        h_max=0.25,
        h_init=0.1,
        max_iter=6,
        tol_residual=1e-10,
        mu=0.5,
        gamma=2.0,
        max_depth=2,
        max_children=3,
        scalings=(0.75, 1.0, 2.0),
    )
    base.update(overrides)
    return RunParams(**base)


def make_node(
    color: Color,
    nu: int,
    h_init: float,
    nu_init: int = 0,
    h_base: float | None = None,
    residual: float = 1.0,
    n_dim: int = 2,
) -> TreeNode:
    z = np.zeros(n_dim)
    return TreeNode(
        zeta=z.copy(),
        z_init=z.copy(),
        t_init=np.eye(n_dim)[0],
        h_init=h_init,
        h_base=h_init if h_base is None else h_base,
        nu=nu,
        nu_init=nu_init,
        color=color,
        residual_norm_current=residual,
    )


@dataclass
class PruneFixture:
    """The eight-node state of the pruning walkthrough, parametrized by
    the root's base step h.

    Layout (colors, corrector counts nu, spawn steps):

        root  GREEN nu=2, h_init=h
          a       GREEN  nu=2 nu_init=1 h=h/4      (scaling 1/4)
            a2    GREEN  nu=1 nu_init=1 h=h/4
            a3    YELLOW nu=1 nu_init=1 h=3h/8
          b       GREEN  nu=2 nu_init=1 h=h
            b1    YELLOW nu=1 nu_init=1 h=h/4
          r       RED    nu=2 nu_init=1 h=3h/2     (scaling 3/2)
            k1    GREEN  nu=1 nu_init=1 h=3h/8
            k2    RED    nu=1 nu_init=1 h=3h/2

    Competing chains at the root: (root, a, a2) with length 3h/2 and
    cost 3 against (root, b, b1) with length 9h/4 and cost 3; inside
    subtree a: (a, a2) at rate (h/2)/2 against (a, a3) at (5h/8)/3.
    """

    h: float
    root: TreeNode
    a: TreeNode
    a2: TreeNode
    a3: TreeNode
    b: TreeNode
    b1: TreeNode
    r: TreeNode
    k1: TreeNode
    k2: TreeNode


def build_prune_fixture(h: float = 8.0) -> PruneFixture:
    root = make_node(Color.GREEN, nu=2, h_init=h, residual=1e-12)
    a = make_node(Color.GREEN, nu=2, h_init=h / 4, nu_init=1, residual=1e-12)
    a2 = make_node(Color.GREEN, nu=1, h_init=h / 4, nu_init=1, residual=1e-12)
    a3 = make_node(Color.YELLOW, nu=1, h_init=3 * h / 8, nu_init=1, residual=1e-6)
    b = make_node(Color.GREEN, nu=2, h_init=h, nu_init=1, residual=1e-12)
    b1 = make_node(Color.YELLOW, nu=1, h_init=h / 4, nu_init=1, residual=1e-6)
    r = make_node(Color.RED, nu=2, h_init=3 * h / 2, nu_init=1, residual=1e-2)
    k1 = make_node(Color.GREEN, nu=1, h_init=3 * h / 8, nu_init=1, residual=1e-12)
    k2 = make_node(Color.RED, nu=1, h_init=3 * h / 2, nu_init=1, residual=1e-2)
    root.children = [a, b, r]
    a.children = [a2, a3]
    b.children = [b1]
    r.children = [k1, k2]
    return PruneFixture(h, root, a, a2, a3, b, b1, r, k1, k2)


@pytest.fixture
def prune_fixture() -> PruneFixture:
    return build_prune_fixture()
