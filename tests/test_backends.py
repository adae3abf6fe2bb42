"""The baseline's closure-and-reduction kernel, and the backend run records name."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ubgraph import backend_name
from ubgraph.graph import closure_reduce


def _python_reachability(adj: np.ndarray) -> np.ndarray:
    # independent reference: repeated squaring free, plain DFS per vertex
    n = adj.shape[0]
    reach = np.zeros_like(adj)
    for start in range(n):
        stack = [j for j in range(n) if adj[start, j]]
        while stack:
            j = stack.pop()
            if not reach[start, j]:
                reach[start, j] = True
                stack.extend(k for k in range(n) if adj[j, k])
    return reach


@st.composite
def dags(draw, max_nodes: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    adj = np.zeros((n, n), dtype=np.bool_)
    for i in range(n):
        for j in range(i + 1, n):  # edges only forward: acyclic by construction
            if draw(st.booleans()):
                adj[i, j] = True
    return adj


@settings(max_examples=200, deadline=None)
@given(dags())
def test_numpy_reduction_against_reference(adj):
    reduced = closure_reduce(adj)
    reach = _python_reachability(adj)
    # reduced edge: reachable directly but through no intermediate vertex
    n = adj.shape[0]
    for i in range(n):
        for j in range(n):
            expect = bool(reach[i, j]) and not any(
                reach[i, k] and reach[k, j] for k in range(n)
            )
            assert bool(reduced[i, j]) == expect


def test_backend_name_reports_selection():
    assert backend_name() == "numpy"
