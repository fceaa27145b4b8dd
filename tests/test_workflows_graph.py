"""Workflow graph: construction, queries, validation."""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkflowError
from repro.workflows.graph import DataLink, TaskSpec, WorkflowGraph, linear_pipeline


def three_node() -> WorkflowGraph:
    g = WorkflowGraph()
    g.add_task(TaskSpec("producer", nprocs=3))
    g.add_task(TaskSpec("consumer1"))
    g.add_task(TaskSpec("consumer2"))
    g.add_link(DataLink("producer", "consumer1", "grid", transport="memory"))
    g.add_link(DataLink("producer", "consumer2", "particles", transport="memory"))
    return g


class TestConstruction:
    def test_duplicate_task_rejected(self):
        g = WorkflowGraph()
        g.add_task(TaskSpec("a"))
        with pytest.raises(WorkflowError, match="duplicate"):
            g.add_task(TaskSpec("a"))

    def test_link_unknown_task_rejected(self):
        g = WorkflowGraph()
        g.add_task(TaskSpec("a"))
        with pytest.raises(WorkflowError, match="unknown task"):
            g.add_link(DataLink("a", "ghost", "d"))

    def test_invalid_nprocs(self):
        with pytest.raises(WorkflowError):
            TaskSpec("a", nprocs=0)

    def test_invalid_transport(self):
        with pytest.raises(WorkflowError, match="transport"):
            DataLink("a", "b", "d", transport="carrier-pigeon")


class TestQueries:
    def test_sources_sinks(self):
        g = three_node()
        assert g.sources() == ["producer"]
        assert g.sinks() == ["consumer1", "consumer2"]

    def test_producers_consumers_of(self):
        g = three_node()
        assert [link.dataset for link in g.consumers_of("producer")] == [
            "grid", "particles"]
        assert [link.producer for link in g.producers_of("consumer1")] == [
            "producer"]

    def test_total_procs(self):
        assert three_node().total_procs() == 5

    def test_datasets(self):
        assert three_node().datasets() == ["grid", "particles"]

    def test_contains_len(self):
        g = three_node()
        assert "producer" in g
        assert len(g) == 3

    def test_task_lookup_missing(self):
        with pytest.raises(WorkflowError):
            three_node().task("nope")


class TestTopology:
    def test_dag_and_order(self):
        g = three_node()
        assert g.is_dag()
        order = g.topological_order()
        assert order.index("producer") < order.index("consumer1")

    def test_cycle_detected(self):
        g = WorkflowGraph()
        g.add_task(TaskSpec("a"))
        g.add_task(TaskSpec("b"))
        g.add_link(DataLink("a", "b", "x"))
        g.add_link(DataLink("b", "a", "y"))
        assert not g.is_dag()
        with pytest.raises(WorkflowError, match="cycle"):
            g.topological_order()

    def test_validate_disconnected(self):
        g = WorkflowGraph()
        g.add_task(TaskSpec("a"))
        g.add_task(TaskSpec("b"))
        with pytest.raises(WorkflowError, match="not connected"):
            g.validate()

    def test_validate_duplicate_link(self):
        g = WorkflowGraph()
        g.add_task(TaskSpec("a"))
        g.add_task(TaskSpec("b"))
        g.add_link(DataLink("a", "b", "d"))
        g.add_link(DataLink("a", "b", "d"))
        with pytest.raises(WorkflowError, match="duplicate link"):
            g.validate()

    def test_validate_empty(self):
        with pytest.raises(WorkflowError, match="no tasks"):
            WorkflowGraph().validate()

    def test_valid_three_node_passes(self):
        three_node().validate()


class TestLinearPipeline:
    def test_shape(self):
        g = linear_pipeline(["a", "b", "c"])
        assert g.sources() == ["a"]
        assert g.sinks() == ["c"]
        assert g.topological_order() == ["a", "b", "c"]


@st.composite
def _graphs(draw):
    """Up to 6 tasks, inserted in any order, and up to 12 links among them
    (parallel links and self-loops included), each with its own dataset."""
    names = draw(st.permutations("abcdef"))[: draw(st.integers(0, 6))]
    if not names:
        return names, []
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
    return names, draw(st.lists(pair, max_size=12))


def _build(names, edges) -> WorkflowGraph:
    g = WorkflowGraph()
    for name in names:
        g.add_task(TaskSpec(name))
    for i, (producer, consumer) in enumerate(edges):
        g.add_link(DataLink(producer, consumer, f"d{i}"))
    return g


def _components(names, edges) -> int:
    parent = {name: name for name in names}

    def find(name):
        while parent[name] != name:
            name = parent[name]
        return name

    for producer, consumer in edges:
        parent[find(producer)] = find(consumer)
    return len({find(name) for name in names})


class TestAgainstBruteForce:
    """Every query equals an exhaustive answer on small random graphs."""

    @settings(max_examples=300, deadline=None)
    @given(_graphs())
    def test_queries(self, graph):
        names, edges = graph
        g = _build(names, edges)
        valid = [list(order) for order in permutations(sorted(names))
                 if all(order.index(u) < order.index(v) for u, v in edges)]
        assert g.is_dag() == bool(valid)
        if valid:
            assert g.topological_order() == min(valid)
        else:
            with pytest.raises(WorkflowError, match="cycle"):
                g.topological_order()
        assert g.sources() == sorted(
            n for n in names if not any(v == n for _, v in edges))
        assert g.sinks() == sorted(
            n for n in names if not any(u == n for u, _ in edges))
        if not names:
            with pytest.raises(WorkflowError, match="no tasks"):
                g.validate()
        elif _components(names, edges) > 1:
            with pytest.raises(WorkflowError, match="not connected"):
                g.validate()
        else:
            g.validate()
