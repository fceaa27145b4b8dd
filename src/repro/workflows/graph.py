"""Workflow graph: tasks, ports, and dataset-labelled links.

Built from Henson ``.hwl`` scripts by ``HwlScript.to_graph``.  A node is a
:class:`TaskSpec`; an edge is a :class:`DataLink` naming the dataset that
flows producer → consumer and the transport used (``file`` or ``memory``).

The graph is plain stdlib code: per-task successor and predecessor
lists with one entry per link, so parallel links and self-loops count
the way a multigraph counts them (a task with a self-loop is neither a
source nor a sink, and makes the graph cyclic).  Kahn's algorithm with a
heap of ready task names gives the lexicographically least topological
order, and a walk over both lists checks weak connectivity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable

from repro.errors import WorkflowError


@dataclass
class TaskSpec:
    """One workflow task: a callable (or executable name) plus resources."""

    name: str
    func: Callable | str | None = None
    nprocs: int = 1
    args: tuple = ()
    annotations: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise WorkflowError(f"task {self.name!r}: nprocs must be positive")


@dataclass(frozen=True)
class DataLink:
    """A dataset flowing between two tasks."""

    producer: str
    consumer: str
    dataset: str
    filename: str | None = None
    transport: str = "file"  # file | memory

    def __post_init__(self) -> None:
        if self.transport not in ("file", "memory"):
            raise WorkflowError(
                f"link {self.producer}->{self.consumer}: "
                f"unknown transport {self.transport!r}"
            )


class WorkflowGraph:
    """A directed graph of tasks with dataset-labelled edges."""

    def __init__(self) -> None:
        self._tasks: dict[str, TaskSpec] = {}
        self._links: list[DataLink] = []
        # one entry per link, parallel links and self-loops included
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}

    # -- construction -------------------------------------------------------

    def add_task(self, task: TaskSpec) -> TaskSpec:
        if task.name in self._tasks:
            raise WorkflowError(f"duplicate task name: {task.name!r}")
        self._tasks[task.name] = task
        self._succ[task.name] = []
        self._pred[task.name] = []
        return task

    def add_link(self, link: DataLink) -> DataLink:
        for end in (link.producer, link.consumer):
            if end not in self._tasks:
                raise WorkflowError(
                    f"link references unknown task {end!r} "
                    f"(have {sorted(self._tasks)})"
                )
        self._links.append(link)
        self._succ[link.producer].append(link.consumer)
        self._pred[link.consumer].append(link.producer)
        return link

    # -- queries -------------------------------------------------------------

    @property
    def tasks(self) -> list[TaskSpec]:
        return list(self._tasks.values())

    @property
    def links(self) -> list[DataLink]:
        return list(self._links)

    def task(self, name: str) -> TaskSpec:
        try:
            return self._tasks[name]
        except KeyError:
            raise WorkflowError(f"no such task: {name!r}") from None

    def producers_of(self, consumer: str) -> list[DataLink]:
        return [link for link in self._links if link.consumer == consumer]

    def consumers_of(self, producer: str) -> list[DataLink]:
        return [link for link in self._links if link.producer == producer]

    def sources(self) -> list[str]:
        """Tasks with no incoming links (pure producers)."""
        return sorted(name for name, preds in self._pred.items() if not preds)

    def sinks(self) -> list[str]:
        """Tasks with no outgoing links (pure consumers)."""
        return sorted(name for name, succs in self._succ.items() if not succs)

    def _kahn_order(self) -> list[str]:
        """Kahn's algorithm, smallest ready name first.

        Returns the lexicographically least topological order, or a
        shorter list when a cycle leaves some tasks never ready.
        """
        indegree = {name: len(preds) for name, preds in self._pred.items()}
        ready = [name for name, degree in indegree.items() if degree == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for succ in self._succ[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, succ)
        return order

    def is_dag(self) -> bool:
        return len(self._kahn_order()) == len(self._tasks)

    def topological_order(self) -> list[str]:
        # lexicographic tie-break keeps ordering deterministic across runs
        order = self._kahn_order()
        if len(order) < len(self._tasks):
            raise WorkflowError("workflow graph has cycles; no topological order")
        return order

    def _is_connected(self) -> bool:
        """Weak connectivity: every task reachable ignoring link direction."""
        start = next(iter(self._tasks))
        seen = {start}
        frontier = [start]
        while frontier:
            name = frontier.pop()
            for other in chain(self._succ[name], self._pred[name]):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(self._tasks)

    def total_procs(self) -> int:
        return sum(t.nprocs for t in self._tasks.values())

    def validate(self) -> None:
        """Structural checks: nonempty, connected, consistent datasets."""
        if not self._tasks:
            raise WorkflowError("workflow has no tasks")
        if not self._is_connected():
            raise WorkflowError("workflow graph is not connected")
        seen: set[tuple[str, str, str]] = set()
        for link in self._links:
            key = (link.producer, link.consumer, link.dataset)
            if key in seen:
                raise WorkflowError(
                    f"duplicate link {link.producer}->{link.consumer} "
                    f"for dataset {link.dataset!r}"
                )
            seen.add(key)

    def datasets(self) -> list[str]:
        return sorted({link.dataset for link in self._links})

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks


def linear_pipeline(names: Iterable[str], dataset: str = "data") -> WorkflowGraph:
    """Convenience: build a linear producer→...→consumer pipeline."""
    graph = WorkflowGraph()
    names = list(names)
    for name in names:
        graph.add_task(TaskSpec(name=name))
    for up, down in zip(names, names[1:]):
        graph.add_link(DataLink(producer=up, consumer=down, dataset=dataset))
    return graph
