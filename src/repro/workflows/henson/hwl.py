"""Henson workflow scripts (``.hwl``).

Henson describes workflows in a small scripting language listing puppets,
their command lines, and their process allocation.  The dialect
parsed here is line-oriented::

    # 3-node workflow
    producer = ./producer grid particles on 3 procs
    consumer1 = ./consumer1 grid on 1 procs
    consumer2 = ./consumer2 particles on 1 procs

Each line declares ``name = executable [args...] on <n> procs``; the
``on <n> procs`` clause is optional and defaults to 1.  Blank lines and
``#`` comments are ignored.  This is the artifact the paper's *workflow
configuration* experiment targets for Henson; the validator in
:mod:`repro.workflows.henson.validator` audits exactly this grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.workflows.graph import TaskSpec, WorkflowGraph

_LINE_RE = re.compile(
    r"^(?P<name>[A-Za-z_][\w-]*)\s*=\s*"
    r"(?P<cmd>\S+)"
    r"(?P<args>(?:\s+(?!on\s+\d+\s+procs\b)\S+)*)"
    r"(?:\s+on\s+(?P<procs>\d+)\s+procs)?\s*$"
)


@dataclass
class PuppetSpec:
    """One declared puppet: executable, arguments, process count."""

    name: str
    executable: str
    args: tuple[str, ...] = ()
    nprocs: int = 1


@dataclass
class HwlScript:
    """Parsed workflow script."""

    puppets: list[PuppetSpec] = field(default_factory=list)

    def puppet(self, name: str) -> PuppetSpec:
        for p in self.puppets:
            if p.name == name:
                return p
        raise ConfigError(f"no puppet named {name!r}")

    def total_procs(self) -> int:
        return sum(p.nprocs for p in self.puppets)

    def to_graph(self) -> WorkflowGraph:
        """Tasks only — Henson links are implicit through named values."""
        graph = WorkflowGraph()
        for p in self.puppets:
            graph.add_task(
                TaskSpec(name=p.name, func=p.executable, nprocs=p.nprocs, args=p.args)
            )
        return graph


def parse_hwl(text: str) -> HwlScript:
    """Parse an ``.hwl`` script; raises :class:`ConfigError` with line info."""
    script = HwlScript()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise ConfigError(
                f"hwl line {lineno}: cannot parse {line!r} "
                f"(expected 'name = executable [args...] [on N procs]')"
            )
        name = m.group("name")
        if name in seen:
            raise ConfigError(f"hwl line {lineno}: duplicate puppet {name!r}")
        seen.add(name)
        nprocs = int(m.group("procs")) if m.group("procs") else 1
        if nprocs <= 0:
            raise ConfigError(f"hwl line {lineno}: nprocs must be positive")
        script.puppets.append(
            PuppetSpec(
                name=name,
                executable=m.group("cmd"),
                args=tuple(m.group("args").split()),
                nprocs=nprocs,
            )
        )
    if not script.puppets:
        raise ConfigError("hwl script declares no puppets")
    return script


def render_hwl(script: HwlScript) -> str:
    """Serialize a script back to canonical ``.hwl`` text."""
    lines = []
    for p in script.puppets:
        args = (" " + " ".join(p.args)) if p.args else ""
        lines.append(f"{p.name} = {p.executable}{args} on {p.nprocs} procs")
    return "\n".join(lines)
