"""Wilkins YAML workflow configuration.

The exact schema the paper's ground-truth artifact uses (Table 6, left)::

    tasks:
    - func: producer
      nprocs: 3
      outports:
      - filename: outfile.h5
        dsets:
        - name: /group1/grid
          file: 0
          memory: 1
    - func: consumer1
      nprocs: 1
      inports:
      - filename: outfile.h5
        dsets:
        - name: /group1/grid
          file: 0
          memory: 1

``file`` and ``memory`` are 0/1 flags choosing the LowFive transport for
each dataset; both may be 1 (write-through).  Dataset names may use glob
patterns (Wilkins matches producer/consumer dsets by fnmatch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError

TASK_FIELDS = {"func", "nprocs", "inports", "outports", "args", "taskCount"}
PORT_FIELDS = {"filename", "dsets", "io_freq"}
DSET_FIELDS = {"name", "file", "memory", "zerocopy", "ownership"}


@dataclass
class DsetConfig:
    """One dataset requirement inside a port."""

    name: str
    file: int = 0
    memory: int = 1

    def __post_init__(self) -> None:
        if self.file not in (0, 1) or self.memory not in (0, 1):
            raise ConfigError(
                f"dset {self.name!r}: file/memory flags must be 0 or 1"
            )
        if self.file == 0 and self.memory == 0:
            raise ConfigError(
                f"dset {self.name!r}: at least one of file/memory must be 1"
            )

    @property
    def transport(self) -> str:
        return "memory" if self.memory else "file"


@dataclass
class PortConfig:
    """A named file endpoint carrying one or more datasets."""

    filename: str
    dsets: list[DsetConfig] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.dsets:
            raise ConfigError(f"port {self.filename!r}: needs at least one dset")


@dataclass
class TaskConfig:
    """One workflow task: callable name, process count, data ports."""

    func: str
    nprocs: int = 1
    inports: list[PortConfig] = field(default_factory=list)
    outports: list[PortConfig] = field(default_factory=list)
    args: tuple = ()

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise ConfigError(f"task {self.func!r}: nprocs must be positive")


@dataclass
class WilkinsConfig:
    """A full parsed workflow."""

    tasks: list[TaskConfig] = field(default_factory=list)

    def task(self, func: str) -> TaskConfig:
        for t in self.tasks:
            if t.func == func:
                return t
        raise ConfigError(f"no task with func {func!r}")

    def total_procs(self) -> int:
        return sum(t.nprocs for t in self.tasks)


def _parse_dset(raw: object, where: str) -> DsetConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: dset entry must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - DSET_FIELDS
    if unknown:
        raise ConfigError(f"{where}: unknown dset field(s) {sorted(unknown)}")
    if "name" not in raw:
        raise ConfigError(f"{where}: dset missing required field 'name'")
    return DsetConfig(
        name=str(raw["name"]),
        file=int(raw.get("file", 0)),
        memory=int(raw.get("memory", 1)),
    )


def _parse_port(raw: object, where: str) -> PortConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: port entry must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - PORT_FIELDS
    if unknown:
        raise ConfigError(f"{where}: unknown port field(s) {sorted(unknown)}")
    if "filename" not in raw:
        raise ConfigError(f"{where}: port missing required field 'filename'")
    dsets_raw = raw.get("dsets")
    if not isinstance(dsets_raw, list) or not dsets_raw:
        raise ConfigError(f"{where}: port needs a non-empty 'dsets' list")
    return PortConfig(
        filename=str(raw["filename"]),
        dsets=[_parse_dset(d, f"{where}/dsets[{i}]") for i, d in enumerate(dsets_raw)],
    )


def parse_wilkins_yaml(text: str) -> WilkinsConfig:
    """Parse and semantically validate a Wilkins YAML document."""
    import yaml  # PyYAML: the ``wilkins`` extra

    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(
            f"top level must be a mapping with a 'tasks' list, "
            f"got {type(doc).__name__}"
        )
    unknown_top = set(doc) - {"tasks"}
    if unknown_top:
        raise ConfigError(f"unknown top-level field(s) {sorted(unknown_top)}")
    tasks_raw = doc.get("tasks")
    if not isinstance(tasks_raw, list) or not tasks_raw:
        raise ConfigError("'tasks' must be a non-empty list")

    config = WilkinsConfig()
    seen: set[str] = set()
    for i, raw in enumerate(tasks_raw):
        where = f"tasks[{i}]"
        if not isinstance(raw, dict):
            raise ConfigError(f"{where}: task entry must be a mapping")
        unknown = set(raw) - TASK_FIELDS
        if unknown:
            raise ConfigError(f"{where}: unknown task field(s) {sorted(unknown)}")
        if "func" not in raw:
            raise ConfigError(f"{where}: task missing required field 'func'")
        func = str(raw["func"])
        if func in seen:
            raise ConfigError(f"{where}: duplicate task func {func!r}")
        seen.add(func)
        task = TaskConfig(
            func=func,
            nprocs=int(raw.get("nprocs", 1)),
            inports=[
                _parse_port(p, f"{where}/inports[{j}]")
                for j, p in enumerate(raw.get("inports", []) or [])
            ],
            outports=[
                _parse_port(p, f"{where}/outports[{j}]")
                for j, p in enumerate(raw.get("outports", []) or [])
            ],
            args=tuple(raw.get("args", []) or []),
        )
        config.tasks.append(task)
    return config


def render_wilkins_yaml(config: WilkinsConfig) -> str:
    """Serialize a config back to canonical Wilkins YAML (paper layout)."""
    lines = ["tasks:"]
    for t in config.tasks:
        lines.append(f"- func: {t.func}")
        lines.append(f"  nprocs: {t.nprocs}")
        for label, ports in (("outports", t.outports), ("inports", t.inports)):
            if not ports:
                continue
            lines.append(f"  {label}:")
            for port in ports:
                lines.append(f"  - filename: {port.filename}")
                lines.append("    dsets:")
                for d in port.dsets:
                    lines.append(f"    - name: {d.name}")
                    lines.append(f"      file: {d.file}")
                    lines.append(f"      memory: {d.memory}")
    return "\n".join(lines)
