"""Benchmark report container with CSV and JSON writers and the machine
fingerprint."""
from __future__ import annotations

import csv
import io
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError


def _cpu_model() -> str:
    """The first `model name` in /proc/cpuinfo, else platform.processor()."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor()


def _git_revision() -> str:
    """The commit checked out in the git work tree that lbhx is imported
    from, read from its .git directory; "unknown" outside a checkout."""
    git = next((d / ".git" for d in Path(__file__).resolve().parents
                if (d / ".git").is_dir()), None)
    if git is None:
        return "unknown"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # a detached HEAD names its commit
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_fingerprint(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Host description recorded in every report, so local numbers are never
    mistaken for published ones."""
    fp = {
        "hostname": platform.node(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cores": str(os.cpu_count() or 1),
        # the CPUs this process may run on, which cores can exceed
        "affinity": str(len(os.sched_getaffinity(0))),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "git": _git_revision(),
    }
    if extra:
        fp.update(extra)
    return fp


@dataclass
class BenchReport:
    """Rows of measured (and, where applicable, predicted) values."""

    experiment: str
    metadata: dict[str, str] = field(default_factory=dict)
    columns: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.metadata.setdefault("experiment", self.experiment)
        self.metadata.setdefault("timestamp",
                                 time.strftime("%Y-%m-%dT%H:%M:%S"))
        self.metadata.update({f"machine.{k}": v
                              for k, v in machine_fingerprint().items()
                              if f"machine.{k}" not in self.metadata})

    def add_row(self, **values) -> None:
        for key in values:
            if key not in self.columns:
                self.columns.append(key)
        self.rows.append(values)

    def to_csv(self) -> str:
        out = io.StringIO()
        for key in sorted(self.metadata):
            out.write(f"# {key} = {self.metadata[key]}\n")
        writer = csv.DictWriter(out, fieldnames=self.columns)
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return out.getvalue()

    def append_json(self, path) -> None:
        """Append this report's metadata and rows as one record to the JSON
        list in `path`, which is created if missing."""
        path = Path(path)
        try:
            records = json.loads(path.read_text()) if path.exists() else []
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read {path}: {exc}") from None
        if not isinstance(records, list):
            raise ConfigurationError(f"{path} does not hold a JSON list")
        records.append({"metadata": self.metadata, "rows": self.rows})
        try:
            path.write_text(json.dumps(records, indent=1) + "\n")
        except OSError as exc:
            raise ConfigurationError(f"cannot write {path}: {exc}") from None
