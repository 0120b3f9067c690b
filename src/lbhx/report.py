"""Benchmark report container with CSV round-trip and machine fingerprint."""
from __future__ import annotations

import csv
import io
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np


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

    @classmethod
    def from_csv(cls, text: str) -> "BenchReport":
        metadata: dict[str, str] = {}
        body_lines = []
        for line in text.splitlines():
            if line.startswith("# ") and " = " in line:
                key, _, value = line[2:].partition(" = ")
                metadata[key.strip()] = value.strip()
            elif line.strip():
                body_lines.append(line)
        reader = csv.DictReader(io.StringIO("\n".join(body_lines)))
        report = cls(experiment=metadata.get("experiment", "unknown"),
                     metadata=metadata)
        report.columns = list(reader.fieldnames or [])
        for row in reader:
            report.rows.append({k: _parse_cell(v) for k, v in row.items()})
        return report


def _parse_cell(value):
    if value is None or value == "":
        return value
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value
