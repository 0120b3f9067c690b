"""Readers the tests use on lbhx's outputs; lbhx itself only writes them."""
import csv
import io

from lbhx.report import BenchReport


def report_from_csv(text: str) -> BenchReport:
    """The BenchReport that `BenchReport.to_csv` wrote as `text`, with its
    numeric cells parsed back to int or float."""
    metadata: dict[str, str] = {}
    body_lines = []
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            metadata[key.strip()] = value.strip()
        elif line.strip():
            body_lines.append(line)
    reader = csv.DictReader(io.StringIO("\n".join(body_lines)))
    report = BenchReport(experiment=metadata.get("experiment", "unknown"),
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


def rel_error(point) -> float:
    """A balance sweep point's measured step time relative to its
    prediction, less one."""
    return (point.measured - point.predicted) / point.predicted
