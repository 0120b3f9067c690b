"""Report container tests: CSV round-trip and machine fingerprinting."""
from lbhx import report
from lbhx.report import BenchReport, machine_fingerprint

from helpers import report_from_csv


def test_add_row_tracks_columns():
    r = BenchReport("t")
    r.add_row(a=1, b=2.5)
    r.add_row(a=2, c="x")
    assert r.columns == ["a", "b", "c"]
    assert len(r.rows) == 2


def test_csv_roundtrip_exact():
    r = BenchReport("bench", metadata={"lx": "48"})
    r.add_row(kernel="collide", t_ms=1.2345678901234567, mlups=106.6)
    r.add_row(kernel="propagate", t_ms=0.25, mlups=1.0)
    text = r.to_csv()
    back = report_from_csv(text)
    assert back.experiment == "bench"
    assert back.metadata["lx"] == "48"
    assert back.columns == r.columns
    assert back.rows == r.rows          # numeric cells parse back exactly
    assert back.to_csv() == text        # full-fidelity round trip


def test_metadata_has_fingerprint_and_header_format():
    r = BenchReport("t")
    for key in ("machine.hostname", "machine.cores", "timestamp", "experiment"):
        assert key in r.metadata
    for line in r.to_csv().splitlines():
        if line.startswith("#"):
            assert line.startswith("# ") and " = " in line
        else:
            break
    fp = machine_fingerprint({"role": "test"})
    assert fp["role"] == "test" and int(fp["cores"]) >= 1


def test_fingerprint_names_the_git_revision(tmp_path, monkeypatch):
    """The revision is read from the .git directory above the package: a
    loose ref, a packed ref or a detached HEAD; "unknown" without one."""
    pkg = tmp_path / "src" / "lbhx"
    monkeypatch.setattr(report, "__file__", str(pkg / "report.py"))
    assert machine_fingerprint()["git"] == "unknown"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs\n" + "a" * 40
                                     + " refs/heads/main\n")
    assert machine_fingerprint()["git"] == "a" * 40
    (git / "refs" / "heads" / "main").write_text("b" * 40 + "\n")
    assert machine_fingerprint()["git"] == "b" * 40
    (git / "HEAD").write_text("c" * 40 + "\n")
    assert machine_fingerprint()["git"] == "c" * 40
