"""End-to-end CLI tests: subcommand output formats, exit codes and
configuration plumbing.  Timing-dependent subcommands run with tiny iteration
counts; only structure is asserted, not performance."""
import json

import numpy as np
import pytest

from lbhx.cli import main
from lbhx.layouts import read_dump

from helpers import report_from_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bench_csv_structure(capsys):
    code, out, err = run_cli(capsys, "bench", "--layouts", "aos,caosoa",
                             "--iters", "3", "--warmup", "1",
                             "--lattice-lx", "24", "--lattice-ly", "32")
    assert code == 0, err
    report = report_from_csv(out)
    assert report.columns == ["layout", "vl", "lx", "ly", "t_ms", "ratio",
                              "ratio_q1", "ratio_q3", "mlups", "gbs",
                              "roof_frac"]
    assert [r["layout"] for r in report.rows] == ["aos", "caosoa"]
    assert report.rows[0]["ratio"] == 1.0  # the first layout is the reference
    for row in report.rows:
        assert row["t_ms"] > 0 and row["mlups"] > 0
        assert 0 < row["ratio_q1"] <= row["ratio"] <= row["ratio_q3"]
        assert row["gbs"] > 0 and row["roof_frac"] > 0
    assert float(report.metadata["roof.copy_gbs"]) > 0
    for key in ("machine.numpy", "machine.cpu"):
        assert key in report.metadata


def test_bench_json_appends_a_record_per_call(capsys, tmp_path):
    """--json FILE appends one record, the report's metadata and rows, to
    the JSON list in FILE: a second call keeps the first record as it was."""
    path = tmp_path / "BENCH_kernels.json"
    argv = ["bench", "--layouts", "aos,soa",
            "--iters", "3", "--warmup", "1", "--lattice-lx", "16",
            "--lattice-ly", "16", "--json", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    first = json.loads(path.read_text())
    assert len(first) == 1
    assert first[0]["metadata"] == report_from_csv(out).metadata
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    records = json.loads(path.read_text())
    assert len(records) == 2 and records[0] == first[0]
    for record in records:
        assert record["metadata"]["machine.git"]
        assert [r["layout"] for r in record["rows"]] == ["aos", "soa"]
        for row in record["rows"]:
            for key in ("t_ms", "ratio", "ratio_q1", "ratio_q3", "gbs",
                        "roof_frac"):
                assert row[key] > 0, key


def test_bench_json_into_a_file_that_is_not_a_list(capsys, tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("{}")
    code, _, err = run_cli(capsys, "bench", "--iters", "1", "--lattice-lx",
                           "8", "--lattice-ly", "8", "--json", str(path))
    assert code == 1 and "does not hold a JSON list" in err
    assert path.read_text() == "{}"


def test_bench_zero_iters_is_config_error(capsys):
    code, _, err = run_cli(capsys, "bench", "--iters", "0")
    assert code == 1
    assert "error" in err


def test_sweep_vl_reports_each_vl_against_the_first(capsys):
    code, out, err = run_cli(capsys, "sweep-vl", "--layout", "csoa",
                             "--vls", "2,4", "--rounds", "2",
                             "--lattice-lx", "64", "--lattice-ly", "32")
    assert code == 0, err
    report = report_from_csv(out)
    assert [r["vl"] for r in report.rows] == [2, 4]
    assert report.metadata["argmax_vl"] in ("2", "4")
    assert report.rows[0]["ratio"] == 1.0
    for row in report.rows:
        assert row["mlups"] > 0
        assert 0 < row["ratio_q1"] <= row["ratio"] <= row["ratio_q3"]


def test_sweep_vl_needs_a_clustered_layout(capsys):
    code, _, err = run_cli(capsys, "sweep-vl", "--layout", "soa")
    assert code == 1
    assert "clustered layout" in err


def test_bench_output_file(tmp_path, capsys):
    out_file = tmp_path / "bench.csv"
    code, out, err = run_cli(capsys, "bench", "--layouts", "soa",
                             "--iters", "2", "--warmup", "1",
                             "--lattice-lx", "24", "--lattice-ly", "32",
                             "-o", str(out_file))
    assert code == 0, err
    assert out == ""
    report = report_from_csv(out_file.read_text())
    assert len(report.rows) == 1


def test_validate_quick_passes(capsys):
    code, out, err = run_cli(capsys, "validate", "--quick")
    assert code == 0, err
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert lines and all(l.startswith("[PASS]") for l in lines)


def test_validate_injected_fault_fails(capsys):
    code, out, err = run_cli(capsys, "validate", "--quick",
                             "--inject", "skip-halo-swap")
    assert code == 3
    assert any(l.startswith("[FAIL]") for l in out.splitlines())
    assert "validation failure" in err


def test_predict_registry_and_overrides(capsys):
    code, out, err = run_cli(capsys, "predict", "--registry", "balanced",
                             "--lattice-lx", "64", "--lattice-ly", "64",
                             "--override", "tau_h=2e-8", "--m-step", "8")
    assert code == 0, err
    report = report_from_csv(out)
    curves = {r["curve"] for r in report.rows}
    assert curves == {"base", "override"}
    base0 = next(r for r in report.rows
                 if r["curve"] == "base" and r["m"] == 0)
    over0 = next(r for r in report.rows
                 if r["curve"] == "override" and r["m"] == 0)
    assert base0["t_exe"] == over0["t_exe"]  # M=0 anchor survives overrides


def test_predict_writes_gnuplot_files(tmp_path, capsys):
    prefix = str(tmp_path / "curves")
    code, _, err = run_cli(capsys, "predict", "--registry", "balanced",
                           "--lattice-lx", "64", "--lattice-ly", "64",
                           "--m-step", "16", "--dat-prefix", prefix)
    assert code == 0, err
    lines = (tmp_path / "curves_base.dat").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 3  # M = 0, 16, 32
    for line in data:
        parts = line.split()
        assert len(parts) == 2
        float(parts[0]), float(parts[1])


def test_predict_needs_profile_source(capsys):
    code, _, err = run_cli(capsys, "predict")
    assert code == 1 and "profile" in err


def test_predict_malformed_profile_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.profile"
    bad.write_text("tau_d = 1e-9\nthis is not a key value pair\n")
    code, _, err = run_cli(capsys, "predict", "--profile", str(bad))
    assert code == 1 and "line 2" in err


def test_predict_unknown_registry(capsys):
    code, _, err = run_cli(capsys, "predict", "--registry", "cray_1")
    assert code == 1 and "cray_1" in err


def test_model_show(capsys):
    code, out, err = run_cli(capsys, "model", "show", "--name", "d2q37")
    assert code == 0, err
    assert "Q=37" in out and "moment order 4" in out


def test_dump_then_load_roundtrip(tmp_path, capsys):
    path = tmp_path / "state.lbhx"
    code, _, err = run_cli(capsys, "dump", "--out", str(path),
                           "--lattice-lx", "24", "--lattice-ly", "32",
                           "--run-iterations", "3")
    assert code == 0, err
    state, meta = read_dump(path)
    assert state.shape == (9, 24, 32)
    assert np.all(state > 0)
    code, out, err = run_cli(capsys, "load", str(path))
    assert code == 0, err
    assert "24x32" in out

    # deterministic: a second identical run dumps identical bytes
    path2 = tmp_path / "state2.lbhx"
    run_cli(capsys, "dump", "--out", str(path2), "--lattice-lx", "24",
            "--lattice-ly", "32", "--run-iterations", "3")
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("offset, field", [(20, "Family"),
                                           (28, "Clustering")])
def test_load_corrupt_dump_is_config_error(tmp_path, capsys, offset, field):
    path = tmp_path / "state.lbhx"
    run_cli(capsys, "dump", "--out", str(path), "--lattice-lx", "8",
            "--lattice-ly", "8", "--run-iterations", "0")
    data = bytearray(path.read_bytes())
    data[offset:offset + 4] = (7).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    code, _, err = run_cli(capsys, "load", str(path))
    assert code == 1
    assert err.strip().splitlines() == [
        f"error: corrupt LBHX dump: 7 is not a valid {field}"]


def test_config_file_and_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lattice.lx = 24\nlattice.ly = 32\nrun.iterations = 2\n")
    path = tmp_path / "s.lbhx"
    code, _, err = run_cli(capsys, "dump", "-c", str(cfg),
                           "--set", "run.iterations=1", "--out", str(path))
    assert code == 0, err
    state, _ = read_dump(path)
    assert state.shape == (9, 24, 32)
    code, _, err = run_cli(capsys, "dump", "-c", str(cfg), "--set", "oops",
                           "--out", str(path))
    assert code == 1 and "KEY=VALUE" in err


def test_scale_structure(capsys, monkeypatch):
    """On 2 usable CPUs one rank runs 2 device lanes and each of 2 ranks 1,
    and the report says so."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    code, out, err = run_cli(capsys, "scale", "--ranks", "1,2",
                             "--transport", "in_memory",
                             "--lattice-lx", "48", "--lattice-ly", "16",
                             "--run-iterations", "2", "--hetero-m", "4")
    assert code == 0, err
    report = report_from_csv(out)
    assert report.columns == ["ranks", "lanes", "mode", "m", "mlups",
                              "speedup"]
    assert len(report.rows) == 4  # 2 rank counts x {v1, v2}
    assert [r["m"] for r in report.rows] == [0, 0, 4, 4]
    assert [r["lanes"] for r in report.rows] == [2, 1, 2, 1]
    assert report.metadata["device_lanes"] == "2,1"
    assert report.metadata["machine.affinity"] == "2"
    assert report.metadata["finals_identical"] == "true"
    for mode in ("v1", "v2"):
        first = next(r for r in report.rows if r["mode"] == mode)
        assert first["speedup"] == 1.0


def test_scale_v2_tunes_m_per_rank_width(capsys, monkeypatch):
    """With tau_d = 2 tau_h, M* is 14 on the whole 48-column lattice but 6 on
    a 24-column rank: a 2-rank v2 run must keep its devices busy."""
    import lbhx.cli
    from lbhx.perf_model import PerfProfile
    profile = PerfProfile(tau_d=2e-8, tau_h=1e-8, tau_c=768e-8)
    monkeypatch.setattr(lbhx.cli, "tune_profile", lambda cfg, state: profile)
    code, out, err = run_cli(capsys, "scale", "--ranks", "1,2",
                             "--lattice-lx", "48", "--lattice-ly", "64",
                             "--run-iterations", "1")
    assert code == 0, err
    v2 = {r["ranks"]: r["m"] for r in report_from_csv(out).rows
          if r["mode"] == "v2"}
    assert v2 == {1: 14, 2: 6}
    assert all(2 * m < 48 // n for n, m in v2.items())  # non-empty bulk


@pytest.mark.parametrize("command", ["bench", "dump"])
def test_throttle_below_one_is_config_error(tmp_path, capsys, command):
    args = {"bench": ["--iters", "1"],
            "dump": ["--out", str(tmp_path / "state.lbhx")]}[command]
    code, _, err = run_cli(capsys, command, *args,
                           "--pool-device-throttle", "0.5")
    assert code == 1
    assert "pool.device_throttle" in err


def test_autotune_csv(capsys, tmp_path):
    out_file = tmp_path / "profile.txt"
    code, out, err = run_cli(capsys, "autotune", "--lattice-lx", "48",
                             "--lattice-ly", "32", "--iters", "4",
                             "--warmup", "1", "--save", str(out_file))
    assert code == 0, err
    report = report_from_csv(out)
    row = report.rows[0]
    assert row["tau_d"] > 0 and row["tau_h"] > 0
    assert 0 <= row["m_star"] <= 24
    from lbhx.perf_model import load_profile
    prof = load_profile(out_file)
    assert prof.tau_d == row["tau_d"]


def test_autotune_tuning_error_exits_one(capsys, monkeypatch):
    """A TuningError leaves through the generic error branch: exit 1, with
    the failing pool named on stderr."""
    import lbhx.cli
    from lbhx.errors import TuningError

    def degenerate(runner, **kw):
        raise TuningError("host pool: non-monotone timings [2.0, 1.0, 1.5] "
                          "for sizes [192, 384, 576]")

    monkeypatch.setattr(lbhx.cli, "autotune", degenerate)
    code, out, err = run_cli(capsys, "autotune", "--lattice-lx", "48",
                             "--lattice-ly", "32", "--iters", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "host pool" in err


@pytest.mark.parametrize("argv", [
    ("bench", "--layouts", "soa", "--iters", "1",
     "--lattice-lx", "24", "--lattice-ly", "32"),
    ("scale", "--ranks", "2", "--transport", "tcp", "--hetero-m", "2",
     "--lattice-lx", "48", "--lattice-ly", "16", "--run-iterations", "2"),
], ids=["bench", "scale"])
def test_missing_compiler_exits_1_naming_the_command(fresh_kernel_cache,
                                                     monkeypatch, capsys,
                                                     argv):
    """The kernel is built before any rank forks, so a compiler that is not
    there ends the command with exit 1 and a message naming it."""
    from lbhx import kernels
    monkeypatch.setattr(kernels, "BUILD",
                        ("/nonexistent/cc",) + kernels.BUILD[1:])
    code, _, err = run_cli(capsys, *argv)
    assert code == 1, err
    assert err.startswith("error: cannot build the kernel with "
                          "`/nonexistent/cc -O3")
    assert "Traceback" not in err


def test_failed_kernel_allocation_exits_2_naming_the_phase(monkeypatch,
                                                          capsys):
    """A block buffer the kernel cannot allocate ends the command with exit
    2 and the fault's message, not a traceback."""
    from lbhx import kernels
    monkeypatch.setattr(kernels, "load_kernel", lambda: lambda *args: 123456)
    code, _, err = run_cli(capsys, "bench", "--layouts", "soa", "--iters", "1",
                           "--lattice-lx", "24", "--lattice-ly", "32")
    assert code == 2, err
    assert err.startswith("runtime fault: cannot allocate 123456 bytes ")
    assert "(phase: fused kernel block buffer)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,named", [
    (("bench", "-c", "/nonexistent"), "/nonexistent"),
    (("bench", "-o", "/nonexistent/x.csv"), "/nonexistent/x.csv"),
    (("load", "/nonexistent"), "/nonexistent"),
    (("predict", "--profile", "/nonexistent"), "/nonexistent"),
    (("autotune", "--save", "/nonexistent/d/p"), "/nonexistent/d/p"),
    (("dump", "--out", "/nonexistent/d/x"), "/nonexistent/d/x"),
    (("scale", "--ranks", "0"), "--ranks"),
    (("scale", "--ranks", "a"), "--ranks"),
    (("sweep-vl", "--vls", "x"), "--vls"),
    (("predict", "--registry", "k80_like", "--m-step", "0"), "m_step"),
    (("predict", "--registry", "k80_like", "--m-step", "-1"), "m_step"),
    (("load", "{short}"), "truncated LBHX dump"),
    (("dump", "--run-seed", "-1", "--out", "{out}"), "run.seed"),
    (("bench", "--run-seed", "-1"), "run.seed"),
    (("scale", "--ranks", "2", "--run-seed", "-5"), "run.seed"),
], ids=["bench-config", "bench-output", "load", "predict-profile",
        "autotune-save", "dump-out", "ranks-zero", "ranks-word", "vls-word",
        "m-step-zero", "m-step-negative", "load-short", "dump-seed-negative",
        "bench-seed-negative", "scale-seed-negative"])
def test_bad_file_or_number_exits_1_naming_it(capsys, tmp_path, argv, named):
    """A file that cannot be read or written, or holds less than a dump's
    header, or a count that is not a positive integer, or a negative seed,
    ends the command with exit 1 and a message naming it, before any work
    is timed."""
    short = tmp_path / "short.lbhx"
    short.write_bytes(b"LBHX\x01\x00")
    out_path = tmp_path / "x.lbhx"
    argv = [a.format(short=short, out=out_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "", err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
    assert not out_path.exists()
