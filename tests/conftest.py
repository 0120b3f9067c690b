"""Suite-wide guards."""
import os

import pytest


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fail a test that leaves a child process behind, running or unreaped:
    `run_distributed` forks TCP ranks and must wait for every one of them."""
    yield
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no children at all
    if pid:
        pytest.fail(f"child process {pid} exited but was never reaped")
    pytest.fail("a child process is still running after the test")


@pytest.fixture
def fresh_kernel_cache(tmp_path, monkeypatch):
    """An empty kernel cache under tmp_path and no kernel loaded yet; the
    kernel loaded in the test is forgotten afterwards.  Yields the cache
    directory."""
    from lbhx import kernels

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    kernels.load_kernel.cache_clear()
    yield tmp_path / "lbhx"
    kernels.load_kernel.cache_clear()
