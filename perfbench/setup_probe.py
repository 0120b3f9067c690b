"""Time one cold set-up of a workload in a fresh process and print seconds.

Set-up runs from building the config to the end of the first step, so it
includes runtime and buffer construction, lazy index tables, `load_state`
and, for the ring, the TCP rendezvous.  A fresh process keeps lbhx's
in-process table caches cold, as a user's first run finds them.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""
import sys
import time

from bootstrap import use_checkout_src


def main(name: str, seed: int) -> None:
    use_checkout_src()
    from lbhx.distributed import run_distributed
    from lbhx.hetero import make_partition, runtime_from_config

    from workloads import WORKLOADS

    w = WORKLOADS[name]
    state = w.state(w.config(), seed)
    t0 = time.perf_counter()
    cfg = w.config(iterations=1)
    if w.ranks > 1:
        run_distributed(cfg, w.ranks, "tcp", initial_state=state)
        elapsed = time.perf_counter() - t0
    else:
        with runtime_from_config(cfg) as rt:
            rt.load_state(state)
            rt.run_timestep(make_partition(rt.geom, cfg.m))
            elapsed = time.perf_counter() - t0
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
