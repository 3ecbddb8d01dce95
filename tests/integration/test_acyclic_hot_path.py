"""The simulation hot path must be freed by reference counting alone.

Every per-slice, per-watch and per-transaction object a run allocates
has to die the moment its last reference goes: a reference cycle in
the hot path hands each transaction's objects to CPython's cyclic
garbage collector, whose passes cost far more host time than the
objects themselves and are charged to no layer.

Each scenario runs twice under ``gc.DEBUG_SAVEALL`` (the collector
keeps whatever it finds in ``gc.garbage`` instead of freeing it), at a
short and a longer run length, and counts the cyclic garbage the run
left behind while the simulated system is still alive.  Garbage that
grows with the number of transactions is a hot-path cycle; a fixed
amount at set-up is not, so the guard compares the two lengths.
"""

from __future__ import annotations

import gc

#: Cyclic garbage allowed per extra completed transaction.
MAX_GARBAGE_PER_TXN = 0.01


def _collect_leftovers():
    """Free what earlier tests left behind, so it is not counted as the
    next run's: a dropped simulated system can take more than one
    collector pass to free."""
    for _ in range(3):
        gc.collect()


def _cyclic_garbage(run):
    """``(transactions, cyclic garbage objects)`` of one ``run()``.

    ``run`` returns the transaction count and a handle on the live
    system, which is held across the collection so only what the run
    dropped is counted.
    """
    _collect_leftovers()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        txns, system = run()
        gc.collect()
        garbage = len(gc.garbage)
        del system
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return txns, garbage


def _assert_acyclic(run_short, run_long):
    short_txns, short_garbage = _cyclic_garbage(run_short)
    long_txns, long_garbage = _cyclic_garbage(run_long)
    extra = long_txns - short_txns
    assert extra > 0, "the longer run completed no extra transactions"
    growth = long_garbage - short_garbage
    assert growth < MAX_GARBAGE_PER_TXN * extra, (
        f"cyclic garbage grew by {growth} objects over {extra} extra "
        f"transactions ({short_garbage} -> {long_garbage})"
    )


def _tpcw(duration, live_dir=None, **system_args):
    from repro import telemetry
    from repro.apps.tpcw import TpcwSystem

    def run():
        collector = None
        if live_dir is not None:
            from repro.live import attach_collector

            tele = telemetry.install("spans", span_capacity=256)
            # A resident bound below the number of live contexts, so
            # the collector evicts and revives trees all run long.
            collector = attach_collector(
                tele, directory=str(live_dir / str(duration)),
                interval=2.0, max_resident=8,
            )
        try:
            system = TpcwSystem(
                clients=60, think_mean=7.0, seed=42, **system_args
            )
            results = system.run(duration=duration, warmup=2.0)
            if collector is not None:
                collector.drain()
                assert collector.evictions > 0
        finally:
            telemetry.uninstall()
        return len(results.log.records), (system, results, collector)

    return run


def _haboob(duration):
    from repro.apps.haboob import HaboobConfig, HaboobServer
    from repro.sim import Kernel, Rng
    from repro.workloads import OpenLoopClientPool, WebTrace

    def run():
        kernel = Kernel()
        trace = WebTrace(Rng(42), objects=500)
        server = HaboobServer(
            kernel, trace, config=HaboobConfig(cache_bytes=128 * 1024)
        )
        server.start()
        pool = OpenLoopClientPool(
            kernel, server.listener, trace, arrival_rate=200.0,
            rng=Rng(42).stream("openloop"), record_log=False,
        )
        pool.start()
        kernel.run(until=duration)
        return pool.completed_requests, (kernel, server, pool)

    return run


def test_tpcw_run_leaves_no_cyclic_garbage():
    _assert_acyclic(_tpcw(8.0), _tpcw(20.0))


def test_rpc_receive_timeouts_leave_no_cyclic_garbage():
    from repro.channels.rpc import RetryPolicy

    # Every attempt waits on a timed Recv, whose timer points back at it.
    retry = RetryPolicy(timeout=0.3, retries=3, backoff=2.0)
    _assert_acyclic(_tpcw(8.0, retry=retry), _tpcw(20.0, retry=retry))


def test_haboob_openloop_run_leaves_no_cyclic_garbage():
    _assert_acyclic(_haboob(2.0), _haboob(5.0))


def test_live_collector_eviction_leaves_no_cyclic_garbage(tmp_path):
    _assert_acyclic(_tpcw(8.0, tmp_path), _tpcw(20.0, tmp_path))


def test_in_process_shards_are_released_between_shards(tmp_path, monkeypatch):
    """A finished shard's deployment is cyclic garbage; with none made
    on the hot path the collector's full passes no longer free it on
    their own, so ``run_shards(jobs=1)`` must free it before the next
    shard starts."""
    from repro.parallel import plan_shards, runner
    from repro.sim import Kernel

    def live_kernels():
        return sum(1 for obj in gc.get_objects() if type(obj) is Kernel)

    seen = []
    run_one_shard = runner.run_one_shard

    def counting(spec):
        seen.append(live_kernels())
        return run_one_shard(spec)

    monkeypatch.setattr(runner, "run_one_shard", counting)
    plan = plan_shards(
        "openloop", seed=13, clients=300, shards=3, duration=2.0,
        params={"arrival_rate": 150.0, "total_clients": 300},
        spool_dir=str(tmp_path / "spool"), profile_format="v2",
    )
    _collect_leftovers()
    runner.run_shards(plan, jobs=1)
    assert seen == [seen[0]] * 3
