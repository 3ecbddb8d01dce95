"""Tests for the contended CPU resource."""

import pytest

from repro.sim import CPU, Delay, Kernel, UseCPU


def test_single_demand_takes_service_time():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1)
    done = []

    def worker():
        yield UseCPU(cpu, 0.5)
        done.append(kernel.now)

    kernel.spawn(worker())
    kernel.run()
    assert done == [0.5]


def test_fcfs_queueing_on_one_core():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1, quantum=None)
    done = []

    def worker(tag, demand):
        yield UseCPU(cpu, demand)
        done.append((tag, kernel.now))

    kernel.spawn(worker("a", 1.0))
    kernel.spawn(worker("b", 2.0))
    kernel.spawn(worker("c", 0.5))
    kernel.run()
    assert done == [("a", 1.0), ("b", 3.0), ("c", 3.5)]


def test_round_robin_lets_short_job_finish_early():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1, quantum=0.01)
    done = []

    def worker(tag, demand):
        yield UseCPU(cpu, demand)
        done.append((tag, kernel.now))

    kernel.spawn(worker("long", 1.0))
    kernel.spawn(worker("short", 0.02))
    kernel.run()
    # Under RR the short job finishes far before the long one, instead
    # of waiting a full second behind it.
    tags = [tag for tag, _ in done]
    assert tags == ["short", "long"]
    short_end = dict(done)["short"]
    assert short_end < 0.1
    assert dict(done)["long"] == pytest.approx(1.02, abs=0.02)


def test_uncontended_job_completes_exactly_on_time():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1, quantum=1e-3)
    done = []

    def worker():
        yield UseCPU(cpu, 0.5)
        done.append(kernel.now)

    kernel.spawn(worker())
    kernel.run()
    assert done == [0.5]  # exact: single extended slice, no drift


def test_preemption_accounts_partial_busy_time():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1, quantum=0.01)
    done = []

    def long_job():
        yield UseCPU(cpu, 1.0)
        done.append(("long", kernel.now))

    def late_arrival():
        yield Delay(0.25)
        yield UseCPU(cpu, 0.01)
        done.append(("late", kernel.now))

    kernel.spawn(long_job())
    kernel.spawn(late_arrival())
    kernel.run()
    # The long job's extended slice is preempted at 0.25; the late job
    # gets a quantum soon after.
    late_end = dict(done)["late"]
    assert late_end == pytest.approx(0.27, abs=0.02)
    assert dict(done)["long"] == pytest.approx(1.01, abs=0.02)
    assert cpu.busy_time == pytest.approx(1.01, abs=1e-6)


def test_two_cores_serve_in_parallel():
    kernel = Kernel()
    cpu = CPU(kernel, cores=2, quantum=None)
    done = []

    def worker(tag):
        yield UseCPU(cpu, 1.0)
        done.append((tag, kernel.now))

    kernel.spawn(worker("a"))
    kernel.spawn(worker("b"))
    kernel.spawn(worker("c"))
    kernel.run()
    assert done == [("a", 1.0), ("b", 1.0), ("c", 2.0)]


def test_zero_demand_completes_immediately():
    kernel = Kernel()
    cpu = CPU(kernel)
    done = []

    def worker():
        yield UseCPU(cpu, 0.0)
        done.append(kernel.now)

    kernel.spawn(worker())
    kernel.run()
    assert done == [0.0]


def test_negative_demand_rejected():
    kernel = Kernel()
    cpu = CPU(kernel)

    def worker():
        yield UseCPU(cpu, -1.0)

    kernel.spawn(worker())
    with pytest.raises(ValueError):
        kernel.run()


def test_utilization_tracks_busy_fraction():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1)

    def worker():
        yield UseCPU(cpu, 2.0)

    kernel.spawn(worker())
    kernel.run(until=4.0)
    assert cpu.utilization() == pytest.approx(0.5)


def test_queue_length_during_contention():
    kernel = Kernel()
    cpu = CPU(kernel, cores=1)
    lengths = []

    def worker():
        yield UseCPU(cpu, 1.0)

    def probe():
        yield Delay(0.5)
        lengths.append(cpu.queue_length)

    for _ in range(3):
        kernel.spawn(worker())
    kernel.spawn(probe())
    kernel.run()
    assert lengths == [2]


def test_cycles_conversion_uses_clock():
    kernel = Kernel()
    cpu = CPU(kernel, clock_hz=2.4e9)
    assert cpu.seconds_for_cycles(2.4e9) == pytest.approx(1.0)
    assert cpu.seconds_for_cycles(132) == pytest.approx(132 / 2.4e9)


def test_stage_on_cpu_hook_receives_attribution():
    class FakeStage:
        def __init__(self):
            self.records = []

        def on_cpu(self, thread, amount):
            self.records.append((thread.name, amount))

        def on_call(self, thread):
            pass

    kernel = Kernel()
    cpu = CPU(kernel)
    stage = FakeStage()

    def worker():
        yield UseCPU(cpu, 0.25)
        yield UseCPU(cpu, 0.75)

    kernel.spawn(worker(), name="w", stage=stage)
    kernel.run()
    assert stage.records == [("w", 0.25), ("w", 0.75)]


def test_total_demand_accumulates():
    kernel = Kernel()
    cpu = CPU(kernel)

    def worker():
        yield UseCPU(cpu, 0.5)
        yield UseCPU(cpu, 0.5)

    kernel.spawn(worker())
    kernel.run()
    assert cpu.total_demand == pytest.approx(1.0)
    assert cpu.busy_time == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Tie order at quantum boundaries.  These pin today's semantics exactly
# (an arrival that lands on a slice boundary is queued before the
# preempted job, by the kernel's (time, insertion order) rule), so any
# later CPU that schedules fewer events must reproduce them.
# ----------------------------------------------------------------------
def _tie_run(demands, late_delay):
    """Jobs of ``demands`` at t=0 and a 0.25 s job arriving at
    ``late_delay``, on one core with a 0.25 s quantum."""
    late_demand = 0.25
    kernel = Kernel()
    cpu = CPU(kernel, cores=1, quantum=0.25)
    done = []

    def worker(tag, demand, delay=None):
        if delay is not None:
            yield Delay(delay)
        yield UseCPU(cpu, demand)
        done.append((tag, kernel.now))

    for index, demand in enumerate(demands):
        kernel.spawn(worker(f"j{index}", demand))
    kernel.spawn(worker("late", late_demand, late_delay))
    kernel.run()
    assert cpu.busy_time == sum(demands) + late_demand
    assert cpu.total_demand == sum(demands) + late_demand
    return done


def test_arrival_on_a_quantum_boundary_mid_rotation():
    done = dict(_tie_run([1.0, 1.0], late_delay=0.5))
    assert done["late"] == 1.0


def test_arrival_on_a_quantum_boundary_at_a_full_turn():
    done = dict(_tie_run([1.0, 1.0], late_delay=1.0))
    assert done["late"] == 1.5


def test_completion_order_with_a_boundary_arrival():
    done = _tie_run([0.5, 0.5, 0.5], late_delay=0.5)
    assert done == [("j1", 1.0), ("late", 1.25), ("j0", 1.5), ("j2", 1.75)]
