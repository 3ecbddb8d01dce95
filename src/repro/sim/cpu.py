"""Contended CPU resource with preemptive round-robin scheduling.

Every unit of work in a simulated application is expressed as a CPU
*service demand* in seconds on a :class:`CPU`.  Cores serve demands in
round-robin time slices (default quantum 1 ms, as on a contemporary
Linux kernel); when all cores are busy, threads queue.  Preemption
matters: a thread holding a table lock across a long CPU burst must be
able to make *other* threads block on the lock rather than on the CPU —
that interleaving is where the paper's crosstalk numbers (Table 1) come
from.

As an optimisation (and to keep uncontended timing exact), a job that
has no competitors runs to completion in a single scheduled event; if
new work arrives meanwhile, the extended slice is preempted and
round-robin slicing takes over.  Pass ``quantum=None`` for
run-to-completion FCFS with no preemption.

On completion of each demand the CPU notifies the owning thread's stage
runtime, which is where the sampling profiler attributes profile samples
(annotated by call path and transaction context).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, TYPE_CHECKING

from repro.sim.process import Syscall, SimThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

_EPSILON = 1e-12


class _Job:
    __slots__ = ("thread", "remaining", "total")

    def __init__(self, thread: SimThread, amount: float):
        self.thread = thread
        self.remaining = amount
        self.total = amount


class _Slice:
    """One scheduled run of a job on a core.

    ``event`` is the kernel event that ends the slice, and that event's
    args hold the slice: a reference cycle.  It is broken (``event`` set
    to ``None``) the moment the slice ends or is preempted, so a slice
    is freed by reference counting and never reaches the cyclic garbage
    collector -- at one slice per quantum this is the hottest allocation
    in a contended run.
    """

    __slots__ = ("job", "event", "started_at", "length", "extended")

    def __init__(self, job: _Job, event, started_at: float, length: float, extended: bool):
        self.job = job
        self.event = event
        self.started_at = started_at
        self.length = length
        self.extended = extended


class CPU:
    """A bank of identical cores serving CPU demands round-robin.

    Parameters
    ----------
    kernel:
        Owning kernel.
    cores:
        Number of cores (1 reproduces the paper's single bottleneck CPU
        per tier).
    quantum:
        Time-slice length in seconds under contention; ``None`` disables
        preemption entirely (run-to-completion FCFS).
    name:
        For diagnostics and utilization reports.
    clock_hz:
        Cycle-to-seconds conversion for work expressed in cycles (the VM
        emulator reports costs in cycles).  The paper's testbed is a
        2.4 GHz Xeon.
    """

    def __init__(
        self,
        kernel: "Kernel",
        cores: int = 1,
        quantum: Optional[float] = 1e-3,
        name: str = "cpu",
        clock_hz: float = 2.4e9,
    ):
        if cores < 1:
            raise ValueError("need at least one core")
        if quantum is not None and quantum <= 0:
            raise ValueError("quantum must be positive or None")
        self.kernel = kernel
        self.cores = cores
        self.quantum = quantum
        self.name = name
        self.clock_hz = clock_hz
        self._run_queue: Deque[_Job] = deque()
        self._slices: List[_Slice] = []
        self.busy_time = 0.0
        self.total_demand = 0.0
        self.completed_jobs = 0

    # ------------------------------------------------------------------
    def seconds_for_cycles(self, cycles: float) -> float:
        """Convert a cycle count into seconds at this CPU's clock."""
        return cycles / self.clock_hz

    def submit(self, thread: SimThread, amount: float) -> None:
        """Request ``amount`` seconds of service for ``thread``."""
        if amount < 0:
            raise ValueError("negative CPU demand")
        self.total_demand += amount
        self._run_queue.append(_Job(thread, amount))
        if len(self._slices) >= self.cores and self.quantum is not None:
            self._preempt_extended_slices()
        self._dispatch()

    # ------------------------------------------------------------------
    def _preempt_extended_slices(self) -> None:
        """Cut short run-to-completion slices so new arrivals get served."""
        for running in list(self._slices):
            if not running.extended:
                continue
            running.event.cancel()
            # The cancelled event stays in the wheel until its time; its
            # args still hold the slice, so drop the slice's half of the
            # slice <-> event cycle (see _Slice).
            running.event = None
            self._slices.remove(running)
            elapsed = self.kernel.now - running.started_at
            self.busy_time += elapsed
            running.job.remaining -= elapsed
            if running.job.remaining <= _EPSILON:
                self._complete(running.job)
            else:
                self._run_queue.append(running.job)

    def _dispatch(self) -> None:
        slices = self._slices
        run_queue = self._run_queue
        cores = self.cores
        kernel = self.kernel
        while len(slices) < cores and run_queue:
            job = run_queue.popleft()
            # With no competitors (and for quantum=None CPUs), run to
            # completion — exact timing, one event.  Otherwise serve one
            # quantum and requeue.
            extended = self.quantum is None or not run_queue
            if extended:
                length = job.remaining
            else:
                length = min(self.quantum, job.remaining)
            current = _Slice(job, None, kernel.now, length, extended)
            current.event = kernel.schedule(length, self._slice_done, current)
            slices.append(current)

    def _slice_done(self, current: _Slice) -> None:
        # The completed slice rides on its own event, so no end-time
        # scan is needed; _slices is at most ``cores`` entries.
        current.event = None
        self._slices.remove(current)
        self.busy_time += current.length
        job = current.job
        job.remaining -= current.length
        if job.remaining <= _EPSILON:
            self._complete(job)
        else:
            self._run_queue.append(job)
        self._dispatch()

    def _complete(self, job: _Job) -> None:
        self.completed_jobs += 1
        thread = job.thread
        if thread.stage is not None:
            thread.stage.on_cpu(thread, job.total)
        self.kernel.resume(thread, job.total)

    # ------------------------------------------------------------------
    def utilization(self, since: float = 0.0) -> float:
        """Fraction of core-time spent busy since virtual time ``since``."""
        elapsed = self.kernel.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.cores))

    @property
    def queue_length(self) -> int:
        """Jobs waiting for a core (running slices excluded)."""
        return len(self._run_queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CPU {self.name} cores={self.cores} running={len(self._slices)}>"


class UseCPU(Syscall):
    """Consume ``amount`` seconds of CPU service on ``cpu``.

    The thread blocks until its full demand has been served (possibly
    across many time slices).  The syscall result is the amount served.
    """

    __slots__ = ("cpu", "amount")

    def __init__(self, cpu: CPU, amount: float):
        self.cpu = cpu
        self.amount = amount

    def execute(self, kernel: "Kernel", thread: SimThread) -> None:
        thread.blocked_on = self
        self.cpu.submit(thread, self.amount)

    def __repr__(self) -> str:
        return f"UseCPU({self.cpu.name}, {self.amount:.6g}s)"
