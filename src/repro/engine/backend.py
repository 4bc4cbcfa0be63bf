"""Execution backends: one ``map_tasks`` interface, serial or parallel.

A backend runs a list of picklable ``(fn, args)`` tasks and returns their
results **in submission order**.  Determinism is owned by the caller: every
task carries its own :class:`numpy.random.SeedSequence`-derived seed, so a
task's result is independent of which backend (or worker) executes it and
of how tasks are interleaved.

``SerialBackend`` runs tasks inline; ``ProcessPoolBackend`` fans them out
over a lazily created :class:`concurrent.futures.ProcessPoolExecutor`.
Under the ``fork`` start method a pool worker inherits a copy of the
parent's active engine configuration, pool backend included, so every
worker runs :func:`_serial_worker_init` first: it keeps the inherited
cache and tile budget but makes the worker's backend serial.  Nested
engine calls inside a worker (a sweep point whose estimate spans several
tiles) therefore run inline and never submit to a copy of the parent's
pool.

Beyond ``map_tasks`` every backend offers:

* :meth:`~ExecutionBackend.warmup` — start any lazy workers now, so
  benchmarks can exclude pool start-up from measured wall time.
* :meth:`~ExecutionBackend.dispatch_overhead_s` — the measured round-trip
  cost of one trivial dispatch, cached per backend; benchmark records
  report it next to their timings.
"""

from __future__ import annotations

import atexit
import os
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..exceptions import InvalidParameterError
from .metrics import monotonic_clock

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: A task is a positional-argument tuple for the mapped function.
TaskArgs = Tuple[Any, ...]

#: Trivial tasks dispatched per overhead probe (>= 2 so pool backends do
#: not take their single-task inline shortcut).
_OVERHEAD_PROBE_TASKS = 4


def _noop_task(value: int) -> int:
    """The trivial round-trip task used by overhead probes and warmup."""
    return value


class ExecutionBackend(ABC):
    """Strategy interface for running independent Monte Carlo tasks."""

    #: Short name used in CLI output and benchmark records.
    name: str = "backend"

    #: Lazily measured dispatch cost (seconds per task round-trip).
    _dispatch_overhead: Optional[float] = None

    @abstractmethod
    def map_tasks(
        self, fn: Callable[..., Any], tasks: Sequence[TaskArgs]
    ) -> List[Any]:
        """Run ``fn(*args)`` for every args-tuple, preserving order."""

    def warmup(self) -> None:
        """Start any lazily created workers now (idempotent no-op here)."""

    def dispatch_overhead_s(self) -> float:
        """Measured seconds per trivial task round-trip (cached).

        Warmup runs first, so the figure prices steady-state dispatch —
        pickling, queueing and result transport — not worker start-up.
        """
        if self._dispatch_overhead is None:
            self.warmup()
            tasks = [(i,) for i in range(_OVERHEAD_PROBE_TASKS)]
            start = monotonic_clock()
            self.map_tasks(_noop_task, tasks)
            elapsed = max(0.0, monotonic_clock() - start)
            self._dispatch_overhead = elapsed / _OVERHEAD_PROBE_TASKS
        return self._dispatch_overhead

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Run every task inline on the calling thread."""

    name = "serial"

    def map_tasks(
        self, fn: Callable[..., Any], tasks: Sequence[TaskArgs]
    ) -> List[Any]:
        return [fn(*args) for args in tasks]


def _serial_worker_init() -> None:
    """Pool initializer: engine calls inside a worker run inline.

    Only the backend changes; the worker keeps whatever cache and
    ``max_elements`` it inherited from the parent.
    """
    from .config import get_engine

    get_engine().backend = SerialBackend()


class ProcessPoolBackend(ExecutionBackend):
    """Fan tasks out over a process pool (stdlib ``concurrent.futures``).

    Parameters
    ----------
    max_workers:
        Pool width; defaults to ``os.cpu_count()``.  The pool is created
        on first use and kept alive for the lifetime of the backend so
        repeated ``map_tasks`` calls amortise worker start-up.

    Single-task calls short-circuit to inline execution — there is no
    point paying pickling latency for one tile.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers: int = max_workers or os.cpu_count() or 1
        self._executor: Optional["ProcessPoolExecutor"] = None

    def _pool(self) -> "ProcessPoolExecutor":
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=_serial_worker_init
            )
        return self._executor

    def map_tasks(
        self, fn: Callable[..., Any], tasks: Sequence[TaskArgs]
    ) -> List[Any]:
        if len(tasks) <= 1:
            return [fn(*args) for args in tasks]
        futures = [self._pool().submit(fn, *args) for args in tasks]
        return [future.result() for future in futures]

    def warmup(self) -> None:
        """Spin up every worker with one trivial task per pool slot.

        Benchmarks call this before timing so measured wall time prices
        dispatch, not interpreter start-up in the workers.
        """
        pool = self._pool()
        futures = [
            pool.submit(_noop_task, index) for index in range(self.max_workers)
        ]
        for future in futures:
            future.result()

    def close(self) -> None:
        # getattr: __init__ may have raised before _executor was bound,
        # and __del__ still runs on the half-constructed object.
        if getattr(self, "_executor", None) is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._dispatch_overhead = None

    def __del__(self) -> None:  # best-effort cleanup; close() is the real API
        try:
            self.close()
        except (OSError, RuntimeError, ImportError):
            # Interpreter teardown can have already reaped the pool's
            # machinery (dead pipes, a shut-down executor).  Anything
            # else — above all a worker task's own exception — must
            # surface, not vanish inside __del__.
            pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


#: Warm pools kept alive across make_backend calls: width → backend.
_WARM_BACKENDS: Dict[int, ExecutionBackend] = {}

#: Backend kinds make_backend understands.  ``"shm"`` is kept as an
#: alias of ``"process"`` so existing scripts and flags keep working.
BACKEND_KINDS = ("serial", "process", "shm")


def close_warm_backends() -> int:
    """Shut down every cached warm pool; returns the number closed."""
    closed = 0
    for backend in list(_WARM_BACKENDS.values()):
        backend.close()
        closed += 1
    _WARM_BACKENDS.clear()
    return closed


# Warm pools outlive every function scope, so interpreter exit is the
# only release point: without this hook pool workers are reaped by the
# OS instead of shut down.
atexit.register(close_warm_backends)


def make_backend(
    workers: Optional[int],
    kind: Optional[str] = None,
    fresh: bool = False,
) -> ExecutionBackend:
    """CLI-flag semantics: ``None``/``0``/``1`` → serial, else a pool.

    ``kind`` forces a backend family (``"serial"``, or ``"process"`` and
    its alias ``"shm"``); left ``None`` it derives from ``workers``.
    Pool backends are reused warm across calls (one pool per width for
    the process lifetime) so successive ``estimate_acceptance`` sweeps
    never churn worker start-up; pass ``fresh=True`` for a private
    instance the caller owns and closes.
    """
    if kind is not None and kind not in BACKEND_KINDS:
        raise InvalidParameterError(
            f"unknown backend kind {kind!r}; expected one of {BACKEND_KINDS}"
        )
    if kind == "serial" or (kind is None and (workers is None or workers <= 1)):
        return SerialBackend()
    width = workers if workers and workers >= 1 else (os.cpu_count() or 1)
    if fresh:
        return ProcessPoolBackend(max_workers=width)
    backend = _WARM_BACKENDS.get(width)
    if backend is None:
        backend = ProcessPoolBackend(max_workers=width)
        _WARM_BACKENDS[width] = backend
    return backend
