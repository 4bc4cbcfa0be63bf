"""Tests for the execution backends and their map_tasks contract."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.engine import (
    BACKEND_KINDS,
    ProcessPoolBackend,
    SerialBackend,
    close_warm_backends,
    engine_context,
    get_engine,
    make_backend,
)
from repro.engine.backend import ExecutionBackend
from repro.exceptions import InvalidParameterError

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _square(x):
    return x * x


def _fail(x):
    raise ValueError(f"boom {x}")


def _active_backend_name(_):
    return get_engine().backend.name


class TestSerialBackend:
    def test_order_preserved(self):
        backend = SerialBackend()
        assert backend.map_tasks(_square, [(3,), (1,), (2,)]) == [9, 1, 4]

    def test_empty_task_list(self):
        assert SerialBackend().map_tasks(_square, []) == []

    def test_is_backend(self):
        assert isinstance(SerialBackend(), ExecutionBackend)


class TestProcessPoolBackend:
    def test_order_preserved(self):
        backend = ProcessPoolBackend(max_workers=2)
        try:
            assert backend.map_tasks(_square, [(i,) for i in range(8)]) == [
                i * i for i in range(8)
            ]
        finally:
            backend.close()

    def test_single_task_runs_inline(self):
        backend = ProcessPoolBackend(max_workers=2)
        assert backend.map_tasks(_square, [(5,)]) == [25]
        # No pool should have been created for the inline fast path.
        assert backend._executor is None
        backend.close()

    def test_worker_exception_propagates(self):
        backend = ProcessPoolBackend(max_workers=2)
        try:
            with pytest.raises(ValueError, match="boom"):
                backend.map_tasks(_fail, [(1,), (2,)])
        finally:
            backend.close()

    def test_close_is_idempotent(self):
        backend = ProcessPoolBackend(max_workers=2)
        backend.map_tasks(_square, [(1,), (2,)])
        backend.close()
        backend.close()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(InvalidParameterError):
            ProcessPoolBackend(max_workers=0)

    def test_workers_dispatch_nested_work_serially(self):
        """A worker must not inherit the parent's pool backend: nested
        engine calls inside a task would submit to a copy of it and hang."""
        backend = ProcessPoolBackend(max_workers=2)
        try:
            with engine_context(backend=backend):
                names = backend.map_tasks(
                    _active_backend_name, [(i,) for i in range(4)]
                )
        finally:
            backend.close()
        assert names == ["serial"] * 4


class TestDispatchOverhead:
    def test_serial_overhead_is_measured_and_cached(self):
        backend = SerialBackend()
        first = backend.dispatch_overhead_s()
        assert first >= 0.0
        assert backend.dispatch_overhead_s() == first

    def test_pool_overhead_positive_and_reset_on_close(self):
        backend = ProcessPoolBackend(max_workers=2)
        try:
            overhead = backend.dispatch_overhead_s()
            assert overhead > 0.0
            assert backend._dispatch_overhead == overhead
        finally:
            backend.close()
        assert backend._dispatch_overhead is None

    def test_warmup_spins_up_pool(self):
        backend = ProcessPoolBackend(max_workers=2)
        try:
            assert backend._executor is None
            backend.warmup()
            assert backend._executor is not None
        finally:
            backend.close()


class TestMakeBackend:
    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_for_trivial_widths(self, workers):
        assert isinstance(make_backend(workers), SerialBackend)

    def test_pool_for_wider(self):
        backend = make_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 3

    def test_kind_selects_backend_class(self):
        try:
            assert isinstance(make_backend(2, kind="process"), ProcessPoolBackend)
            assert isinstance(make_backend(2, kind="serial"), SerialBackend)
        finally:
            close_warm_backends()

    def test_shm_kind_is_the_process_pool(self):
        try:
            assert make_backend(2, kind="shm") is make_backend(2, kind="process")
        finally:
            close_warm_backends()

    def test_default_parallel_kind_is_process(self):
        try:
            assert make_backend(2) is make_backend(2, kind="process")
        finally:
            close_warm_backends()

    def test_warm_pool_reused_across_calls(self):
        try:
            first = make_backend(2, kind="process")
            assert make_backend(2, kind="process") is first
            assert make_backend(3, kind="process") is not first
        finally:
            close_warm_backends()

    def test_fresh_bypasses_warm_pool(self):
        try:
            warm = make_backend(2, kind="process")
            fresh = make_backend(2, kind="process", fresh=True)
            assert fresh is not warm
            fresh.close()
        finally:
            close_warm_backends()

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            make_backend(2, kind="threads")

    def test_backend_kinds_constant(self):
        assert BACKEND_KINDS == ("serial", "process", "shm")


class TestWarmPoolAtexitTeardown:
    """Interpreter exit must shut warm pools down (RL704 fix)."""

    def test_exit_with_warm_pool_leaves_no_warnings(self):
        """A subprocess that uses a warm process pool and exits without
        closing it must trigger the atexit hook: clean exit, no
        ``resource_tracker`` leak warnings on stderr."""
        script = textwrap.dedent(
            """
            from repro.distributions.discrete import uniform
            from repro.engine import (
                BernoulliKernel,
                engine_context,
                estimate_acceptance,
                make_backend,
            )

            backend = make_backend(2, kind="process")
            with engine_context(backend=backend, max_elements=64):
                result = estimate_acceptance(
                    BernoulliKernel(0.7), uniform(8), trials=256, rng=7
                )
            assert result.trials_used == 256
            print("RAN", result.successes)
            # Deliberately no backend.close()/close_warm_backends():
            # the registered atexit hook owns warm-pool teardown.
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("RAN")
        assert "resource_tracker" not in result.stderr, result.stderr
        assert "leaked" not in result.stderr, result.stderr
