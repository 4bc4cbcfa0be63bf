"""The active engine configuration.

One process-global :class:`EngineConfig` tells every Monte Carlo call
which backend to dispatch tiles on, how large a tile may grow, whether an
acceptance cache is attached, and where counters accumulate.  The
default — serial backend, 4M-element tiles, no cache — reproduces the
library's historical single-process behaviour.

Use :func:`configure_engine` (or the CLI flags it backs) to install a
different configuration, and :func:`engine_context` to scope one to a
``with`` block — tests and benchmarks use the context form so they cannot
leak state into each other.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..exceptions import InvalidParameterError
from .backend import ExecutionBackend, SerialBackend, make_backend
from .cache import AcceptanceCache
from .metrics import EngineMetrics

#: Default per-tile sample-tensor budget (int64 elements → 32 MiB).
DEFAULT_MAX_ELEMENTS = 4_194_304


@dataclass
class EngineConfig:
    """Everything the executor needs to run one Monte Carlo batch."""

    backend: ExecutionBackend = field(default_factory=SerialBackend)
    max_elements: int = DEFAULT_MAX_ELEMENTS
    cache: Optional[AcceptanceCache] = None
    metrics: EngineMetrics = field(default_factory=EngineMetrics)

    def __post_init__(self) -> None:
        if self.max_elements < 1:
            raise InvalidParameterError(
                f"max_elements must be >= 1, got {self.max_elements}"
            )


_ACTIVE = EngineConfig()


def get_engine() -> EngineConfig:
    """The configuration every engine call consults."""
    return _ACTIVE


def set_engine(config: EngineConfig) -> EngineConfig:
    """Install ``config`` as the active configuration; returns the old one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, config
    return previous


def configure_engine(
    workers: Optional[int] = None,
    max_elements: Optional[int] = None,
    cache_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> EngineConfig:
    """Build and install a configuration from CLI-style scalars.

    ``workers``: ``None``/``0``/``1`` → serial, else a warm process pool.
    ``backend``: force a backend family: "serial" or "process" ("shm" is
    an alias of "process").
    ``cache_dir``: ``None`` disables the acceptance cache.
    """
    config = EngineConfig(
        backend=make_backend(workers, kind=backend),
        max_elements=max_elements or DEFAULT_MAX_ELEMENTS,
        cache=AcceptanceCache(cache_dir) if cache_dir else None,
    )
    set_engine(config)
    return config


@contextmanager
def engine_context(
    backend: Optional[ExecutionBackend] = None,
    max_elements: Optional[int] = None,
    cache: Optional[AcceptanceCache] = None,
) -> Iterator[EngineConfig]:
    """Scope an engine configuration to a ``with`` block.

    Unspecified fields inherit from the currently active configuration;
    metrics always continue accumulating on the enclosing scope's object
    so a context never hides work from its caller.
    """
    current = get_engine()
    scoped = EngineConfig(
        backend=backend if backend is not None else current.backend,
        max_elements=(
            max_elements if max_elements is not None else current.max_elements
        ),
        cache=cache if cache is not None else current.cache,
        metrics=current.metrics,
    )
    previous = set_engine(scoped)
    try:
        yield scoped
    finally:
        set_engine(previous)
