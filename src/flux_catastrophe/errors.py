"""Shared exception types, and the stage prefix that names where a computation failed."""

from __future__ import annotations

from contextlib import contextmanager


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy target.

    Carries enough context (achieved tolerance, worst entry, last iterates)
    to diagnose the failure without re-running.
    """

    def __init__(self, message: str, **context: object):
        super().__init__(message)
        self.context = dict(context)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.context:
            extras = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
            return f"{base} ({extras})"
        return base


@contextmanager
def stage(name: str):
    """Prefix ``name: `` to the message of a DomainError or NumericalError raised inside the block.

    The exception keeps its type and a NumericalError its context, so nested
    stages read outermost first: "overlap_sweep at N = 2048: overlap log-det: ...".
    """
    try:
        yield
    except (DomainError, NumericalError) as exc:
        exc.args = (f"{name}: {exc.args[0] if exc.args else ''}", *exc.args[1:])
        raise
