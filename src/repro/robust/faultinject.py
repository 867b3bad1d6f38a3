"""Deterministic fault injection — the chaos harness behind the tests.

Robustness claims need an adversary. This module manufactures the
inputs the library must survive — NaN, ±Inf, negatives, zeros,
magnitude extremes, domain-bound violations — and forces solver
failures on demand, all *deterministically*: every generator takes an
explicit seed and owns a private :class:`random.Random`, so a failing
chaos case reproduces byte-for-byte and no global RNG state is
touched.

The contract the chaos suite asserts with these tools: every public
``repro.*`` entry point, fed any corrupted input, either succeeds with
finite (or explicitly NaN-masked) output or raises a
:class:`repro.errors.ReproError` subclass — never a bare
``ValueError``/``ZeroDivisionError``, never a silent NaN.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from ..errors import ConvergenceError, DomainError

__all__ = [
    "FAULT_MODES",
    "corrupt",
    "FaultInjector",
    "corrupted_calls",
    "flaky",
]

#: Every supported corruption mode, in deterministic order.
FAULT_MODES: tuple[str, ...] = (
    "nan", "inf", "neg_inf", "negative", "zero", "huge", "tiny", "string",
)

_HUGE = 1e308
_TINY = 5e-324  # smallest positive subnormal double


def corrupt(value, mode: str):
    """Return ``value`` corrupted per ``mode`` (pure, deterministic).

    Modes: ``nan``, ``inf``, ``neg_inf``, ``negative`` (sign flip, or
    -1 for zero), ``zero``, ``huge`` (1e308), ``tiny`` (5e-324), and
    ``string`` (a non-numeric token).

    >>> corrupt(42.0, "negative")
    -42.0
    """
    if mode == "nan":
        return math.nan
    if mode == "inf":
        return math.inf
    if mode == "neg_inf":
        return -math.inf
    if mode == "negative":
        try:
            numeric = float(value)
        except (TypeError, ValueError):
            numeric = 1.0
        return -abs(numeric) if numeric != 0 else -1.0
    if mode == "zero":
        return 0.0
    if mode == "huge":
        return _HUGE
    if mode == "tiny":
        return _TINY
    if mode == "string":
        return "<injected-garbage>"
    raise DomainError(f"unknown fault mode {mode!r}; known: {FAULT_MODES}")


@dataclass(frozen=True)
class InjectedCall:
    """One corrupted invocation plan produced by :func:`corrupted_calls`."""

    field: str
    mode: str
    kwargs: dict

    def describe(self) -> str:
        """Stable label for test ids and failure messages."""
        return f"{self.field}<-{self.mode}"


class FaultInjector:
    """Seeded source of corruption decisions (no global RNG).

    Each injector owns a private :class:`random.Random` seeded at
    construction, so two injectors with the same seed make identical
    choices regardless of interleaving.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.seed = seed

    def pick_mode(self) -> str:
        """Draw one fault mode (deterministic for a given seed/call #)."""
        return self._rng.choice(FAULT_MODES)

    def pick_field(self, kwargs: dict) -> str:
        """Draw one parameter name to corrupt."""
        if not kwargs:
            raise DomainError("cannot inject a fault into an empty call")
        return self._rng.choice(sorted(kwargs))

    def corrupt_call(self, kwargs: dict, field: str | None = None,
                     mode: str | None = None) -> InjectedCall:
        """A copy of ``kwargs`` with one field corrupted."""
        field = field if field is not None else self.pick_field(kwargs)
        mode = mode if mode is not None else self.pick_mode()
        if field not in kwargs:
            raise DomainError(f"unknown field {field!r}; have {sorted(kwargs)}")
        mutated = dict(kwargs)
        mutated[field] = corrupt(kwargs[field], mode)
        return InjectedCall(field=field, mode=mode, kwargs=mutated)


def corrupted_calls(kwargs: dict, seed: int,
                    fields: tuple[str, ...] | None = None,
                    modes: tuple[str, ...] = FAULT_MODES) -> Iterator[InjectedCall]:
    """Every (field, mode) corruption of a valid call, deterministic order.

    The exhaustive cross product — not a random sample — so a chaos
    sweep covers each parameter with each corruption exactly once; the
    ``seed`` only perturbs *values* where a mode has freedom (none do
    today, but the signature keeps call sites honest about providing
    one).
    """
    injector = FaultInjector(seed)
    for field in (fields if fields is not None else tuple(sorted(kwargs))):
        for mode in modes:
            yield injector.corrupt_call(kwargs, field=field, mode=mode)


def flaky(fn: Callable, fail_times: int, exc_factory: Callable[[], BaseException] | None = None):
    """Wrap ``fn`` to fail deterministically on its first ``fail_times`` calls.

    The forced-solver-failure tool: hand a flaky objective to a
    hardened solver and check the retry budget rides through exactly
    ``fail_times`` failures. The wrapper exposes ``calls`` (total
    invocations) and ``failures`` (faults raised so far).
    """
    if fail_times < 0:
        raise DomainError(f"fail_times must be >= 0; got {fail_times}")
    state = {"calls": 0, "failures": 0}

    def wrapper(*args, **kwargs):
        state["calls"] += 1
        if state["failures"] < fail_times:
            state["failures"] += 1
            raise (exc_factory() if exc_factory is not None
                   else ConvergenceError("injected solver failure"))
        return fn(*args, **kwargs)

    wrapper.state = state  # type: ignore[attr-defined]
    return wrapper
