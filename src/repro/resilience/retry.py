"""Bounded, deterministic retry with exponential backoff.

One :class:`RetryPolicy` shape wraps every layer that can fail
transiently — store IO, lease operations, compute units — so attempt
budgets and backoff behave identically whether the failure is a real
``OSError`` or an injected one (:class:`repro.resilience.faults.InjectedFault`
subclasses ``OSError`` precisely so this wrapper cannot tell them
apart).

Backoff is deterministic (no jitter): ``base_delay_s * multiplier**k``
capped at ``max_delay_s``.  Determinism matters more than thundering-herd
avoidance here — chaos tests replay schedules, and the dispatcher's
lease arbitration already decorrelates workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..obs import get_tracer

__all__ = ["RetryPolicy", "DEFAULT_STORE_RETRY", "DEFAULT_COMPUTE_RETRY"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with deterministic exponential backoff.

    ``max_attempts`` counts *total* tries (1 = no retry).  Only
    exceptions matching ``retry_on`` are retried; anything else
    propagates immediately.  The final failure re-raises the last
    exception unwrapped, so callers keep their existing ``except``
    clauses.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    retry_on: tuple[type[BaseException], ...] = (OSError,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delays(self) -> Iterator[float]:
        """The deterministic backoff schedule (one entry per *retry*)."""
        delay = self.base_delay_s
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_delay_s)
            delay *= self.multiplier

    def call(
        self,
        fn: Callable[[], Any],
        *,
        site: str = "",
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Callable[[int, BaseException], None] | None = None,
    ) -> Any:
        """Run ``fn`` under this policy.

        ``site`` labels the retry counter metric; ``sleep`` is injectable
        for tests.  ``on_retry(attempt, exc)`` fires after each failed
        attempt that will be retried (attempt numbers are 1-based).
        """
        delays = self.delays()
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except self.retry_on as exc:
                try:
                    delay = next(delays)
                except StopIteration:
                    raise exc from None
                self.count_retry(site)
                if on_retry is not None:
                    on_retry(attempt, exc)
                if delay > 0:
                    sleep(delay)

    def count_retry(self, site: str) -> None:
        """Count one retry at ``site`` (``resilience_retries_total``)."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter(
                "resilience_retries_total",
                "Operations retried under a RetryPolicy",
                site=site or "<unlabeled>",
            ).inc()


#: Store IO and lease operations: quick, idempotent filesystem calls —
#: three tries with small backoff ride out transient contention.
DEFAULT_STORE_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.05)

#: Compute units (whole simulation tasks): re-running is expensive, so
#: two tries by default; quarantine handles persistent failures.
DEFAULT_COMPUTE_RETRY = RetryPolicy(
    max_attempts=2, base_delay_s=0.0, retry_on=(Exception,)
)
