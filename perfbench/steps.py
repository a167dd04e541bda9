"""Step timing of untraced sweeps, and the fastest-steps estimate of a sweep.

On a shared host a sweep's wall time is the program's work stretched by
whatever the neighbours do meanwhile; on a 2-vCPU guest that stretch moves
by tens of percent from one second to the next. The step timer cuts a sweep
into steps at every call it makes across the layer boundaries the tracer
spans (all of `tracer.SPANNED` but the sweep itself and the per-plan
`trace_plan` calls). Repeats of one scenario make the same calls in the same
order, so they line up step by step, and `fastest` sums each step's fastest
repeat: the sweep's time with every step run while the host disturbed it
least. It times only; it counts nothing and keeps no spans.
"""

from __future__ import annotations

import time

from tracer import SPANNED, patch_bindings, restore

STEPPED = [entry for entry in SPANNED
           if entry[2] not in ("runner.execute", "dispatch.trace_plan")]


class StepTimer:
    """Cuts one sweep into steps at every stepped call's entry and exit.

    Each step is the time from one cut to the next, named after the call
    that was running in it, so a call with stepped calls inside it gives a
    step before, between and after them. Time before the first cut and
    after the last is not a step: `fastest` counts it as the sweep's rest.
    """

    def __init__(self):
        self.steps: list[tuple[str, float]] = []
        self.missing: list[str] = []
        self._running = ["runner.execute"]
        self._mark: float | None = None

    def install(self):
        """Patch every step; returns a function that restores the originals."""
        undo = patch_bindings(STEPPED, self._wrap, self.missing)
        return lambda: restore(undo)

    def _cut(self):
        now = time.perf_counter()
        if self._mark is not None:
            self.steps.append((self._running[-1], now - self._mark))
        self._mark = now

    def _wrap(self, name, orig, _observe):
        cut, running = self._cut, self._running

        def timed(*args, **kwargs):
            cut()
            running.append(name)
            try:
                return orig(*args, **kwargs)
            finally:
                cut()
                running.pop()
        return timed


def fastest(records: list[tuple[float, list[tuple[str, float]]]]) -> float:
    """Sum over steps of each step's fastest repeat, plus the fastest rest.

    `records` holds one (wall seconds, steps) pair per repeat of one piece
    of work; the rest is the wall time outside every step. Raises
    ValueError if the repeats did not make the same calls in the same order.
    """
    names = [name for name, _ in records[0][1]]
    if any([name for name, _ in steps] != names for _, steps in records[1:]):
        raise ValueError("repeats of one scenario made different calls")
    per_step = zip(*([secs for _, secs in steps] for _, steps in records))
    rest = min(wall - sum(secs for _, secs in steps) for wall, steps in records)
    return sum(min(col) for col in per_step) + rest
