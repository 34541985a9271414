"""Central-finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, backward, no_grad

# Relative error uses max(|analytic|, |numeric|, floor) as denominator; the
# floor keeps finite-difference roundoff on near-zero components from
# registering as large relative errors while still exposing any real
# discrepancy above tol * floor in absolute terms.
REL_DENOM_FLOOR = 1e-2


class NondeterministicFunction(RuntimeError):
    """The checked function returned different values on repeat evaluation."""


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    passed: bool


@dataclass
class GradCheckReport:
    step: float
    tol: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def summary(self) -> str:
        lines = [f"gradient check: step={self.step:g} tol={self.tol:g}"]
        for e in self.entries:
            lines.append(f"  {'ok  ' if e.passed else 'FAIL'} {e.name:32s} max_rel_err={e.max_rel_err:.3e}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def finite_diff_check(
    fn: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    step: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients of ``fn`` against central differences.

    ``fn`` evaluates the scalar loss from the current values of ``params``
    (a sequence of (name, tensor) pairs) and must be deterministic: it is
    evaluated twice up front and rejected if the two values differ. The
    analytic side runs one backward pass; the numeric side perturbs each
    parameter component by +/-step with the tape disabled.
    """
    params = list(params)
    loss = fn()
    with no_grad():
        probe = fn()
    if loss.data != probe.data:
        raise NondeterministicFunction(
            f"fn returned {float(loss.data)!r} then {float(probe.data)!r}; "
            "disable dropout and fix seeds before gradient checking"
        )

    backward(loss, params=[t for _, t in params])

    report = GradCheckReport(step=step, tol=tol)
    for name, p in params:
        analytic = p.grad
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        with no_grad():
            for i in range(flat.shape[0]):
                orig = flat[i]
                flat[i] = orig + step
                hi = float(fn().data)
                flat[i] = orig - step
                lo = float(fn().data)
                flat[i] = orig
                nflat[i] = (hi - lo) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_DENOM_FLOOR)
        err = float((np.abs(analytic - numeric) / denom).max()) if flat.size else 0.0
        report.entries.append(GradCheckEntry(name=name, max_rel_err=err, passed=err < tol))
    return report
