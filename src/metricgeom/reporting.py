"""Uniform result records for sampled axiom and property checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled inequality check.

    ``worst_margin`` is the largest violation margin observed over all
    samples; margins at or below ``tolerance`` count as satisfied, so a
    healthy check typically reports a negative worst margin.
    """

    name: str
    samples: int
    violations: int
    worst_margin: float
    tolerance: float

    def __post_init__(self):
        # under a nan or infinite tolerance no sample could ever fail
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance!r}")

    @property
    def passed(self) -> bool:
        return self.violations == 0


def margin_report(name: str, margins, tol: float) -> CheckReport:
    """Report a check whose samples pass when their margin is at most ``tol``;
    a nan margin is a violation."""
    margins = np.asarray(margins, dtype=float)
    return CheckReport(
        name,
        margins.size,
        int(np.count_nonzero(~(margins <= tol))),
        float(margins.max()),
        tol,
    )


@dataclass(frozen=True)
class AxiomReport:
    """Bundle of related checks with an aggregate verdict."""

    checks: tuple[CheckReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_margin(self) -> float:
        return max(c.worst_margin for c in self.checks)

    def __iter__(self):
        return iter(self.checks)

    def __getitem__(self, name: str) -> CheckReport:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)
