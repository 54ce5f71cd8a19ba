"""Run-wide configuration shared by the CLI and the verification suites."""

from __future__ import annotations

from dataclasses import dataclass

from .core import InputError, as_index

VERSION = "0.1.0"

# None encodes the operator-norm endpoint.
DEFAULT_P_GRID = (1.0, 1.5, 2.0, 3.0, None)


@dataclass(frozen=True)
class RunConfig:
    """Settings of a verification run: search budgets, seed and exponents.

    p_grid stores SchattenIndex values.
    """

    restarts: int = 32
    seed: int = 0
    p_grid: tuple = tuple(as_index(p) for p in DEFAULT_P_GRID)

    def __post_init__(self):
        if self.restarts < 0:
            raise InputError("restarts >= 0 required")
        grid = tuple(as_index(p) for p in self.p_grid)
        object.__setattr__(self, "p_grid", grid)
