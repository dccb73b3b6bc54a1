"""Diagnostics shared by the Datalog validator, the LiLa parser and the LDG builder."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    line: int | None = None
    col: int | None = None

    def __str__(self) -> str:
        where = f"{self.line}:{self.col}: " if self.line is not None else ""
        return f"{where}{self.severity}[{self.code}]: {self.message}"


def errors(diags: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diags if d.severity == "error"]
