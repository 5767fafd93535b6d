"""Shared pytest fixtures for the test suite."""

from __future__ import annotations

import pytest

import repro.sim.trace as trace_mod
from repro.riscv import RV64GC, Assembler


@pytest.fixture
def assembler() -> Assembler:
    return Assembler(text_base=0x1_0000, arch=RV64GC)


@pytest.fixture
def trace_sources(monkeypatch) -> dict[str, str]:
    """The source of every trace compiled during the test, by code name
    (``<mega@0x...>``: the latest compile of each root)."""
    got = {}

    def hook(src, name, mode):
        got[name] = src
        return compile(src, name, mode)

    monkeypatch.setattr(trace_mod, "compile", hook, raising=False)
    return got
