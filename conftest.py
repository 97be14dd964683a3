"""Root-level pytest configuration (covers ``tests/``, ``benchmarks/``, ``bench/``).

The grain gate (:mod:`repro.core.grain`) keeps loops that measure below its
threshold off the engines, and every mesh in the suite is far below it: with
the gate open the engine tests would pass without reaching an engine.  The
suite therefore pins the gate *closed* -- every loop deferred, the behaviour
all engine tests were written against -- through the module's test seam, and
the gate's own tests opt out with ``@pytest.mark.grain_gate``.
"""

from __future__ import annotations

import pytest

from repro.core import grain


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "grain_gate: run with the real grain-gate decision instead of the "
        "suite-wide pin to 'always deferred'",
    )


@pytest.fixture(autouse=True)
def _grain_gate_pinned_closed(request: pytest.FixtureRequest, monkeypatch: pytest.MonkeyPatch):
    if request.node.get_closest_marker("grain_gate") is None:
        monkeypatch.setattr(grain, "should_defer", lambda loop, phase, cost: True)
    yield
