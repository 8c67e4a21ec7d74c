"""Suite-wide fixtures."""

import pytest

from repro.core import columnar
from repro.obs import events, monitor, profile, slowlog, trace
from repro.stats import adaptive, feedback

# Every process-global switch: each module's disable() turns it off,
# and the observability ones also drop what they recorded.
SWITCHES = (trace, events, profile, slowlog, monitor, columnar, adaptive)


@pytest.fixture(autouse=True)
def switches_off():
    """Leave every process-global switch off after each test, and the
    planner's feedback log and adaptive posteriors empty, as the process
    starts."""
    yield
    for module in SWITCHES:
        module.disable()
    adaptive.ADAPTIVE.clear()
    feedback.clear()
