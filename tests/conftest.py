import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Hypothesis drives only the input fuzzers, which check what an input
# does, not how fast.  On a shared host one example can stall past the
# default 200 ms deadline, or the drawing of its input past the too_slow
# health check, and fail a correct run.
settings.register_profile(
    "rookorder",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("rookorder")
