import os

from hypothesis import HealthCheck, settings

# `fast` (the default) and `ci` draw the same examples on every run and
# replay no example database, so a Tier-1 run is reproducible; `explore`
# draws fresh random examples at ci's counts and keeps a database, to look
# for new failures on purpose
settings.register_profile(
    "fast", max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None,
    derandomize=True,
)
settings.register_profile(
    "ci", max_examples=100, suppress_health_check=[HealthCheck.too_slow], deadline=None,
    derandomize=True,
)
settings.register_profile(
    "explore", max_examples=100, suppress_health_check=[HealthCheck.too_slow], deadline=None,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))
