"""Suite-wide pytest configuration.

The ``ci`` hypothesis profile is registered here, before any test
module binds its settings: a property without ``max_examples`` of its
own takes the active profile's. (Recent hypothesis ships a ``ci``
profile and selects it by itself when it sees a CI environment; this
replaces it, so on such a runner every pass gets the larger budget.)
CI runs the differential oracles with ``--hypothesis-profile=ci
--hypothesis-seed=2019``.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
