"""Hypothesis settings shared by every property test."""

from hypothesis import settings

# a property test's examples may take long on a busy host (an N = 1e5 sum,
# a 60-digit oracle): no per-example deadline, each test sets its own count
settings.register_profile("pdm-osc", deadline=None)
settings.load_profile("pdm-osc")
