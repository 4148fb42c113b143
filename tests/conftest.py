"""Hypothesis settings shared by every property test."""

from hypothesis import settings

# a property test's examples may take long on a busy host (an N = 1e5 sum,
# a 60-digit oracle): no per-example deadline, each test sets its own count;
# a falsified test prints the @reproduce_failure line that replays it
settings.register_profile("pdm-osc", deadline=None, print_blob=True)
settings.load_profile("pdm-osc")
