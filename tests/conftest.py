from hypothesis import settings

# CI runs with --hypothesis-profile=ci: a fixed seed, so a failing example
# found there is found again by the same command anywhere.
settings.register_profile("ci", derandomize=True)
