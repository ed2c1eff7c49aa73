"""One hypothesis profile for every run: property tests draw the same
examples each time, in CI or not."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
