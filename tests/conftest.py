"""One Hypothesis profile for every property test: derandomized, with no
example database and no deadline, so each run replays the same examples
on every machine."""

from hypothesis import settings

settings.register_profile("falva", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("falva")
