"""One hypothesis profile for the whole suite: the same examples on every
run, and no per-example deadline, since example times on a loaded host say
nothing about the code."""

from hypothesis import settings

settings.register_profile("dtough", derandomize=True, deadline=None)
settings.load_profile("dtough")
