"""Suite-wide settings: every hypothesis property is derandomized (the same
examples on every run) and has no per-example deadline."""

from hypothesis import settings

settings.register_profile("hornwave", derandomize=True, deadline=None)
settings.load_profile("hornwave")
