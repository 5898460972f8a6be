"""The `ci` hypothesis profile, loaded when the CI environment variable
is set: examples are drawn deterministically and no example has a
deadline, so a slow or busy runner cannot fail a property test that
passes locally. Each test keeps its own max_examples."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
