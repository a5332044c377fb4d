"""Shared test settings.

``pytest --hypothesis-profile=ci`` runs the property tests with more
examples and a fixed example sequence; the default profile is unchanged.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=500, derandomize=True,
                          deadline=None)
