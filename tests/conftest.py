"""Shared test settings: one deterministic Hypothesis profile.

Derandomized examples keep every run of the suite identical.  The profile
keeps no example database, and Hypothesis's home directory, where it still
caches the constants it reads from the source, is a temporary directory
removed at the end of the run, so the suite writes no ``.hypothesis/``
directory into the checkout.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("latval", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("latval")

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(
        prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HOME].cleanup()
