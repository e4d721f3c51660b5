"""Test-session setup shared by the suite."""

import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# The property tests keep no example database, but hypothesis still caches the
# constants it reads from local modules under its home directory (by default
# ``.hypothesis/`` in the working directory) while pytest collects. The cache
# goes to a temporary directory that is removed when the session ends.
_storage = tempfile.TemporaryDirectory(prefix="gsptk-hypothesis-")


def pytest_configure(config):
    set_hypothesis_home_dir(_storage.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    _storage.cleanup()
