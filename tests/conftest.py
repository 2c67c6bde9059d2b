import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches the constants it reads from local modules in its storage
# directory, .hypothesis/ under the working directory by default, even with
# database=None.  Keep that cache in a temporary directory, removed when the
# test process exits, so a test run writes nothing into the tree.
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)
