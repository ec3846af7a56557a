"""Shared fixtures."""

import contextlib

import pytest

from tfmult import core


@pytest.fixture
def split_workers():
    """``with split_workers(n):`` splits every batch, however small, over n threads.

    A fresh pool is made for the block and shut down after it, so runs with
    different worker counts can be compared inside one test.
    """

    @contextlib.contextmanager
    def workers(n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_SPLIT_BYTES", 0)
            mp.setattr(core, "_worker_count", lambda: n)
            mp.setattr(core, "_pool", None)
            try:
                yield
            finally:
                if core._pool is not None and core._pool[1] is not None:
                    core._pool[1].shutdown()

    return workers
