"""Shared test helpers."""

import gc

import pytest


@pytest.fixture
def collections_started():
    """A function that runs a call and returns (its result, the generation of each
    cyclic collection started while it ran), counted through ``gc.callbacks``
    from a fresh ``gc.collect()``."""

    def run(call):
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(count)
        try:
            result = call()
        finally:
            gc.callbacks.remove(count)
        return result, started

    return run
