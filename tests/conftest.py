"""Shared fixtures: systems, datasets, the frozen reference basis, and a cycle probe."""

import gc

import numpy as np
import pytest

import kooplift as kl


@pytest.fixture(scope="session")
def poly_system():
    return kl.example_poly()


@pytest.fixture(scope="session")
def poly_snapshots(poly_system):
    plan = kl.ExperimentPlan(num_experiments=200, steps_per_experiment=10,
                             rng_seed=11)
    return kl.run_experiments(poly_system, plan)


@pytest.fixture(scope="session")
def poly_augmented(poly_snapshots):
    return kl.to_augmented(poly_snapshots)


@pytest.fixture(scope="session")
def poly_basis():
    return kl.example_poly_normal_basis()


def _cyclic_garbage(fn):
    """The objects of kooplift and argparse types that ``fn()`` leaves in reference cycles.

    ``fn`` runs with the cyclic collector off; one collection afterwards,
    with ``gc.DEBUG_SAVEALL``, keeps every unreachable object it finds in
    ``gc.garbage``, of which those whose type is defined in ``kooplift``
    or ``argparse`` are returned.  Objects freed by reference counting
    never reach the collector, so an empty list means ``fn`` left no
    such cycle.  What ``fn`` returns is dropped before the collection.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return [obj for obj in gc.garbage
                if type(obj).__module__.partition(".")[0] in ("kooplift", "argparse")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.fixture
def cyclic_garbage():
    """:func:`_cyclic_garbage`: what a call leaves for the cyclic collector."""
    return _cyclic_garbage
