import contextlib

import numpy as np
import pytest

from lenspace import build_from_graph, generate, hopflax, parse_space_spec


@pytest.fixture(scope="session")
def two_point():
    # unit distance, uniform weights
    return build_from_graph([(0, 1, 1.0)], np.array([1.0, 1.0]), 2)


@pytest.fixture(scope="session")
def path3():
    return generate(parse_space_spec("path:3"))


@pytest.fixture(scope="session")
def circle64():
    return generate(parse_space_spec("circle:64"))


@pytest.fixture(scope="session")
def circle256():
    return generate(parse_space_spec("circle:256"))


@pytest.fixture(scope="session")
def gauss101():
    return generate(parse_space_spec("gaussian_interval:101:1:4"))


@pytest.fixture(scope="session")
def gauss201():
    return generate(parse_space_spec("gaussian_interval:201:1:4"))


@pytest.fixture(scope="session")
def torus8():
    return generate(parse_space_spec("torus2d:8:8"))


@contextlib.contextmanager
def kernel_scales():
    """Record the scales 1/(2t) of each call to the Hopf-Lax kernel made
    inside the block: one list per call."""
    calls, real = [], hopflax._minima

    def recorded(space, g, scales):
        calls.append(np.asarray(scales, dtype=float).tolist())
        return real(space, g, scales)

    hopflax._minima = recorded
    try:
        yield calls
    finally:
        hopflax._minima = real


def scales_of(times) -> list:
    """1/(2t) for each time, as the kernel receives it."""
    return [1.0 / (2.0 * float(t)) for t in times]
