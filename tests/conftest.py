import pytest

from fearover import FearModel, load_builtin


@pytest.fixture(scope="session")
def survey_db():
    return load_builtin("survey")


@pytest.fixture(scope="session")
def trace_db():
    return load_builtin("four_provider_trace")


@pytest.fixture(scope="session")
def fear_model():
    # Session-scoped so the rectified surfaces are built once.
    return FearModel()
