import pytest

from kitecycle import load_config, preset_path, simulate_cycle
from kitecycle.estimation import cycle_to_log_records


@pytest.fixture(scope="session")
def strong_config():
    return load_config(preset_path("strong_wind"))


@pytest.fixture(scope="session")
def moderate_config():
    return load_config(preset_path("moderate_wind"))


@pytest.fixture(scope="session")
def strong_cycle(strong_config):
    """Strong-wind gravity-on cycle, shared by the expensive tests."""
    cfg = strong_config
    return simulate_cycle(cfg.environment, cfg.kite, cfg.tether, cfg.operation)


@pytest.fixture(scope="session")
def strong_telemetry(strong_config, strong_cycle):
    return list(cycle_to_log_records(strong_cycle, strong_config.environment.v_w_ref))
