import pytest
from hypothesis import settings

from vidembed.data import SynthConfig, generate_synthetic


@pytest.fixture(scope="session")
def anchor_ds(tmp_path_factory):
    """Small anchor-task dataset shared across tests: C=5, 10 videos/class."""
    out = tmp_path_factory.mktemp("anchor_ds")
    cfg = SynthConfig(
        classes=5, videos_per_class=10, frames=10, dim=16,
        sigma=0.05, rho=0.5, task="anchor", seed=7,
    )
    manifest, protos = generate_synthetic(cfg, out)
    return manifest, protos, out


@pytest.fixture(scope="session")
def order_ds(tmp_path_factory):
    """Small order-sensitive dataset: two anchor pairs, C=4."""
    out = tmp_path_factory.mktemp("order_ds")
    cfg = SynthConfig(
        classes=4, videos_per_class=15, frames=12, dim=16,
        sigma=0.05, rho=0.5, task="order", seed=21,
    )
    manifest, protos = generate_synthetic(cfg, out)
    return manifest, protos, out


# Property tests draw the same examples on every run and stay within seconds.
settings.register_profile(
    "vidembed", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("vidembed")
