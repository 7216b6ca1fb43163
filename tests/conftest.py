"""Shared fixtures: small worlds for unit tests, a cached default-config
pipeline runner so the slow stages (world generation, model fitting) run once
per seed across the whole session, and one set of good input files made by
the CLI."""

import contextlib
import dataclasses
import io

import pytest

from attnalloc import ExperimentConfig, ExperimentRunner, WorldConfig, generate_world
from attnalloc.cli import EXIT_OK, cli_main

SMALL_WORLD = WorldConfig(
    num_users=4,
    num_objects=24,
    num_images=60,
    num_groups=3,
    max_objects_per_image=8,
)

# the config of the CLI tests and of the good files: SMALL_WORLD's sizes
SMALL_CONFIG = """\
[experiment]
sweep_factors = 16.0, 20.0
sweep_user = 1

[world]
num_users = 4
num_objects = 24
num_images = 60
num_groups = 3
max_objects_per_image = 8

[fit]
epochs = 20
"""


@pytest.fixture(scope="session")
def small_world():
    return generate_world(SMALL_WORLD, seed=11)


@pytest.fixture(scope="session")
def default_world():
    return generate_world(WorldConfig(), seed=7)


@pytest.fixture(scope="session")
def runner_cache():
    """Factory returning a cached ExperimentRunner for a master seed."""
    cache = {}

    def get(seed: int) -> ExperimentRunner:
        if seed not in cache:
            cache[seed] = ExperimentRunner(
                dataclasses.replace(ExperimentConfig(), master_seed=seed)
            )
        return cache[seed]

    return get


@pytest.fixture(scope="session")
def default_runner(runner_cache):
    return runner_cache(7)


@pytest.fixture(scope="session")
def good_files(tmp_path_factory):
    """The paths of a config, world, records and model file, each made by the
    CLI from SMALL_CONFIG; tests read them and never write them."""
    folder = tmp_path_factory.mktemp("good")
    paths = {name: str(folder / name) for name in ("config", "world", "records", "model")}
    with open(paths["config"], "w") as fh:
        fh.write(SMALL_CONFIG)
    for argv in (("generate", "--out", paths["world"]),
                 ("sparsify", "--world", paths["world"], "--out", paths["records"]),
                 ("fit", "--records", paths["records"], "--world", paths["world"],
                  "--out", paths["model"])):
        with contextlib.redirect_stdout(io.StringIO()):  # its "wrote" lines
            assert cli_main([*argv, "--config", paths["config"]]) == EXIT_OK
    return paths
