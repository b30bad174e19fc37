"""Unit tests for the configuration dataclasses."""

import pytest

from repro.config import ExchangeConfig, StoreConfig, SystemConfig
from repro.errors import ConfigurationError


class TestExchangeConfig:
    def test_defaults(self):
        assert ExchangeConfig().track_provenance


class TestStoreConfig:
    def test_defaults(self):
        config = StoreConfig()
        assert config.replication_factor == 2

    def test_invalid_replication_factor(self):
        with pytest.raises(ConfigurationError):
            StoreConfig(replication_factor=0)


class TestSystemConfig:
    def test_default_factory(self):
        config = SystemConfig.default()
        assert isinstance(config.exchange, ExchangeConfig)
        assert isinstance(config.store, StoreConfig)

    def test_configs_are_frozen(self):
        config = SystemConfig.default()
        with pytest.raises(Exception):
            config.exchange.track_provenance = False


class TestErrorHierarchy:
    def test_every_error_derives_from_repro_error(self):
        import inspect

        from repro import errors

        for _name, cls in inspect.getmembers(errors, inspect.isclass):
            if issubclass(cls, Exception) and cls.__module__ == "repro.errors":
                assert issubclass(cls, errors.ReproError) or cls is errors.ReproError
