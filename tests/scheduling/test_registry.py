"""Unit tests for the scheduler registries."""

import random

import pytest

from repro.scheduling import (
    ALL_DS,
    ALL_ES,
    ALL_LS,
    make_dataset_scheduler,
    make_external_scheduler,
    make_local_scheduler,
)
from repro.scheduling.base import (
    DatasetScheduler,
    ExternalScheduler,
    LocalScheduler,
)
from repro.scheduling.registry import DS_NAMES, ES_NAMES


class TestExternalRegistry:
    def test_paper_family_order(self):
        assert ALL_ES == [
            "JobRandom", "JobLeastLoaded", "JobDataPresent", "JobLocal"]

    @pytest.mark.parametrize("name", ALL_ES + ["JobAdaptive"])
    def test_factory_builds_named_instance(self, name):
        es = make_external_scheduler(name, random.Random(0))
        assert isinstance(es, ExternalScheduler)
        assert es.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown external"):
            make_external_scheduler("JobMagic", random.Random(0))

    @pytest.mark.parametrize("name", ES_NAMES)
    def test_every_exported_name_builds(self, name):
        es = make_external_scheduler(name, random.Random(0))
        assert isinstance(es, ExternalScheduler)

    def test_exported_names_cover_health_variants(self):
        assert set(ALL_ES) < set(ES_NAMES)
        assert {f"{es}+Health" for es in ALL_ES} < set(ES_NAMES)


class TestLocalRegistry:
    def test_names(self):
        assert ALL_LS == ["FIFO", "SJF", "LJF", "FIFO-DataAware"]

    @pytest.mark.parametrize("name", ALL_LS)
    def test_factory(self, name):
        ls = make_local_scheduler(name)
        assert isinstance(ls, LocalScheduler)
        assert ls.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown local"):
            make_local_scheduler("LIFO")


class TestDatasetRegistry:
    def test_paper_family_order(self):
        assert ALL_DS == ["DataDoNothing", "DataRandom", "DataLeastLoaded"]

    @pytest.mark.parametrize("name", ALL_DS)
    def test_factory(self, name):
        ds = make_dataset_scheduler(name, random.Random(0))
        assert isinstance(ds, DatasetScheduler)
        assert ds.name == name

    def test_parameters_forwarded(self):
        ds = make_dataset_scheduler(
            "DataLeastLoaded", random.Random(0),
            popularity_threshold=9, check_interval_s=123.0, neighbor_hops=3)
        assert ds.popularity_threshold == 9
        assert ds.check_interval_s == 123.0
        assert ds.neighbor_hops == 3

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            make_dataset_scheduler("DataMagic", random.Random(0))

    @pytest.mark.parametrize("name", DS_NAMES)
    def test_every_exported_name_builds(self, name):
        ds = make_dataset_scheduler(name, random.Random(0))
        assert isinstance(ds, DatasetScheduler)
        assert ds.name == name

    def test_unknown_error_lists_every_name(self):
        with pytest.raises(ValueError) as excinfo:
            make_dataset_scheduler("DataMagic", random.Random(0))
        for name in DS_NAMES:
            assert name in str(excinfo.value)
