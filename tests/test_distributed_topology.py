"""Device groups, links, and the ring-modeled collectives."""

import numpy as np
import pytest

from repro.distributed.topology import (
    LINKS,
    CommEvent,
    DeviceGroup,
    Link,
    get_link,
)
from repro.errors import ConfigurationError


class TestLink:
    def test_catalog_lookup(self):
        assert get_link("nvlink").bandwidth_gb_s == 300.0
        assert get_link("NVLink").name == "nvlink"

    def test_explicit_link_passthrough(self):
        link = Link("custom", bandwidth_gb_s=10.0, latency_s=1e-6)
        assert get_link(link) is link

    def test_unknown_link_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown link"):
            get_link("tin-cans")

    def test_non_string_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot interpret"):
            get_link(42)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError, match="bandwidth"):
            Link("bad", bandwidth_gb_s=0.0, latency_s=0.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError, match="latency"):
            Link("bad", bandwidth_gb_s=1.0, latency_s=-1e-6)

    def test_transfer_seconds_is_alpha_beta(self):
        link = Link("t", bandwidth_gb_s=1.0, latency_s=2e-6)
        # 1 GB/s -> 1000 bytes take 1e-6 s, plus latency.
        assert link.transfer_seconds(1000) == pytest.approx(1e-6 + 2e-6)

    def test_catalog_links_are_ordered_by_bandwidth(self):
        assert (
            LINKS["nvlink"].bandwidth_gb_s
            > LINKS["pcie4"].bandwidth_gb_s
            > LINKS["ethernet"].bandwidth_gb_s
        )


class TestDeviceGroup:
    def test_build_resolves_catalog(self):
        group = DeviceGroup.build("A100", devices=4, link="pcie4")
        assert group.gpu.name == "A100 80G"
        assert group.devices == 4
        assert group.link.name == "pcie4"

    def test_invalid_device_count_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            DeviceGroup.build("A100", devices=0)

    @pytest.mark.parametrize("devices", [2.5, 2.0, True, False])
    def test_non_integer_device_count_rejected(self, devices):
        """A fractional group would price fractional ring steps; a bool
        is not a count."""
        with pytest.raises(ConfigurationError, match="must be an integer"):
            DeviceGroup.build("A100", devices=devices)

    def test_numpy_integer_device_count_accepted(self):
        group = DeviceGroup.build("A100", devices=np.int64(4))
        assert group.all_reduce(1024).steps == 6

    def test_native_link_resolution(self):
        """link=None picks the part's catalogued interconnect: NVLink
        on A100, PCIe on the GeForce parts."""
        assert DeviceGroup.build("A100", link=None).link.name == "nvlink"
        assert DeviceGroup.build("4090", link=None).link.name == "pcie4"
        assert DeviceGroup.build("3090", link=None).link.name == "pcie4"

    def test_describe_mentions_everything(self):
        text = DeviceGroup.build("3090", devices=2).describe()
        assert "2x" in text and "RTX 3090" in text and "nvlink" in text


class TestRingCollectives:
    @pytest.fixture
    def group(self):
        return DeviceGroup.build("A100", devices=4, link="nvlink")

    def test_all_gather_steps(self, group):
        event = group.all_gather(4096)
        assert isinstance(event, CommEvent)
        assert event.collective == "all-gather"
        assert event.steps == group.devices - 1
        assert event.seconds > 0

    def test_all_reduce_is_two_ring_passes(self, group):
        # A ring reduce-scatter moves the same 1/devices slices over the
        # same devices - 1 steps as a ring all-gather.
        reduce_scatter = group.all_gather(4096)
        all_reduce = group.all_reduce(4096)
        assert all_reduce.steps == 2 * reduce_scatter.steps
        assert all_reduce.seconds == pytest.approx(
            2 * reduce_scatter.seconds
        )

    def test_ring_formula(self, group):
        payload = 4 * 1024 * 1024
        event = group.all_gather(payload)
        expected = (group.devices - 1) * (
            payload / group.devices / group.link.bytes_per_s
            + group.link.latency_s
        )
        assert event.seconds == pytest.approx(expected)

    def test_wire_bytes_are_the_ring_traffic(self, group):
        payload = 4096
        event = group.all_gather(payload)
        assert event.wire_bytes == (group.devices - 1) * (
            payload // group.devices
        )

    def test_single_device_communicates_nothing(self):
        group = DeviceGroup.build("A100", devices=1)
        for event in (
            group.all_gather(1 << 20),
            group.all_reduce(1 << 20),
        ):
            assert event.seconds == 0.0
            assert event.steps == 0

    def test_zero_payload_is_free(self, group):
        assert group.all_reduce(0).seconds == 0.0

    def test_negative_payload_rejected(self, group):
        with pytest.raises(ConfigurationError, match=">= 0"):
            group.all_gather(-1)

    def test_slower_link_costs_more(self):
        fast = DeviceGroup.build("A100", devices=4, link="nvlink")
        slow = DeviceGroup.build("A100", devices=4, link="ethernet")
        payload = 1 << 24
        assert (
            slow.all_gather(payload).seconds
            > fast.all_gather(payload).seconds
        )

    def test_more_devices_more_latency_terms(self):
        # Bandwidth term converges to (D-1)/D * payload / BW, so for a
        # latency-dominated payload the step count shows directly.
        two = DeviceGroup.build("A100", devices=2)
        eight = DeviceGroup.build("A100", devices=8)
        assert (
            eight.all_gather(64).seconds > two.all_gather(64).seconds
        )
