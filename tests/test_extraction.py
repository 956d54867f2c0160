"""Seek-curve extraction tests: the simulator's observed behaviour must
match the analytic model it was built from (Worthington-style validation)."""

import pytest

from repro.errors import SimulationError
from repro.performance.extraction import (
    SeekSample,
    extract_seek_curve,
    extraction_error,
)
from repro.simulation.disk import standard_disk
from repro.simulation.events import EventQueue


@pytest.fixture
def probe_disk():
    events = EventQueue()
    return standard_disk(
        name="probe",
        events=events,
        diameter_in=2.6,
        platters=1,
        kbpi=300,
        ktpi=10,
        rpm=10000,
        zone_count=10,
    )


class TestExtraction:
    def test_extracted_curve_matches_model(self, probe_disk):
        cylinders = probe_disk.layout.cylinders
        distances = [1, cylinders // 10, cylinders // 3, cylinders - 1]
        samples = extract_seek_curve(probe_disk, distances, rotational_probes=10)
        # Within the rotational residue (period/probes = 0.6 ms) + settle.
        assert extraction_error(probe_disk, samples) < 1.0

    def test_curve_monotone(self, probe_disk):
        cylinders = probe_disk.layout.cylinders
        distances = [1, cylinders // 20, cylinders // 5, cylinders // 2, cylinders - 1]
        samples = extract_seek_curve(probe_disk, distances, rotational_probes=6)
        times = [s.seek_ms for s in samples]
        # Monotone within the probe residue.
        for earlier, later in zip(times, times[1:]):
            assert later >= earlier - 0.7

    def test_full_stroke_value(self, probe_disk):
        cylinders = probe_disk.layout.cylinders
        [sample] = extract_seek_curve(probe_disk, [cylinders - 1], rotational_probes=10)
        expected = probe_disk.seek_model.parameters.full_stroke_ms
        assert sample.seek_ms == pytest.approx(expected, abs=1.0)

    def test_cache_restored_after_extraction(self, probe_disk):
        cache = probe_disk.cache
        assert cache is not None
        extract_seek_curve(probe_disk, [1], rotational_probes=2)
        assert probe_disk.cache is cache

    def test_rejects_bad_distance(self, probe_disk):
        with pytest.raises(SimulationError):
            extract_seek_curve(probe_disk, [probe_disk.layout.cylinders])

    def test_rejects_zero_probes(self, probe_disk):
        with pytest.raises(SimulationError):
            extract_seek_curve(probe_disk, [1], rotational_probes=0)

    def test_sample_dataclass(self):
        sample = SeekSample(distance=5, seek_ms=1.25)
        assert sample.distance == 5
        assert sample.seek_ms == 1.25
