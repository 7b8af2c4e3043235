"""Tests for the machine-speed reference."""

import speed


def test_normalized_time_is_at_reference_speed():
    # A machine running the reference work at half speed took 2 s for
    # what takes 1 s at reference speed.
    timing = speed.Timing(elapsed=2.0, reference=2 * speed.REFERENCE_S)
    assert timing.normalized == 1.0


def test_clock_divides_by_the_probes_on_both_sides(monkeypatch):
    probes = iter([[1.0] * 5, [3.0] * 5, [5.0] * 5])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    monkeypatch.setattr(speed, "reference_work", lambda: None)
    clock = speed.Clock()
    out, first = clock.time(lambda x: x + 1, 1)
    _, second = clock.time(lambda: None)
    assert out == 2
    assert first.reference == 2.0       # median of the 1.0 and 3.0 probes
    assert second.reference == 4.0      # median of the 3.0 and 5.0 probes
