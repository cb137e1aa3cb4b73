"""Peak bands: a reference row sampled in full, every other row at its candidates.

``protocols.peak_amplitudes`` samples the first t_f row on every peak sample
and the other rows only where the reference row lies near its peak.  Every
cell must stay bitwise ``peak_amplitude`` of a per-cell design, and a band
whose reference row does not certify must fall back to sampling every row
in full.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainwise_sta.protocols as protocols_mod
from chainwise_sta import peak_amplitude
from chainwise_sta.protocols import (
    design_chainwise,
    design_protocol1,
    design_protocol2,
    peak_amplitudes,
)
from chainwise_sta.sweeps import SweepSpec, sweep_peak_amplitude


PEAK_POINTS, PROBE_POINTS = 2001, 257
DELTAS = np.array([1000 * np.pi, 2500 * np.pi, 5000 * np.pi])


def designer(protocol, epsilon=0.03, direction="creation"):
    if protocol == "p1":
        return design_protocol1
    if protocol == "p2":
        return design_protocol2
    return lambda t_f, delta: design_chainwise(t_f, delta, epsilon, direction)


def per_cell(design, tf_values, deltas):
    return np.array([[peak_amplitude(design(tf, d)) for d in deltas] for tf in tf_values])


def count_points(monkeypatch, protocol):
    """Record the size of every profile evaluation ``peak_amplitudes`` makes."""
    name = "_scaled_angles" if protocol == "chainwise" else "_cubic_rate"
    real = getattr(protocols_mod, name)
    sizes = []

    def counted(t, *args):
        sizes.append(np.size(t))
        return real(t, *args)

    monkeypatch.setattr(protocols_mod, name, counted)
    return sizes


@given(
    protocol=st.sampled_from(["p1", "p2", "chainwise"]),
    direction=st.sampled_from(["creation", "detection"]),
    epsilon=st.floats(0.005, 0.2),
    tf_values=st.lists(st.floats(0.2, 40.0), min_size=2, max_size=6),
    deltas=st.lists(st.floats(100.0, 2e4), min_size=1, max_size=3),
)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_band_cells_equal_per_cell_designs_bitwise(protocol, direction, epsilon, tf_values,
                                                   deltas):
    # The rows come in any order, so the reference row need not be the shortest.
    design = designer(protocol, epsilon, direction)
    cells = peak_amplitudes(design(tf_values[0], deltas[0]), tf_values, deltas)
    assert np.array_equal(cells, per_cell(design, tf_values, deltas))


@pytest.mark.parametrize("protocol,bound", [
    ("p2", PEAK_POINTS + 11 * 16),
    ("chainwise", PEAK_POINTS + 11 * (PROBE_POINTS + 16)),
])
def test_eleven_row_band_samples_reference_row_plus_candidates(monkeypatch, protocol, bound):
    # Sampling every row in full would take 11 * 2001 points (plus probes).
    design = designer(protocol)
    tf_values = np.linspace(1.0, 2.75, 11)
    leg = design(tf_values[0], DELTAS[0])
    sizes = count_points(monkeypatch, protocol)
    cells = peak_amplitudes(leg, tf_values, DELTAS)
    assert sizes[-2] == PEAK_POINTS  # the reference row
    assert sum(sizes) <= bound
    monkeypatch.undo()
    assert np.array_equal(cells, per_cell(design, tf_values, DELTAS))


def nan_at_reference_sample(monkeypatch, protocol, t_f):
    """Make the profile NaN at one interior sample of the row at ``t_f``."""
    t_bad = np.linspace(0.0, t_f, PEAK_POINTS)[700]
    if protocol == "p2":
        real = protocols_mod._cubic_rate

        def rate(t, tf):
            return np.where((t == t_bad) & (tf == t_f), np.nan, real(t, tf))

        monkeypatch.setattr(protocols_mod, "_cubic_rate", rate)
        return
    real = protocols_mod._scaled_angles

    def angles(t, tf, a, b):
        chi, chi_d, vt, vt_d = real(t, tf, a, b)
        return chi, np.where((t == t_bad) & (tf == t_f), np.nan, chi_d), vt, vt_d

    monkeypatch.setattr(protocols_mod, "_scaled_angles", angles)


class TestFallback:
    """A reference row that does not certify samples every row in full."""

    @pytest.mark.parametrize("protocol", ["p2", "chainwise"])
    def test_nan_reference_sample(self, monkeypatch, protocol):
        design = designer(protocol)
        tf_values = np.array([1.0, 2.0, 3.0])
        leg = design(tf_values[0], DELTAS[0])
        expected = per_cell(design, tf_values, DELTAS)
        expected[0] = np.nan
        nan_at_reference_sample(monkeypatch, protocol, tf_values[0])
        sizes = count_points(monkeypatch, protocol)
        cells = peak_amplitudes(leg, tf_values, DELTAS)
        assert np.array_equal(cells, expected, equal_nan=True)
        # The reference row, then every row on every sample in one batch.
        assert sizes[-2:] == [PEAK_POINTS, 3 * PEAK_POINTS]

    @pytest.mark.parametrize("protocol", ["p2", "chainwise"])
    def test_nan_reference_sample_names_first_cell(self, monkeypatch, protocol):
        spec = SweepSpec(protocol, (1.0, 3.0, 3), (1000 * np.pi, 5000 * np.pi, 3))
        nan_at_reference_sample(monkeypatch, protocol, 1.0)
        with pytest.raises(ValueError) as err:
            sweep_peak_amplitude(spec)
        assert str(err.value) == ("design failed at t_f=1 us, delta=3141.59 rad/us: "
                                  "peak amplitude is not finite")

    @pytest.mark.parametrize("protocol,first_row", [("p2", np.inf), ("chainwise", np.nan)])
    def test_reference_row_overflows(self, protocol, first_row):
        # 1/t_f overflows on the reference row; the other rows are finite.
        design = designer(protocol)
        tf_values = np.array([1e-310, 2.0, 5.0])
        with np.errstate(all="ignore"):
            cells = peak_amplitudes(design(2.0, DELTAS[0]), tf_values, DELTAS)
        expected = per_cell(design, tf_values[1:], DELTAS)
        assert np.array_equal(cells[0], np.full(DELTAS.size, first_row), equal_nan=True)
        assert np.array_equal(cells[1:], expected)

    def test_subnormal_row_squares(self):
        # Past t_f ~ 1e154 a chainwise row's squared couplings are subnormal
        # and round coarsely enough to move its peak off the candidates.
        design = designer("chainwise", epsilon=0.07)
        tf_values = np.concatenate([[1.0], np.logspace(157, 162, 24)])
        with np.errstate(under="ignore"):
            cells = peak_amplitudes(design(1.0, DELTAS[0]), tf_values, DELTAS[:1])
            expected = per_cell(design, tf_values, DELTAS[:1])
        assert np.array_equal(cells, expected)


def test_rows_linspace_columns_bitwise():
    rng = np.random.default_rng(7)
    stops = np.concatenate([rng.uniform(0.2, 40.0, 50), 10.0 ** rng.uniform(-300, 300, 50)])
    columns = np.array([0, 1, 17, 999, 1000, 1001, 1999, 2000])
    full = protocols_mod._rows_linspace(stops, PEAK_POINTS)
    picked = protocols_mod._rows_linspace(stops, PEAK_POINTS, columns)
    assert np.array_equal(picked, full[:, columns])
