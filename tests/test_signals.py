import numpy as np
import pytest

from onebit_tracking.signals import (_G2_DELAY, CodeSequence,
                                     generate_gps_ca_code,
                                     make_delay_waveform, make_pilot_waveform)


def shift_register_ca_code(prn):
    """Oracle: the C/A chips (0/1) from the two 10-stage shift registers,
    clocked one chip at a time."""
    g1 = [1] * 10
    g2 = [1] * 10
    g1_out = np.empty(1023, dtype=int)
    g2_out = np.empty(1023, dtype=int)
    for i in range(1023):
        g1_out[i] = g1[9]
        g2_out[i] = g2[9]
        fb1 = g1[2] ^ g1[9]
        fb2 = g2[1] ^ g2[2] ^ g2[5] ^ g2[7] ^ g2[8] ^ g2[9]
        g1 = [fb1] + g1[:9]
        g2 = [fb2] + g2[:9]
    return g1_out ^ np.roll(g2_out, _G2_DELAY[prn - 1])


def octal_id(code):
    """First 10 chips as the conventional octal identifier (+1 -> bit 1)."""
    bits = (code.symbols[:10] > 0).astype(int)
    return int(f"{int(''.join(map(str, bits)), 2):o}")


class TestGpsCode:
    def test_length_and_symbols(self):
        code = generate_gps_ca_code(1)
        assert code.length == 1023
        assert set(np.unique(code.symbols)) == {-1.0, 1.0}

    @pytest.mark.parametrize("prn,expected", [
        (1, 1440), (2, 1620), (3, 1710), (4, 1744),
        (6, 1455), (7, 1131), (8, 1454),
    ])
    def test_known_octal_identifiers(self, prn, expected):
        assert octal_id(generate_gps_ca_code(prn)) == expected

    def test_prn5_octal_identifier(self):
        # generator verified against the published identifiers above;
        # PRN 5 (delay 17) yields 1133 = 1001011011b
        assert octal_id(generate_gps_ca_code(5)) == 1133

    def test_code_balance(self):
        # Gold codes of length 1023 carry one extra +1 chip
        for prn in (1, 5, 17, 32):
            assert generate_gps_ca_code(prn).symbols.sum() == 1.0

    def test_distinct_across_prn(self):
        a = generate_gps_ca_code(3).symbols
        b = generate_gps_ca_code(4).symbols
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("prn", range(1, 33))
    def test_matches_shift_register(self, prn):
        chips = shift_register_ca_code(prn)
        np.testing.assert_array_equal(generate_gps_ca_code(prn).symbols,
                                      np.where(chips == 1, 1.0, -1.0))

    def test_period(self):
        # 1023 chips at 1.023 Mchip/s: one code period lasts 1 ms
        code = generate_gps_ca_code(1)
        assert code.length * code.chip_duration == pytest.approx(1e-3)

    def test_built_once_per_prn_and_chip_duration(self):
        code = generate_gps_ca_code(5)
        assert generate_gps_ca_code(np.int64(5), code.chip_duration) is code
        other = generate_gps_ca_code(5, 2e-6)
        assert other is not code and other.chip_duration == 2e-6
        np.testing.assert_array_equal(other.symbols, code.symbols)
        # the shared symbols cannot be changed by one caller for the rest
        with pytest.raises(ValueError, match="read-only"):
            code.symbols[0] = -code.symbols[0]

    @pytest.mark.parametrize("prn", [0, 33, -1, 1.5, "5", True])
    def test_invalid_prn(self, prn):
        with pytest.raises(ValueError):
            generate_gps_ca_code(prn)


class TestCodeSequence:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            CodeSequence(np.array([1.0, 0.5, -1.0]), 1e-6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CodeSequence(np.array([]), 1e-6)


@pytest.fixture(scope="module")
def delay_waveform():
    return make_delay_waveform(generate_gps_ca_code(5))


def complex_ifft_eval(wf, theta):
    """Oracle: s and ds/dtheta from the whole length-N spectrum, delayed by
    its phase, through two complex inverse FFTs."""
    delayed = wf.spectrum * np.exp(-2j * np.pi * wf.frequencies * theta)
    ds = np.fft.ifft(delayed * (-2j * np.pi * wf.frequencies)).real
    return np.fft.ifft(delayed).real, ds


class TestDelayWaveform:
    def test_block_geometry(self, delay_waveform):
        assert delay_waveform.samples_per_block == 2046
        assert delay_waveform.sample_rate == pytest.approx(2 * 1.023e6)

    @pytest.mark.parametrize("frac", [0.0, 0.137, 0.5, 0.93])
    def test_unit_power_all_delays(self, delay_waveform, frac):
        theta = frac * delay_waveform.code.chip_duration
        s = delay_waveform.eval(theta).s
        assert np.mean(s**2) == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_difference(self, delay_waveform):
        tc = delay_waveform.code.chip_duration
        h = 1e-6 * tc
        for frac in (0.21, 0.68, 3.4):
            theta = frac * tc
            ds = delay_waveform.eval(theta).ds_dtheta
            num = (delay_waveform.eval(theta + h).s
                   - delay_waveform.eval(theta - h).s) / (2 * h)
            scale = np.max(np.abs(ds))
            assert np.max(np.abs(ds - num)) / scale < 1e-4

    def test_periodic_in_code_period(self, delay_waveform):
        theta = 0.3 * delay_waveform.code.chip_duration
        a = delay_waveform.eval(theta)
        code = delay_waveform.code
        b = delay_waveform.eval(theta + code.length * code.chip_duration)
        np.testing.assert_allclose(a.s, b.s, atol=1e-9)

    def test_chip_shift_is_cyclic_sample_shift(self, delay_waveform):
        tc = delay_waveform.code.chip_duration
        a = delay_waveform.eval(0.25 * tc).s
        b = delay_waveform.eval(1.25 * tc).s
        np.testing.assert_allclose(b, np.roll(a, 2), atol=1e-9)

    def test_baseband_table_subsamples_to_block(self, delay_waveform):
        # point n*M - q of the table is s_n at the delay q T_s / M
        n = delay_waveform.samples_per_block
        for m, phases in ((8, (0, 3, 7)), (32, (0, 1, 16, 31))):
            table = delay_waveform.baseband_table(m)
            assert table.s.shape == table.ds_dtheta.shape == (m * n,)
            for q in phases:
                ev = delay_waveform.eval(q / (m * delay_waveform.sample_rate))
                idx = (np.arange(n) * m - q) % (m * n)
                np.testing.assert_allclose(table.s[idx], ev.s, rtol=0,
                                           atol=1e-13)
                scale = np.max(np.abs(ev.ds_dtheta))
                np.testing.assert_allclose(table.ds_dtheta[idx] / scale,
                                           ev.ds_dtheta / scale, rtol=0,
                                           atol=1e-13)

    def test_constant_code_has_flat_derivative(self):
        wf = make_delay_waveform(CodeSequence(np.ones(16), 1e-6))
        ev = wf.eval(0.4e-6)
        np.testing.assert_allclose(ev.s, 1.0, atol=1e-9)
        np.testing.assert_allclose(ev.ds_dtheta, 0.0, atol=1e-3)

    def test_nonfinite_delay_rejected(self, delay_waveform):
        with pytest.raises(ValueError):
            delay_waveform.eval(np.nan)
        with pytest.raises(ValueError):
            delay_waveform.signal(np.inf)

    @pytest.mark.parametrize("samples", [0, 3, 2046, -5, 0.74, 35.2, -6.5,
                                         -2.5e3, 5115.0])
    def test_matches_the_complex_inverse_fft(self, delay_waveform, samples):
        # integer, fractional and negative delays in samples, some beyond
        # the code period; ds is compared relative to its largest sample
        theta = samples / delay_waveform.sample_rate
        s, ds = complex_ifft_eval(delay_waveform, theta)
        ev = delay_waveform.eval(theta)
        scale = np.max(np.abs(ds))
        np.testing.assert_allclose(delay_waveform.signal(theta), s, rtol=0,
                                   atol=1e-13)
        np.testing.assert_allclose(ev.s, s, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ev.ds_dtheta / scale, ds / scale, rtol=0,
                                   atol=1e-13)

    def test_signal_is_the_eval_signal(self, delay_waveform):
        theta = 0.37 * delay_waveform.code.chip_duration
        np.testing.assert_array_equal(delay_waveform.signal(theta),
                                      delay_waveform.eval(theta).s)


class TestPilotWaveform:
    def make(self):
        code = CodeSequence(np.array([1, -1, 1, -1, 1, -1, 1, -1, 1, 1],
                                     dtype=float), 1e-6)
        return make_pilot_waveform(code)

    def test_unit_power(self):
        pilot = self.make().pilot
        assert np.mean(pilot**2) == pytest.approx(1.0, abs=1e-12)

    def test_structure(self):
        wf = self.make()
        even = wf.pilot[0::2]
        odd = wf.pilot[1::2]
        # even samples carry the symbols, odd samples their midpoints
        np.testing.assert_allclose(odd, 0.5 * (even + np.roll(even, -1)),
                                   atol=1e-12)

    def test_eval_is_linear_in_gain(self):
        wf = self.make()
        ev = wf.eval(0.7)
        np.testing.assert_allclose(ev.s, 0.7 * wf.pilot)
        np.testing.assert_allclose(ev.ds_dtheta, wf.pilot)
        np.testing.assert_array_equal(wf.signal(0.7), ev.s)

    def test_nonfinite_gain_rejected(self):
        with pytest.raises(ValueError):
            self.make().signal(np.nan)

    def test_rejects_unnormalized_pilot(self):
        from onebit_tracking.signals import LinearGainWaveform
        with pytest.raises(ValueError):
            LinearGainWaveform(np.array([2.0, 2.0]))
