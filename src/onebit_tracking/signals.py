"""Deterministic sampled waveforms and their parameter derivatives.

Two waveform families are supported:

* delay-modulated spreading waveforms (periodic code, band-limited
  rectangular chip pulse, parameter = time delay in seconds),
* linear-gain pilot waveforms (fixed pilot vector, parameter = channel
  gain, dimensionless).

Both are evaluated on a block grid sampled at f_s = 2B and expose the
signal vector together with its derivative with respect to the
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CA_CODE_LENGTH = 1023

# G2 output delay (chips) for GPS PRN 1..32, per the interface spec.
_G2_DELAY = (
    5, 6, 7, 8, 17, 18, 139, 140, 141, 251,
    252, 254, 255, 256, 257, 258, 469, 470, 471, 472,
    473, 474, 509, 512, 513, 514, 515, 516, 859, 860,
    861, 862,
)


class CodeFileError(ValueError):
    """Raised when a code file cannot be parsed."""


@dataclass(frozen=True)
class CodeSequence:
    """Binary spreading sequence with +-1 symbols and a chip duration."""

    symbols: np.ndarray        # +-1.0, length C
    chip_duration: float       # seconds

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=float)
        if symbols.ndim != 1 or symbols.size < 1:
            raise ValueError("code must be a non-empty 1-d sequence")
        if not np.all(np.abs(symbols) == 1.0):
            raise ValueError("code symbols must be +1 or -1")
        object.__setattr__(self, "symbols", symbols)

    @property
    def length(self) -> int:
        return self.symbols.size

    @property
    def period(self) -> float:
        """Code period C * T_c in seconds."""
        return self.length * self.chip_duration


def generate_gps_ca_code(prn: int, chip_duration: float = 1.0 / 1.023e6) -> CodeSequence:
    """Generate the 1023-chip GPS C/A Gold code for a PRN in 1..32.

    Two 10-stage LFSRs (G1: taps 3,10; G2: taps 2,3,6,8,9,10) are run
    from the all-ones state; the C/A chips are G1 xor the delayed G2
    output.  Code bit 1 maps to +1, bit 0 to -1.
    """
    if not isinstance(prn, (int, np.integer)) or isinstance(prn, bool):
        raise ValueError(f"PRN must be an integer, got {prn!r}")
    if not 1 <= prn <= 32:
        raise ValueError(f"PRN must be in 1..32, got {prn}")
    g1 = [1] * 10
    g2 = [1] * 10
    g1_out = np.empty(CA_CODE_LENGTH, dtype=int)
    g2_out = np.empty(CA_CODE_LENGTH, dtype=int)
    for i in range(CA_CODE_LENGTH):
        g1_out[i] = g1[9]
        g2_out[i] = g2[9]
        fb1 = g1[2] ^ g1[9]
        fb2 = g2[1] ^ g2[2] ^ g2[5] ^ g2[7] ^ g2[8] ^ g2[9]
        g1 = [fb1] + g1[:9]
        g2 = [fb2] + g2[:9]
    chips = g1_out ^ np.roll(g2_out, _G2_DELAY[prn - 1])
    return CodeSequence(np.where(chips == 1, 1.0, -1.0), chip_duration)


def load_code_from_file(path, chip_duration: float = 1.0 / 1.023e6) -> CodeSequence:
    """Read a code file with one symbol (+1/-1 or 1/0) per line; 0 maps to -1."""
    symbols = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                continue
            if token in ("1", "+1"):
                symbols.append(1.0)
            elif token in ("0", "-1"):
                symbols.append(-1.0)
            else:
                raise CodeFileError(f"{path}: line {lineno}: invalid symbol {token!r}")
    if not symbols:
        raise CodeFileError(f"{path}: no symbols found")
    return CodeSequence(np.array(symbols), chip_duration)


@dataclass(frozen=True)
class WaveformEval:
    """Signal samples and their derivative with respect to the parameter."""

    s: np.ndarray
    ds_dtheta: np.ndarray


@dataclass(frozen=True)
class DelayWaveform:
    """Periodic band-limited spreading waveform, parameterized by delay.

    One code period is represented by its Fourier series truncated to the
    one-sided bandwidth B = 1/T_c; the harmonic amplitudes carry the
    sinc shaping of the rectangular chip pulse.  Sampling at f_s = 2B
    puts N = 2C samples in one period, so processing blocks are
    phase-aligned with the code period.  Fractional delays and the delay
    derivative are evaluated exactly in the spectral domain.
    """

    code: CodeSequence
    spectrum: np.ndarray = field(repr=False)       # length-N complex DFT coefficients
    frequencies: np.ndarray = field(repr=False)    # Hz, fftfreq layout

    @property
    def samples_per_block(self) -> int:
        return self.spectrum.size

    @property
    def bandwidth(self) -> float:
        return 1.0 / self.code.chip_duration

    @property
    def sample_rate(self) -> float:
        return 2.0 * self.bandwidth

    @property
    def period(self) -> float:
        return self.code.period

    def eval(self, theta: float) -> WaveformEval:
        """Evaluate s(theta) and ds/dtheta for a delay theta in seconds.

        Blocks span exactly one code period, so every block sees the
        same waveform.
        """
        if not np.isfinite(theta):
            raise ValueError(f"delay must be finite, got {theta!r}")
        phase = np.exp(-2j * np.pi * self.frequencies * theta)
        s = np.fft.ifft(self.spectrum * phase).real
        ds = np.fft.ifft(self.spectrum * phase * (-2j * np.pi * self.frequencies)).real
        return WaveformEval(s, ds)

    def baseband_table(self, oversampling: int) -> np.ndarray:
        """Waveform on a grid oversampled by the given integer factor.

        Used by the fast per-block likelihood evaluators; the table spans
        one code period with oversampling * N points.
        """
        n = self.samples_per_block
        fine = np.zeros(oversampling * n, dtype=complex)
        half = n // 2
        fine[:half] = self.spectrum[:half]
        fine[-half:] = self.spectrum[-half:]
        return np.fft.ifft(fine).real * oversampling


def make_delay_waveform(code: CodeSequence) -> DelayWaveform:
    """Build the band-limited rectangular-pulse waveform for a code.

    The periodic chip waveform sum_c b_c g(t - c T_c) with rectangular
    g(t) has Fourier coefficients B_m * sinc(m/C); harmonics up to the
    receiver bandwidth B = 1/T_c fit exactly on the N = 2C sample grid.
    The spectrum is scaled for unit average sample power, which phase
    rotation then preserves for every delay (the Nyquist harmonic is
    zero because sinc(+-1) = 0).
    """
    c = code.length
    n = 2 * c
    code_dft = np.fft.fft(code.symbols)
    m = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)   # harmonic index
    spectrum = code_dft[m % c] * np.sinc(m / c)
    power = np.sum(np.abs(spectrum) ** 2) / n**2
    spectrum = spectrum / np.sqrt(power)
    freqs = np.fft.fftfreq(n, d=0.5 * code.chip_duration)
    return DelayWaveform(code=code, spectrum=spectrum, frequencies=freqs)


@dataclass(frozen=True)
class LinearGainWaveform:
    """Pilot waveform observed through a linear gain parameter."""

    pilot: np.ndarray

    def __post_init__(self):
        pilot = np.asarray(self.pilot, dtype=float)
        power = np.mean(pilot**2)
        if abs(power - 1.0) > 1e-9:
            raise ValueError(f"pilot must have unit average power, got {power}")
        object.__setattr__(self, "pilot", pilot)

    @property
    def samples_per_block(self) -> int:
        return self.pilot.size

    def eval(self, theta: float) -> WaveformEval:
        if not np.isfinite(theta):
            raise ValueError(f"gain must be finite, got {theta!r}")
        return WaveformEval(theta * self.pilot, self.pilot)


def make_pilot_waveform(code: CodeSequence) -> LinearGainWaveform:
    """Build the sampled Nyquist-pulse pilot for a symbol sequence.

    The pilot uses a raised-cosine pulse with roll-off 1, the unique
    raised cosine whose bandwidth equals the symbol rate 1/T_c; at
    f_s = 2B the even samples are the symbols and the odd samples are
    the midpoints (b_c + b_{c+1})/2 of adjacent symbols.  The result is
    normalized to unit average power.
    """
    b = code.symbols
    n = 2 * b.size
    pilot = np.empty(n)
    pilot[0::2] = b
    pilot[1::2] = 0.5 * (b + np.roll(b, -1))
    pilot *= np.sqrt(n / np.sum(pilot**2))
    return LinearGainWaveform(pilot)
