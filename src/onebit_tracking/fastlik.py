"""Vectorized per-block likelihood evaluators for the particle filters.

A naive particle filter evaluates the waveform and the N-sample
log-likelihood once per particle and block, which is far too slow for
Monte-Carlo use with N = 2046.  For the delay waveform the 1-bit block
log-likelihood splits exactly into a data-independent part and a
cross-correlation with the observed signs:

    sum_n log Q(-g r_n s_n(th)) = sum_n ge(g s_n(th)) + sum_n r_n go(g s_n(th))

with the even/odd parts ge(a) = (log Q(-a) + log Q(a))/2 and
go(a) = (log Q(-a) - log Q(a))/2 of log Q(-a) (valid because r_n is
+-1).  Both terms are periodic functions of the delay; the correlation
term is evaluated for all particles at once from one real length-N FFT
of the signs, a pointwise product against the precomputed
non-negative-frequency spectra of the M polyphase components of the
oversampled table (the other half of the spectrum is its mirror image,
since both are real), and M batched length-N inverse FFTs (one per
fractional lag) run in place in that buffer.  The even-part sum depends
only on the fractional lag, so it is added to the M lag columns and one
cubic interpolation gives the whole likelihood.  The ideal-receiver
likelihood reduces to the classical correlation gamma * y^T s(th) plus
constants.

Linear-gain pilots need no spectral machinery: samples share a handful
of distinct amplitudes, so the block log-likelihood collapses to sign
counts per amplitude group.
"""

from __future__ import annotations

import numpy as np

from .channel import log_q
from .info import log_q_pair
from .signals import DelayWaveform, LinearGainWaveform

DEFAULT_OVERSAMPLING = 8

# offsets of the four Catmull-Rom taps from floor(pos)
_TAPS = np.arange(-1, 3)


def periodic_cubic_interp(table: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Catmull-Rom interpolation of a periodic table at fractional indices."""
    n = table.size
    i = np.floor(pos).astype(np.int64)
    f = pos - i
    # floor(pos) wrapped into [-2, n - 3] puts all four taps in [-3, n - 1],
    # valid indices (negative ones count from the end): one gather, which
    # unlike take() reads a strided table without copying it
    pm1, p0, p1, p2 = table[np.add.outer(_TAPS, (i + 2) % n - 2)]
    return 0.5 * (2.0 * p0 + f * ((p1 - pm1)
                  + f * ((2.0 * pm1 - 5.0 * p0 + 4.0 * p1 - p2)
                  + f * (3.0 * (p0 - p1) + p2 - pm1))))


class _DelayCorrelator:
    """Shared spectral plumbing for the delay-waveform likelihoods."""

    def __init__(self, waveform: DelayWaveform, table: np.ndarray):
        m = DEFAULT_OVERSAMPLING
        n = table.size // m
        # Polyphase columns P[i, q] = table[(i*M - q) mod MN], as the
        # non-negative-frequency half of their spectra (they are real)
        phases = table[(np.arange(n)[:, None] * m - np.arange(m)) % table.size]
        self.phase_spectra_conj = np.conj(np.fft.rfft(phases, axis=0))
        # theta -> fine-grid index; one fine step is T_s / oversampling
        self.pos_scale = m * waveform.sample_rate

    def correlate(self, block: np.ndarray) -> np.ndarray:
        """C(j) = sum_n block_n * table[(n*M - j) mod MN] for all fine lags j.

        Lag j = a*M + q is lag a of the length-N circular correlation of
        the block with polyphase column q, so one length-N FFT of the
        block and M batched length-N inverse FFTs give all M*N lags,
        laid out (N, M) so that the flattened buffer is in lag order.
        The block and the columns are real, so the product spectrum is
        conjugate-symmetric: the real FFT of the block fills the
        non-negative frequencies of the buffer, their mirror image the
        rest, and the inverse FFT runs in place.
        """
        n, half = block.size, self.phase_spectra_conj.shape[0]
        spec = np.empty((n, DEFAULT_OVERSAMPLING), dtype=complex)
        np.multiply(np.fft.rfft(block)[:, None], self.phase_spectra_conj,
                    out=spec[:half])
        np.conjugate(spec[(n - 1) // 2:0:-1], out=spec[half:])
        return np.fft.ifft(spec, axis=0, out=spec).ravel().real


class OneBitDelayLikelihood:
    """Exact-per-split 1-bit block log-likelihood, vectorized over delays."""

    def __init__(self, waveform: DelayWaveform, gamma: float):
        fine = gamma * waveform.baseband_table(DEFAULT_OVERSAMPLING).s
        # log Q(|a|) and log Q(-|a|): the odd part carries the sign of a
        tail, body = log_q_pair(fine)
        odd = np.copysign(0.5 * (body - tail), fine)
        even = 0.5 * (tail + body)
        self._corr = _DelayCorrelator(waveform, odd)
        # The even-part sum over one block is periodic in theta with
        # period T_s (a one-sample shift relabels the block samples), so
        # only the M fractional offsets within one sample are needed;
        # fine lag a*M + q takes the q-th, so the M sums repeat over the
        # M*N lags of the correlation
        m, mn = DEFAULT_OVERSAMPLING, fine.size
        sample_idx = np.arange(waveform.samples_per_block) * m
        self._even_lags = np.tile([even[(sample_idx - j) % mn].sum()
                                   for j in range(m)], mn // m)

    def __call__(self, onebit: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        # both terms on the same lags: one interpolation
        lags = self._corr.correlate(onebit) + self._even_lags
        pos = np.asarray(thetas) * self._corr.pos_scale
        return periodic_cubic_interp(lags, pos)


class IdealDelayLikelihood:
    """Ideal-receiver block log-likelihood for the delay waveform.

    Up to theta-free constants that are included for comparability,
    log p(y | th) = gamma * y^T s(th) - (gamma^2 N + N log(2 pi)
    + ||y||^2) / 2, using that ||s(th)||^2 = N for every delay.
    """

    def __init__(self, waveform: DelayWaveform, gamma: float):
        fine = waveform.baseband_table(DEFAULT_OVERSAMPLING).s
        self._corr = _DelayCorrelator(waveform, fine)
        self._gamma = gamma
        n = waveform.samples_per_block
        self._const = -0.5 * n * (gamma**2 + np.log(2.0 * np.pi))

    def __call__(self, y: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        corr = self._corr.correlate(y)
        pos = np.asarray(thetas) * self._corr.pos_scale
        return (self._gamma * periodic_cubic_interp(corr, pos)
                + self._const - 0.5 * float(np.dot(y, y)))


class OneBitLinearLikelihood:
    """1-bit block log-likelihood for the linear-gain pilot model.

    Pilot samples with equal magnitude are interchangeable given the
    sign data, so the likelihood reduces to counts of agreeing and
    disagreeing signs per distinct amplitude; zero-amplitude samples
    contribute the constant log(1/2) each.
    """

    def __init__(self, waveform: LinearGainWaveform, gamma: float):
        pilot = gamma * waveform.pilot
        magnitudes = np.abs(pilot)
        values = np.unique(magnitudes[magnitudes > 0])
        groups = magnitudes == values[:, None]
        self._sizes = groups.sum(axis=1)
        # one signed indicator row per magnitude: sign(pilot) on its samples
        self._signed = groups * np.sign(pilot)
        self._zero_const = np.log(0.5) * int(np.sum(magnitudes == 0))
        # log Q arguments -v theta for every group, then +v theta
        self._slopes = np.concatenate([-values, values])

    def __call__(self, onebit: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        # +-1 signs: the agreeing count (size + signed . onebit) / 2 is an
        # exact integer in floats
        n_pos = 0.5 * (self._sizes + self._signed @ onebit)
        n_neg = self._sizes - n_pos
        lq = log_q(np.multiply.outer(self._slopes, thetas))
        out = self._zero_const      # a unit-power pilot has a nonzero group
        for pos, neg, lq_pos, lq_neg in zip(n_pos.tolist(), n_neg.tolist(),
                                            lq[:n_pos.size], lq[n_pos.size:]):
            out = out + (pos * lq_pos + neg * lq_neg)
        return out


class IdealLinearLikelihood:
    """Gaussian block log-likelihood for the linear-gain pilot model."""

    def __init__(self, waveform: LinearGainWaveform, gamma: float):
        self._pilot = gamma * waveform.pilot
        self._energy = float(np.dot(self._pilot, self._pilot))
        self._const = -0.5 * self._pilot.size * np.log(2.0 * np.pi)

    def __call__(self, y: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        proj = float(np.dot(y, self._pilot))
        return (self._const - 0.5 * float(np.dot(y, y))
                + thetas * proj - 0.5 * thetas**2 * self._energy)


def make_likelihood(waveform, gamma: float, receiver: str):
    """Factory returning the fast evaluator for a waveform/receiver pair."""
    if isinstance(waveform, DelayWaveform):
        cls = OneBitDelayLikelihood if receiver == "onebit" else IdealDelayLikelihood
        return cls(waveform, gamma)
    if isinstance(waveform, LinearGainWaveform):
        cls = OneBitLinearLikelihood if receiver == "onebit" else IdealLinearLikelihood
        return cls(waveform, gamma)
    raise TypeError(f"unsupported waveform type {type(waveform)!r}")
