import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2, chisquare

import _oracles

from ebqkd import chsh, measurement, optics, protocol, security
from ebqkd.measurement import AnalyzerSetting, CoincidenceRow, CoincidenceTable, DetectorModel
from ebqkd.optics import ChannelModel, SourceModel
from ebqkd.protocol import (
    BBM92,
    E91,
    EmptyBasisError,
    NoSiftedBitsError,
    ProtocolKind,
    SessionConfig,
    _BLOCK,
    _complement,
    estimate,
    protocol_by_name,
    run_session,
    security_report,
    sift,
)
from ebqkd.qstate import BellLabel
from ebqkd.security import evaluate

SQ2 = math.sqrt(2.0)


def config(**kwargs) -> SessionConfig:
    defaults = dict(
        kind=BBM92,
        source=SourceModel(BellLabel.PHI_PLUS),
        channel=ChannelModel.identity(),
        detector=DetectorModel(efficiency=1.0),
        n_pairs=200_000,
        qber_sample_fraction=0.2,
        seed=12,
    )
    defaults.update(kwargs)
    return SessionConfig(**defaults)


def binom_5sigma(p, n):
    return 5 * math.sqrt(p * (1 - p) / n)


class TestProtocolKinds:
    def test_bbm92_layout(self):
        assert BBM92.alice_hwp_deg == (0.0, 22.5)
        assert BBM92.matched_pairs() == ((0, 0), (1, 1))
        assert BBM92.chsh_pairs == ()

    def test_e91_layout(self):
        assert E91.alice_hwp_deg == (0.0, 11.25, 22.5)
        assert E91.bob_hwp_deg == (11.25, 22.5, 33.75)
        assert E91.matched_pairs() == ((1, 0), (2, 1))
        # CHSH pairs sit at the canonical polarization angles.
        pols = [
            (2 * E91.alice_hwp_deg[i], 2 * E91.bob_hwp_deg[j]) for i, j in E91.chsh_pairs
        ]
        assert pols == [(0, 22.5), (0, 67.5), (45, 22.5), (45, 67.5)]

    def test_cells_fit_in_uint8(self):
        # A cell is (a * n_b + b) * 4 + outcome and the counts table adds one
        # overflow cell, so at most 63 setting pairs fit.
        ProtocolKind("7x9", tuple(range(7)), tuple(range(9)))
        with pytest.raises(ValueError, match="63 setting pairs"):
            ProtocolKind("8x8", tuple(range(8)), tuple(range(8)))

    def test_lookup_by_name(self):
        assert protocol_by_name("BBM92") is BBM92
        with pytest.raises(ValueError):
            protocol_by_name("bb84")


def random_stream(kind, n, seed):
    """Alice and Bob setting indices, outcomes and their cells for ``n`` pairs."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, len(kind.alice_hwp_deg), n)
    b = rng.integers(0, len(kind.bob_hwp_deg), n)
    outcomes = rng.integers(0, 4, n).astype(np.uint8)
    return a, b, outcomes, cells_of(kind, a, b, outcomes)


def cells_of(kind, a, b, outcomes):
    return ((a * len(kind.bob_hwp_deg) + b) * 4 + outcomes).astype(np.uint8)


class TestSift:
    def test_all_matched_kept(self):
        cells = np.arange(10, dtype=np.uint8) % 4  # (H/V, H/V), every outcome
        res = sift(BBM92, BellLabel.PHI_PLUS, cells)
        np.testing.assert_array_equal(res.cells, cells)

    def test_bbm92_keep_fraction(self):
        n = 200_000
        *_, cells = random_stream(BBM92, n, 1)
        res = sift(BBM92, BellLabel.PHI_PLUS, cells)
        assert abs(res.cells.size / n - 0.5) < binom_5sigma(0.5, n)

    def test_e91_keep_fraction_two_ninths(self):
        n = 900_000
        *_, cells = random_stream(E91, n, 2)
        res = sift(E91, BellLabel.PSI_MINUS, cells)
        assert abs(res.cells.size / n - 2 / 9) < binom_5sigma(2 / 9, n)

    def test_order_preserving_and_outcome_blind(self):
        a, b, outcomes, cells = random_stream(BBM92, 5000, 3)
        kept, *_ = _oracles.sift_masked(BBM92, BellLabel.PHI_PLUS, a, b, outcomes)
        res = sift(BBM92, BellLabel.PHI_PLUS, cells)
        np.testing.assert_array_equal(res.cells, cells[kept])
        # permuting outcome labels must not change which events are kept
        permuted = cells_of(BBM92, a, b, ((outcomes + 1) % 4).astype(np.uint8))
        res2 = sift(BBM92, BellLabel.PHI_PLUS, permuted)
        np.testing.assert_array_equal(res2.cells, permuted[kept])

    @pytest.mark.parametrize("label", list(BellLabel))
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_matches_masked_oracle(self, kind, label):
        a, b, outcomes, cells = random_stream(kind, 20_000, [4, len(kind.bob_hwp_deg)])
        res = sift(kind, label, cells)
        kept, bits_a, bits_b = _oracles.sift_masked(kind, label, a, b, outcomes)
        assert np.array_equal(res.cells, cells[kept])
        assert np.array_equal(res.bits_alice, bits_a)
        assert np.array_equal(res.bits_bob, bits_b)
        assert bits_a.size and (bits_a != bits_b).any() and (bits_a == bits_b).any()

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_noiseless_agreement_every_label(self, label):
        # The per-basis flip rule aligns keys for every Bell family in BBM92.
        cfg = config(source=SourceModel(label), n_pairs=50_000, seed=21)
        rec = run_session(cfg)
        assert rec.qber_hat == 0.0
        np.testing.assert_array_equal(rec.key_bits_alice, rec.key_bits_bob)


class TestRunSession:
    def test_noiseless_bbm92(self):
        cfg = config(n_pairs=1_000_000, seed=7)
        rec = run_session(cfg)
        assert abs(rec.sifted_length / rec.n_coincident - 0.5) < binom_5sigma(0.5, rec.n_coincident)
        assert rec.qber_hat <= 1e-4
        assert rec.disclosed_length + rec.key_bits_alice.size == rec.sifted_length
        assert rec.key_bits_alice.size == rec.key_bits_bob.size
        assert rec.key_bits_alice.dtype == rec.key_bits_bob.dtype == np.uint8

    def test_werner_qber_both_bases(self):
        cfg = config(channel=ChannelModel.werner(0.9), n_pairs=400_000, seed=8)
        rec = run_session(cfg)
        for pol in (0.0, 45.0):
            n_basis = rec.disclosed_length / 2
            assert abs(rec.per_basis_qber[pol] - 0.05) < binom_5sigma(0.05, n_basis)

    def test_e91_chsh_subset_and_key_fraction(self):
        cfg = config(
            kind=E91,
            source=SourceModel(BellLabel.PSI_MINUS),
            n_pairs=1_000_000,
            seed=9,
        )
        rec = run_session(cfg)
        frac = rec.sifted_length / rec.n_coincident
        assert abs(frac - 2 / 9) < binom_5sigma(2 / 9, rec.n_coincident)
        assert rec.chsh_subset is not None
        assert abs(rec.chsh_subset.s - 2 * SQ2) < 5 * rec.chsh_subset.sigma_s
        assert rec.qber_hat <= 1e-4

    def test_full_interception_qber(self):
        cfg = config(channel=ChannelModel.intercept_resend(1.0), n_pairs=400_000, seed=10)
        rec = run_session(cfg)
        assert abs(rec.qber_hat - 0.25) < binom_5sigma(0.25, rec.disclosed_length)

    def test_half_interception_qber(self):
        cfg = config(channel=ChannelModel.intercept_resend(0.5), n_pairs=400_000, seed=11)
        rec = run_session(cfg)
        assert abs(rec.qber_hat - 0.125) < binom_5sigma(0.125, rec.disclosed_length)

    def test_zero_interception_matches_identity_channel(self):
        rec_eve0 = run_session(config(channel=ChannelModel.intercept_resend(0.0), seed=13))
        rec_ident = run_session(config(channel=ChannelModel.identity(), seed=13))
        assert rec_eve0.qber_hat == rec_ident.qber_hat
        np.testing.assert_array_equal(rec_eve0.key_bits_alice, rec_ident.key_bits_alice)

    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_trace_rounded_above_one_at_full_efficiency(self, kind):
        # This depolarized non-maximal state has trace 1 + 2^-52 by rounding;
        # at efficiency 1 every pair is coincident.
        source, channel = SourceModel(BellLabel.PHI_PLUS, epsilon_rad=0.627), ChannelModel.depolarizing(0.2)
        assert optics.apply_channel(optics.generate(source), channel).bloch[0, 0] > 1.0
        rec = run_session(config(kind=kind, source=source, channel=channel, n_pairs=100_000, seed=15))
        assert rec.n_coincident == rec.n_pairs

    def test_determinism(self):
        cfg = config(channel=ChannelModel.werner(0.85), detector=DetectorModel(0.6), seed=14)
        a = run_session(cfg)
        b = run_session(cfg)
        assert a.sifted_length == b.sifted_length
        assert a.qber_hat == b.qber_hat
        assert a.per_basis_qber == b.per_basis_qber
        np.testing.assert_array_equal(a.key_bits_alice, b.key_bits_alice)
        np.testing.assert_array_equal(a.key_bits_bob, b.key_bits_bob)

    def test_qber_estimator_unbiased(self):
        # 100 sessions at Werner 0.9: the mean estimate sits on 0.05.
        estimates = []
        for seed in range(100):
            cfg = config(
                channel=ChannelModel.werner(0.9),
                n_pairs=20_000,
                qber_sample_fraction=0.5,
                seed=seed,
            )
            estimates.append(run_session(cfg).qber_hat)
        mean = float(np.mean(estimates))
        se = float(np.std(estimates, ddof=1) / math.sqrt(len(estimates)))
        assert abs(mean - 0.05) < 3 * se

    def test_no_sifted_bits_error(self):
        cfg = config(detector=DetectorModel(efficiency=1e-9), n_pairs=100, seed=15)
        with pytest.raises(NoSiftedBitsError, match="no sifted bits"):
            run_session(cfg)

    def test_disclosed_sample_missing_a_basis_raises(self):
        # One disclosed bit covers one basis; the other basis has no QBER
        # estimate and must not borrow one.
        cfg = config(n_pairs=20, qber_sample_fraction=0.01, seed=3)
        with pytest.raises(EmptyBasisError, match="zero coincidences in the compatible basis"):
            run_session(cfg)

    def test_e91_empty_chsh_row_raises(self):
        # A session's own table with the (45, 67.5) CHSH row emptied, both
        # key bases still disclosed: the estimator the session runs raises,
        # with no fallback to the linear law.
        cfg = config(kind=E91, source=SourceModel(BellLabel.PSI_MINUS), n_pairs=20_000, seed=4)
        rec = run_session(cfg)
        settings = chsh.canonical_settings(BellLabel.PSI_MINUS)
        empty = (settings.a_prime.polarization_angle_deg, settings.b_prime.polarization_angle_deg)
        assert empty == (45.0, 67.5)
        rows = tuple(
            CoincidenceRow(r.a, r.b, 0, 0, 0, 0) if (r.a, r.b) == (settings.a_prime, settings.b_prime) else r
            for r in rec.counts.rows
        )
        assert rec.counts.find(settings.a_prime, settings.b_prime).total > 0
        assert all(rec.counts.find(a, b).total > 0 for a, b in E91.key_pairs())
        with pytest.raises(chsh.IncompleteTableError, match=r"\(45, 67.5\)"):
            estimate(CoincidenceTable(rows), BellLabel.PSI_MINUS, E91, settings)

    def test_counts_table_reproduces_record(self):
        cfg = config(kind=E91, source=SourceModel(BellLabel.PSI_MINUS), n_pairs=100_000, seed=4)
        rec = run_session(cfg)
        settings = chsh.canonical_settings(BellLabel.PSI_MINUS)
        matched = [rec.counts.find(a, b) for a, b in E91.key_pairs()]
        assert sum(row.total for row in matched) == rec.disclosed_length
        chsh_rows = [rec.counts.find(a, b) for a, b in settings.pairs()]
        assert sum(row.total for row in chsh_rows) + rec.sifted_length <= rec.n_coincident
        est = estimate(rec.counts, BellLabel.PSI_MINUS, E91, settings)
        assert est.chsh == rec.chsh_subset
        assert (est.qber, est.per_basis_qber, est.qber_ci) == (rec.qber_hat, rec.per_basis_qber, rec.qber_ci)

    def test_dark_counts_enter_stream(self):
        cfg = config(
            detector=DetectorModel(efficiency=1.0, dark_rate=0.05),
            n_pairs=100_000,
            seed=16,
        )
        rec = run_session(cfg)
        # ~5000 accidentals on 100k pairs: half sift in, a quarter of those err
        assert rec.n_coincident > 100_000
        assert 0.002 < rec.qber_hat < 0.03

    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_count_fields_are_python_ints(self, kind):
        # numpy counts (np.count_nonzero gives numpy.int64) would reach the
        # JSON report, which json.dumps cannot write.
        cfg = config(kind=kind, detector=DetectorModel(0.8, dark_rate=0.01), n_pairs=50_000, seed=16)
        rec = run_session(cfg)
        assert type(rec.n_coincident) is int
        assert type(rec.sifted_length) is int
        assert type(rec.disclosed_length) is int

    def test_impossible_n_pairs_fails_before_any_draw(self, monkeypatch):
        # The n-byte cell buffer is allocated before the first block; 2**62
        # bytes exceed the address space whatever the overcommit mode.
        def no_draw(*args):
            raise AssertionError("sample_outcome_stream called")

        monkeypatch.setattr(protocol, "sample_outcome_stream", no_draw)
        with pytest.raises(MemoryError):
            run_session(config(n_pairs=2**62))

    def test_accidentals_that_exceed_the_address_space_name_the_dark_rate(self):
        # 1e18 expected accidentals pass the Poisson sampler but not memory.
        cfg = config(detector=DetectorModel(dark_rate=1e12), n_pairs=1_000_000)
        with pytest.raises(protocol.AccidentalsMemoryError, match=r"^detector\.dark_rate: 1e\+18 expected"):
            run_session(cfg)

    def test_accidentals_past_the_poisson_limit_are_rejected(self):
        limit = protocol._POISSON_LAM_MAX
        config(detector=DetectorModel(dark_rate=limit), n_pairs=1)
        np.random.default_rng(0).poisson(limit)
        for dark_rate in (float(np.nextafter(limit, math.inf)), 1e30):
            with pytest.raises(ValueError, match=r"^detector\.dark_rate gives .* Poisson sampler's limit"):
                config(detector=DetectorModel(dark_rate=dark_rate), n_pairs=1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config(n_pairs=0)
        with pytest.raises(ValueError):
            config(qber_sample_fraction=0.0)

    def test_wilson_interval_brackets_estimate(self):
        rec = run_session(config(channel=ChannelModel.werner(0.9), seed=17))
        lo, hi = rec.qber_ci
        assert lo <= rec.qber_hat <= hi
        assert 0.0 <= lo < hi <= 1.0


class TestMixedDisturbances:
    def test_session_points_sit_on_model_line(self):
        # End-to-end: sampled (delta, S_model) from whole sessions track the
        # linear law for a visibility-degraded imbalanced source.
        from ebqkd.security import s_model

        cfg = config(
            source=SourceModel(BellLabel.PHI_PLUS, epsilon_rad=0.6, hom_visibility=0.95),
            n_pairs=400_000,
            seed=30,
        )
        rec = run_session(cfg)
        rep = security_report(cfg, rec)
        sigma = math.sqrt(0.25 / rec.disclosed_length)
        assert abs(rep.s_model_value - s_model(rep.delta)) < 1e-12
        expected_delta = (1 - 0.95 * math.sin(2 * 0.6)) / 4
        assert abs(rep.delta - expected_delta) < 5 * sigma

    @pytest.mark.parametrize("label", [BellLabel.PHI_MINUS, BellLabel.PSI_PLUS])
    def test_e91_uncorrelated_basis_bits_are_unflipped(self, label):
        # The 22.5-degree basis is uncorrelated for phi- and psi+, so Bob
        # keeps his raw bit there: errors are exactly the unequal outcomes.
        rng = np.random.default_rng(5)
        n = 1000
        outcomes = rng.integers(0, 4, n).astype(np.uint8)
        res = sift(E91, label, cells_of(E91, np.full(n, 1), np.full(n, 0), outcomes))
        np.testing.assert_array_equal(res.bits_alice != res.bits_bob, (outcomes == 1) | (outcomes == 2))

    def test_degenerate_e91_label_runs_without_error(self):
        # phi- sits badly in E91's rotated bases: zero correlation at the
        # 22.5-degree matched basis (coin-flip bits), perfect anticorrelation
        # at 45.  The session still completes, with ~25% pooled error.
        cfg = config(
            kind=E91, source=SourceModel(BellLabel.PHI_MINUS), n_pairs=100_000, seed=31
        )
        rec = run_session(cfg)
        assert rec.per_basis_qber[22.5] == pytest.approx(0.5, abs=0.05)
        assert rec.per_basis_qber[45.0] == pytest.approx(0.0, abs=0.01)
        assert rec.qber_hat == pytest.approx(0.25, abs=0.03)
        # The state is still maximally entangled, so the CHSH subset clears
        # the Tsirelson-level violation and the key rate sits at ~zero: the
        # loss is basis misalignment, not leakage.
        rep = security_report(cfg, rec)
        assert rec.chsh_subset.s == pytest.approx(2 * SQ2, abs=5 * rec.chsh_subset.sigma_s)
        assert rep.i_ae == pytest.approx(0.0, abs=0.05)
        assert abs(rep.r) < 0.05
        assert not rep.collective_bound_ok


def peak_bytes_per_pair(cfg: SessionConfig) -> float:
    tracemalloc.start()
    try:
        run_session(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / cfg.n_pairs


SESSION_CHANNELS = [ChannelModel.werner(0.9), ChannelModel.intercept_resend(0.25)]


class TestSessionMemory:
    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_peak_bytes_per_pair(self, kind, channel):
        # Per-pair arrays are uint8 or bool once drawn; the only 8-byte ones
        # are a block's intp bucket index (the take of its uint16 lanes) and
        # the disclosure draw's indices over the sifted bits.
        cfg = config(kind=kind, channel=channel, detector=DetectorModel(), n_pairs=250_000, seed=3)
        assert peak_bytes_per_pair(cfg) <= 32.0

    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_one_block_peak_bytes_per_pair(self, kind, channel):
        # Two blocks' worth of pairs: a block draws 2 bytes of raw words per
        # pair, not a float64 uniform, its float64 product and an intp bucket.
        cfg = config(kind=kind, channel=channel, detector=DetectorModel(), n_pairs=250_000, seed=3)
        assert peak_bytes_per_pair(cfg) <= 10.0

    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_peak_bytes_per_pair_at_bench_size(self, kind, channel):
        # Pairs are drawn in fixed blocks: beyond one block only the
        # coincident cells (one byte per pair, allocated once) and the
        # sifted indices grow with n_pairs.
        cfg = config(kind=kind, channel=channel, detector=DetectorModel(), n_pairs=2_000_000, seed=3)
        assert peak_bytes_per_pair(cfg) <= 10.0

    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_peak_slope_per_pair(self, kind, channel):
        # Beyond the constant block arrays, peak memory grows by the cell
        # buffer (one byte per pair) and by what sifting and the disclosure
        # draw keep per kept coincidence, not by eight bytes per coincidence.
        cfgs = [
            config(kind=kind, channel=channel, detector=DetectorModel(), n_pairs=n, seed=3)
            for n in (2_000_000, 8_000_000)
        ]
        small, large = (peak_bytes_per_pair(cfg) * cfg.n_pairs for cfg in cfgs)
        assert (large - small) / 6_000_000 <= 3.5


class TestSessionSampler:
    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    def test_stream_sampler_sees_every_pair_once_through_intercept_resend(self, monkeypatch, channel):
        # The bench counts the pairs of every sample_outcome_stream call: one
        # session must feed it exactly n_pairs pairs, block by block, all
        # drawn from the one joint CDF that intercept_resend builds.
        joints, calls = [], []
        resend, stream = protocol.intercept_resend, protocol.sample_outcome_stream

        def traced_resend(*args):
            joints.append(resend(*args))
            return joints[-1]

        def traced_stream(joint, stratum_idx, rng):
            calls.append((len(stratum_idx), joint is joints[-1]))
            return stream(joint, stratum_idx, rng)

        monkeypatch.setattr(protocol, "intercept_resend", traced_resend)
        monkeypatch.setattr(protocol, "sample_outcome_stream", traced_stream)
        cfg = config(kind=E91, channel=channel, n_pairs=2 * _BLOCK + 5)
        run_session(cfg)
        assert len(joints) == 1
        assert calls == [(_BLOCK, True), (_BLOCK, True), (5, True)]

    def test_block_size_does_not_change_the_record(self, monkeypatch):
        # A block draws nothing but one uniform per pair, so the blocks of a
        # session split one stream of uniforms wherever they fall.
        cfg = config(
            kind=E91, source=SourceModel(BellLabel.PHI_MINUS, epsilon_rad=0.7),
            channel=ChannelModel.intercept_resend(0.3), detector=DetectorModel(0.7, dark_rate=0.01),
            n_pairs=50_001,
        )
        whole = run_session(cfg)
        monkeypatch.setattr(protocol, "_BLOCK", 999)
        split = run_session(cfg)
        assert (split.n_coincident, split.counts, split.report) == (whole.n_coincident, whole.counts, whole.report)
        assert np.array_equal(split.key_bits_alice, whole.key_bits_alice)
        assert np.array_equal(split.key_bits_bob, whole.key_bits_bob)

    @pytest.mark.parametrize("block", [3, 4097])
    def test_block_sizes_that_cut_words_do_not_change_the_record(self, monkeypatch, block):
        # Blocks that end inside a word of four lanes carry its other lanes
        # over; split pairs refine from their own generator in stream order.
        cfg = config(
            kind=E91, source=SourceModel(BellLabel.PHI_MINUS, epsilon_rad=0.7),
            channel=ChannelModel.intercept_resend(0.3), detector=DetectorModel(0.7, dark_rate=0.01),
            n_pairs=50_001,
        )
        whole = run_session(cfg)
        monkeypatch.setattr(protocol, "_BLOCK", block)
        split = run_session(cfg)
        assert (split.n_coincident, split.counts, split.report) == (whole.n_coincident, whole.counts, whole.report)
        assert np.array_equal(split.key_bits_alice, whole.key_bits_alice)
        assert np.array_equal(split.key_bits_bob, whole.key_bits_bob)

    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_cells_match_model_and_strata_oracle(self, monkeypatch, kind, channel):
        # Coincident cells of run_session and of the per-pair strata engine
        # (Eve's three draws per pair), pooled over seeds, against the
        # kron/trace cell probabilities: both must fit, seed by seed too.
        captured = []
        stream = protocol.sample_outcome_stream

        def traced_stream(joint, stratum_idx, rng):
            captured.append(stream(joint, stratum_idx, rng))
            return captured[-1]

        monkeypatch.setattr(protocol, "sample_outcome_stream", traced_stream)
        source = SourceModel(BellLabel.PHI_PLUS, epsilon_rad=0.6)
        det = DetectorModel()
        rho = optics.apply_channel(optics.generate(source), channel).rho
        p = _oracles.cell_probabilities(kind, rho, channel.eve_fraction)
        n_cells, seeds = len(p), range(20)
        lib = np.zeros((len(seeds), n_cells), dtype=np.int64)
        ref = np.zeros_like(lib)
        for i, seed in enumerate(seeds):
            cfg = config(kind=kind, source=source, channel=channel, detector=det, n_pairs=20_000, seed=seed)
            run_session(cfg)
            drawn = np.concatenate(captured)
            captured.clear()
            lib[i] = np.bincount(drawn[drawn < n_cells], minlength=n_cells)
            cells = _oracles.session_cells_strata(
                kind, rho, det, channel.eve_fraction, 20_000, np.random.default_rng(seed)
            )
            ref[i] = np.bincount(cells, minlength=n_cells)
        for counts in (lib, ref):
            pooled = counts.sum(axis=0)
            assert chisquare(pooled, pooled.sum() * p).pvalue > 1e-3
            per_seed = sum(chisquare(c, c.sum() * p).statistic for c in counts)
            assert chi2.sf(per_seed, len(seeds) * (n_cells - 1)) > 1e-3


class TestSecurityReport:
    def test_bbm92_uses_model_s(self):
        cfg = config(channel=ChannelModel.werner(0.9), seed=18)
        rec = run_session(cfg)
        rep = security_report(cfg, rec)
        assert rep.s == pytest.approx(2 * SQ2 * (1 - 2 * rep.delta), abs=1e-12)

    def test_e91_uses_measured_s(self):
        cfg = config(kind=E91, source=SourceModel(BellLabel.PSI_MINUS), n_pairs=500_000, seed=19)
        rec = run_session(cfg)
        rep = security_report(cfg, rec)
        assert rep.s == pytest.approx(min(rec.chsh_subset.s, 2 * SQ2))

    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_evaluated_once_per_session(self, monkeypatch, kind):
        calls = []
        original = security.evaluate
        monkeypatch.setattr(security, "evaluate", lambda *a, **k: calls.append(a) or original(*a, **k))
        cfg = config(kind=kind, channel=ChannelModel.werner(0.9), seed=21)
        rec = run_session(cfg)
        rep = security_report(cfg, rec)
        assert len(calls) == 1
        settings = chsh.canonical_settings(cfg.source.label) if kind.chsh_pairs else None
        assert rep == rec.report == estimate(rec.counts, cfg.source.label, kind, settings).report

    def test_interception_kills_rate(self):
        cfg = config(channel=ChannelModel.intercept_resend(1.0), n_pairs=300_000, seed=20)
        rep = security_report(cfg, run_session(cfg))
        assert rep.r < 0
        assert not rep.mi_positive
        assert not rep.individual_bound_ok
        assert not rep.collective_bound_ok


def row(pol_a, pol_b, *counts):
    return CoincidenceRow(
        AnalyzerSetting.from_polarization(pol_a), AnalyzerSetting.from_polarization(pol_b), *counts
    )


class TestEstimate:
    def test_per_basis_pooled_and_report(self):
        table = CoincidenceTable((row(0, 0, 45, 3, 2, 50), row(45, 45, 40, 8, 2, 50)))
        est = estimate(table, BellLabel.PHI_PLUS, BBM92)
        assert est.per_basis_qber == {0.0: 5 / 100, 45.0: 10 / 100}
        assert est.qber == 15 / 200
        lo, hi = est.qber_ci
        assert lo < est.qber < hi
        assert est.chsh is None
        assert est.report == evaluate(0.05, 0.1)

    def test_errors_counted_against_the_label(self):
        # The singlet is anticorrelated in both bases: equal outcomes are errors.
        table = CoincidenceTable((row(0, 0, 3, 45, 50, 2), row(45, 45, 0, 50, 50, 0)))
        est = estimate(table, BellLabel.PSI_MINUS, BBM92)
        assert est.per_basis_qber == {0.0: 0.05, 45.0: 0.0}

    def test_empty_basis_raises(self):
        table = CoincidenceTable((row(0, 0, 50, 0, 0, 50), row(45, 45, 0, 0, 0, 0)))
        with pytest.raises(EmptyBasisError, match="compatible basis at 45 deg"):
            estimate(table, BellLabel.PHI_PLUS, BBM92)

    def test_missing_basis_row_raises(self):
        table = CoincidenceTable((row(0, 0, 50, 0, 0, 50),))
        with pytest.raises(chsh.IncompleteTableError, match="key basis at 45 deg"):
            estimate(table, BellLabel.PHI_PLUS, BBM92)

    def test_s_above_tsirelson_is_flagged_and_clamped(self):
        # Correlators of +-1 signed to match the CHSH combination give S = 4.
        settings = chsh.canonical_settings(BellLabel.PHI_PLUS)
        rows = [row(0, 0, 50, 0, 0, 50), row(45, 45, 50, 0, 0, 50)]
        rows += [
            CoincidenceRow(a, b, *((3, 0, 0, 3) if sign > 0 else (0, 3, 3, 0)))
            for (a, b), sign in zip(settings.pairs(), settings.signs)
        ]
        est = estimate(CoincidenceTable(tuple(rows)), BellLabel.PHI_PLUS, BBM92, settings)
        assert est.chsh.s == 4.0
        assert est.report.s_above_tsirelson
        assert est.report.s == 2 * SQ2
        assert est.report.r == 1.0

    def test_empty_chsh_row_raises(self):
        settings = chsh.canonical_settings(BellLabel.PHI_PLUS)
        rows = [row(0, 0, 50, 0, 0, 50), row(45, 45, 50, 0, 0, 50)]
        rows += [CoincidenceRow(a, b, 10, 1, 1, 10) for a, b in settings.pairs()[:3]]
        rows.append(CoincidenceRow(settings.a_prime, settings.b_prime, 0, 0, 0, 0))
        with pytest.raises(chsh.IncompleteTableError, match="zero total"):
            estimate(CoincidenceTable(tuple(rows)), BellLabel.PHI_PLUS, BBM92, settings)


class TestRetainedIndices:
    @pytest.mark.parametrize("seed", range(6))
    def test_complement_matches_setdiff1d(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5_000))
        taken = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        retained = _complement(n, taken)
        assert retained.dtype == bool and retained.size == n
        assert np.array_equal(np.flatnonzero(retained), np.setdiff1d(np.arange(n), taken))

    def test_complement_of_everything_is_empty(self):
        retained = _complement(3, np.array([2, 0, 1]))
        assert retained.size == 3 and not retained.any()
