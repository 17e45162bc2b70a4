"""Data-layer tests: CSV parsing edge cases, split arithmetic, window
extraction, standardisation, the synthetic generator, noise injection."""

import tracemalloc

import numpy as np
import pytest

from lino.data import (AR2_PHI1, AR2_PHI2, ETT_SPLIT_COUNTS, Span, SplitSpec, SynthSpec,
                       add_noise, chrono_split, load_csv, make_windows, prepare,
                       save_csv, standardize, synth_generate)
from lino.errors import ConfigError, DataError
from lino.seeding import stream


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_plain_numeric(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0\n3.5,4.5\n-1,0\n")
        values, columns = load_csv(path)
        np.testing.assert_array_equal(values, [[1.0, 2.0], [3.5, 4.5], [-1.0, 0.0]])
        assert columns == ["c0", "c1"]

    def test_header_and_date_column(self, tmp_path):
        path = self.write(tmp_path,
                          "date,HUFL,OT\n"
                          "2016-07-01 00:00:00,5.8,30.5\n"
                          "2016-07-01 01:00:00,5.2,27.8\n")
        values, columns = load_csv(path)
        assert columns == ["HUFL", "OT"]
        np.testing.assert_array_equal(values, [[5.8, 30.5], [5.2, 27.8]])

    def test_header_without_date(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3,4\n")
        values, columns = load_csv(path)
        assert columns == ["a", "b"]
        assert values.shape == (2, 2)

    def test_date_without_header(self, tmp_path):
        path = self.write(tmp_path, "2016-07-01,1.5\n2016-07-02,2.5\n")
        values, columns = load_csv(path)
        np.testing.assert_array_equal(values, [[1.5], [2.5]])

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="no data"):
            load_csv(self.write(tmp_path, ""))

    def test_ragged_row_named(self, tmp_path):
        with pytest.raises(DataError, match="row 3"):
            load_csv(self.write(tmp_path, "1,2\n3,4\n5\n"))

    def test_bad_cell_named(self, tmp_path):
        with pytest.raises(DataError, match="row 2, column 2"):
            load_csv(self.write(tmp_path, "1,2\n3,oops\n"))

    def test_rows_are_parsed_as_they_are_read(self, tmp_path):
        """Only the parsed values are kept, not every row's strings: the
        traced peak stays within 3x the array returned. Reading every row
        first peaked at 12x here."""
        path = str(tmp_path / "long.csv")
        save_csv(path, np.random.default_rng(4).normal(size=(4000, 7)), list("abcdefg"))
        tracemalloc.start()
        try:
            values, _ = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / values.nbytes
        assert ratio < 3, f"peak {ratio:.1f}x the values"

    def test_roundtrip_via_save(self, tmp_path):
        values = np.random.default_rng(0).normal(size=(20, 3))
        path = str(tmp_path / "out.csv")
        save_csv(path, values, ["x", "y", "z"])
        back, columns = load_csv(path)
        assert columns == ["x", "y", "z"]
        np.testing.assert_array_equal(back, values)  # repr is lossless


class TestSplits:
    def test_ratio_example(self):
        spec = SplitSpec(ratios=(0.7, 0.1, 0.2))
        assert spec.resolve(10) == (7, 1, 2)

    def test_counts_resolve(self):
        assert SplitSpec(counts=(8545, 2881, 2881)).resolve(20000) == (8545, 2881, 2881)

    def test_counts_exceeding_length(self):
        with pytest.raises(DataError):
            SplitSpec(counts=(10, 5, 5)).resolve(15)  # fits
            SplitSpec(counts=(10, 5, 5)).resolve(14)

    def test_exactly_one_mode(self):
        with pytest.raises(ConfigError):
            SplitSpec()
        with pytest.raises(ConfigError):
            SplitSpec(counts=(1, 1, 1), ratios=(0.5, 0.25, 0.25))

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            SplitSpec(ratios=(0.5, 0.2, 0.2))

    def test_context_extension(self):
        splits = chrono_split(100, SplitSpec(counts=(60, 20, 20)), lookback=8)
        assert (splits.train.start, splits.train.stop) == (0, 60)
        assert (splits.val.start, splits.val.stop) == (52, 80)
        assert (splits.test.start, splits.test.stop) == (72, 100)

    def test_train_too_short_for_context(self):
        with pytest.raises(DataError, match="lookback"):
            chrono_split(100, SplitSpec(counts=(5, 45, 50)), lookback=8)

    def test_ett_convention_registered(self):
        assert ETT_SPLIT_COUNTS["etth"] == (8545, 2881, 2881)
        splits = chrono_split(14400, SplitSpec(counts=ETT_SPLIT_COUNTS["etth"]),
                              lookback=96)
        assert len(splits.train) == 8545
        assert len(splits.val) == 2881 + 96
        assert len(splits.test) == 2881 + 96


class TestWindows:
    def test_count_formula(self):
        values = np.arange(10, dtype=np.float64)[:, None]
        x, y = make_windows(values, Span(0, 10), lookback=4, horizon=2)
        assert len(x) == 5  # 10 - 4 - 2 + 1

    def test_contents_and_orientation(self):
        values = np.arange(20, dtype=np.float64).reshape(10, 2)
        x, y = make_windows(values, Span(2, 10), lookback=3, horizon=2)
        np.testing.assert_array_equal(x[0], values[2:5].T)
        np.testing.assert_array_equal(y[0], values[5:7].T)
        assert x.shape == (4, 2, 3) and y.shape == (4, 2, 2)

    def test_no_window_crosses_boundary(self):
        """Exhaustive check on a toy split: every sample of every window
        stays inside its split's (context-extended) span."""
        length, t, f = 30, 4, 2
        splits = chrono_split(length, SplitSpec(counts=(18, 6, 6)), lookback=t)
        values = np.arange(length, dtype=np.float64)[:, None]
        for span in (splits.train, splits.val, splits.test):
            x, y = make_windows(values, span, t, f)
            lo = values[span.start, 0]
            hi = values[span.stop - 1, 0]
            for arr in (x, y):
                assert arr.min() >= lo and arr.max() <= hi
        # and the y of the first val window starts exactly at the val region
        xv, yv = make_windows(values, splits.val, t, f)
        assert yv[0, 0, 0] == splits.train.stop

    @pytest.mark.parametrize("start,stop,lookback,horizon", [
        (0, 300, 24, 24), (100, 1000, 24, 120), (7, 42, 4, 3)])
    def test_matches_loop_reference_bytewise(self, start, stop, lookback, horizon):
        """Offset spans and a horizon longer than the lookback give the
        same bytes as the plain per-window loop, as read-only views of the
        input series."""
        values = np.random.default_rng(start).normal(size=(1100, 3))
        n = stop - start - lookback - horizon + 1
        want_x = np.empty((n, 3, lookback))
        want_y = np.empty((n, 3, horizon))
        for i in range(n):
            s = start + i
            want_x[i] = values[s:s + lookback].T
            want_y[i] = values[s + lookback:s + lookback + horizon].T
        x, y = make_windows(values, Span(start, stop), lookback, horizon)
        assert np.shares_memory(x, values) and np.shares_memory(y, values)
        assert not x.flags.writeable and not y.flags.writeable
        assert x.dtype == y.dtype == np.float64
        assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()

    def test_too_short_span(self):
        with pytest.raises(DataError, match="shorter"):
            make_windows(np.zeros((10, 1)), Span(0, 5), lookback=4, horizon=2)


class TestStandardize:
    def test_train_statistics_only(self):
        values = np.concatenate([np.zeros((50, 1)), np.full((50, 1), 100.0)])
        with pytest.warns(RuntimeWarning, match="constant"):
            std, mu, sigma = standardize(values, Span(0, 50))
        assert mu[0] == 0.0 and sigma[0] == 1.0  # constant guard on train span
        np.testing.assert_array_equal(std[:50], 0.0)

    def test_population_variance(self):
        values = np.array([[0.0], [1.0], [2.0]])
        _, _, sigma = standardize(values, Span(0, 3))
        np.testing.assert_allclose(sigma, np.sqrt(2.0 / 3.0), atol=1e-12)

    def test_constant_channel_warns_and_zeroes(self):
        values = np.full((20, 2), 7.0)
        values[:, 1] = np.arange(20)
        with pytest.warns(RuntimeWarning, match="constant"):
            std, _, _ = standardize(values, Span(0, 10))
        np.testing.assert_array_equal(std[:, 0], 0.0)

    def test_unit_stats_after_transform(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(200, 3)) * 4 + 10
        std, _, _ = standardize(values, Span(0, 150))
        fit = std[:150]
        np.testing.assert_allclose(fit.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(fit.std(axis=0), 1.0, atol=1e-12)

    def test_prepare_bundles_consistently(self):
        values = np.random.default_rng(1).normal(size=(200, 2))
        prepared = prepare(values, SplitSpec(ratios=(0.7, 0.1, 0.2)), 16, 4)
        assert prepared.train[0].shape[1:] == (2, 16)
        assert prepared.train[1].shape[1:] == (2, 4)
        assert len(prepared.val[0]) == (20 + 16) - 16 - 4 + 1
        assert len(prepared.test[0]) == (40 + 16) - 16 - 4 + 1

    def test_prepare_allocates_only_the_standardised_series(self):
        """The windows are views: on an ETTh-shaped series, at the longest
        horizon of the ETT protocol, the peak stays near the 0.95 MiB
        standardised copy (copying the windows took 526 MiB)."""
        values = np.random.default_rng(2).normal(size=(17420, 7))
        tracemalloc.start()
        try:
            prepared = prepare(values, SplitSpec(counts=ETT_SPLIT_COUNTS["etth"]), 96, 720)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert len(prepared.test[0]) == 2881 + 96 - 96 - 720 + 1


class TestSynth:
    def test_components_sum_exactly(self):
        out = synth_generate(SynthSpec(length=500, channels=3, seed=1))
        total = (out.components["linear"] + out.components["nonlinear"]
                 + out.components["noise"])
        assert np.abs(out.values - total).max() < 1e-12

    def test_degenerate_case_is_pure_linear(self):
        spec = SynthSpec(length=300, channels=2, s_components=1, seed=2,
                         noise_sigma=0.0, nonlinear_amplitude=0.0)
        out = synth_generate(spec)
        np.testing.assert_array_equal(out.values, out.components["linear"])
        assert not out.components["nonlinear"].any()
        assert not out.components["noise"].any()

    def test_seed_reproducible(self):
        a = synth_generate(SynthSpec(length=400, channels=2, seed=7))
        b = synth_generate(SynthSpec(length=400, channels=2, seed=7))
        c = synth_generate(SynthSpec(length=400, channels=2, seed=8))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_ar_part_is_bounded(self):
        """Stationary AR(2) plus bounded deterministic parts: the variance
        must not explode with length."""
        short = synth_generate(SynthSpec(length=500, channels=1, seed=3,
                                         nonlinear_amplitude=0.0, noise_sigma=0.0))
        long = synth_generate(SynthSpec(length=4000, channels=1, seed=3,
                                        nonlinear_amplitude=0.0, noise_sigma=0.0))
        assert long.values.std() < 50 * max(short.values.std(), 1e-6)
        assert np.abs(long.values).max() < 1e3

    def test_ar2_box_is_stable(self):
        """Every AR(2) draw is stable with no redraw: on a grid over the
        sampling box, edges and corners included, the companion matrix's
        spectral radius stays below 0.98."""
        phi1, phi2 = np.meshgrid(np.linspace(*AR2_PHI1, 121), np.linspace(*AR2_PHI2, 81))
        companion = np.zeros(phi1.shape + (2, 2))
        companion[..., 0, 0], companion[..., 0, 1], companion[..., 1, 0] = phi1, phi2, 1.0
        radius = np.abs(np.linalg.eigvals(companion)).max(axis=-1)
        assert radius.max() < 0.98

    def test_both_families_present(self):
        out = synth_generate(SynthSpec(length=800, channels=2, seed=4))
        assert out.components["linear"].std() > 0.05
        assert out.components["nonlinear"].std() > 0.05

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SynthSpec(length=4)
        with pytest.raises(ConfigError):
            SynthSpec(noise_sigma=-0.1)


class TestAddNoise:
    def test_alpha_zero_identity(self):
        x = np.random.default_rng(0).normal(size=(5, 2, 8))
        out = add_noise(x, 0.0, stream(0, "noise"))
        assert out is x

    def test_alpha_range_checked(self):
        with pytest.raises(ConfigError):
            add_noise(np.zeros(3), 1.5, stream(0, "noise"))
        with pytest.raises(ConfigError):
            add_noise(np.zeros(3), -0.1, stream(0, "noise"))

    def test_perturbation_variance(self):
        x = np.zeros(100_000)
        out = add_noise(x, 0.5, stream(1, "noise"))
        assert 0.98 * 0.5 <= out.std() <= 1.02 * 0.5

    def test_seeded_reproducibility(self):
        x = np.ones((4, 4))
        a = add_noise(x, 1.0, stream(2, "noise"))
        b = add_noise(x, 1.0, stream(2, "noise"))
        assert np.array_equal(a, b)
