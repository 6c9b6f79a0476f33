import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from instrumentid.labeling import (
    ActivationTable, Taxonomy, OTHER_CLASS,
    parse_activation_csv, moving_average, clip_label,
    build_taxonomy, collapse_labels, stratified_split,
    load_category_map, write_taxonomy,
    write_split_file,
)

from helpers import (
    clip_label_naive, collapse_labels_loop, moving_average_naive, stratified_split_greedy,
)


def make_table(conf, step=0.05, columns=None, track_id="trk"):
    conf = np.atleast_2d(np.asarray(conf, dtype=float))
    if conf.shape[0] == 1 and conf.shape[1] > 1 and columns is None:
        conf = conf.T
    columns = columns or [f"inst{i}" for i in range(conf.shape[1])]
    times = np.arange(conf.shape[0]) * step
    return ActivationTable(track_id, times, columns, conf)


class TestActivationTable:
    def test_rejects_nonuniform_times(self):
        with pytest.raises(ValueError, match="non-uniform"):
            ActivationTable("t", [0.0, 0.05, 0.11], ["a"], np.zeros((3, 1)))

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ActivationTable("t", [0.0, 0.05, 0.04], ["a"], np.zeros((3, 1)))

    def test_rejects_out_of_range_confidence(self):
        with pytest.raises(ValueError, match="outside"):
            ActivationTable("t", [0.0, 0.05], ["a"], np.array([[0.5], [1.5]]))

    def test_rejects_nan_confidence(self):
        # a NaN maximum compares false with the threshold, turning the instrument off
        text = "time,a,b\n0.0,0.9,0.1\n0.5,nan,0.2\n1.0,0.8,0.3\n1.5,0.7,0.9\n"
        with pytest.raises(ValueError, match="non-finite confidence values in track trk"):
            parse_activation_csv(text, "trk")

    def test_rejects_nan_time(self):
        # every comparison with NaN is false, so the step checks cannot see it
        with pytest.raises(ValueError, match="non-finite times in track trk"):
            ActivationTable("trk", [0.0, np.nan, 1.0], ["a"], np.zeros((3, 1)))

    def test_parse_csv(self):
        text = "time,piano,voice\n0.00,0.1,0.9\n0.05,0.2,0.8\n0.10,0.3,0.7\n"
        table = parse_activation_csv(text, "trk")
        assert table.columns == ["piano", "voice"]
        assert table.step == pytest.approx(0.05)
        np.testing.assert_allclose(table.conf[:, 1], [0.9, 0.8, 0.7])

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_activation_csv("instrument,conf\n0,1\n", "trk")

    @pytest.mark.parametrize("row", ["0.05,0.2,", "0.05,0.2,x", "0.05,0x1,0.3", "0.05, ,0.3",
                                     "0.05,1__0,0.3"])
    def test_parse_names_track_and_line_of_a_cell_that_is_not_a_number(self, row):
        # line 4 of the file: the blank line 2 still counts
        text = f"time,piano,voice\n\n0.00,0.1,0.9\n{row}\n"
        with pytest.raises(ValueError, match=r"^track trk line 4: cell that is not a number"):
            parse_activation_csv(text, "trk")

    @pytest.mark.parametrize("cell", [" 0.5 ", "0.2_5", "\u0661", "1e-1", "\t.3"])
    def test_parse_accepts_what_float_accepts(self, cell):
        table = parse_activation_csv(f"time,piano\n0.00,0.1\n0.05,{cell}\n", "trk")
        assert table.conf[1, 0] == float(cell)

    @pytest.mark.parametrize("rows,error", [
        (["0.05,x,0.3", "0.10,0.2"], "line 3: cell that is not a number"),
        (["0.05,0.2", "0.10,x,0.3"], "line 3: row with 2 cells"),
    ])
    def test_parse_names_the_first_bad_line_of_two(self, rows, error):
        text = "time,piano,voice\n0.00,0.1,0.9\n" + "\n".join(rows)
        with pytest.raises(ValueError, match=f"^track trk {error}"):
            parse_activation_csv(text, "trk")

    @pytest.mark.parametrize("cells", [1, 4, 7])
    def test_parse_in_blocks_matches_one_block(self, monkeypatch, cells):
        from instrumentid import labeling
        text = "time,a,b\n" + "".join(f"{t * 0.5},0.{t},0.{9 - t}\n" for t in range(10))
        whole = parse_activation_csv(text, "trk")
        monkeypatch.setattr(labeling, "_CONVERSION_CELLS", cells)
        blocks = parse_activation_csv(text, "trk")
        np.testing.assert_array_equal(blocks.times, whole.times)
        np.testing.assert_array_equal(blocks.conf, whole.conf)
        with pytest.raises(ValueError, match=r"^track trk line 10: cell that is not a number"):
            parse_activation_csv(text.replace("0.8,", "x,"), "trk")

    def test_parse_header_without_rows_is_a_value_error(self):
        with pytest.raises(ValueError, match="at least 2 time steps"):
            parse_activation_csv("time,piano\n\n", "trk")

    def test_one_time_step_names_the_track(self):
        with pytest.raises(ValueError, match=r"at least 2 time steps in track trk\b"):
            parse_activation_csv("time,piano\n0.0,0.5\n", "trk")

    def test_conf_shape_mismatch_names_the_track(self):
        with pytest.raises(ValueError, match=r"does not match .* in track trk$"):
            ActivationTable("trk", [0.0, 0.05], ["piano"], np.zeros((2, 2)))

    def test_parse_names_track_and_line_of_a_wrong_cell_count(self):
        text = "time,piano,voice\n0.00,0.1,0.9\n0.05,0.2\n"
        with pytest.raises(ValueError, match=r"^track trk line 3: row with 2 cells, expected 3"):
            parse_activation_csv(text, "trk")


class TestMovingAverage:
    def test_constant_series_unchanged(self):
        out = moving_average(np.full(10, 0.7), step_seconds=0.05)
        np.testing.assert_allclose(out, 0.7)

    def test_single_sample_window_is_identity(self):
        series = np.array([0.1, 0.9, 0.4])
        out = moving_average(series, step_seconds=0.1, window_seconds=0.1)
        np.testing.assert_array_equal(out, series)

    def test_two_sample_window_hand_values(self):
        # step 50 ms, window 100 ms -> 2 samples covering [i, i+1]
        series = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        expected = moving_average_naive(series, 0.05, 0.1)
        out = moving_average(series, step_seconds=0.05, window_seconds=0.1)
        np.testing.assert_allclose(out, expected)
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0, 0.5, 0.0, 0.0])

    def test_window_shorter_than_step_rejected(self):
        with pytest.raises(ValueError, match="shorter than one"):
            moving_average(np.zeros(4), step_seconds=0.5, window_seconds=0.1)

    @given(st.integers(3, 40), st.integers(1, 9), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_and_stays_in_range(self, n, w_steps, seed):
        rng = np.random.default_rng(seed)
        series = rng.uniform(0, 1, size=n)
        step = 0.05
        window = w_steps * step
        out = moving_average(series, step_seconds=step, window_seconds=window)
        np.testing.assert_allclose(out, moving_average_naive(series, step, window), atol=1e-12)
        assert out.min() >= series.min() - 1e-12
        assert out.max() <= series.max() + 1e-12


class TestClipLabel:
    def test_sustained_above_threshold(self):
        table = make_table(np.full(40, 0.6))
        assert clip_label(table, 0.0, 1.0).tolist() == [1]

    def test_just_below_threshold(self):
        table = make_table(np.full(40, 0.49))
        assert clip_label(table, 0.0, 1.0).tolist() == [0]

    def test_exact_threshold_counts_as_active(self):
        table = make_table(np.full(40, 0.5))
        assert clip_label(table, 0.0, 1.0).tolist() == [1]

    def test_spike_smoothed_by_window(self):
        # one 50 ms spike of 1.0: the 2-sample mean peaks at 0.5 -> active at >= 0.5
        conf = np.zeros(40)
        conf[10] = 1.0
        table = make_table(conf)
        expected = clip_label_naive(table, 0.0, 1.0)
        assert clip_label(table, 0.0, 1.0).tolist() == expected.tolist()
        assert expected.tolist() == [1]

    def test_outside_annotation_range_rejected(self):
        table = make_table(np.full(40, 0.6))  # covers [0, 1.95]
        with pytest.raises(ValueError, match="outside annotation range"):
            clip_label(table, 3.0, 4.0)

    def test_monotone_in_confidence(self):
        rng = np.random.default_rng(5)
        conf = rng.uniform(0, 0.8, size=(40, 3))
        table = make_table(conf)
        base = clip_label(table, 0.0, 1.0)
        bumped = make_table(np.minimum(conf + 0.2, 1.0))
        higher = clip_label(bumped, 0.0, 1.0)
        assert (higher >= base).all()

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        steps = rng.integers(25, 80)
        n_inst = rng.integers(1, 6)
        step = float(rng.choice([0.02, 0.05, 0.1]))
        table = make_table(rng.uniform(0, 1, size=(steps, n_inst)), step=step)
        start = 0.0
        end = float(table.times[-1]) + step / 2
        got = clip_label(table, start, end)
        expected = clip_label_naive(table, start, end)
        np.testing.assert_array_equal(got, expected)


class TestTaxonomy:
    def _tracks(self, spec):
        # spec: {category: n_tracks}; tracks get unique ids per category
        tracks = {}
        for cat, n in spec.items():
            for i in range(n):
                tracks[f"{cat}-{i}"] = {cat}
        return tracks

    def test_boundary_at_min_songs(self):
        tracks = self._tracks({"piano": 20, "zither": 19})
        tax = build_taxonomy(tracks, {}, min_songs=20)
        assert tax.category_to_class["piano"] == "piano"
        assert tax.category_to_class["zither"] == OTHER_CLASS
        assert tax.classes == ["piano", OTHER_CLASS]

    def test_all_rare_collapses_to_single_other(self):
        tracks = self._tracks({"a": 2, "b": 3, "c": 1})
        tax = build_taxonomy(tracks, {}, min_songs=20)
        assert tax.classes == [OTHER_CLASS]

    def test_engineered_eleven_class_corpus(self):
        # ten categories in >= minSongs tracks plus rare ones -> 11 classes
        common = {f"cat{i:02d}": 25 for i in range(10)}
        rare = {"tack piano": 3, "erhu": 2}
        tax = build_taxonomy(self._tracks({**common, **rare}), {}, min_songs=20)
        assert len(tax.classes) == 11
        assert tax.classes[-1] == OTHER_CLASS
        assert tax.class_matrix(["tack piano", "cat03"]).tolist() == [
            [False] * 10 + [True], [False] * 3 + [True] + [False] * 7]

    def test_raw_to_category_applies_before_counting(self):
        tracks = {f"t{i}": {"male singer"} if i % 2 else {"female singer"} for i in range(30)}
        tax = build_taxonomy(tracks, {"male singer": "voice", "female singer": "voice"},
                             min_songs=20)
        assert tax.classes == ["voice", OTHER_CLASS]
        assert tax.class_matrix(["male singer", "tuba"]).tolist() == [
            [True, False], [False, True]]

    def test_collapse_all_zero(self):
        tax = Taxonomy({}, {"piano": "piano"}, ["piano", OTHER_CLASS])
        out = collapse_labels(np.zeros(3, dtype=np.uint8), tax.class_matrix(["piano", "x", "y"]))
        assert out.tolist() == [0, 0]

    def test_collapse_rare_instrument_hits_other(self):
        tax = Taxonomy({}, {"piano": "piano", "tack piano": OTHER_CLASS},
                       ["piano", OTHER_CLASS])
        out = collapse_labels(np.array([0, 1]), tax.class_matrix(["piano", "tack piano"]))
        assert out.tolist() == [0, 1]

    def test_collapse_is_idempotent_or(self):
        tax = Taxonomy({"male singer": "voice", "female singer": "voice"},
                       {"voice": "voice"}, ["voice", OTHER_CLASS])
        out = collapse_labels(np.array([1, 1]), tax.class_matrix(["male singer", "female singer"]))
        assert out.tolist() == [1, 0]

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_collapse_distributes_over_or(self, seed):
        rng = np.random.default_rng(seed)
        raw_names = [f"r{i}" for i in range(8)]
        cats = ["a", "b", "c"]
        raw_to_cat = {r: cats[rng.integers(len(cats))] for r in raw_names}
        tax = Taxonomy(raw_to_cat, {"a": "a", "b": OTHER_CLASS, "c": "c"},
                       ["a", "c", OTHER_CLASS])
        v1 = rng.integers(0, 2, size=8)
        v2 = rng.integers(0, 2, size=8)
        matrix = tax.class_matrix(raw_names)
        lhs = collapse_labels(v1 | v2, matrix)
        rhs = collapse_labels(v1, matrix) | collapse_labels(v2, matrix)
        np.testing.assert_array_equal(lhs, rhs)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 12), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_collapse_matches_the_name_loop(self, seed, n_raw, n_clips):
        # raw names missing from the map, categories absent from
        # category_to_class and categories collapsed to OTHER all land in OTHER
        rng = np.random.default_rng(seed)
        raw_names = [f"r{i}" for i in range(n_raw)]
        mapped = [r for r in raw_names if rng.uniform() < 0.7]
        raw_to_cat = {r: ["a", "b", "c", "d"][rng.integers(4)] for r in mapped}
        tax = Taxonomy(raw_to_cat, {"a": "a", "b": OTHER_CLASS, "c": "c", "r0": "r0"},
                       ["a", "c", "r0", OTHER_CLASS])
        bits = rng.integers(0, 2, size=(n_clips, n_raw)).astype(np.uint8)
        want = np.reshape([collapse_labels_loop(row, raw_names, tax) for row in bits],
                          (n_clips, 4))
        matrix = tax.class_matrix(raw_names)
        for row, expected in zip(bits, want):
            np.testing.assert_array_equal(collapse_labels(row, matrix), expected)
        batch = collapse_labels(bits, matrix)
        assert batch.dtype == np.uint8
        np.testing.assert_array_equal(batch, want)

    def test_collapse_rejects_a_bit_vector_of_another_length(self):
        tax = Taxonomy({}, {"piano": "piano"}, ["piano", OTHER_CLASS])
        with pytest.raises(ValueError, match=r"^bit vector shape \(3,\) != 2 raw names$"):
            collapse_labels(np.zeros(3), tax.class_matrix(["piano", "x"]))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("# comment\nmale singer\tvoice\nviolin section\tviolin\n")
        mapping = load_category_map(path)
        assert mapping == {"male singer": "voice", "violin section": "violin"}
        tax = Taxonomy(mapping, {"voice": "voice", "violin": OTHER_CLASS},
                       ["voice", OTHER_CLASS])
        out = tmp_path / "resolved.tsv"
        write_taxonomy(out, tax)
        text = out.read_text()
        assert "# classes: voice,OTHER" in text
        assert "male singer\tvoice" in text
        assert "violin\tOTHER" in text


class TestStratifiedSplit:
    def test_identical_labels_split_by_fraction(self):
        labels = {f"t{i}": np.array([1, 0, 0]) for i in range(10)}
        res = stratified_split(labels, test_fraction=0.2, seed=0)
        assert len(res.train_ids) == 8
        assert len(res.test_ids) == 2

    def test_two_track_label_covers_both_sides(self):
        labels = {f"t{i}": np.zeros(4, dtype=int) for i in range(10)}
        for t in labels:
            labels[t][0] = 1
        labels["t3"] = np.array([1, 1, 0, 0])
        labels["t7"] = np.array([1, 1, 0, 0])
        for seed in range(20):
            res = stratified_split(labels, test_fraction=0.2, seed=seed)
            train = set(res.train_ids)
            assert ("t3" in train) != ("t7" in train)

    def test_sides_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(1)
        labels = {f"t{i}": rng.integers(0, 2, size=11) for i in range(57)}
        res = stratified_split(labels, test_fraction=0.2, seed=3)
        assert set(res.train_ids) | set(res.test_ids) == set(labels)
        assert not set(res.train_ids) & set(res.test_ids)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stratified_split({}, 0.2, 0)

    def test_label_vectors_of_unequal_length_name_the_track(self):
        want = "track label vectors must share one length: track 'b' has 1, track 'a' has 2"
        with pytest.raises(ValueError, match=f"^{want}$"):
            stratified_split({"a": np.array([1, 0]), "b": np.array([1])})

    @pytest.mark.parametrize("labels, track, value", [
        ({"a": [2, 0], "b": [0, 1], "c": [0, 1]}, "a", "2"),
        ({"a": [1, 0], "b": [0.5, 1]}, "b", "0.5"),
        ({"a": [1, 0], "b": [-1, 1]}, "b", "-1"),
        ({"a": [1, 0], "b": [np.nan, 1]}, "b", "nan"),
    ])
    def test_label_values_other_than_0_1_name_the_track(self, labels, track, value):
        want = f"track '{track}': label values must be 0/1, got {value}"
        with pytest.raises(ValueError, match=f"^{want}$"):
            stratified_split(labels, 0.5)

    @given(st.integers(1, 60), st.integers(1, 12),
           st.one_of(st.sampled_from([0.1, 0.2, 1 / 3, 0.45]),
                     st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
           st.integers(0, 2 ** 31 - 1), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_greedy_loop(self, n_tracks, n_labels, fraction, data_seed, seed):
        rng = np.random.default_rng(data_seed)
        density = rng.uniform(0.0, 0.8, size=n_labels)
        labels = {f"t{i:02d}": (rng.uniform(size=n_labels) < density).astype(int)
                  for i in range(n_tracks)}
        res = stratified_split(labels, fraction, seed)
        train_ids, test_ids, coverage = stratified_split_greedy(labels, fraction, seed)
        assert res.train_ids == train_ids
        assert res.test_ids == test_ids
        np.testing.assert_array_equal(res.label_coverage, coverage)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        labels = {f"t{i}": rng.integers(0, 2, size=5) for i in range(30)}
        a = stratified_split(labels, 0.2, seed=11)
        b = stratified_split(labels, 0.2, seed=11)
        assert a.train_ids == b.train_ids and a.test_ids == b.test_ids

    def test_proportions_on_synthetic_corpus(self):
        # 122 tracks, random label vectors: test share within +-10 points of 0.2
        # for every label with >= 10 positive tracks, across many seeds
        rng = np.random.default_rng(4)
        labels = {f"t{i:03d}": (rng.uniform(size=11) < 0.35).astype(int) for i in range(122)}
        totals = np.sum(list(labels.values()), axis=0)
        for seed in range(50):
            res = stratified_split(labels, test_fraction=0.2, seed=seed)
            test_counts = res.label_coverage[1]
            for l in range(11):
                if totals[l] >= 10:
                    frac = test_counts[l] / totals[l]
                    assert 0.1 <= frac <= 0.3, f"label {l} seed {seed}: {frac}"
                if totals[l] >= 2:
                    assert res.label_coverage[0][l] >= 1
                    assert res.label_coverage[1][l] >= 1

    def test_zero_label_tracks_are_still_assigned(self):
        labels = {"a": np.array([1, 0]), "b": np.array([1, 0]),
                  "empty1": np.zeros(2, dtype=int), "empty2": np.zeros(2, dtype=int)}
        res = stratified_split(labels, 0.5, seed=0)
        assert set(res.train_ids) | set(res.test_ids) == set(labels)

    def test_split_file_round_trip(self, tmp_path):
        ids = ["trackB", "trackA", "trackC"]
        path = tmp_path / "split.txt"
        write_split_file(path, ids)
        assert path.read_text() == "trackB\ntrackA\ntrackC\n"
