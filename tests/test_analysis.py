"""Tests for the experiment harness: tables, seeding and the shape claims of
the experiments E1..E10."""

from __future__ import annotations

import math

import pytest

from repro.analysis.engine import ExperimentEngine
from repro.analysis.experiments import (
    experiment_e1_two_ecss_approximation,
    experiment_e2_two_ecss_rounds,
    experiment_e3_tap_iterations,
    experiment_e4_k_ecss,
    experiment_e5_three_ecss_rounds,
    experiment_e6_decomposition,
    experiment_e7_cycle_space,
    experiment_e8_augmentation_invariants,
    experiment_e9_voting_ablation,
    experiment_e10_schedule_ablation,
)
from repro.analysis.runner import derive_seed
from repro.analysis.tables import Table, metric_mean, trial_groups


class TestTable:
    def test_add_row_checks_arity(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_access(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(1, "x")
        table.add_row(2, "y")
        assert table.column("a") == [1, 2]
        with pytest.raises(KeyError):
            table.column("missing")

    def test_text_rendering_contains_headers_rows_and_notes(self):
        table = Table(title="My table", columns=["n", "value"])
        table.add_row(10, 3.14159)
        table.add_note("a caption")
        text = table.to_text()
        assert "My table" in text
        assert "value" in text
        assert "3.142" in text
        assert "note: a caption" in text
        assert str(table) == text

    def test_markdown_rendering(self):
        table = Table(title="md", columns=["x"])
        table.add_row(1)
        table.add_note("hello")
        markdown = table.to_markdown()
        assert "| x |" in markdown
        assert "|---|" in markdown
        assert "*hello*" in markdown

    def test_concatenate(self):
        a = Table(title="first", columns=["x"])
        b = Table(title="second", columns=["y"])
        combined = Table.concatenate("all", [a, b])
        assert "first" in combined and "second" in combined


class TestRunner:
    def test_derive_seed_is_deterministic_and_sensitive(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)
        assert derive_seed("a", 1) != derive_seed("a", 2)

    def test_run_and_aggregate(self):
        configs = [{"n": 4}, {"n": 8}]

        def trial(config, seed):
            return {"value": config["n"] + (seed % 2)}

        results = ExperimentEngine().run("unit", configs, trial, trials=3)
        assert len(results) == 6
        groups = trial_groups(results, key=lambda r: r.config["n"])
        assert set(groups) == {4, 8}
        assert 4 <= metric_mean(groups[4], "value") <= 5


class TestSmallExperiments:
    """The qualitative shape claims of the paper (who wins, what stays
    bounded) asserted on small experiment tables, not absolute numbers."""

    def test_e1_ratio_is_bounded_by_log_n(self):
        """Theorem 1.1: the 2-ECSS weight is an O(log n) approximation."""
        table = experiment_e1_two_ecss_approximation(sizes=(16, 24, 32), trials=2)
        for ratio, log in zip(table.column("ratio vs ref"), table.column("log2(n)")):
            assert 1.0 <= ratio <= 2 * log

    def test_e2_rounds_stay_within_the_bound(self):
        """Theorem 1.1: 2-ECSS rounds are O((D + sqrt n) log^2 n)."""
        table = experiment_e2_two_ecss_rounds(sizes=(16, 32, 64), trials=1)
        ratios = table.column("rounds/bound")
        assert all(ratio <= 16 for ratio in ratios)
        assert max(ratios) / max(min(ratios), 1e-9) <= 32

    def test_e3_iteration_counts_are_positive(self):
        table = experiment_e3_tap_iterations(sizes=(12,), trials=1)
        assert len(table.rows) == 1
        assert table.column("max iterations")[0] >= 1

    def test_e3_iterations_grow_polylogarithmically(self):
        """Lemma 3.11: weighted TAP takes O(log^2 n) iterations, far below n."""
        table = experiment_e3_tap_iterations(sizes=(16, 32, 64), trials=2)
        assert table.column("mean iterations")[-1] <= table.column("n")[-1] / 2
        assert all(ratio <= 4 for ratio in table.column("mean/log^2"))

    def test_e4_ratio_and_rounds_are_bounded(self):
        """Theorem 1.2: weighted k-ECSS is an O(k log n) approximation within
        O(k (D log^3 n + n)) rounds."""
        table = experiment_e4_k_ecss(sizes=(12, 16), ks=(2, 3), trials=2)
        for ratio, k_log in zip(table.column("ratio"), table.column("k log2(n)")):
            assert 1.0 <= ratio <= k_log
        for rounds, bound in zip(table.column("rounds"), table.column("k(D log^3 n + n)")):
            assert rounds <= bound

    def test_e5_rounds_track_d_log3_n_and_sizes_the_certificate(self):
        """Theorem 1.3: unweighted 3-ECSS rounds are O(D log^3 n), and the
        output stays within a log factor of the sparse-certificate baseline."""
        table = experiment_e5_three_ecss_rounds(sizes=(16, 24, 36), trials=1)
        assert all(ratio <= 8 for ratio in table.column("rounds/(D log^3 n)"))
        for size, cert in zip(table.column("size"), table.column("sparse-cert size")):
            assert size <= 4 * cert

    def test_e6_decomposition_ratios_are_order_one(self):
        """Lemma 3.4 / Claim 3.1: O(sqrt n) segments of O(sqrt n) diameter."""
        table = experiment_e6_decomposition(sizes=(64, 144, 256), trials=1)
        for n, segments, diameter in zip(
            table.column("n"), table.column("segments"), table.column("max segment diam")
        ):
            sqrt_n = math.isqrt(n)
            assert segments <= 10 * sqrt_n + 4
            assert diameter <= 6 * sqrt_n + 2
        assert 0 < min(table.column("segments/sqrt n"))
        assert max(table.column("segments/sqrt n")) <= 10
        assert max(table.column("diam/sqrt n")) <= 6

    def test_e7_cycle_space_has_no_missed_pairs(self):
        """Lemma 5.4: no cut pair is ever missed, and false positives decay
        with the label width until wide labels are exact."""
        table = experiment_e7_cycle_space(n=24, bits_values=(1, 2, 4, 8, 16), trials=5)
        assert all(missed == 0 for missed in table.column("missed"))
        false_positives = table.column("mean false positives")
        assert false_positives[0] >= false_positives[-1]
        assert false_positives[-1] == 0

    def test_e8_respects_claim_4_1(self):
        """Claim 4.1: each augmentation level adds at most n - 1 edges."""
        table = experiment_e8_augmentation_invariants(n=14, k=3, trials=3)
        for added, bound in zip(table.column("edges added"), table.column("n-1")):
            assert added <= bound

    def test_e9_voting_never_loses_on_weight(self):
        """Ablation: adding every maximum candidate pays at least the weight
        of the |C_e|/8 voting rule (a whisker of noise aside)."""
        table = experiment_e9_voting_ablation(sizes=(24, 40), trials=3)
        assert all(ratio >= 0.95 for ratio in table.column("weight ratio"))

    def test_e10_mst_filter_keeps_the_output_sparse(self):
        """Ablation: with the MST filter Aug_k stays at least as sparse on
        average as without it."""
        table = experiment_e10_schedule_ablation(
            n=14, k=3, trials=2, schedule_constants=(1, 2, 4)
        )
        rows = list(zip(table.column("mst filter"), table.column("edges")))
        with_filter = [edges for use_filter, edges in rows if use_filter]
        without_filter = [edges for use_filter, edges in rows if not use_filter]
        assert (
            sum(with_filter) / len(with_filter)
            <= sum(without_filter) / len(without_filter) + 1
        )
