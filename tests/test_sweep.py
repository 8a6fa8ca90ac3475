"""Tests for sweep execution, revival detection, and serialization."""

import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracqsl.errors import InvalidParams, TooFewPoints, UnknownFigure
from fracqsl.jcmodel import JCParams
from fracqsl.qsl import QslPoint, qsl_point
from fracqsl.sweep import (
    CSV_COLUMNS,
    CurveRecord,
    SweepSpec,
    detect_revivals,
    figure_preset,
    records_to_csv,
    records_to_json,
    run_figure,
    run_sweep,
    write_records,
)


def small_tau_spec(**overrides):
    kw = dict(
        axis="tau",
        grid=np.linspace(0.2, 2.0, 10),
        fixed={"beta": 0.7, "lam": 0.5, "n": 3},
    )
    kw.update(overrides)
    return SweepSpec(**kw)


class TestSpecValidation:
    def test_bad_axis(self):
        with pytest.raises(InvalidParams):
            small_tau_spec(axis="gamma")

    def test_empty_grid(self):
        with pytest.raises(InvalidParams):
            small_tau_spec(grid=np.array([]))

    def test_single_point_grid(self):
        with pytest.raises(InvalidParams):
            small_tau_spec(grid=np.array([1.0]))

    def test_non_increasing_grid(self):
        with pytest.raises(InvalidParams):
            small_tau_spec(grid=np.array([1.0, 0.5, 2.0]))
        with pytest.raises(InvalidParams):
            small_tau_spec(grid=np.array([0.5, 0.5, 1.0]))

    def test_non_finite_grid(self):
        with pytest.raises(InvalidParams):
            small_tau_spec(grid=np.array([0.5, np.nan]))

    def test_bool_grid(self):
        # False and True would pass as 0 and 1.
        with pytest.raises(InvalidParams):
            SweepSpec(
                axis="lambda",
                grid=np.array([False, True]),
                fixed={"beta": 0.5, "n": 1, "tau": 1.0},
            )
        with pytest.raises(InvalidParams):
            small_tau_spec(grid=[False, True])

    def test_axis_param_cannot_be_fixed(self):
        with pytest.raises(InvalidParams):
            small_tau_spec(fixed={"beta": 0.7, "lam": 0.5, "n": 3, "tau": 1.0})

    def test_missing_fixed(self):
        with pytest.raises(InvalidParams):
            small_tau_spec(fixed={"beta": 0.7, "lam": 0.5})

    def test_unknown_fixed_key(self):
        with pytest.raises(InvalidParams):
            small_tau_spec(fixed={"beta": 0.7, "lam": 0.5, "n": 3, "api": 1})

    def test_bad_threads(self):
        for threads in (0, True):
            with pytest.raises(InvalidParams):
                run_sweep(small_tau_spec(), threads=threads)

    def test_params_at_defaults_to_balanced_weights(self):
        spec = small_tau_spec()
        params, tau = spec.params_at(1.5)
        assert tau == 1.5
        assert params.a == pytest.approx(math.sqrt(0.5), abs=0)
        assert params.b == pytest.approx(math.sqrt(0.5), abs=0)

    def test_params_at_rejects_fractional_n(self):
        spec = SweepSpec(
            axis="n",
            grid=np.array([2.0, 3.0]),
            fixed={"beta": 0.5, "lam": 0.5, "tau": 1.0},
        )
        with pytest.raises(InvalidParams):
            spec.params_at(2.5)

    def test_fixed_n_must_be_integer_valued(self):
        with pytest.raises(InvalidParams, match="integer-valued"):
            SweepSpec(
                axis="lambda",
                grid=np.array([0.2, 0.4]),
                fixed={"beta": 0.5, "n": 2.5, "tau": 1.0},
            )
        with pytest.raises(InvalidParams, match="real number"):
            small_tau_spec(fixed={"beta": 0.7, "lam": 0.5, "n": True})

    def test_numpy_scalars_in_fixed_are_normalized(self):
        spec = SweepSpec(
            axis="lambda",
            grid=np.array([0.2, 0.4]),
            fixed={"beta": np.float64(0.5), "n": np.int64(3), "tau": np.float32(1.0)},
        )
        plain = SweepSpec(
            axis="lambda",
            grid=np.array([0.2, 0.4]),
            fixed={"beta": 0.5, "n": 3, "tau": 1.0},
        )
        assert spec.fingerprint() == plain.fingerprint()
        assert [type(spec.fixed[k]) for k in ("beta", "n", "tau")] == [float, int, float]
        assert [r.point for r in run_sweep(spec)] == [r.point for r in run_sweep(plain)]

    def test_echo_flags_nondefault_weights(self):
        spec = small_tau_spec(
            fixed={"beta": 0.7, "lam": 0.5, "n": 3, "a": 0.8, "b": 0.6}
        )
        assert spec.echo()["eigenweighted"] is False
        assert small_tau_spec().echo()["eigenweighted"] is True


class TestRunSweep:
    def test_tau_fast_path_matches_pointwise(self):
        spec = small_tau_spec()
        recs = run_sweep(spec)
        assert len(recs) == spec.grid.size
        for rec in recs[::3]:
            direct = qsl_point(JCParams(beta=0.7, lam=0.5, n=3), rec.axis_value)
            assert rec.point.lambda_op == pytest.approx(direct.lambda_op, abs=1e-10)
            assert rec.point.ratio_op == pytest.approx(direct.ratio_op, abs=1e-10)
            assert rec.point.sin2_bures == pytest.approx(direct.sin2_bures, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(0.2, 1.0),
        lam=st.floats(0.05, 1.0),
        n=st.integers(0, 40),
        taus=st.lists(st.floats(0.2, 2.0), min_size=4, max_size=4, unique=True),
        a=st.one_of(st.none(), st.floats(0.35, 0.93)),
    )
    def test_tau_sweep_matches_pointwise_property(self, beta, lam, n, taus, a):
        # Criterion 08's domain, non-eigen weights included.
        assume(abs(beta - 2.0 / 3.0) >= 0.005)
        taus = sorted(taus)
        assume((lam * math.sqrt(n + 1.0)) ** (1.0 / beta) * taus[-1] <= 400.0)
        fixed = {"beta": beta, "lam": lam, "n": n}
        if a is not None:
            fixed.update(a=a, b=math.sqrt(1.0 - a * a))
        spec = SweepSpec(axis="tau", grid=np.array(taus), fixed=fixed)
        for rec in run_sweep(spec):
            params, tau = spec.params_at(rec.axis_value)
            direct = qsl_point(params, tau)
            assert rec.point.ratio_op == direct.ratio_op
            assert rec.point.lambda_op == direct.lambda_op

    @settings(max_examples=25, deadline=None)
    @given(
        axis=st.sampled_from(["lambda", "n"]),
        beta=st.floats(0.2, 1.0),
        lams=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5, unique=True),
        ns=st.lists(st.integers(0, 40), min_size=2, max_size=5, unique=True),
        tau=st.floats(0.2, 2.0),
        a=st.one_of(st.none(), st.floats(0.35, 0.93)),
        threads=st.sampled_from([1, 2]),
    )
    def test_batch_invariance_property(self, axis, beta, lams, ns, tau, a, threads):
        # A point's value does not depend on its batch-mates or the pool;
        # criterion 08's domain, non-eigen weights included.
        assume(abs(beta - 2.0 / 3.0) >= 0.005)
        if axis == "lambda":
            grid = sorted(lams)
            fixed = {"beta": beta, "n": ns[0], "tau": tau}
            g_max = grid[-1] * math.sqrt(ns[0] + 1.0)
        else:
            grid = sorted(ns)
            fixed = {"beta": beta, "lam": lams[0], "tau": tau}
            g_max = lams[0] * math.sqrt(grid[-1] + 1.0)
        assume(g_max ** (1.0 / beta) * tau <= 400.0)
        if a is not None:
            fixed.update(a=a, b=math.sqrt(1.0 - a * a))
        spec = SweepSpec(axis=axis, grid=np.array(grid, dtype=float), fixed=fixed)
        for rec in run_sweep(spec, threads):
            assert rec.point == qsl_point(*spec.params_at(rec.axis_value))

    def test_grid_cap_fails_the_point(self):
        # 2.55 nodes/rad over g**(1/beta) * tau ~ 4.3e5 rad is far above 60000.
        spec = SweepSpec(
            axis="lambda",
            grid=np.array([0.1, 0.8]),
            fixed={"beta": 0.1, "n": 20, "tau": 1.0},
        )
        low, high = run_sweep(spec)
        assert low.error is None
        assert high.point is None
        assert high.error.startswith("GridTooCoarse:")

    def test_tau_grid_with_invalid_entries_keeps_good_points(self):
        spec = small_tau_spec(grid=np.array([-1.0, 0.5, 1.0]))
        recs = run_sweep(spec)
        assert recs[0].point is None
        assert "tau must be positive" in recs[0].error
        assert recs[1].error is None
        assert recs[2].error is None

    def test_meta_carries_version_and_config_hash(self):
        spec = small_tau_spec()
        assert spec.echo()["version"]
        assert len(spec.fingerprint()) == 64
        assert spec.fingerprint() == small_tau_spec().fingerprint()
        other = small_tau_spec(fixed={"beta": 0.6, "lam": 0.5, "n": 3})
        assert other.fingerprint() != spec.fingerprint()

    def test_lambda_axis_matches_pointwise(self):
        spec = SweepSpec(
            axis="lambda",
            grid=np.array([0.0, 0.25, 0.7]),
            fixed={"beta": 0.6, "n": 2, "tau": 1.0},
        )
        recs = run_sweep(spec)
        for rec in recs:
            direct = qsl_point(JCParams(beta=0.6, lam=rec.axis_value, n=2), 1.0)
            assert rec.point.lambda_op == direct.lambda_op
            assert rec.point.ratio_op == direct.ratio_op

    def test_out_of_range_value_becomes_error_record(self):
        spec = SweepSpec(
            axis="lambda",
            grid=np.array([0.5, 1.5]),
            fixed={"beta": 0.5, "n": 2, "tau": 1.0},
        )
        recs = run_sweep(spec)
        assert recs[0].error is None
        assert recs[1].point is None
        assert "InvalidParams" in recs[1].error

    def test_engine_failure_marks_every_tau_point(self):
        spec = small_tau_spec(
            fixed={"beta": 0.7, "lam": 0.5, "n": 3, "a": 1.0, "b": 0.0}
        )
        recs = run_sweep(spec)
        assert all(r.point is None for r in recs)
        assert all("DegenerateState" in r.error for r in recs)

    def test_beta_axis(self):
        spec = SweepSpec(
            axis="beta",
            grid=np.array([0.5, 1.0]),
            fixed={"lam": 0.4, "n": 1, "tau": 0.8},
        )
        recs = run_sweep(spec)
        assert all(r.error is None for r in recs)

    def test_n_axis_rejects_fractional_value_per_point(self):
        spec = SweepSpec(
            axis="n",
            grid=np.array([1.0, 2.5]),
            fixed={"beta": 0.5, "lam": 0.5, "tau": 1.0},
        )
        recs = run_sweep(spec)
        assert recs[0].error is None
        assert "integer" in recs[1].error

    def test_tau_sweep_builds_one_params(self, monkeypatch):
        # A tau sweep's model parameters never change, so its values share
        # one JCParams; the unit-coupling curve builds the other.
        built = []
        check = JCParams.__post_init__
        monkeypatch.setattr(JCParams, "__post_init__", lambda p: built.append(check(p)))
        spec = small_tau_spec(grid=np.linspace(3.0 / 400.0, 3.0, 400))
        recs = run_sweep(spec)
        assert all(r.error is None for r in recs)
        assert len(built) == 2

    def test_invalid_values_fail_alone_with_their_own_message(self):
        spec = SweepSpec(
            axis="lambda",
            grid=np.array([0.5, 1.5, 2.0, 2.5]),
            fixed={"beta": 0.5, "n": 2, "tau": 1.0},
        )
        recs = run_sweep(spec)
        assert recs[0].error is None
        for rec in recs[1:]:
            assert rec.error == f"InvalidParams: lam must lie in [0, 1], got {rec.axis_value!r}"

    def test_threaded_run_is_byte_identical_to_serial(self):
        grid = np.linspace(0.0, 1.0, 9)
        fixed = {"beta": 0.8, "n": 4, "tau": 1.2}
        spec = SweepSpec(axis="lambda", grid=grid, fixed=fixed)
        text1 = records_to_csv(spec, run_sweep(spec, threads=1))
        text2 = records_to_csv(spec, run_sweep(spec, threads=4))
        assert text1 == text2


class TestDetectRevivals:
    def test_oscillating_series(self):
        ts = np.linspace(0.0, 3.0, 200)
        vals = np.cos(2.3 * ts) ** 2
        count, turns = detect_revivals(vals)
        assert count >= 1
        assert max(r for _, r in turns) == pytest.approx(1.0, abs=1e-2)

    def test_monotone_series_has_none(self):
        assert detect_revivals(np.linspace(1.0, 0.0, 64)) == (0, [])
        assert detect_revivals(np.linspace(0.0, 1.0, 64)) == (0, [])

    def test_rise_threshold_filters_noise(self):
        vals = np.ones(32)
        vals[10] -= 1e-9
        assert detect_revivals(vals) == (0, [])
        vals[20] -= 0.5
        count, turns = detect_revivals(vals)
        assert count == 1 and turns[0][0] == 20.0

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            detect_revivals(np.zeros(7))

    def test_rejects_non_finite(self):
        vals = np.zeros(16)
        vals[3] = np.inf
        with pytest.raises(InvalidParams):
            detect_revivals(vals)

    def test_rejects_matrix_input(self):
        with pytest.raises(InvalidParams):
            detect_revivals(np.zeros((4, 4)))

    def test_record_curve_uses_ratio_and_axis_values(self):
        spec = SweepSpec(
            axis="tau",
            grid=np.linspace(0.1, 3.0, 60),
            fixed={"beta": 1.0, "lam": 0.5, "n": 20},
        )
        recs = run_sweep(spec)
        count, turns = detect_revivals(recs)
        assert count >= 1
        for axis_val, rise in turns:
            assert 0.1 <= axis_val <= 3.0
            assert rise > 1e-6

    def test_record_curve_rejects_failed_points(self):
        spec = SweepSpec(
            axis="lambda",
            grid=np.array([0.5, 1.5]),
            fixed={"beta": 0.5, "n": 1, "tau": 1.0},
        )
        recs = run_sweep(spec)
        with pytest.raises(InvalidParams):
            detect_revivals(recs)

    def test_count_stable_under_grid_refinement(self):
        # Holds where the tau grid resolves the oscillation; heavily
        # aliased curves (tiny beta) miscount at any point budget.
        for beta in (0.7, 1.0):
            counts = []
            for num in (400, 800):
                spec = SweepSpec(
                    axis="tau",
                    grid=np.linspace(3.0 / num, 3.0, num),
                    fixed={"beta": beta, "lam": 0.5, "n": 20},
                )
                counts.append(detect_revivals(run_sweep(spec))[0])
            assert counts[0] == counts[1], f"beta={beta}: {counts}"


class TestFigurePresets:
    def test_preset_shapes(self):
        assert len(figure_preset("fig2")) == 4
        assert len(figure_preset("fig3")) == 16
        assert len(figure_preset("fig4")) == 4
        assert len(figure_preset("fig5")) == 16

    def test_fig2_grids(self):
        specs = figure_preset("fig2")
        for spec in specs:
            assert spec.axis == "tau"
            assert spec.grid.size == 400
            assert spec.grid[0] > 0.0
            assert spec.grid[-1] == 3.0
            assert spec.fixed["lam"] == 0.5 and spec.fixed["n"] == 20
        assert [s.fixed["beta"] for s in specs] == [0.1, 0.4, 0.7, 1.0]

    def test_fig5_grids_and_labels(self):
        specs = figure_preset("fig5")
        assert specs[0].label == "fig5_n0_beta0p2"
        assert specs[-1].label == "fig5_n20_beta1"
        for spec in specs:
            assert spec.axis == "lambda"
            assert spec.grid.size == 81
            assert spec.fixed["tau"] == 1.0

    def test_labels_encode_decimal_points(self):
        labels = [s.label for s in figure_preset("fig3")]
        assert "fig3_beta0p2_tau0p1" in labels
        assert "fig3_beta1_tau1" in labels

    def test_unknown_figure(self):
        with pytest.raises(UnknownFigure):
            figure_preset("fig9")


class TestSerialization:
    def test_csv_header_and_roundtrip(self):
        spec = SweepSpec(
            axis="lambda",
            grid=np.array([0.3, 1.7]),
            fixed={"beta": 0.5, "n": 1, "tau": 1.0},
        )
        text = records_to_csv(spec, run_sweep(spec))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(CSV_COLUMNS)
        good, bad = rows[1], rows[2]
        assert good[0] == "lambda"
        assert float(good[1]) == 0.3
        assert float(good[6]) >= 0.0
        assert good[9] == ""
        assert bad[2] == "" and bad[9].startswith("InvalidParams")

    def test_csv_floats_roundtrip_exactly(self):
        spec = small_tau_spec(grid=np.array([0.7, 1.3]))
        recs = run_sweep(spec)
        rows = list(csv.reader(io.StringIO(records_to_csv(spec, recs))))[1:]
        for rec, row in zip(recs, rows):
            assert float(row[4]) == rec.point.lambda_tr
            assert float(row[6]) == rec.point.lambda_op
            assert float(row[7]) == rec.point.ratio_op

    def test_sweep_to_csv_builds_no_point(self, monkeypatch):
        # A sweep's rows go from qsl_curve's checked table to the writer
        # as floats; a QslPoint is built only where one point is asked for.
        built = []
        check = QslPoint.__post_init__
        monkeypatch.setattr(QslPoint, "__post_init__", lambda pt: built.append(check(pt)))
        spec = SweepSpec(
            axis="lambda",
            grid=np.linspace(0.0, 1.0, 81),
            fixed={"beta": 0.5, "n": 5, "tau": 1.0},
        )
        text = records_to_csv(spec, run_sweep(spec))
        assert text.count("\n") == 82
        assert built == []

    def test_csv_uses_lf_line_endings(self):
        spec = small_tau_spec(grid=np.array([0.5, 1.0]))
        text = records_to_csv(spec, run_sweep(spec))
        assert "\r" not in text
        assert text.endswith("\n")

    def test_json_document(self):
        spec = SweepSpec(
            axis="lambda",
            grid=np.array([0.4, 0.6]),
            fixed={"beta": 0.5, "n": 1, "tau": 1.0},
        )
        doc = json.loads(records_to_json(spec, run_sweep(spec)))
        assert doc["spec"]["axis"] == "lambda"
        assert doc["spec"]["version"]
        assert doc["records"][0]["error"] is None
        assert 0.0 <= doc["records"][0]["ratio_op"] <= 1.0 + 1e-9

    def test_csv_and_json_rows_agree(self):
        spec = SweepSpec(
            axis="lambda",
            grid=np.array([0.3, 0.45, 1.7]),
            fixed={"beta": 0.5, "n": 1, "tau": 1.0},
        )
        recs = run_sweep(spec)
        assert [r.error is None for r in recs] == [True, True, False]
        rows = list(csv.DictReader(io.StringIO(records_to_csv(spec, recs))))
        docs = json.loads(records_to_json(spec, recs))["records"]
        assert len(rows) == len(docs) == len(recs)
        for row, doc in zip(rows, docs):
            assert list(row) == list(CSV_COLUMNS)
            for col in CSV_COLUMNS:
                want = doc.get(col)
                if want is None:
                    assert row[col] == ""
                elif isinstance(want, str):
                    assert row[col] == want
                else:
                    assert float(row[col]) == want

    def test_write_records_rejects_unknown_format(self, tmp_path):
        spec = small_tau_spec(grid=np.array([0.5, 1.0]))
        with pytest.raises(InvalidParams):
            write_records(str(tmp_path / "x.bin"), spec, run_sweep(spec), "bin")

    def test_error_text_is_single_line(self):
        rec = CurveRecord(axis_value=1.0, row=None, error="InvalidParams: x")
        assert "\n" not in rec.error


class TestRunFigure:
    def test_fig4_writes_files_and_manifest(self, tmp_path):
        paths, failures = run_figure("fig4", str(tmp_path), threads=2)
        assert failures == 0
        assert len(paths) == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["figure"] == "fig4"
        assert len(manifest["files"]) == 4
        for entry, path in zip(manifest["files"], paths):
            digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
            assert entry["sha256"] == digest
            assert entry["errors"] == 0

    def test_unknown_format_is_refused_before_any_work(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(InvalidParams):
            run_figure("fig4", str(out), fmt="bin")
        assert not out.exists()

    def test_json_output_echoes_no_format(self, tmp_path):
        paths, failures = run_figure("fig4", str(tmp_path), fmt="json")
        assert failures == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for entry, path in zip(manifest["files"], paths):
            assert entry["file"].endswith(".json")
            doc = json.loads(open(path, encoding="utf-8").read())
            assert doc["spec"] == entry["spec"]
            assert not {"csv", "json"} & set(map(str, entry["spec"].values()))

    def test_manifest_config_hash_is_timestamp_free(self, tmp_path):
        run_figure("fig4", str(tmp_path / "a"))
        run_figure("fig4", str(tmp_path / "b"))
        m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]
        assert [e["sha256"] for e in m1["files"]] == [e["sha256"] for e in m2["files"]]
