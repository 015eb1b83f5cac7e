"""End-to-end command line behavior, including exit codes and goldens."""

import inspect
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmtradeoff import cli, errors, oracle
from qmtradeoff.errors import DegenerateSampleError
from qmtradeoff.linalg import matrix_to_json

SWEEP_FIVE_POINTS = """\
lambda,info,fidelity_opt,reversibility,eff_fidelity,eff_reversibility
0,0.278652479556,0.666666666667,0,0.835957438667,0.278652479556
0.25,0.206875912815,0.823529411765,0.117647058824,1.17229683928,0.234459367857
0.5,0.0900577180015,0.933333333333,0.4,1.35086577002,0.150096196669
0.75,0.0190024319704,0.986666666667,0.72,1.42518239778,0.0678658284655
1,0,1,1,1.44269504089,0
"""

ANALYZE_DIAG_HALF = """\
kappa             = 1
lambda            = 0.5
alpha             = 0
beta              = 0
gamma             = 0
delta             = 0
info              = 0.0900577180015
fidelity          = 0.933333333333
fidelity_opt      = 0.933333333333
reversibility     = 0.4
eff_fidelity      = 1.35086577002
eff_reversibility = 0.150096196669
"""

VERIFY_FAIL_STDERR = """\
lambda=0  3/4 checks passed  (reversibility skipped: irreversible)
lambda=0.5  4/6 checks passed
verify: FAIL information (quadrature) at lambda=0.0: error 1.000e-03 > bound 1.000e-08
verify: FAIL information (quadrature) at lambda=0.5: error 1.000e-03 > bound 1.000e-08
verify: FAIL information (monte-carlo) at lambda=0.5: error 1.146e-03 > bound 8.638e-04
verify: FAIL (7/10 checks)
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_matrix(path, m):
    path.write_text(json.dumps(matrix_to_json(np.asarray(m, dtype=complex))))
    return str(path)


def assert_stdlib_layout(text):
    """``text`` is laid out as the standard library's indenting encoder
    lays out the same JSON."""
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def parsed_keyvals(out):
    vals = {}
    for line in out.splitlines():
        key, _, rhs = line.partition("=")
        vals[key.strip()] = rhs.strip()
    return vals


class TestSweep:
    def test_csv_golden(self, capsys):
        code, out, err = run(capsys, "sweep", "--points", "5")
        assert code == 0
        assert out == SWEEP_FIVE_POINTS

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--points", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["lambda"] for r in rows] == [0.0, 0.5, 1.0]
        assert set(rows[0]) == {
            "lambda",
            "info",
            "fidelity_opt",
            "reversibility",
            "eff_fidelity",
            "eff_reversibility",
        }
        assert rows[1]["reversibility"] == pytest.approx(0.4, abs=1e-11)

    def test_output_file_has_unix_line_endings(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "sweep", "--points", "5", "--output", str(target))
        assert code == 0
        assert out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.decode() == SWEEP_FIVE_POINTS

    def test_sub_range(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--lambda-min", "0.2", "--lambda-max", "0.4", "--points", "3"
        )
        assert code == 0
        lams = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert lams == ["0.2", "0.3", "0.4"]

    def test_degenerate_grid_accepted(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--lambda-min",
            "0.5",
            "--lambda-max",
            "0.5",
            "--points",
            "2",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 2
        assert rows[0] == rows[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--lambda-min", "-0.1"),
            ("sweep", "--lambda-max", "1.5"),
            ("sweep", "--lambda-min", "0.9", "--lambda-max", "0.1"),
            ("sweep", "--points", "0"),
            ("sweep", "--points", "1"),
        ],
    )
    def test_bad_grid_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error" in err


class TestAnalyze:
    def test_diagonal_golden(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "m.json", np.diag([1.0, 0.5]))
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert out == ANALYZE_DIAG_HALF

    def test_rotation_changes_fidelity_only(self, capsys, tmp_path):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        rotated = write_matrix(tmp_path / "hd.json", h @ np.diag([1.0, 0.5]))
        plain = write_matrix(tmp_path / "d.json", np.diag([1.0, 0.5]))
        _, out_r, _ = run(capsys, "analyze", rotated)
        _, out_p, _ = run(capsys, "analyze", plain)
        a, b = parsed_keyvals(out_r), parsed_keyvals(out_p)
        assert a["info"] == b["info"]
        assert a["reversibility"] == b["reversibility"]
        assert a["fidelity_opt"] == b["fidelity_opt"]
        assert a["fidelity"] != b["fidelity"]
        assert float(a["fidelity"]) == pytest.approx(11.0 / 30.0, abs=1e-11)

    def test_left_unitary_factored_once(self, capsys, monkeypatch, tmp_path):
        """analyze prints the fidelity from the angles it already printed."""
        calls = []

        def counting(u, su2_params=cli.su2_params):
            calls.append(u)
            return su2_params(u)

        monkeypatch.setattr(cli, "su2_params", counting)
        monkeypatch.setattr(cli.analytics, "su2_params", counting)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        for m in (np.diag([1.0, 0.5]), h @ np.diag([1.0, 0.5])):
            calls.clear()
            code, out, _ = run(capsys, "analyze", write_matrix(tmp_path / "m.json", m))
            assert code == 0
            assert len(calls) == 1
        assert float(parsed_keyvals(out)["fidelity"]) == pytest.approx(11.0 / 30.0, abs=1e-11)

    def test_identity_operator(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "eye.json", np.eye(2))
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        vals = parsed_keyvals(out)
        assert float(vals["lambda"]) == 1.0
        assert float(vals["info"]) == 0.0
        assert float(vals["fidelity"]) == 1.0
        assert float(vals["reversibility"]) == 1.0

    def test_subnormal_entry_is_a_valid_operator(self, capsys, tmp_path):
        """A subnormal entry leaves the factors unitary, so the operator is
        accepted, with lam as small as that entry."""
        path = write_matrix(tmp_path / "m.json", [[5e-324 + 5e-324j, 0.0], [0.0, 0.5]])
        code, out, err = run(capsys, "analyze", path)
        assert (code, err) == (0, "")
        assert float(parsed_keyvals(out)["lambda"]) < 1e-322

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/m.json")
        assert code == 2
        assert "error" in err

    def test_unparseable_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2

    def test_wrong_shape(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([[[1, 0]]]))
        code, _, _ = run(capsys, "analyze", str(path))
        assert code == 2

    def test_amplifying_matrix_rejected(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "big.json", np.diag([1.5, 0.5]))
        code, _, err = run(capsys, "analyze", path)
        assert code == 2

    def test_overflowing_matrix_rejected_for_its_norm(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "huge.json", 1e200 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert "exceeds 1" in err


class TestVerify:
    ARGS = (
        "verify",
        "--lambda-min",
        "0.25",
        "--lambda-max",
        "0.75",
        "--points",
        "3",
        "--samples",
        "20000",
        "--seed",
        "20260819",
    )

    def test_passes_and_reports(self, capsys):
        code, out, err = run(capsys, *self.ARGS)
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["seed", "samples", "nodes", "tolerance", "grid", "checks",
                                "failures", "passed", "batch"]
        assert report["batch"] == "per-run"
        assert '  "nodes": 64,\n  "tolerance": 1e-08,\n' in out
        op = cli.MeasurementOperator(np.diag([1.0, 1.0]))
        assert report["nodes"] == oracle.NODES == oracle.quadrature_information(op).samples
        assert report["passed"] is True
        assert report["failures"] == 0
        assert report["seed"] == 20260819
        assert len(report["checks"]) == 3 * 3 * 2  # grid x quantity x method
        methods = {c["method"] for c in report["checks"]}
        assert methods == {"quadrature", "monte-carlo"}
        assert "PASS" in err

    def test_monte_carlo_rows_report_jackknife(self, capsys):
        """Each Monte Carlo row carries its estimate's jackknife standard
        error under one added key; quadrature rows keep their keys."""
        _, out, _ = run(capsys, *self.ARGS)
        rows = json.loads(out)["checks"]
        keys = ["lambda", "quantity", "method", "value", "reference", "error", "bound", "passed"]
        r = cli.oracle.sample_bloch_vectors(np.random.default_rng(20260819), 20000)
        for lam in (0.25, 0.5, 0.75):
            op = cli.MeasurementOperator(np.diag([1.0, lam]))
            for quantity, (_, _, monte_carlo) in cli.QUANTITIES.items():
                est = monte_carlo(op, r)
                quad, mc = rows.pop(0), rows.pop(0)
                assert list(quad) == keys
                assert list(mc) == keys + ["std_error_jackknife"]
                assert (mc["quantity"], mc["method"]) == (quantity, "monte-carlo")
                assert mc["value"] == est.value
                assert mc["bound"] == max(4.0 * est.std_error, 1e-12)
                assert mc["std_error_jackknife"] == est.std_error_jackknife > 0.0
        assert rows == []

    def test_edge_rows_match_the_oracles(self, capsys):
        """From lam = 0, where reversibility is skipped, to the degenerate
        lam = 1, every quadrature and Monte Carlo row carries the oracles'
        own estimate for diag(1, lam)."""
        code, out, _ = run(capsys, "verify", "--lambda-min", "0", "--lambda-max", "1",
                           "--points", "5", "--samples", "2000", "--seed", "3")
        assert code == 0
        rows = json.loads(out)["checks"]
        r = cli.oracle.sample_bloch_vectors(np.random.default_rng(3), 2000)
        for lam in np.linspace(0.0, 1.0, 5).tolist():
            op = cli.MeasurementOperator(np.diag([1.0, lam]))
            for quantity, (_, quadrature, monte_carlo) in cli.QUANTITIES.items():
                if quantity == "reversibility" and lam == 0.0:
                    assert rows.pop(0) == {"lambda": 0.0, "quantity": quantity,
                                           "method": "skipped", "note": "irreversible",
                                           "passed": True}
                    continue
                for est in (quadrature(op), monte_carlo(op, r)):
                    row = rows.pop(0)
                    assert (row["lambda"], row["quantity"]) == (lam, quantity)
                    assert (row["method"], row["value"]) == (est.method, est.value)
                    assert row.get("std_error_jackknife") == est.std_error_jackknife
                    assert row["bound"] == (cli._VERIFY_TOLERANCE if est.method == "quadrature"
                                            else max(4.0 * est.std_error, 1e-12))
        assert rows == []

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, *self.ARGS)
        _, second, _ = run(capsys, *self.ARGS)
        assert first == second

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, *self.ARGS, "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["passed"] is True

    @pytest.mark.parametrize("quantity", ["information", "fidelity", "reversibility"])
    def test_flags_corrupted_closed_form(self, capsys, monkeypatch, quantity):
        """Negative control: nudging a closed form must trip the oracles."""
        true_fn, quadrature, monte_carlo = cli.QUANTITIES[quantity]
        monkeypatch.setitem(
            cli.QUANTITIES,
            quantity,
            (lambda op: true_fn(op) + 1e-3, quadrature, monte_carlo),
        )
        code, out, err = run(
            capsys,
            "verify",
            "--lambda-min",
            "0.3",
            "--lambda-max",
            "0.7",
            "--points",
            "2",
            "--samples",
            "5000",
            "--seed",
            "1",
        )
        assert code == 1
        assert quantity in err
        report = json.loads(out)
        assert report["passed"] is False
        assert report["failures"] >= 2  # at least the quadrature checks
        assert_stdlib_layout(out)

    def test_failure_summary_golden(self, capsys, monkeypatch):
        """The whole stderr of a failing run: a progress line per lam with
        the skipped row's note, then every failed row in row order, then the
        count of checks passed."""
        true_fn, quadrature, monte_carlo = cli.QUANTITIES["information"]
        monkeypatch.setitem(cli.QUANTITIES, "information",
                            (lambda op: true_fn(op) + 1e-3, quadrature, monte_carlo))
        code, _, err = run(capsys, "verify", "--lambda-min", "0", "--lambda-max", "0.5",
                           "--points", "2", "--samples", "200000", "--seed", "1")
        assert code == 1
        assert err == VERIFY_FAIL_STDERR

    def test_degenerate_sample_is_usage_error(self, capsys, monkeypatch):
        """An estimator whose sample average of q is not positive makes
        verify exit 2 with an error line, not a traceback, and with nothing
        on stdout: the report is written only after the lambda loop."""

        def degenerate(op, r):
            raise DegenerateSampleError("sample average of q is not positive")

        closed_form, quadrature, _ = cli.QUANTITIES["information"]
        monkeypatch.setitem(cli.QUANTITIES, "information", (closed_form, quadrature, degenerate))
        code, out, err = run(capsys, *self.ARGS)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == "error: sample average of q is not positive"

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("quantity", ["information", "fidelity", "reversibility"])
    def test_eight_sigma_nudge_fails_every_monte_carlo_row(self, capsys, monkeypatch,
                                                           quantity, sign):
        """Power of the 4-sigma gate on the shared batch: moving a closed
        form by 8 of each row's own sigma (bound / 4 of an unpatched run)
        fails the Monte Carlo row at every lam. A 4-sigma gate misses an
        8-sigma shift with probability about 3e-5 per row."""
        _, out, _ = run(capsys, *self.ARGS)
        sigma = {c["lambda"]: c["bound"] / 4.0 for c in json.loads(out)["checks"]
                 if c["quantity"] == quantity and c["method"] == "monte-carlo"}
        assert len(sigma) == 3 and min(sigma.values()) > 1e-12

        def nudged(op, true_fn=cli.QUANTITIES[quantity][0]):
            lam = min(sigma, key=lambda x: abs(x - op.lam))
            return true_fn(op) + sign * 8.0 * sigma[lam]

        monkeypatch.setitem(cli.QUANTITIES, quantity, (nudged, *cli.QUANTITIES[quantity][1:]))
        code, out, err = run(capsys, *self.ARGS)
        assert code == 1
        rows = [c for c in json.loads(out)["checks"]
                if c["quantity"] == quantity and c["method"] == "monte-carlo"]
        assert [c["lambda"] for c in rows] == [0.25, 0.5, 0.75]
        for c in rows:
            assert c["bound"] == 4.0 * sigma[c["lambda"]]
            assert not c["passed"], c
        assert f"FAIL {quantity} (monte-carlo)" in err

    def test_one_batch_per_run(self, capsys, monkeypatch):
        """verify draws one batch of --samples states per run and hands that
        same batch to every Monte Carlo check on the grid."""
        draws, seen = [], []
        sample = cli.oracle.sample_bloch_vectors

        def counting(rng, n):
            draws.append(sample(rng, n))
            return draws[-1]

        monkeypatch.setattr(cli.oracle, "sample_bloch_vectors", counting)
        for quantity, (closed_form, quadrature, monte_carlo) in cli.QUANTITIES.items():
            def recording(op, r, monte_carlo=monte_carlo):
                seen.append(r)
                return monte_carlo(op, r)

            monkeypatch.setitem(cli.QUANTITIES, quantity, (closed_form, quadrature, recording))
        argv = ("verify", "--lambda-min", "0", "--lambda-max", "1", "--points", "3",
                "--samples", "2000", "--seed", "5")
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(draws) == 1
        assert draws[0].shape == (3, 2000)
        # Reversibility is skipped at lambda = 0: 2 + 3 + 3 checks.
        assert len(seen) == 2 + 3 + 3
        assert all(r is draws[0] for r in seen)

    def test_seed_is_mandatory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [("--nodes", "8"), ("--tolerance", "1")])
    def test_quadrature_settings_are_not_options(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([*self.ARGS, *flag])
        assert exc.value.code == 2

    def test_zero_strength_skips_reversibility(self, capsys):
        code, out, err = run(
            capsys,
            "verify",
            "--lambda-min",
            "0",
            "--lambda-max",
            "0.5",
            "--points",
            "2",
            "--samples",
            "5000",
            "--seed",
            "2",
        )
        assert code == 0
        assert "irreversible" in err
        report = json.loads(out)
        skipped = [c for c in report["checks"] if c["method"] == "skipped"]
        assert len(skipped) == 1
        assert skipped[0]["quantity"] == "reversibility"
        assert skipped[0]["note"] == "irreversible"
        assert_stdlib_layout(out)

    def test_tiny_strength_skips_reversibility(self, capsys):
        """Every lam below the reversal threshold 1e-14 is irreversible, not
        only lam = 0; each skipped row records its own lam."""
        code, out, err = run(
            capsys, "verify", "--lambda-min", "0", "--lambda-max", "1e-14", "--points", "3",
            "--samples", "2000", "--seed", "1",
        )
        assert code == 0, err
        report = json.loads(out)
        skipped = [c for c in report["checks"] if c["method"] == "skipped"]
        assert [(c["lambda"], c["quantity"]) for c in skipped] == [
            (0.0, "reversibility"), (5e-15, "reversibility")
        ]
        assert all(c["passed"] for c in report["checks"])
        assert report["failures"] == 0 and report["passed"] is True

    def test_progress_lines_tell_small_lambdas_apart(self, capsys):
        """Each grid point's progress line on stderr names its own lam, down
        to the 1e-12 edge the CI verify step covers."""
        code, _, err = run(
            capsys, "verify", "--lambda-min", "0", "--lambda-max", "1e-12", "--points", "5",
            "--samples", "2000", "--seed", "1",
        )
        assert code == 0, err
        progress = [line.split()[0] for line in err.splitlines() if line.startswith("lambda=")]
        assert progress == [f"lambda={x:.12g}" for x in np.linspace(0.0, 1e-12, 5)]
        assert len(set(progress)) == 5


_STRINGS = st.text() | st.sampled_from(["", "\n", '"', "\\", "λ ≤ 1", 'a\n"b\\c\u00e9\U0001f600'])
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e-300, 1e16])
    | _STRINGS
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    """verify and sweep write JSON through cli's own writer, which must give
    the bytes of the standard library's indenting encoder without using it."""

    @settings(max_examples=500, deadline=None)
    @given(value=_JSON_VALUES)
    def test_matches_the_indenting_encoder(self, value):
        assert "".join(cli._json_pieces(value)) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--lambda-min", "0", "--lambda-max", "1", "--points", "1001",
             "--samples", "2000", "--seed", "1"),
            ("sweep", "--format", "json"),
        ],
        ids=["verify-dense", "sweep-json"],
    )
    def test_never_uses_the_pure_python_encoder(self, capsys, monkeypatch, argv):
        """The pure-Python encoder builds the whole text from small strings;
        the C encoder needs none of it."""

        def unavailable(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", unavailable)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        monkeypatch.undo()
        assert_stdlib_layout(out)


class TestSimulateReversal:
    def test_empirical_rate_brackets_prediction(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate-reversal",
            "--lambda",
            "0.5",
            "--theta",
            str(math.pi / 2),
            "--trials",
            "100000",
            "--seed",
            "20260819",
        )
        assert code == 0
        vals = parsed_keyvals(out)
        assert float(vals["predicted_rate"]) == pytest.approx(0.4, abs=1e-11)
        assert 0.388 <= float(vals["empirical_rate"]) <= 0.412
        assert float(vals["recovered_fidelity_min"]) >= 1.0 - 1e-10
        assert int(vals["successes"]) == round(float(vals["empirical_rate"]) * 100000)

    def test_interval_line_shape(self, capsys):
        _, out, _ = run(
            capsys,
            "simulate-reversal",
            "--lambda",
            "0.3",
            "--theta",
            "0",
            "--trials",
            "1000",
            "--seed",
            "3",
        )
        vals = parsed_keyvals(out)
        lo, hi = json.loads(vals["interval_99"])
        assert lo < 0.09 < hi

    def test_unit_strength_always_succeeds(self, capsys):
        _, out, _ = run(
            capsys,
            "simulate-reversal",
            "--lambda",
            "1",
            "--theta",
            "0.7",
            "--trials",
            "5000",
            "--seed",
            "4",
        )
        vals = parsed_keyvals(out)
        assert float(vals["empirical_rate"]) == 1.0
        assert float(vals["recovered_fidelity_min"]) == 1.0

    def test_antipodal_state_always_succeeds(self, capsys):
        _, out, _ = run(
            capsys,
            "simulate-reversal",
            "--lambda",
            "0.5",
            "--theta",
            str(math.pi),
            "--trials",
            "5000",
            "--seed",
            "4",
        )
        vals = parsed_keyvals(out)
        assert float(vals["predicted_rate"]) == 1.0
        assert float(vals["empirical_rate"]) == 1.0

    def test_zero_strength_ratio_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "simulate-reversal",
            "--lambda",
            "0",
            "--theta",
            "1",
            "--seed",
            "1",
        )
        assert code == 2

    def test_negative_strength_ratio_rejected(self, capsys):
        """diag(1, -0.5) would canonicalize to lambda = 0.5; the CLI refuses it."""
        code, out, err = run(
            capsys, "simulate-reversal", "--lambda", "-0.5", "--theta", "1", "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --lambda must lie in (0, 1]")

    def test_bad_trials_rejected(self, capsys):
        code, _, _ = run(
            capsys,
            "simulate-reversal",
            "--lambda",
            "0.5",
            "--theta",
            "1",
            "--trials",
            "0",
            "--seed",
            "1",
        )
        assert code == 2

    def test_seed_is_mandatory(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate-reversal", "--lambda", "0.5", "--theta", "1"])
        assert exc.value.code == 2


class TestAverage:
    @staticmethod
    def projective_payload():
        return {
            "operators": [
                matrix_to_json(np.diag([1.0, 0.0]).astype(complex)),
                matrix_to_json(np.diag([0.0, 1.0]).astype(complex)),
            ],
            "labels": ["up", "down"],
        }

    def test_projective_golden(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps(self.projective_payload()))
        code, out, _ = run(capsys, "average", str(path))
        assert code == 0
        assert out == (
            "outcome up: kappa = 1, lambda = 0, p = 0.5\n"
            "outcome down: kappa = 1, lambda = 0, p = 0.5\n"
            "info              = 0.278652479556\n"
            "fidelity          = 0.666666666667\n"
            "reversibility     = 0\n"
        )

    def test_single_identity_outcome(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(
            json.dumps({"operators": [matrix_to_json(np.eye(2, dtype=complex))]})
        )
        code, out, _ = run(capsys, "average", str(path))
        assert code == 0
        vals = parsed_keyvals(out)
        assert float(vals["info"]) == 0.0
        assert float(vals["fidelity"]) == 1.0
        assert float(vals["reversibility"]) == 1.0

    def test_incomplete_set_rejected(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(
            json.dumps({"operators": [matrix_to_json(np.diag([1.0, 0.0]).astype(complex))]})
        )
        code, _, err = run(capsys, "average", str(path))
        assert code == 2
        assert "error" in err

    def test_unparseable_json(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text("[")
        code, _, _ = run(capsys, "average", str(path))
        assert code == 2

    def test_round_trip_preserves_averages(self, capsys, tmp_path):
        from qmtradeoff.analytics import averaged_quantities
        from qmtradeoff.measurement import two_outcome_family

        mset = two_outcome_family(0.5, 0.8)
        path = tmp_path / "family.json"
        path.write_text(json.dumps(mset.to_json()))
        code, out, _ = run(capsys, "average", str(path))
        assert code == 0
        vals = parsed_keyvals(out)
        direct = averaged_quantities(mset)
        assert float(vals["info"]) == pytest.approx(direct.info, abs=1e-11)
        assert float(vals["fidelity"]) == pytest.approx(direct.fidelity, abs=1e-11)
        assert float(vals["reversibility"]) == pytest.approx(
            direct.reversibility, abs=1e-11
        )


@pytest.mark.parametrize("command", ["analyze", "average"])
def test_integer_beyond_float_range_is_format_error(capsys, tmp_path, command):
    matrix = "[[[1" + "0" * 400 + ", 0], [0, 0]], [[0, 0], [1, 0]]]"
    path = tmp_path / "input.json"
    path.write_text(matrix if command == "analyze" else '{"operators": [' + matrix + "]}")
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (2, "", "error: matrix entries must be finite\n")


@pytest.mark.parametrize("command", ["analyze", "average"])
@pytest.mark.parametrize(
    "text",
    ["[1" + "0" * 5000 + "]", "[" * 100_000 + "]" * 100_000],
    ids=["over-long-integer", "deeply-nested"],
)
def test_undecodable_json_is_format_error(capsys, tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["analyze", "average"])
def test_binary_input_is_format_error(capsys, tmp_path, command):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe\x00\x81 not text")
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "invalid JSON" in err


ERROR_CLASSES = [
    obj
    for _, obj in inspect.getmembers(errors, inspect.isclass)
    if issubclass(obj, Exception) and obj.__module__ == errors.__name__
]


@pytest.mark.parametrize("exc", [*ERROR_CLASSES, MemoryError], ids=lambda e: e.__name__)
def test_every_package_error_is_usage_error(capsys, monkeypatch, exc):
    """Each package error, and a count too large to allocate, exits 2."""
    def failing(args):
        raise exc("rejected")

    monkeypatch.setattr(cli, "cmd_sweep", failing)
    code, out, err = run(capsys, "sweep")
    assert code == 2
    assert out == ""
    assert err == "error: rejected\n"


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("verify", "--points", "1", "--samples", "1000"), "--seed", "-1"),
        (("simulate-reversal", "--lambda", "0.5", "--theta", "1"), "--seed", "-1"),
        (("verify", "--seed", "1"), "--samples", "10000000000000000000"),
        (("simulate-reversal", "--lambda", "0.5", "--theta", "1", "--seed", "1"),
         "--trials", "10000000000000000000"),
        (("sweep",), "--points", "10000000000000000000"),
        (("verify", "--seed", "1"), "--samples", "3074457345618258603"),
    ],
    ids=["verify-seed", "simulate-seed", "samples", "trials", "points", "samples-too-big"],
)
def test_bad_seed_or_count_is_usage_error(capsys, argv, flag, value):
    """A negative seed, or a count that NumPy refuses to size, exits 2 with
    one error line from the argument parser, not a traceback and exit 1.
    Every count here is above 2**61, so nothing is allocated."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"qmtradeoff {argv[0]}: error: argument {flag}: "
        f"expected an integer from 0 to 2**53, got '{value}'"
    )


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
