import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from levylab import cli, levy
from levylab import criterion as crit
from levylab.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main,
                         parse_levels, spec_slug)


def run_cli(argv):
    return main(argv)


class TestParsing:
    def test_spec_slug(self):
        assert spec_slug("lq:q=4:dim=3") == "lq-q-4-dim-3"
        assert spec_slug("orlicz:terms=0.5*t^3+0.5*t^5:dim=3") == \
            "orlicz-terms-0-5-t-3-0-5-t-5-dim-3"

    def test_parse_levels(self):
        assert parse_levels("") is None
        assert parse_levels("16:32,64:128") == [(16, 32), (64, 128)]
        with pytest.raises(Exception):
            parse_levels("16-32")
        with pytest.raises(Exception):
            parse_levels("0:32")

    def test_bad_spec_exits_2(self, tmp_path):
        assert run_cli(["criterion", "--spec", "lq:q=0.5:dim=3",
                        "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_command_table_drives_parser_and_dispatch(self, tmp_path):
        parser = cli.build_parser()
        for name, (_, default_p) in cli.COMMANDS.items():
            assert parser.parse_args([name, "--spec", "lq:q=4:dim=3"]).p == default_p
        assert cli.run(cli.RunConfig(command="bogus", spec="lq:q=4:dim=3",
                                     out=str(tmp_path))) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["criterion", "derive", "posdef"])
    def test_exponent_beyond_double_precision_exits_2(self, tmp_path, capsys, command):
        code = run_cli([command, "--spec", "orlicz:terms=1*t^2+1*t^1e300:dim=3",
                        "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "exceeds 1e+15" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--format", "csv"), ("--x1-max", "64")])
    def test_removed_flags_exit_2(self, tmp_path, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(["criterion", "--spec", "lq:q=4:dim=3", flag, value,
                     "--out", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        code = run_cli(["criterion", "--spec", "lq:q=4:dim=3", "--out", str(out)])
        assert code == EXIT_CONFIG
        strerror = "Not a directory" if under else "File exists"
        assert capsys.readouterr().err.splitlines() == [
            f"invalid configuration: --out {str(out)!r}: {strerror}"]
        assert blocker.read_text() == ""


class TestCriterionCommand:
    def test_applies_run(self, tmp_path):
        code = run_cli(["criterion", "--spec", "lq:q=4:dim=3", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = (tmp_path / "criterion_lq-q-4-dim-3_1.txt").read_text()
        assert "verdict: Applies" in report
        profile = (tmp_path / "criterion_lq-q-4-dim-3_1.csv").read_text()
        assert profile.startswith("x1,sup_d2")
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "command=criterion" in manifest
        assert manifest.count("sha256=") == 2

    def test_max_norm_not_applicable_but_exits_zero(self, tmp_path):
        code = run_cli(["criterion", "--spec", "lq:q=inf:dim=3", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = (tmp_path / "criterion_lq-q-inf-dim-3_1.txt").read_text()
        assert "verdict: NotApplicable" in report
        assert "reason:" in report

    def test_manifest_hashes_verify(self, tmp_path):
        import hashlib
        run_cli(["criterion", "--spec", "lq:q=3:dim=3", "--out", str(tmp_path)])
        for line in (tmp_path / "manifest.txt").read_text().splitlines():
            if line.startswith("file="):
                name, digest = line.split(" sha256=")
                data = (tmp_path / name.removeprefix("file=")).read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest

    def test_orlicz_route_disagreement_reported(self, tmp_path):
        # M(t) = t^2.0000001: M'(0) = M''(0) = 0 proves conditions I-III,
        # while d2 decays like x1^1e-7, too slowly for the grid's ladder
        code = run_cli(["criterion", "--spec", "orlicz:terms=1*t^2.0000001:dim=3",
                        "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = (tmp_path / "criterion_orlicz-terms-1-t-2-0000001-dim-3_1.txt").read_text()
        assert "\nverdict: FailsConditionIII\n" in report
        assert "\nanalytic_flatness: True (proved for power families)\n" in report
        assert ("\ndisagreement: the analytic check proves conditions I-III for this "
                "power family, but the grid verdict is FailsConditionIII\n") in report

    @pytest.mark.parametrize("spec, flat_line", [
        ("orlicz:terms=0.5*t^3+0.5*t^5:dim=3",
         "analytic_flatness: True (proved for power families)"),
        ("lq:q=4:dim=3", None),
    ])
    def test_agreeing_routes_report_no_disagreement(self, tmp_path, spec, flat_line):
        assert run_cli(["criterion", "--spec", spec, "--out", str(tmp_path)]) == EXIT_OK
        report = (tmp_path / f"criterion_{spec_slug(spec)}_1.txt").read_text()
        assert "verdict: Applies\n" in report
        assert "disagreement:" not in report
        if flat_line is None:
            assert "analytic_flatness:" not in report
        else:
            assert f"\n{flat_line}\n" in report

    def test_oversized_theta_count_exits_2(self, tmp_path, capsys):
        cap = crit.MAX_THETA_COUNT
        code = run_cli(["criterion", "--spec", "lq:q=4:dim=3", "--theta-count", str(cap + 1),
                        "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"invalid configuration: theta_count must lie in [8, {cap}], got {cap + 1}"]
        assert not (tmp_path / "manifest.txt").exists()


class TestLevyCommand:
    def test_dim2_feasible(self, tmp_path):
        code = run_cli(["levy", "--spec", "lq:q=4:dim=2", "--p", "1",
                        "--seed", "7", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = (tmp_path / "levy_lq-q-4-dim-2_1.txt").read_text()
        assert "interpretation: FeasibleEvidence" in report
        assert (tmp_path / "levy_lq-q-4-dim-2_1_measure.csv").exists()

    @pytest.mark.parametrize("command", ["levy"])
    def test_unsupported_dim_exits_2(self, tmp_path, capsys, command):
        code = run_cli([command, "--spec", "lq:q=4:dim=4", "--p", "1",
                        "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "supports dim [2, 3], got dim = 4" in capsys.readouterr().err

    def test_all_skips_levy_above_dim_3(self, tmp_path):
        code = run_cli(["all", "--spec", "lq:q=4:dim=4", "--p", "1", "--trials", "20",
                        "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "criterion_lq-q-4-dim-4_1.csv", "criterion_lq-q-4-dim-4_1.txt",
            "manifest.txt", "posdef_lq-q-4-dim-4_1.csv", "posdef_lq-q-4-dim-4_1.txt"]
        assert "verdict: NotApplicable" in (tmp_path / "criterion_lq-q-4-dim-4_1.txt").read_text()
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "\nnote: levy skipped (the moment problem supports dims 2 and 3)\n" in manifest

    @pytest.mark.parametrize("dim", [2, 4])
    def test_all_criterion_refusal_fits_the_dim(self, tmp_path, dim):
        code = run_cli(["all", "--spec", f"lq:q=4:dim={dim}", "--p", "1", "--trials", "20",
                        "--out", str(tmp_path)])
        assert code == EXIT_OK
        reason = next(line for line in
                      (tmp_path / f"criterion_lq-q-4-dim-{dim}_1.txt").read_text().splitlines()
                      if line.startswith("reason: "))
        assert reason.startswith(f"reason: requires dim = 3 (got dim = {dim}); ")
        assert ("plane" in reason) == (dim == 2)
        if dim != 2:
            assert "the theorem is stated for 3-dimensional spaces" in reason

    def test_oversized_level_exits_2(self, tmp_path, capsys):
        cap = levy.MAX_LEVEL_SIZE
        code = run_cli(["levy", "--spec", "lq:q=4:dim=3", "--p", "1",
                        "--levels", f"8:{cap + 1}", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"invalid configuration: levels need {cap + 1} directions or samples (the "
            f"plateau probe takes 4x the last level's directions), more than {cap}"]
        assert not (tmp_path / "manifest.txt").exists()

    def test_custom_levels(self, tmp_path):
        code = run_cli(["levy", "--spec", "lq:q=4:dim=2", "--p", "1",
                        "--levels", "8:16,32:64", "--out", str(tmp_path)])
        assert code == EXIT_OK
        csv = (tmp_path / "levy_lq-q-4-dim-2_1.csv").read_text().splitlines()
        assert csv[1].startswith("0,8,16,")
        assert csv[2].startswith("1,32,64,")


class TestPosdefCommand:
    def test_witness_artifacts(self, tmp_path):
        code = run_cli(["posdef", "--spec", "lq:q=4:dim=2", "--p", "1.5",
                        "--trials", "200", "--points", "10",
                        "--seed", "3", "--out", str(tmp_path)])
        assert code == EXIT_OK
        text = (tmp_path / "posdef_lq-q-4-dim-2_1.5.txt").read_text()
        assert "min_eigenvalue:" in text

    def test_cloud_beyond_one_search_block_exits_2(self, tmp_path, capsys):
        code = run_cli(["posdef", "--spec", "lq:q=4:dim=3", "--trials", "10",
                        "--points", "182", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "invalid configuration: n_points must be at most 181: 182 points make "
            "16471 pairs, more than one search block of 16384 rows"]
        assert not (tmp_path / "manifest.txt").exists()


class TestDemoCommand:
    def test_flat_norm_sweep_has_empty_fourier_columns(self, tmp_path):
        code = run_cli(["demo", "--spec", "lq:q=4:dim=3", "--p", "0.5",
                        "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "demo_lq-q-4-dim-3_0.5.csv").read_text().splitlines()
        assert rows[0] == "n,lhs,lhs_err,rhs,lower_bound"
        assert rows[1].endswith(",,")      # no representing measure in play
        assert len(rows) == 6              # n in (2, 4, 8, 16, 32)
        report = (tmp_path / "demo_lq-q-4-dim-3_0.5.txt").read_text().splitlines()
        assert all(" phi_count=" in line and " panels=" in line for line in report[3:])

    def test_demo_rejects_p_outside_unit_interval(self, tmp_path):
        code = run_cli(["demo", "--spec", "lq:q=4:dim=3", "--p", "1.5",
                        "--out", str(tmp_path)])
        assert code == EXIT_CONFIG


# (d1, d2) of each derive probe for lq:q=4:dim=3, frozen from a run that
# evaluated one probe per call
L4_DERIVE_D1_D2 = [
    (0.11911542419999835, 0.67280580262416678),
    (0.43869133765083085, 0.87738267530166181),
    (0.0, 0.0),
    (0.99418039455939189, 0.01156023714603944),
    (9.9999999999925002e-10, 2.9999999999947502e-06),
    (-0.76968273608106152, 0.68031983958748565),
]


class TestDeriveCommand:
    def test_probe_table(self, tmp_path):
        code = run_cli(["derive", "--spec", "lq:q=4:dim=3", "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "derive_lq-q-4-dim-3_1.csv").read_text().splitlines()
        assert rows[0] == "x1,x2,x3,norm,d1,d2,fd_d1,fd_d2"
        assert len(rows) == 1 + len(L4_DERIVE_D1_D2)
        for row, frozen in zip(rows[1:], L4_DERIVE_D1_D2):
            d1, d2 = (float(v) for v in row.split(",")[4:6])
            assert (d1, d2) == pytest.approx(frozen, rel=1e-12, abs=0.0)


class TestDeterminism:
    @staticmethod
    def assert_reruns_identical(tmp_path, argv):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(argv + ["--out", str(out_a)])
        run_cli(argv + ["--out", str(out_b)])
        files_a = sorted(f.name for f in out_a.iterdir())
        assert files_a == sorted(f.name for f in out_b.iterdir())
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        self.assert_reruns_identical(
            tmp_path, ["levy", "--spec", "lq:q=4:dim=2", "--p", "1", "--seed", "7"])

    def test_demo_reruns_are_byte_identical(self, tmp_path):
        self.assert_reruns_identical(tmp_path, ["demo", "--spec", "euclidean:dim=3", "--p", "0.5"])


class TestTimings:
    @pytest.mark.parametrize("argv, routes", [
        (["all", "--spec", "lq:q=4:dim=4", "--p", "1", "--trials", "20"],
         ["criterion", "posdef"]),
        (["posdef", "--spec", "lq:q=4:dim=2", "--trials", "20", "--points", "6"], ["posdef"]),
    ])
    def test_timings_go_to_stderr_only(self, tmp_path, capsys, argv, routes):
        plain, timed = tmp_path / "plain", tmp_path / "timed"
        assert run_cli(argv + ["--out", str(plain)]) == EXIT_OK
        assert "timing:" not in capsys.readouterr().err
        assert run_cli(argv + ["--out", str(timed), "--timings"]) == EXIT_OK
        timing_lines = [line for line in capsys.readouterr().err.splitlines()
                        if line.startswith("timing:")]
        assert [line.split()[1] for line in timing_lines] == routes
        assert all(float(line.split()[2]) >= 0.0 for line in timing_lines)
        names = sorted(f.name for f in plain.iterdir())
        assert names == sorted(f.name for f in timed.iterdir())
        for name in names:
            assert (plain / name).read_bytes() == (timed / name).read_bytes()


class TestConflictDetection:
    def test_fabricated_conflict_reports(self, tmp_path, monkeypatch):
        """Force criterion Applies + levy FeasibleEvidence to exercise the
        consistency gate; no real spec produces this pair."""
        from levylab import levy as levy_mod

        real_scan = levy_mod.feasibility_scan

        def fake_scan(spec, p, levels=None, seed=0):
            result = real_scan(spec, p, levels=[(8, 16)], seed=seed)
            result.interpretation = levy_mod.FEASIBLE
            return result

        monkeypatch.setattr(cli.levy, "feasibility_scan", fake_scan)
        code = run_cli(["all", "--spec", "lq:q=4:dim=3", "--p", "1.5",
                        "--trials", "50", "--points", "8", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "CONFLICT" in manifest


    def test_all_raises_route_disagreement_to_conflict(self, tmp_path, capsys):
        spec = "orlicz:terms=1*t^2.0000001:dim=3"
        code = run_cli(["all", "--spec", spec, "--p", "1", "--levels", "8:16",
                        "--trials", "20", "--points", "5", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        banner = ("CONFLICT: criterion routes disagree: the analytic check proves "
                  "conditions I-III for this power family, but the grid verdict is "
                  "FailsConditionIII")
        assert f"\n{banner}\n" in (tmp_path / "manifest.txt").read_text()
        assert banner in capsys.readouterr().err


NUMBER_TEXT = st.one_of(
    st.floats().map(repr),                      # includes nan, inf, -inf, 1e+308
    st.integers(-3, 12).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-0", "1e-320", "2.0000001",
                     "1000", "1e300", "", "abc", "1e308"]),
)
DIM_TEXT = st.one_of(st.integers(-2, 12).map(str),
                     st.sampled_from(["", "3.5", "x", "1e3", "99999999999999999999"]))
TERMS_TEXT = st.lists(st.tuples(NUMBER_TEXT, NUMBER_TEXT), min_size=1, max_size=3).map(
    lambda terms: "+".join(f"{c}*t^{e}" for c, e in terms))
SPEC_TEXT = st.one_of(
    st.builds("lq:q={}:dim={}".format, NUMBER_TEXT, DIM_TEXT),
    st.builds("euclidean:dim={}".format, DIM_TEXT),
    st.builds("orlicz:terms={}:dim={}".format, TERMS_TEXT, DIM_TEXT),
    st.text(alphabet="lqorliczeuclidan:=*t^+-.0123456789", max_size=40),
)


class TestFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=SPEC_TEXT)
    @example(spec="orlicz:terms=1e308*t^3+1e308*t^5:dim=3")    # coefficient sum overflows
    @example(spec="orlicz:terms=1*t^1e308+1*t^1e308:dim=3")    # exponent above the cap
    def test_every_spec_ends_in_a_documented_exit_code(self, tmp_path, spec):
        for command in ("criterion", "derive", "posdef"):
            config = cli.RunConfig(command=command, spec=spec, theta_count=8, trials=2,
                                   points=3, out=str(tmp_path))
            assert cli.run(config) in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
