"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from gibbsflow.cli import main
from gibbsflow.parallel import default_threads
from gibbsflow.serialize import SCHEMA_VERSION
from gibbsflow.spectral import field_from_modes, field_to_json


SUBCOMMANDS = ["sample", "evolve", "invariance", "cm", "dichotomy", "ldp",
               "entropy-check"]


class TestHelp:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in SUBCOMMANDS:
            assert sub in out

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_subcommand_help_lists_defaults(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out
        assert "default" in out  # ArgumentDefaultsHelpFormatter shows them

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--no-such-flag"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_parameter_exits_one(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", f"--alpha={value}"])
        assert exc.value.code == 1
        assert "not a finite number" in capsys.readouterr().err

    def test_no_subcommand_exits_one(self):
        assert main([]) == 1

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_threads_only_where_work_is_parallel(self, sub, capsys):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        has_threads = "--threads" in capsys.readouterr().out
        assert has_threads == (sub in ("invariance", "cm", "ldp"))

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_seed_only_where_random_numbers_are_drawn(self, sub, capsys):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        out = capsys.readouterr().out
        draws = sub in ("sample", "invariance", "cm", "ldp", "entropy-check")
        assert ("--seed" in out) == draws
        assert ("--stream" in out) == draws

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_csv_only_where_a_table_is_written(self, sub, capsys):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        has_csv = "--csv" in capsys.readouterr().out
        assert has_csv == (sub in ("invariance", "ldp"))

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_bad_thread_variable_exits_one(self, value, monkeypatch, capsys):
        monkeypatch.setenv("GIBBSFLOW_THREADS", value)
        with pytest.raises(ValueError, match="GIBBSFLOW_THREADS"):
            default_threads()
        assert main(["dichotomy", "--mode", "kakutani", "--nmax", "10"]) == 1
        assert "GIBBSFLOW_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_thread_count_below_one_exits_one(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invariance", "--threads", value])
        assert exc.value.code == 1
        assert "thread count >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["cm", "--evolve", "4"],
                                      ["invariance", "--thread", "2"]])
    def test_option_prefix_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


class TestSampleCommand:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["sample", "--family", "white", "--nmax", "8", "--real",
                "--seed", "1"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_sidecar_and_rerun(self, tmp_path):
        out = tmp_path / "field.json"
        assert main(["sample", "--family", "fwb", "--alpha", "1.0",
                     "--nmax", "4", "--seed", "7", "--out", str(out)]) == 0
        sidecar = tmp_path / "field.json.config.json"
        assert sidecar.exists()
        config = json.loads(sidecar.read_text())
        assert config["schema_version"] == SCHEMA_VERSION
        assert config["resolved_args"]["subcommand"] == "sample"
        rerun = tmp_path / "rerun.json"
        assert main(["--config", str(sidecar), "--out", str(rerun)]) == 0
        assert rerun.read_bytes() == out.read_bytes()

    def _sidecar(self, tmp_path):
        out = tmp_path / "field.json"
        assert main(["sample", "--family", "fwb", "--nmax", "4", "--seed", "7",
                     "--out", str(out)]) == 0
        return tmp_path / "field.json.config.json"

    def _replay_edited(self, tmp_path, capsys, edit):
        sidecar = self._sidecar(tmp_path)
        config = json.loads(sidecar.read_text())
        edit(config["resolved_args"])
        sidecar.write_text(json.dumps(config))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(sidecar), "--out", str(tmp_path / "rerun.json")])
        assert exc.value.code == 1
        assert not (tmp_path / "rerun.json").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("alpha", "Infinity", "not a finite number"),
        ("nmax", "4", "nmax"),
        ("family", "pink", "invalid choice"),
    ])
    def test_config_bad_value_exits_one(self, tmp_path, capsys, key, value, message):
        err = self._replay_edited(tmp_path, capsys,
                                  lambda args: args.update({key: value}))
        assert message in err

    def test_config_unknown_key_exits_one(self, tmp_path, capsys):
        err = self._replay_edited(tmp_path, capsys,
                                  lambda args: args.update({"bogus": 1}))
        assert "bogus" in err

    def test_config_missing_key_exits_one(self, tmp_path, capsys):
        err = self._replay_edited(tmp_path, capsys, lambda args: args.pop("seed"))
        assert "missing values: seed" in err

    @pytest.mark.parametrize("argv, key", [
        (["sample", "--nmax", "4"], "csv"),
        (["dichotomy", "--mode", "kakutani", "--nmax", "10"], "seed"),
        (["dichotomy", "--mode", "kakutani", "--nmax", "10"], "stream"),
    ])
    def test_config_removed_option_exits_one(self, tmp_path, capsys, argv, key):
        # Sidecars written before --csv, --seed and --stream were limited
        # to the subcommands that read them still hold those keys.
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 0
        sidecar = tmp_path / "out.json.config.json"
        config = json.loads(sidecar.read_text())
        assert key not in config["resolved_args"]
        config["resolved_args"][key] = None if key == "csv" else 0
        sidecar.write_text(json.dumps(config))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(sidecar), "--out", str(tmp_path / "rerun.json")])
        assert exc.value.code == 1
        assert key in capsys.readouterr().err

    def test_stdout_mode(self, capsys):
        assert main(["sample", "--family", "white", "--nmax", "2",
                     "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert len(payload["field"]["coeffs"]) == 5


class TestDichotomyCommand:
    def test_feldman_hajek_series(self, tmp_path):
        out = tmp_path / "fh.json"
        assert main(["dichotomy", "--mode", "feldman-hajek", "--beta", "1",
                     "--gamma", "2", "--nmax", "4096", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        rep = payload["report"]
        assert rep["verdict"] == "singular"
        for n, s in zip(rep["partial_ns"], rep["partial_sums"]):
            assert s == pytest.approx(2 * n / 9.0, rel=1e-12)

    def test_kakutani_verdicts(self, tmp_path):
        for decay, expected in [(1.4, "singular"), (1.8, "equivalent")]:
            out = tmp_path / f"k{decay}.json"
            assert main(["dichotomy", "--mode", "kakutani", "--u-decay", "1.0",
                         "--v-decay", str(decay), "--nmax", "100000",
                         "--out", str(out)]) == 0
            assert json.loads(out.read_text())["report"]["verdict"] == expected

    def test_divergent_statistic_is_strict_json(self, tmp_path):
        # The singular case's divergent statistic once came out as a bare
        # Infinity token, which strict parsers reject.
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        out = tmp_path / "k.json"
        assert main(["dichotomy", "--mode", "kakutani", "--u-decay", "1.0",
                     "--v-decay", "1.4", "--nmax", "1000",
                     "--out", str(out)]) == 0
        for path in (out, tmp_path / "k.json.config.json"):
            payload = json.loads(path.read_text(), parse_constant=reject)
            assert payload["schema_version"] == SCHEMA_VERSION == "2"
        assert json.loads(out.read_text())["report"]["statistic"] == "Infinity"


class TestEvolveCommand:
    def test_trajectory_roundtrip(self, tmp_path):
        init = tmp_path / "init.json"
        init.write_text(json.dumps(field_to_json(
            field_from_modes(1, {1: 0.5}))))
        out = tmp_path / "traj.json"
        code = main(["evolve", "--eq", "wick-nls", "--sign", "plus",
                     "--dt", "1e-3", "--t", "0.5", "--record-every", "100",
                     "--init", str(init), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["blowup_flag"] is False
        assert len(payload["times"]) == len(payload["fields"])
        assert payload["mass_series"][0] == pytest.approx(2 * np.pi * 0.25)
        drift = abs(payload["mass_series"][-1] - payload["mass_series"][0])
        assert drift < 1e-10

    def test_missing_init_exits_one(self, tmp_path):
        assert main(["evolve", "--eq", "nls", "--dt", "1e-3", "--t", "0.1",
                     "--init", str(tmp_path / "nope.json")]) == 1


class TestExperimentCommands:
    def test_invariance_small_run(self, tmp_path):
        out = tmp_path / "inv.json"
        code = main(["invariance", "--preset", "kdv-white-noise",
                     "--nmax", "8", "--samples", "300", "--t", "0.2",
                     "--dt", "2e-3", "--seed", "5", "--out", str(out),
                     "--csv", str(tmp_path / "inv.csv")])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["any_rejection"] is False
        header = (tmp_path / "inv.csv").read_text().splitlines()[0]
        assert header == "observable,statistic,p_value"

    def test_negative_control_underpowered_flags(self, tmp_path):
        # With a tiny budget the deliberately wrong pairing is not detected,
        # which the CLI reports as a flagged failure (exit 2).
        out = tmp_path / "neg.json"
        code = main(["invariance", "--preset", "negative-control",
                     "--samples", "150", "--t", "0.05", "--seed", "3",
                     "--out", str(out)])
        assert code == 2

    def test_cm_small_run(self, tmp_path):
        out = tmp_path / "cm.json"
        code = main(["cm", "--preset", "theorem-1", "--nmax", "8",
                     "--samples", "2000", "--t", "0.05",
                     "--evolve-samples", "4", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["identities_pass"] is True

    def test_ldp_run(self, tmp_path):
        out = tmp_path / "ldp.json"
        code = main(["ldp", "--family", "fwb", "--real", "--nmax", "0",
                     "--epsilons", "0.5,0.35,0.25", "--samples", "50000",
                     "--seed", "4", "--out", str(out),
                     "--csv", str(tmp_path / "ldp.csv")])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["oracle"] == pytest.approx(-0.245)
        header = (tmp_path / "ldp.csv").read_text().splitlines()[0]
        assert header == "epsilon,p_hat,ci_lo,ci_hi,eps2_log,oracle"

    @pytest.mark.parametrize("argv, header", [
        (["invariance", "--preset", "kdv-white-noise", "--nmax", "4",
          "--samples", "100", "--t", "0.01", "--dt", "1e-3"],
         "observable,statistic,p_value"),
        (["ldp", "--family", "fwb", "--real", "--nmax", "0",
          "--samples", "20000"],
         "epsilon,p_hat,ci_lo,ci_hi,eps2_log,oracle"),
    ])
    def test_csv_without_out(self, tmp_path, capsys, argv, header):
        csv = tmp_path / "table.csv"
        main(argv + ["--csv", str(csv)])
        assert json.loads(capsys.readouterr().out)["schema_version"] == SCHEMA_VERSION
        assert csv.read_text().splitlines()[0] == header
        assert list(tmp_path.iterdir()) == [csv]

    def test_entropy_check_run(self, tmp_path):
        out = tmp_path / "ent.json"
        code = main(["entropy-check", "--hamiltonian", "quartic",
                     "--cells", "1024", "--directions", "5",
                     "--seed", "6", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["strict_decrease"] is True
