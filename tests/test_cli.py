"""Tests for the command-line interface."""

import hashlib
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gibbsflow.cli import main
from gibbsflow.experiments import cameron_martin_experiment, invariance_experiment, ldp_mc
from gibbsflow.integrators import evolve_ensemble
from gibbsflow.measures import gibbs_ensemble
from gibbsflow.parallel import default_threads, map_chunks
from gibbsflow.serialize import SCHEMA_VERSION
from gibbsflow.spectral import field_from_modes, field_to_json


SUBCOMMANDS = ["sample", "evolve", "invariance", "cm", "dichotomy", "ldp",
               "entropy-check"]


class TestStartsWithoutScipy:
    def test_no_scipy_module_loaded(self):
        # A fresh interpreter: importing the CLI, --help and a small
        # equal-size invariance run must not load any scipy module.
        script = (
            "import contextlib, io, json, sys\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "def loaded():\n"
            "    return sorted(k for k in sys.modules if k.startswith('scipy'))\n"
            "seen = {}\n"
            "import gibbsflow.cli as cli\n"
            "seen['import'] = loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        cli.main(['--help'])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "    seen['help'] = loaded()\n"
            "    seen['rc'] = cli.main(['invariance', '--preset', 'kdv-white-noise',\n"
            "                           '--nmax', '4', '--samples', '50'])\n"
            "seen['invariance'] = loaded()\n"
            "print(json.dumps(seen))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src")
        out = subprocess.run([sys.executable, "-c", script, src], capture_output=True,
                             text=True, check=True, timeout=300).stdout
        seen = json.loads(out.splitlines()[-1])
        assert seen == {"import": [], "help": [], "rc": 0, "invariance": []}


class TestHelp:
    def test_python_dash_m_runs_the_cli(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        res = subprocess.run([sys.executable, "-m", "gibbsflow", "--help"], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert "invariance" in res.stdout

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

    def test_unset_thread_variable_means_usable_cores(self, monkeypatch):
        monkeypatch.delenv("GIBBSFLOW_THREADS", raising=False)
        assert default_threads() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("fn", [invariance_experiment, cameron_martin_experiment,
                                    ldp_mc, evolve_ensemble, gibbs_ensemble])
    def test_experiments_default_to_default_threads(self, fn):
        assert inspect.signature(fn).parameters["n_threads"].default is None

    def test_map_chunks_none_reads_thread_variable(self, monkeypatch):
        monkeypatch.setenv("GIBBSFLOW_THREADS", "2")
        assert map_chunks(lambda i, a, b: (i, a, b), 600, None) == \
            map_chunks(lambda i, a, b: (i, a, b), 600, 1)
        monkeypatch.setenv("GIBBSFLOW_THREADS", "abc")
        with pytest.raises(ValueError, match="GIBBSFLOW_THREADS"):
            map_chunks(lambda i, a, b: i, 600, None)

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
        (["dichotomy", "--mode", "feldman-hajek", "--nmax", "10"], "s"),
    ])
    def test_config_removed_option_exits_one(self, tmp_path, capsys, argv, key):
        # Sidecars written before --csv, --seed and --stream were limited
        # to the subcommands that read them, or before dichotomy's unused
        # --s went, still hold those keys.
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

    def test_no_s_option(self, capsys):
        # The Feldman-Hajek statistic does not depend on s.
        with pytest.raises(SystemExit) as exc:
            main(["dichotomy", "--mode", "feldman-hajek", "--s", "0.3"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --s 0.3" in capsys.readouterr().err

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

    def test_readme_sample_then_evolve(self, tmp_path):
        # The README's chain: evolve --init reads the report sample --out wrote.
        field = tmp_path / "field.json"
        assert main(["sample", "--family", "fwb", "--alpha", "1.0", "--nmax", "64",
                     "--seed", "7", "--out", str(field)]) == 0
        traj = tmp_path / "traj.json"
        assert main(["evolve", "--eq", "wick-nls", "--sign", "plus", "--dt", "1e-4",
                     "--t", "1.0", "--init", str(field), "--out", str(traj)]) == 0
        payload = json.loads(traj.read_text())
        start = payload["fields"][0]
        drawn = json.loads(field.read_text())["field"]["coeffs"]
        pad = start["n_max"] - 64  # the working band may be wider
        assert start["coeffs"][pad:len(start["coeffs"]) - pad] == drawn
        assert payload["blowup_flag"] is False

    @pytest.mark.parametrize("text", ['{"kind": "trajectory"}', '{"kind": "sample"}',
                                      '[1, 2]', '{"n_max": 1}', 'not json'])
    def test_init_not_a_field_exits_one(self, tmp_path, capsys, text):
        init = tmp_path / "other.json"
        init.write_text(text)
        assert main(["evolve", "--eq", "nls", "--dt", "1e-3", "--t", "0.1",
                     "--init", str(init)]) == 1
        err = capsys.readouterr().err
        assert f"--init {init}: not a field or a sample report" in err

    # sha256 of the reports of unprojected runs from one fwb sample at N=16
    # (50 steps, energies every 10), pinned while a caller could still
    # pass the grid: the energy series is taken on the derived grid.
    # gkdv-p5 and wick-nls were renewed when the RK4 weights moved into the
    # stage matrices and the Wick mean became each row's initial mass.
    EVOLVE_PINNED = {
        "nls-p6": ([], ["--eq", "nls", "--p", "6"],
                   "dcd9db82c53c4664caeaa05678e52ecaced7c70fb482ae848923f2fc46821c8d"),
        "wick-nls": ([], ["--eq", "wick-nls"],
                     "b6fff2914717943cefe9538494617481e6a9673562c37080f05ccff72018d214"),
        "gkdv-p5": (["--real", "--mean-zero"], ["--eq", "gkdv", "--p", "5"],
                    "cc86bd8a02682281c97505c888627ea0ba39cff2c04a94e2c13c9d817719bdab"),
    }

    @pytest.mark.parametrize("name", sorted(EVOLVE_PINNED))
    def test_trajectory_pinned(self, name, tmp_path):
        sample_args, eq_args, digest = self.EVOLVE_PINNED[name]
        field, out = tmp_path / "field.json", tmp_path / "traj.json"
        assert main(["sample", "--family", "fwb", "--alpha", "1.0", "--nmax", "16",
                     "--seed", "3", *sample_args, "--out", str(field)]) == 0
        assert main(["evolve", *eq_args, "--sign", "plus", "--dt", "1e-3", "--t", "0.05",
                     "--record-every", "10", "--init", str(field), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_nmax_truncates_the_initial_field(self, tmp_path):
        field, out = tmp_path / "field.json", tmp_path / "traj.json"
        assert main(["sample", "--family", "fwb", "--nmax", "8", "--seed", "3",
                     "--out", str(field)]) == 0
        assert main(["evolve", "--eq", "nls", "--galerkin", "--nmax", "4",
                     "--dt", "1e-3", "--t", "0.01", "--init", str(field),
                     "--out", str(out)]) == 0
        drawn = json.loads(field.read_text())["field"]["coeffs"]
        start = json.loads(out.read_text())["fields"][0]
        assert start["n_max"] == 4  # projected: the working band is the data band
        assert start["coeffs"] == drawn[4:13]

    def test_step_count_overflow_exits_one(self, tmp_path, capsys):
        # t/dt overflows to inf: refused with a message, not a traceback.
        init = tmp_path / "init.json"
        init.write_text(json.dumps(field_to_json(field_from_modes(1, {1: 0.5}))))
        assert main(["evolve", "--eq", "nls", "--dt", "1e-308", "--t", "1e308",
                     "--init", str(init)]) == 1
        assert "steps exceeds the limit" in capsys.readouterr().err

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

    def test_invariance_alpha_defaults_to_the_preset(self, tmp_path):
        # --alpha unset is recorded as null and means the preset's level.
        out, rerun = tmp_path / "inv.json", tmp_path / "rerun.json"
        code = main(["invariance", "--nmax", "4", "--samples", "100", "--t", "0.01",
                     "--dt", "1e-3", "--out", str(out)])
        assert json.loads(out.read_text())["report"]["alpha"] == 0.01
        sidecar = tmp_path / "inv.json.config.json"
        assert json.loads(sidecar.read_text())["resolved_args"]["alpha"] is None
        assert main(["--config", str(sidecar), "--out", str(rerun)]) == code
        assert rerun.read_bytes() == out.read_bytes()

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

    # sha256 of the cm reports at N=8: 1000 samples are four 256-row draw
    # chunks, and 600 evolved rows are two 512-row evolve chunks, so 8
    # threads run both kinds of chunk at once.  Pinned before part (a)
    # streamed its chunks; renewed when each row's projection target became
    # its mass at the start of its chunk (roundoff in the evolved values).
    CM_PINNED = {
        "theorem-1": "87310d44cb35402e059dcbf017031bde0822705d702ee505475fde33a262695f",
        "theorem-2": "ffdeffef1d2b981f2bf90f6b728ee91689c619ff9d6dd448d183343af99d7b61",
        "theorem-3": "073690210a9e6ea559cf45984f32a7d4582975b98b00490b7224fc60d6a574e7",
    }

    @pytest.mark.parametrize("preset", sorted(CM_PINNED))
    def test_cm_report_pinned_for_any_thread_count(self, preset, tmp_path):
        for threads in ("1", "8"):
            out = tmp_path / f"cm-{threads}.json"
            code = main(["cm", "--preset", preset, "--nmax", "8", "--samples", "1000",
                         "--t", "0.05", "--evolve-samples", "600", "--seed", "12",
                         "--threads", threads, "--out", str(out)])
            assert code == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == self.CM_PINNED[preset]

    # sha256 of a weighted invariance report at N=8, pinned before the
    # bootstrap's running sums were blocked: its 600 pooled members are not
    # a whole number of the scan's 16-member runs, so the padding is used.
    WICK_PINNED = "6851df498b2d3df5ce0661ea789465920d3acf7a082868e27c4f1fb7db90bde5"

    def test_weighted_report_pinned_for_any_thread_count(self, tmp_path):
        for threads in ("1", "8"):
            out = tmp_path / f"wick-{threads}.json"
            code = main(["invariance", "--preset", "wick-nls-gibbs", "--nmax", "8",
                         "--samples", "300", "--t", "0.05", "--seed", "12",
                         "--threads", threads, "--out", str(out)])
            assert code == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == self.WICK_PINNED

    # sha256 of reports no other pin covers, taken before the rate weights,
    # pins and band were derived from the base and the CLI handed presets
    # to their drivers whole: an ldp run with a pinned mode 0 and the real
    # factor (oracle -0.0093), one with the complex factor and sigma
    # weights (oracle -0.04), and a plain-KS invariance run.
    REPORT_PINNED = {
        "ldp-real-white": (["ldp", "--real", "--family", "white", "--nmax", "2",
                            "--center-mode", "1", "--center-value", "0.45",
                            "--radius", "0.5", "--samples", "20000"],
                           "fa037c6e699af8becb458c9685c71029e1f941e34f827ca9a4d175c36739550d"),
        "ldp-complex-fwa": (["ldp", "--family", "fwa", "--nmax", "2",
                             "--center-mode", "1", "--center-value", "0.7",
                             "--radius", "0.5", "--samples", "20000"],
                            "bc3505e31ee943758d6540a5f3cfa8d80adee5997f1a6245a2d7db69b7def4d8"),
        "invariance-kdv": (["invariance", "--preset", "kdv-white-noise", "--nmax", "8",
                            "--samples", "300", "--t", "0.05"],
                           "32d365bec978562f49c5f8ad821e0d8b9c85ea8c1aa37d74030b56814219ec8c"),
    }

    @pytest.mark.parametrize("name", sorted(REPORT_PINNED))
    def test_report_pinned_for_any_thread_count(self, name, tmp_path):
        argv, digest = self.REPORT_PINNED[name]
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}.json"
            assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("argv, message", [
        (["cm", "--samples", "0"], "m_samples must be >= 2"),
        (["cm", "--samples", "1", "--evolve-samples", "0"], "m_samples must be >= 2"),
        (["cm", "--nmax", "0"], "n_max must be >= 1"),
        (["invariance", "--nmax", "0"], "n_max must be >= 1"),
        (["invariance", "--samples", "0"], "m_samples must be >= 2"),
        (["cm", "--nmax", "4", "--samples", "100", "--dt", "0"], "dt must be > 0"),
        (["ldp", "--samples", "0"], "m_per_eps must be >= 1"),
        (["entropy-check", "--cells", "0"], "--cells must be >= 1"),
        (["ldp", "--center-mode", "5", "--nmax", "2"], "outside the band"),
        (["ldp", "--center-mode", "-5", "--nmax", "2"], "outside the band"),
        (["entropy-check", "--directions", "0", "--cells", "64"],
         "n_directions must be >= 1"),
        (["cm", "--nmax", "4", "--samples", "100", "--evolve-samples", "-3"],
         "evolve_samples must be >= 0"),
        (["sample", "--family", "fwb", "--alpha", "-1", "--nmax", "2"],
         "finite alpha >= 0"),
        (["cm", "--samples", "100", "--evolve-samples", "500"],
         "evolve_samples must be >= 0 and <= m_samples = 100, got 500"),
        (["invariance", "--preset", "wick-nls-gibbs", "--dt", "0"], "dt must be > 0"),
        (["invariance", "--preset", "wick-nls-gibbs", "--dt", "0.5"], "strang guard"),
        (["cm", "--preset", "theorem-1", "--dt", "0.5"], "strang guard"),
        (["cm", "--preset", "theorem-2", "--samples", "200", "--t", "-0.01"],
         "t_final must be >= 0"),
        (["cm", "--preset", "theorem-2", "--samples", "200", "--t", "0"],
         "--evolve-samples 0"),
        (["cm", "--dt", "1e-308", "--t", "1e308"], "steps exceeds the limit"),
        (["invariance", "--dt", "1e-308", "--t", "1e308"], "steps exceeds the limit"),
        (["invariance", "--dt", "1e-300", "--t", "1"], "steps exceeds the limit"),
    ])
    def test_bad_input_exits_one(self, argv, message, capsys):
        # 0 is a value, not "unset": it must not fall back to the preset.
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("gibbsflow: error:") and message in err
        assert err.count("\n") == 1

    def test_entropy_check_refuses_cells_before_the_grid(self, capsys, monkeypatch):
        from gibbsflow.measures import MAX_GRID_CELLS

        def refuse(*args, **kwargs):
            raise AssertionError("the grid was built before --cells was checked")

        monkeypatch.setattr(np, "linspace", refuse)
        assert main(["entropy-check", "--cells", str(MAX_GRID_CELLS + 1)]) == 1
        assert f"--cells must be >= 1 and <= {MAX_GRID_CELLS}" in capsys.readouterr().err

    def test_entropy_check_run(self, tmp_path):
        out = tmp_path / "ent.json"
        code = main(["entropy-check", "--hamiltonian", "quartic",
                     "--cells", "1024", "--directions", "5",
                     "--seed", "6", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["strict_decrease"] is True


# Each subcommand's numeric options, with a tiny run for them to override.
# Integer options refuse "1e308" as they parse, so no count or size is
# ever taken from it; --threads is only ever parsed, never run at 1e308.
_SWEEP = {
    "sample": ({"--nmax": "2"}, ["--alpha", "--nmax", "--seed", "--stream"]),
    "evolve": ({"--eq": "nls", "--dt": "0.001", "--t": "0.01", "--nmax": "2"},
               ["--p", "--nmax", "--dt", "--t", "--record-every"]),
    "invariance": ({"--nmax": "2", "--samples": "20", "--t": "0.01"},
                   ["--nmax", "--samples", "--t", "--dt", "--alpha", "--seed",
                    "--stream", "--threads"]),
    "cm": ({"--nmax": "2", "--samples": "20", "--t": "0.01", "--evolve-samples": "2"},
           ["--nmax", "--samples", "--t", "--dt", "--evolve-samples", "--seed",
            "--stream", "--threads"]),
    "dichotomy --mode kakutani": ({"--nmax": "100"}, ["--u-decay", "--v-decay", "--nmax"]),
    "dichotomy --mode feldman-hajek": ({"--nmax": "100"}, ["--beta", "--gamma", "--nmax"]),
    "ldp": ({"--nmax": "1", "--samples": "100"},
            ["--alpha", "--nmax", "--center-mode", "--center-value", "--radius", "--s",
             "--epsilons", "--samples", "--seed", "--stream", "--threads"]),
    "entropy-check": ({"--cells": "64", "--directions": "2"},
                      ["--beta", "--cells", "--span", "--directions", "--seed",
                       "--stream"]),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow on 1e308
class TestBadValueSweep:
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e308", "x"])
    @pytest.mark.parametrize("command, option", [
        (command, option) for command, (_, options) in _SWEEP.items() for option in options])
    def test_exits_with_a_code_not_a_traceback(self, command, option, value, tmp_path,
                                               capsys):
        # An uncaught exception would also end the process with exit code 1,
        # so here it must not leave main at all.
        args = {**_SWEEP[command][0], option: value, "--out": str(tmp_path / "r.json")}
        if command == "evolve":
            init = tmp_path / "init.json"
            init.write_text(json.dumps(field_to_json(field_from_modes(2, {1: 0.5}))))
            args["--init"] = str(init)
        try:
            code = main(command.split() + [f"{k}={v}" for k, v in args.items()])
        except SystemExit as stop:
            code = stop.code
        assert code in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["invariance", "--nmax", "2", "--samples", "20", "--t", "0.01", "--alpha", "-1"],
         "alpha must be in (0, 1), got -1.0"),
        (["invariance", "--nmax", "2", "--samples", "20", "--t", "0.01", "--alpha", "1e308"],
         "alpha must be in (0, 1)"),
        (["dichotomy", "--mode", "feldman-hajek", "--nmax", "-1"], "n_max must be >= 1"),
        (["dichotomy", "--mode", "feldman-hajek", "--nmax", "0"], "n_max must be >= 1"),
        (["ldp", "--nmax", "1", "--radius", "1e308", "--samples", "100"],
         "radius must be > 0 with a finite square"),
        (["ldp", "--nmax", "1", "--s", "1e308", "--samples", "100"],
         "failed to bracket the Lagrange multiplier"),
        (["ldp", "--nmax", "1", "--epsilons", "0.5,nan", "--samples", "100"],
         "epsilons must be finite and > 0"),
        (["ldp", "--nmax", "1", "--epsilons", "inf", "--samples", "100"],
         "epsilons must be finite and > 0"),
    ])
    def test_refused_values_exit_one(self, argv, message, capsys):
        assert main(argv) == 1
        assert message in capsys.readouterr().err
