"""CLI: config validation, exit codes, byte-level reproducibility."""

import csv
import json
import math
import os
from functools import partial

import pytest

import nlsob.cli as cli
import nlsob.functionals as fn
import nlsob.inequalities as inequalities
from nlsob.errors import ConfigError, PreconditionError
from nlsob.fields import descriptor_hash, field_from_dict

from conftest import rel_err


def base_config(**extra):
    cfg = {
        "dim": 3,
        "seed": 42,
        "fields": [
            {"shape": "gaussian", "dim": 3, "rate": 1.0, "amplitude": 1.0},
            {"shape": "constant", "dim": 3, "value": 0.5},
        ],
        "kernel": {"deltas": [0.2, 0.1]},
        "engine": {"mode": "auto", "mc": {"n_samples": 48000}},
        "output": {"csv": "out.csv", "json": "out.json"},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def read_strict_json(path):
    """Parse as strict JSON: NaN and Infinity are rejected."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=reject)


class TestConfigValidation:
    def test_unknown_top_key_rejected(self, tmp_path):
        cfg = base_config(bogus=1)
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "out.csv").exists()  # no partial writes

    def test_missing_fields_rejected(self, tmp_path):
        cfg = base_config()
        del cfg["fields"]
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_unknown_check_rejected(self, tmp_path):
        cfg = base_config(checks=["no_such_inequality"])
        rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_missing_required_keys_rejected(self, tmp_path):
        # each used to reach the builders and crash with a KeyError (exit 1)
        no_rate = base_config(functionals=["l2_norm_sq"])
        del no_rate["fields"][0]["rate"]
        no_q = base_config(functionals=["f_functional"], kernel={"envelope": {"kind": "power"}})
        for cfg in (no_rate, no_q):
            rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path)])
            assert rc == 2
            assert not (tmp_path / "out.csv").exists()

    def test_bad_seed_rejected(self, tmp_path, capsys):
        # a boolean passes isinstance(seed, int); a negative seed used to
        # reach numpy's SeedSequence and end in a traceback (exit 1)
        cfg = base_config(functionals=["i_delta"])
        cfg["fields"] = [{"shape": "sum", "terms": [  # non-radial: the MC engine
            {"shape": "gaussian", "dim": 3, "rate": 1.0},
            {"shape": "gaussian", "dim": 3, "rate": 2.0, "center": [0.8, 0.0, 0.0]}]}]
        for seed in (True, -1, 1.5):
            cfg["seed"] = seed
            rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path)])
            assert rc == 2
            assert "seed" in capsys.readouterr().err
            assert not (tmp_path / "out.csv").exists()

    def test_negative_seed_override_rejected(self, tmp_path):
        cfg = base_config(functionals=["i_delta"])
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path), "--seed", "-3"])
        assert rc == 2
        assert not (tmp_path / "out.csv").exists()

    def test_config_errors_raised_before_computation(self):
        # both used to pass validation: the first failed only after the
        # rows before it were computed, the second only when check built
        # the potential
        no_envelope = base_config(functionals=["l2_norm_sq", "f_functional"])
        bad_potential = base_config(checks=["diamagnetic"],
                                    potential={"kind": "quadratic"})
        for cfg, needle in ((no_envelope, "envelope"), (bad_potential, "potential")):
            with pytest.raises(ConfigError, match=needle):
                cli.validate_config(cfg)

    @pytest.mark.parametrize("command,extra", [
        ("check", {"checks": ["diamagnetic"], "phase": {"kind": "quadratic"}}),
        ("check", {"checks": ["diamagnetic"], "phase": {"wave": [0.3, 0.0, -0.2]}}),
        ("check", {"checks": ["diamagnetic"],
                   "potential": {"kind": "zero", "vector": [0.5, -0.3, 0.2]}}),
        ("check", {"checks": ["diamagnetic"],
                   "potential": {"kind": "constant", "vector": [0.5, -0.3, 0.2],
                                 "matrix": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                                            [0.0, 0.0, 0.0]]}}),
        ("eval", {"functionals": ["f_functional"],
                  "kernel": {"delta": 0.1, "envelope": {"kind": "power", "q": 3.0, "p": 2.0}}}),
        ("eval", {"functionals": ["f_functional"],
                  "kernel": {"delta": 0.1,
                             "envelope": {"kind": "threshold", "delta": 0.1, "q": 3.0}}}),
    ], ids=["phase-quadratic", "phase-no-kind", "zero-potential-vector",
            "constant-potential-matrix", "power-envelope-p", "threshold-envelope-q"])
    def test_tagged_object_takes_its_own_keys_only(self, tmp_path, command, extra):
        # each config but the one without a phase kind used to run on a
        # Gaussian, exit 0 and ignore part of itself: a linear phase for the
        # quadratic one, the vector of the zero potential, the matrix of the
        # constant one, the p of the power envelope, the q of the threshold one
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0}], **extra)
        with pytest.raises(ConfigError):
            cli.validate_config(cfg)
        rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_engine_mode_radial_is_config_error(self, tmp_path, capsys):
        # the engine modes are auto and mc; "radial" used to be accepted
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0}],
                          functionals=["i_delta"], engine={"mode": "radial"})
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown engine mode 'radial'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_foreign_key_of_a_kind_is_a_config_error(self, tmp_path, capsys):
        # unknown keys are always an error; --no-strict used to make them warnings
        cfg = base_config(functionals=["l2_norm_sq"],
                          kernel={"delta": 0.1, "envelope": {"kind": "power", "q": 3.0, "p": 2.0}})
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: unknown key(s) ['p'] at $.kernel.envelope" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(SystemExit):
            cli.main(["eval", "--config", write_config(tmp_path, cfg), "--no-strict"])

    @pytest.mark.parametrize("deltas", [[], 0.5])
    @pytest.mark.parametrize("command", ["sweep", "constants", "check", "eval"])
    def test_empty_deltas_is_config_error(self, tmp_path, capsys, command, deltas):
        # an empty list used to end sweep in an IndexError and constants in
        # "every instance was degenerate"; a number, every command in a TypeError
        cfg = base_config(kernel={"deltas": deltas}, checks=["logsobolev_main"])
        with pytest.raises(ConfigError, match="kernel.deltas must be a nonempty list"):
            cli.validate_config(cfg)
        rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "kernel.deltas must be a nonempty list" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        # a value a field or potential constructor rejects used to end in a
        # ValueError traceback (exit 1)
        negative_rate = ("eval", base_config(
            functionals=["l2_norm_sq"],
            fields=[{"shape": "gaussian", "dim": 3, "rate": -1.0}]))
        symmetric_b = ("check", base_config(
            checks=["diamagnetic"],
            potential={"kind": "linear_b",
                       "matrix": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}))
        for command, cfg in (negative_rate, symmetric_b):
            rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "Traceback" not in err
            assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("extra", [
        {"kernel": 5},
        {"fields": [{"shape": "sum", "dim": 3, "terms": 5}]},
        {"potential": {"kind": "constant", "vector": 5}},
        {"checks": 5},
        {"checks": [["diamagnetic"]]},
        {"functionals": 5},
        {"output": {"csv": 5}},
    ], ids=["kernel", "sum-terms", "potential-vector", "checks", "check-name", "functionals",
            "output-csv"])
    def test_wrong_json_type_is_config_error(self, tmp_path, capsys, extra):
        # each used to end in a TypeError traceback (exit 1)
        cfg = dict(base_config(checks=["diamagnetic"], output={"csv": "out.csv"}), **extra)
        rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("output", [
        {"csv": ""}, {"csv": "sub/"}, {"json": ""}, {"json": "sub/."},
    ], ids=["csv-empty", "csv-directory", "json-empty", "json-dot"])
    def test_output_path_without_a_file_name_is_config_error(self, tmp_path, capsys, output):
        # an empty csv path, or one ending in "/", used to exit 1 with
        # NotADirectoryError after every estimate had run; an empty json path
        # wrote no JSON and exited 0
        cfg = base_config(functionals=["l2_norm_sq"], output=output)
        with pytest.raises(ConfigError, match="names a file"):
            cli.validate_config(cfg)
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: $.output.{next(iter(output))} must be a string")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra,path", [
        ({"fields": [{"shape": "gaussian", "dim": 3, "rate": 1.0, "center": 5}]}, "$.fields[0]"),
        ({"fields": [{"shape": "gaussian", "dim": 3, "rate": 1.0},
                     {"shape": "gaussian", "dim": 3, "rate": -1.0}]}, "$.fields[1]"),
        ({"a_values": 5}, "$.a_values"),
        ({"potential": {"kind": "constant", "vector": 5}}, "$.potential"),
        ({"potential": {"kind": "linear_b",
                        "matrix": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}},
         "$.potential"),
        ({"phase": {"kind": "linear", "wave": 5}}, "$.phase"),
        ({"kernel": {"delta": 0.1, "envelope": {"kind": "power", "q": 0.5}}},
         "$.kernel.envelope"),
        *(({"kernel": {"delta": 0.1, "envelope": {"kind": "threshold", "delta": 0.1, "p": p}}},
           "$.kernel.envelope") for p in (0.5, 0, -2)),
        ({"engine": {"mc": {"n_samples": 1000}}}, "$.engine.mc"),
        ({"engine": {"radial": {"n_r": 0}}}, "$.engine.radial"),
        ({"engine": {"mode": "radial"}}, "$.engine"),
    ], ids=["center", "second-field-rate", "a-values", "vector", "symmetric-b", "wave",
            "envelope-q", "threshold-p-half", "threshold-p-0", "threshold-p-negative", "mc",
            "radial", "mode"])
    def test_rejected_value_names_its_config_path(self, tmp_path, capsys, extra, path):
        # each used to say only what the constructor said, such as "'int'
        # object is not iterable" or "matrix must be antisymmetric"; a
        # threshold envelope's p of 0.5, 0 or -2 used to pass, and eval of
        # its f_functional wrote 380.94, 1204.64 or 120464.18 with exit 0
        cfg = base_config(functionals=["l2_norm_sq"], **extra)
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("radial", "n_r", 12.5), ("radial", "n_s", 16.0), ("radial", "n_theta", True),
        ("mc", "chunk_size", 4800.0), ("mc", "n_samples", 48000.0), ("mc", "radial_strata", True),
        ("mc", "chunk_size", 0)])
    def test_count_that_is_not_a_positive_integer_is_config_error(self, tmp_path, capsys,
                                                                  section, key, value):
        # "n_r": 12.5 and "chunk_size": 4800.0 used to pass the specs and
        # end in error:TypeError rows with exit 0; a bool passed as 0 or 1,
        # and "chunk_size": 0 ended in a ZeroDivisionError traceback
        engine = {"mc": {"n_samples": 48000}}
        engine[section] = dict(engine.get(section, {}), **{key: value})
        cfg = base_config(functionals=["i_delta"], engine=engine)
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (f"config error: $.engine.{section}: {key} must be "
                                           f"a positive integer, got {value!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [("x_radius", -1.0), ("x_radius", 0.0),
                                           ("h_max", -2.0), ("h_max", 0)])
    def test_pinned_mc_geometry_that_is_not_positive_is_config_error(self, tmp_path, capsys,
                                                                     key, value):
        # "x_radius": -1.0 used to give i_delta 0.0 with tail 0.0 and status
        # ok, "h_max": -2.0 the value 0.0 with a tail of 1.44, both exit 0
        two_gauss = {"shape": "sum", "dim": 3, "terms": [
            {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.3, 0.0, 0.0]},
            {"shape": "gaussian", "dim": 3, "rate": 1.6, "center": [-0.3, 0.2, 0.0]}]}
        cfg = base_config(fields=[two_gauss], functionals=["i_delta"],
                          engine={"mc": {"n_samples": 4800, key: value}})
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (f"config error: $.engine.mc: {key} must be "
                                           f"positive and finite, got {value!r}\n")
        assert not (tmp_path / "out").exists()

    def test_field_dimension_error_names_the_field_and_both_dimensions(self, tmp_path, capsys):
        cfg = base_config(functionals=["l2_norm_sq"],
                          fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0},
                                  {"shape": "gaussian", "dim": 2, "rate": 1.0}])
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "config error: $.fields[1]: dim 2, config dim 3\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value,path", [
        ("potential", {"kind": "constant", "vector": [0.5, 0.1]}, "$.potential"),
        ("potential", {"kind": "linear_b", "matrix": [[0.0, 0.4], [-0.4, 0.0]]}, "$.potential"),
        ("phase", {"kind": "linear", "wave": [0.3, 0.1]}, "$.phase")])
    def test_potential_or_phase_dimension_error_names_it(self, tmp_path, capsys, key, value,
                                                          path):
        # a 2-D potential or phase under dim 3 used to end check in a
        # DimensionMismatchError or matmul ValueError traceback (exit 1),
        # after a Monte Carlo pass had run
        from unittest import mock
        cfg = base_config(fields=_TWO_SUMS[:1], kernel={"delta": 0.1}, checks=["diamagnetic"],
                          engine={"mc": {"n_samples": 4800}}, **{key: value})
        with mock.patch.object(fn, "mc_pair_integrate_many",
                               wraps=fn.mc_pair_integrate_many) as spy:
            rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path / "out")])
        assert (rc, spy.call_count) == (2, 0)
        assert capsys.readouterr().err == f"config error: {path}: dim 2, config dim 3\n"
        assert not (tmp_path / "out").exists()

    def test_empty_phase_wave_is_valid_in_every_dimension(self, tmp_path):
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0}],
                          kernel={"delta": 0.1}, checks=["diamagnetic"],
                          phase={"kind": "linear", "offset": 0.2, "wave": []},
                          engine={"mc": {"n_samples": 4800}}, output={"csv": "out.csv"})
        assert cli.main(["check", "--config", write_config(tmp_path, cfg),
                         "--out-dir", str(tmp_path)]) == 0
        assert len(read_rows(tmp_path / "out.csv")) == 1

    @pytest.mark.parametrize("command", ["eval", "check", "sweep", "constants", "qn"])
    @pytest.mark.parametrize("kernel", [{"deltas": [0.1, -0.1]}, {"delta": 0.0}])
    def test_non_positive_delta_is_config_error(self, tmp_path, capsys, command, kernel):
        # eval used to write error:PreconditionError rows for it and exit 0
        cfg = base_config(functionals=["i_delta"], checks=["logsobolev_main"], kernel=kernel)
        rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "config error: $.kernel: delta must be positive and finite\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "check", "sweep", "constants", "qn"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, command):
        # a NaN delta used to end check in an AttributeError traceback
        # (exit 1), and a NaN rate in an eval row value=nan, status=ok
        nan_delta = base_config(checks=["logsobolev_main"], kernel={"deltas": [math.nan]})
        nan_rate = base_config(checks=["logsobolev_main"],
                               fields=[{"shape": "gaussian", "dim": 3, "rate": math.nan}])
        inf_eps = base_config(checks=["logsobolev_main"],
                              engine={"mc": {"outer_radius_eps": math.inf}})
        for cfg in (nan_delta, nan_rate, inf_eps):
            rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "Traceback" not in err
            assert not any(p.suffix in (".csv", ".json") and p.name != "cfg.json"
                           for p in tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["eval", "check", "sweep", "constants", "qn"])
    def test_overflowing_number_is_config_error(self, tmp_path, capsys, command):
        # json reads 1e999 as inf, past the NaN/Infinity guard: eval used to
        # write a row delta=inf, status=error:PreconditionError and exit 0
        text = json.dumps(base_config(checks=["logsobolev_main"],
                                      kernel={"deltas": [0.123456]}))
        for big in ("1e999", "-1e999", "1" + "0" * 400):
            path = tmp_path / "cfg.json"
            path.write_text(text.replace("0.123456", big))
            rc = cli.main([command, "--config", str(path), "--out-dir", str(tmp_path)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "Traceback" not in err
            assert not any(p.suffix in (".csv", ".json") and p.name != "cfg.json"
                           for p in tmp_path.iterdir())

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not valid")
        rc = cli.main(["eval", "--config", str(path)])
        assert rc == 2


class TestEval:
    def test_rows_and_values(self, tmp_path):
        cfg = base_config(functionals=["l2_norm_sq", "entropy_l2", "i_delta"])
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "out.csv")
        ent = [r for r in rows if r["functional"] == "entropy_l2"
               and r["field_index"] == "0"][0]
        expect = -1.5 - 1.5 * math.log(math.pi / 2.0)
        assert rel_err(float(ent["value"]), expect) < 1e-6
        const_rows = [r for r in rows if r["field_index"] == "1"
                      and r["functional"] == "i_delta"]
        assert all(float(r["value"]) == 0.0 for r in const_rows)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = base_config(functionals=["i_delta"])
        path = write_config(tmp_path, cfg)
        cli.main(["eval", "--config", path, "--out-dir", str(tmp_path / "a")])
        fn._MEMO.clear()  # the second run computes, not reads the first one's estimates
        cli.main(["eval", "--config", path, "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "out.csv").read_bytes() == \
            (tmp_path / "b" / "out.csv").read_bytes()

    def test_volume_rows_carry_estimator_error(self, tmp_path):
        # a non-radial sum has no closed forms: its volume rows are Monte
        # Carlo estimates and must say so, with their own stderr
        desc = {"shape": "sum", "terms": [
            {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.3, 0.0, 0.0]},
            {"shape": "bump", "dim": 3, "radius": 1.5, "amplitude": 0.8,
             "center": [-0.3, 0.0, 0.0]}]}
        cfg = base_config(fields=[desc], functionals=[
            "l2_norm_sq", "dirichlet_energy", "entropy_l2", "log_moment_lp", "j_energy"])
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = {r["functional"]: r for r in read_rows(tmp_path / "out.csv")}
        u = field_from_dict(desc)
        expect = {"l2_norm_sq": fn.l2_norm_sq_estimate(u),
                  "dirichlet_energy": fn.dirichlet_energy_estimate(u),
                  "entropy_l2": fn.entropy_l2_estimate(u),
                  "log_moment_lp": fn.log_moment_lp_estimate(u, 2.0)}
        for name, est in expect.items():
            row = rows[name]
            assert est.method == row["method"] == "mc", name
            assert float(row["value"]) == est.value, name
            assert float(row["stderr"]) == est.stderr > 0.0, name
            assert float(row["tail_bound"]) == est.tail_bound, name
            assert int(row["n_effective"]) == est.n_effective, name
        energy = rows["j_energy"]
        assert energy["method"] == "derived"
        assert energy["stderr"] == energy["tail_bound"] == energy["n_effective"] == ""
        assert math.isfinite(float(energy["value"]))

    def test_volume_rows_share_their_integrals(self, tmp_path):
        # the entropy row reads the L² row's estimate, j_energy the
        # Dirichlet, L² and log-moment rows', and j_delta_energy at each
        # delta the L² and log-moment rows': four Monte Carlo volume passes
        # for four distinct integrals.  The same calls made afresh, outside
        # the CLI, also make four, and write the same rows
        from unittest import mock

        from nlsob import quadrature
        from nlsob.fields import descriptor_hash
        desc = {"shape": "sum", "terms": [
            {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.3, 0.0, 0.0]},
            {"shape": "bump", "dim": 3, "radius": 1.5, "amplitude": 0.8,
             "center": [-0.3, 0.0, 0.0]}]}
        names = ["l2_norm_sq", "dirichlet_energy", "entropy_l2", "log_moment_lp", "j_energy"]
        cfg = base_config(fields=[desc], functionals=names + ["j_delta_energy"],
                          output={"csv": "out.csv"})
        spy = mock.patch.object(quadrature, "mc_volume_value", wraps=quadrature.mc_volume_value)
        with spy as shared:
            assert cli.main(["eval", "--config", write_config(tmp_path, cfg),
                             "--out-dir", str(tmp_path)]) == 0
        u, b = field_from_dict(desc), cli._build(cfg, cfg["seed"])
        fn._MEMO.clear()
        with spy as alone:
            outcomes = [fn.l2_norm_sq_estimate(u), fn.dirichlet_energy_estimate(u),
                        fn.entropy_l2_estimate(u), fn.log_moment_lp_estimate(u, 2.0),
                        fn.j_energy(u, fn.EnergyParams())]
            energies = [fn.j_delta_energy(u, fn.EnergyParams(), fn.KernelSpec(d), b.engine)
                        for d in b.deltas]
        assert (shared.call_count, alone.call_count) == (4, 4)
        expect = [cli._eval_row(0, descriptor_hash(u), name, None, out)
                  for name, out in zip(names, outcomes)]
        expect += [cli._eval_row(0, descriptor_hash(u), "j_delta_energy", d, out)
                   for d, out in zip(b.deltas, energies)]
        assert read_rows(tmp_path / "out.csv") == [{k: str(v) for k, v in row.items()}
                                                   for row in expect]

    def test_j_delta_energy_reads_no_volume_when_i_delta_diverges(self, tmp_path):
        # an indicator's jump above delta makes i_delta infinite: the row
        # reports that divergence, before any volume pass of the energy
        from unittest import mock

        from nlsob import quadrature
        desc = {"shape": "sum", "terms": [
            {"shape": "indicator", "dim": 3, "radius": 1.0},
            {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.3, 0.0, 0.0]}]}
        cfg = base_config(fields=[desc], functionals=["j_delta_energy", "l2_norm_sq"],
                          kernel={"deltas": [0.5]}, output={"csv": "out.csv"})
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            assert cli.main(["eval", "--config", write_config(tmp_path, cfg),
                             "--out-dir", str(tmp_path)]) == 0
        energy, l2 = read_rows(tmp_path / "out.csv")
        assert energy["status"] == "error:DivergentIntegralError" and energy["value"] == ""
        assert l2["status"] == "ok" and l2["method"] == "mc"
        assert spy.call_count == 1

    @pytest.mark.parametrize("field", [
        {"shape": "gaussian", "dim": 3, "rate": 1.0},
        {"shape": "sum", "dim": 3, "terms": [
            {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.0, 0.3, 0.0]},
            {"shape": "bump", "dim": 3, "radius": 1.7, "amplitude": 0.5,
             "center": [0.0, -0.3, 0.1]}]},
    ], ids=["gaussian", "sum"])
    def test_threshold_envelope_writes_the_i_delta_row(self, tmp_path, field):
        # f_functional of the config's threshold envelope at delta is I_delta
        # there, on the radial engine and on Monte Carlo alike
        cfg = base_config(fields=[field], functionals=["i_delta", "f_functional"],
                          kernel={"delta": 0.1,
                                  "envelope": {"kind": "threshold", "delta": 0.1}},
                          engine={"mc": {"n_samples": 4800}, "radial": {"n_r": 12, "n_s": 16}})
        assert cli.main(["eval", "--config", write_config(tmp_path, cfg),
                         "--out-dir", str(tmp_path)]) == 0
        ind, env = read_rows(tmp_path / "out.csv")
        assert (ind["functional"], env["functional"]) == ("i_delta", "f_functional")
        keys = ("value", "stderr", "tail_bound", "method")
        assert [env[k] for k in keys] == [ind[k] for k in keys]
        assert float(ind["value"]) > 0.0

    def test_seed_override_changes_mc_output(self, tmp_path):
        cfg = base_config(functionals=["i_delta"],
                          engine={"mode": "mc", "mc": {"n_samples": 48000}})
        path = write_config(tmp_path, cfg)
        cli.main(["eval", "--config", path, "--out-dir", str(tmp_path / "s1")])
        cli.main(["eval", "--config", path, "--out-dir", str(tmp_path / "s2"),
                  "--seed", "777"])
        assert (tmp_path / "s1" / "out.csv").read_bytes() != \
            (tmp_path / "s2" / "out.csv").read_bytes()

    def test_divergence_exit_code(self, tmp_path):
        cfg = base_config(fields=[{"shape": "indicator", "dim": 3, "radius": 1.0}],
                          functionals=["i_delta"],
                          kernel={"deltas": [0.5]})
        rc = cli.main(["eval", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 3
        rows = read_rows(tmp_path / "out.csv")  # rows still written
        assert rows[0]["status"] == "diverged"
        assert float(rows[0]["value"]) > 0.0
        row = read_strict_json(tmp_path / "out.json")["rows"][0]
        assert row["status"] == "diverged" and row["value"] is None


class TestCheck:
    def test_empty_checks_exit_zero(self, tmp_path):
        cfg = base_config(checks=[])
        rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        assert read_rows(tmp_path / "out.csv") == []

    def test_divergent_report_is_strict_json(self, tmp_path):
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0},
                                  {"shape": "indicator", "dim": 3, "radius": 1.0}],
                          checks=["logsobolev_main"], kernel={"deltas": [0.5]})
        rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        reports = read_strict_json(tmp_path / "out.json")["reports"]
        diverged = [r for r in reports if r["degenerate"]]
        assert len(diverged) == 1
        assert diverged[0]["rhs"] is None and diverged[0]["deficit"] is None

    def test_all_vacuous_check_writes_degenerate_rows(self, tmp_path):
        # delta below the indicator's jump: the nonlocal term diverges, so
        # every instance is vacuous; check reports them, constants has
        # nothing to fit
        cfg = base_config(fields=[{"shape": "indicator", "dim": 3, "radius": 1.0}],
                          checks=["logsobolev_main"], kernel={"deltas": [0.5, 0.25]})
        path = write_config(tmp_path, cfg)
        assert cli.main(["check", "--config", path, "--out-dir", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "out.csv")
        assert len(rows) == 2 and all(r["degenerate"] == "True" for r in rows)
        rc = cli.main(["constants", "--config", path, "--out-dir", str(tmp_path / "fit")])
        assert rc == 2

    def test_diamagnetic_suite_passes(self, tmp_path):
        cfg = base_config(
            fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0}],
            checks=["diamagnetic"],
            potential={"kind": "linear_b",
                       "matrix": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                                  [0.0, 0.0, 0.0]]})
        rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "out.csv")
        assert all(float(r["deficit"]) >= 0.0 for r in rows)

    def test_magnetic_lsi_uses_family_constant(self, tmp_path):
        cfg = base_config(
            fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0},
                    {"shape": "sum", "dim": 3, "terms": [
                        {"shape": "gaussian", "dim": 3, "rate": 1.0},
                        {"shape": "gaussian", "dim": 3, "rate": 2.0,
                         "center": [0.8, 0.0, 0.0]}]}],
            checks=["magnetic_lsi"],
            potential={"kind": "linear_b",
                       "matrix": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                                  [0.0, 0.0, 0.0]]})
        rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "out.csv")
        assert len(rows) == 2 * 2  # fields x deltas
        assert all(r["inequality_id"] == "magnetic_lsi" for r in rows)
        constants = {r["constant"] for r in rows}
        assert len(constants) == 1 and math.isfinite(float(constants.pop()))
        assert all(float(r["deficit"]) >= -float(r["stat_margin"]) - 1e-9
                   for r in rows)

    def test_euclidean_optimum_within_tolerance(self, tmp_path):
        rate = math.pi / 2.0
        amp = (2.0 * rate / math.pi) ** 0.75  # unit L2 mass
        cfg = base_config(
            fields=[{"shape": "gaussian", "dim": 3, "rate": rate,
                     "amplitude": amp}],
            checks=["euclidean_family"], a_values=[1.0])
        rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "out.csv")
        assert abs(float(rows[0]["deficit"])) <= 1e-6

    def test_family_checks_use_family_constant(self, tmp_path):
        cfg = base_config(
            fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0},
                    {"shape": "gaussian", "dim": 3, "rate": 2.0}],
            checks=["logsobolev_main"])
        rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "out.csv")
        constants = {r["constant"] for r in rows}
        assert len(constants) == 1  # one family constant across instances
        assert all(float(r["deficit"]) >= -float(r["stat_margin"]) - 1e-9
                   for r in rows)

    def test_check_rows_carry_constants_family_constant(self, tmp_path):
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0},
                                  {"shape": "gaussian", "dim": 3, "rate": 2.0}],
                          checks=["logsobolev_main"])
        path = write_config(tmp_path, cfg)
        for command in ("check", "constants"):
            assert cli.main([command, "--config", path,
                             "--out-dir", str(tmp_path / command)]) == 0
        family = {r["family_constant"] for r in read_rows(tmp_path / "constants" / "out.csv")}
        checked = {r["constant"] for r in read_rows(tmp_path / "check" / "out.csv")}
        assert len(family) == 1 and checked == family

    def test_jensen_rows_carry_the_gap(self, tmp_path):
        from nlsob.inequalities import jensen_gap
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0},
                                  {"shape": "indicator", "dim": 3, "radius": 1.0}],
                          checks=["jensen"])
        rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        gauss, ball = read_rows(tmp_path / "out.csv")
        assert gauss["inequality_id"] == ball["inequality_id"] == "jensen"
        assert float(gauss["deficit"]) == jensen_gap(field_from_dict(cfg["fields"][0])) > 0.0
        assert float(ball["deficit"]) == jensen_gap(field_from_dict(cfg["fields"][1]))
        assert abs(float(ball["deficit"])) < 1e-12

    @pytest.mark.parametrize("check", sorted(inequalities.REPORTS))
    def test_report_table_rows_match_direct_checker_calls(self, tmp_path, check):
        # every entry of the one check table, on a radial Gaussian and a
        # non-radial Gaussian+bump sum, writes the rows of its checker called
        # alone (on an empty memo) on each field and each delta or
        # a-value, at the family constant where the check has a free one.
        # lambda differs from every delta, so an entry that passes one for
        # the other writes another delta column
        from nlsob.fields import ComplexField
        from nlsob.functionals import MonotoneEnvelope
        iq = inequalities
        cfg = base_config(
            fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0},
                    {"shape": "sum", "dim": 3, "terms": [
                        {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.0, 0.3, 0.0]},
                        {"shape": "bump", "dim": 3, "radius": 1.7, "amplitude": 0.5,
                         "center": [0.0, -0.3, 0.1]}]}],
            kernel={"deltas": [0.2, 0.1]}, checks=[check], a_values=[0.5, 2.0],
            potential={"kind": "constant", "vector": [0.5, -0.3, 0.2]},
            phase={"kind": "linear", "offset": 0.1, "wave": [0.3, 0.0, -0.2]},
            engine={"mc": {"n_samples": 4800}, "radial": {"n_r": 12, "n_s": 16}},
            output={"csv": "out.csv"}, **{"lambda": 0.7})
        assert cli.main(["check", "--config", write_config(tmp_path, cfg),
                         "--out-dir", str(tmp_path)]) in (0, 4)
        fn._MEMO.clear()  # the direct calls compute their own estimates
        b = cli._build(cfg, cfg["seed"])
        per_delta = lambda check_at: [check_at(d) for d in b.deltas]
        direct = {
            "logsobolev_main": lambda u: per_delta(
                lambda d: iq.check_logsobolev_main(u, d, b.engine)),
            "nonlocal_sobolev": lambda u: per_delta(
                lambda d: iq.check_nonlocal_sobolev(u, d, b.lam, b.engine)),
            "envelope_lsi": lambda u: per_delta(
                lambda d: iq.check_envelope_lsi(u, MonotoneEnvelope.threshold(d), b.engine)),
            "magnetic_lsi": lambda u: per_delta(lambda d: iq.check_magnetic_lsi(
                ComplexField(u, b.phase), b.potential, d, b.engine)),
            "diamagnetic": lambda u: per_delta(lambda d: iq.check_diamagnetic(
                ComplexField(u, b.phase), b.potential, d, b.engine)),
            "gauss_lsi": lambda u: [iq.check_gauss_lsi(u)],
            "euclidean_family": lambda u: [iq.check_euclidean_family(u, a)
                                           for a in b.a_values],
            "small_set_bound": lambda u: per_delta(
                lambda d: iq.check_small_set_bound(u, d, b.lam)),
            "jensen": lambda u: [iq.check_jensen(u)],
        }
        assert set(direct) == set(iq.REPORTS)
        reports = [r for u in b.fields for r in direct[check](u)]
        family = iq.family_constant(reports)
        expect = []
        for r in reports:
            row = r.csv_row()
            if family is not None and r.rhs_builder is not None and not r.degenerate:
                row.update(deficit=r.deficit_at(family), rhs=r.rhs_builder(family),
                           constant=family)
            expect.append({k: str(v) for k, v in row.items()})
        assert read_rows(tmp_path / "out.csv") == expect

    def test_checks_of_one_command_share_one_volume_memo_per_field(self, tmp_path):
        # logsobolev_main, euclidean_family and small_set_bound on a
        # Gaussian+bump sum over three deltas read 7 distinct volume
        # quantities: the L² mass, entropy, Dirichlet energy, normalized
        # critical integral and three superlevel integrals.  A memo per check
        # made 10 passes; the rows are those of one command per check, each
        # run on an empty memo
        from unittest import mock

        from nlsob import quadrature
        field = {"shape": "sum", "dim": 3, "terms": [
            {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.0, 0.3, 0.0]},
            {"shape": "bump", "dim": 3, "radius": 1.7, "amplitude": 0.5,
             "center": [0.0, -0.3, 0.1]}]}
        checks = ["logsobolev_main", "euclidean_family", "small_set_bound"]
        cfg = base_config(fields=[field], kernel={"deltas": [0.2, 0.1, 0.05]}, checks=checks,
                          engine={"mc": {"n_samples": 4800}}, output={"csv": "out.csv"})
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path / "all")])
        assert (rc, spy.call_count) == (0, 7)
        alone = []
        for check in checks:
            fn._MEMO.clear()
            path = write_config(tmp_path, dict(cfg, checks=[check]))
            assert cli.main(["check", "--config", path, "--out-dir", str(tmp_path / check)]) == 0
            alone.append((tmp_path / check / "out.csv").read_text().splitlines(True))
        header = alone[0][0]
        assert (tmp_path / "all" / "out.csv").read_text() == \
            header + "".join(row for lines in alone for row in lines[1:])

    def test_violated_inequality_exit_code(self, tmp_path, monkeypatch):
        from nlsob.inequalities import InequalityReport

        def fake_gauss(u):
            return InequalityReport("gauss_lsi", lhs=1.0, rhs=0.0, deficit=-1.0,
                                    stat_margin=1e-9)

        monkeypatch.setattr(inequalities, "check_gauss_lsi", fake_gauss)
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0}],
                          checks=["gauss_lsi"])
        rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 4


class TestSweepAndConstants:
    def test_sweep_rows_strictly_decreasing(self, tmp_path):
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0}],
                          kernel={"deltas": [0.05, 0.2, 0.1]})
        rc = cli.main(["sweep", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        deltas = [float(r["delta"]) for r in read_rows(tmp_path / "out.csv")]
        assert deltas == sorted(deltas, reverse=True)

    def test_short_sweep_grid_runs_no_estimate(self, tmp_path, capsys):
        # a 2-delta sweep used to run every i_delta before its exit 2
        from unittest import mock

        from nlsob import limits
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0}],
                          kernel={"deltas": [0.2, 0.1]})
        with mock.patch.object(limits, "i_delta", wraps=limits.i_delta) as spy:
            rc = cli.main(["sweep", "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path / "out")])
        assert (rc, spy.call_count) == (2, 0)
        assert "at least three deltas" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_grid_runs_the_default(self, tmp_path):
        # a config without delta or deltas used to end sweep in an exit 2,
        # "at least three deltas, got 1", naming a grid it never gave; sweep
        # now runs the default grid of qn
        from unittest import mock

        from nlsob import limits
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0},
                                  {"shape": "gaussian", "dim": 3, "rate": 0.5}],
                          engine={"radial": {"n_r": 12, "n_s": 16}})
        del cfg["kernel"]
        with mock.patch.object(limits, "i_delta", wraps=limits.i_delta) as spy:
            assert cli.main(["sweep", "--config", write_config(tmp_path, cfg),
                             "--out-dir", str(tmp_path)]) == 0
        grid = [0.2 * 2.0 ** (-k) for k in range(6)]
        assert [c.args[1].delta for c in spy.call_args_list] == grid + grid
        assert [float(r["delta"]) for r in read_rows(tmp_path / "out.csv")] == grid + grid

    @pytest.mark.parametrize("command", ["sweep", "qn"])
    def test_only_the_p2_kernel(self, tmp_path, capsys, command):
        # both commands study the p = 2 limit; a kernel.p of 3 used to run
        # it anyway and write the p = 2 rows
        fields = [{"shape": "gaussian", "dim": 3, "rate": 1.0},
                  {"shape": "gaussian", "dim": 3, "rate": 0.5}]
        deltas = [0.2, 0.1, 0.05]
        for kernel in ({"deltas": deltas, "p": 3.0},
                       {"deltas": deltas, "envelope": {"kind": "power", "q": 3.0}}):
            cfg = base_config(fields=fields, kernel=kernel)
            rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path / "bad")])
            assert rc == 2
            assert "p = 2 kernel only" in capsys.readouterr().err
            assert not (tmp_path / "bad").exists()
        # p = 2, given or left out, writes the same bytes
        for name, p in (("given", {"p": 2.0}), ("default", {})):
            cfg = base_config(fields=fields, kernel=dict(deltas=deltas, **p))
            assert cli.main([command, "--config", write_config(tmp_path, cfg),
                             "--out-dir", str(tmp_path / name)]) == 0
        assert (tmp_path / "given" / "out.csv").read_bytes() == \
            (tmp_path / "default" / "out.csv").read_bytes()

    def test_constants_singleton_family(self, tmp_path):
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0}],
                          kernel={"deltas": [0.1]}, checks=["logsobolev_main"])
        rc = cli.main(["constants", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "out.csv")
        assert len(rows) == 1
        assert rows[0]["constant"] == rows[0]["family_constant"]

    def test_constants_estimates_each_volume_quantity_once_per_field(self, tmp_path):
        # the two non-radial sums of the mc_family benchmark over three
        # deltas: 3 volume passes (the entropy of the Gaussian sum, whose L²
        # has a closed form, and both of the Gaussian+bump sum).  A checker
        # called per instance, afresh, makes the same 3 and the same constants
        from unittest import mock

        from nlsob import quadrature
        from nlsob.inequalities import check_logsobolev_main
        gauss = lambda rate, amp, c: {"shape": "gaussian", "dim": 3, "rate": rate,
                                      "amplitude": amp, "center": c}
        fields = [
            {"shape": "sum", "dim": 3, "terms": [gauss(1.0, 1.0, [0.3, 0.0, 0.0]),
                                                 gauss(1.6, 0.65, [-0.3, 0.2, 0.0])]},
            {"shape": "sum", "dim": 3, "terms": [
                gauss(1.0, 1.0, [0.0, 0.3, 0.0]),
                {"shape": "bump", "dim": 3, "radius": 1.7, "amplitude": 0.5,
                 "center": [0.0, -0.3, 0.1]}]}]
        cfg = base_config(fields=fields, kernel={"deltas": [0.2, 0.1, 0.05]},
                          checks=["logsobolev_main"], engine={"mc": {"n_samples": 4800}},
                          output={"csv": "out.csv"})
        spy = mock.patch.object(quadrature, "mc_volume_value", wraps=quadrature.mc_volume_value)
        with spy as shared:
            assert cli.main(["constants", "--config", write_config(tmp_path, cfg),
                             "--out-dir", str(tmp_path)]) == 0
        b = cli._build(cfg, cfg["seed"])
        fn._MEMO.clear()
        with spy as alone:
            expect = [repr(check_logsobolev_main(u, d, b.engine).admissible_constant)
                      for u in b.fields for d in b.deltas]
        assert (shared.call_count, alone.call_count) == (3, 3)
        assert [r["constant"] for r in read_rows(tmp_path / "out.csv")] == expect

    def test_constants_checks_share_one_volume_memo_per_field(self, tmp_path):
        # logsobolev_main and envelope_lsi read the same L² mass and entropy
        # of the Gaussian+bump sum: 2 volume passes for both checks, where a
        # memo per check made 4, and the rows of one command per check, each
        # run on an empty memo
        from unittest import mock

        from nlsob import quadrature
        field = {"shape": "sum", "dim": 3, "terms": [
            {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.0, 0.3, 0.0]},
            {"shape": "bump", "dim": 3, "radius": 1.7, "amplitude": 0.5,
             "center": [0.0, -0.3, 0.1]}]}
        checks = ["logsobolev_main", "envelope_lsi"]
        cfg = base_config(fields=[field], kernel={"deltas": [0.2, 0.1, 0.05]}, checks=checks,
                          engine={"mc": {"n_samples": 4800}}, output={"csv": "out.csv"})
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            assert cli.main(["constants", "--config", write_config(tmp_path, cfg),
                             "--out-dir", str(tmp_path / "all")]) == 0
        assert spy.call_count == 2
        alone = []
        for check in checks:
            fn._MEMO.clear()
            path = write_config(tmp_path, dict(cfg, checks=[check]))
            assert cli.main(["constants", "--config", path,
                             "--out-dir", str(tmp_path / check)]) == 0
            alone.append((tmp_path / check / "out.csv").read_text().splitlines(True))
        assert (tmp_path / "all" / "out.csv").read_text() == \
            alone[0][0] + "".join(row for lines in alone for row in lines[1:])

    def test_commands_of_one_process_share_the_volume_estimates(self, tmp_path):
        # the mc_family benchmark's commands: constants over three deltas,
        # then magnetic_lsi under three potentials.  The magnetic checks read
        # the L² mass and entropy of |u| = u, which constants estimated: 3
        # volume passes in all, where a memo per command made 3 + 3 x 3 = 12
        from unittest import mock

        from nlsob import quadrature
        gauss = lambda rate, amp, c: {"shape": "gaussian", "dim": 3, "rate": rate,
                                      "amplitude": amp, "center": c}
        fields = [
            {"shape": "sum", "dim": 3, "terms": [gauss(1.0, 1.0, [0.3, 0.0, 0.0]),
                                                 gauss(1.6, 0.65, [-0.3, 0.2, 0.0])]},
            {"shape": "sum", "dim": 3, "terms": [
                gauss(1.0, 1.0, [0.0, 0.3, 0.0]),
                {"shape": "bump", "dim": 3, "radius": 1.7, "amplitude": 0.5,
                 "center": [0.0, -0.3, 0.1]}]}]
        base = dict(base_config(fields=fields, engine={"mc": {"n_samples": 4800}}),
                    output={"csv": "out.csv"})
        argvs = [["constants", "--config", write_config(tmp_path, dict(
            base, kernel={"deltas": [0.2, 0.1, 0.05]}, checks=["logsobolev_main"]), "c.json")]]
        for i, pot in enumerate([{"kind": "zero"},
                                 {"kind": "constant", "vector": [0.5, -0.3, 0.2]},
                                 {"kind": "linear_b", "matrix": [[0.0, 0.4, -0.3],
                                                                 [-0.4, 0.0, 0.2],
                                                                 [0.3, -0.2, 0.0]]}]):
            argvs.append(["check", "--config", write_config(tmp_path, dict(
                base, kernel={"delta": 0.1}, checks=["magnetic_lsi"], potential=pot,
                phase={"kind": "linear", "wave": [0.3, 0.0, -0.2]}), f"m{i}.json")])
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            rcs = [cli.main(argv + ["--out-dir", str(tmp_path / str(i))])
                   for i, argv in enumerate(argvs)]
        assert rcs[0] == 0 and all(rc in (0, 4) for rc in rcs[1:])
        assert spy.call_count == 3

    def test_given_envelope_is_one_instance_per_field(self, tmp_path):
        # envelope_lsi with kernel.envelope has no delta: check used to write
        # one identical row per delta, and constants to label the copies
        # with the deltas and hold one of them out against the others
        fields = [{"shape": "gaussian", "dim": 3, "rate": 1.0},
                  {"shape": "gaussian", "dim": 3, "rate": 2.0}]
        kernel = {"deltas": [0.2, 0.1, 0.05], "envelope": {"kind": "power", "q": 3.0}}
        hashes = [descriptor_hash(field_from_dict(f)) for f in fields]
        for command in ("check", "constants"):
            cfg = base_config(fields=fields, kernel=kernel, checks=["envelope_lsi"],
                              output={"csv": "out.csv"})
            assert cli.main([command, "--config", write_config(tmp_path, cfg),
                             "--out-dir", str(tmp_path / command)]) == 0
            rows = read_rows(tmp_path / command / "out.csv")
            assert [(r["field_hash"], r["delta"]) for r in rows] == [(h, "") for h in hashes]
        assert [r["held_out"] for r in rows].count("True") == 1

    def test_magnetic_checks_share_one_volume_pair(self, tmp_path):
        # magnetic_lsi estimates the L² mass and entropy of |u| once for
        # both deltas; diamagnetic reads neither
        from unittest import mock

        from nlsob import quadrature
        field = {"shape": "sum", "dim": 3, "terms": [
            {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.0, 0.3, 0.0]},
            {"shape": "bump", "dim": 3, "radius": 1.7, "amplitude": 0.5,
             "center": [0.0, -0.3, 0.1]}]}
        for check, passes in (("magnetic_lsi", 2), ("diamagnetic", 0)):
            path = write_config(tmp_path, base_config(
                fields=[field], kernel={"deltas": [0.2, 0.1]}, checks=[check],
                potential={"kind": "constant", "vector": [0.5, -0.3, 0.2]},
                phase={"kind": "linear", "wave": [0.3, 0.0, -0.2]},
                engine={"mc": {"n_samples": 4800}}, output={"csv": "out.csv"}))
            with mock.patch.object(quadrature, "mc_volume_value",
                                   wraps=quadrature.mc_volume_value) as spy:
                assert cli.main(["check", "--config", path, "--out-dir", str(tmp_path)]) in (0, 4)
            assert spy.call_count == passes
            assert len(read_rows(tmp_path / "out.csv")) == 2

    @pytest.mark.parametrize("check,passes", [("euclidean_family", 3), ("small_set_bound", 5)])
    def test_explicit_checks_estimate_each_volume_quantity_once(self, tmp_path, check, passes):
        # over three a-values, euclidean_family estimates the L² mass, the
        # entropy and the Dirichlet energy once each; over three deltas,
        # small_set_bound estimates the L² mass and the normalized field's
        # total once, and one superlevel integral per delta.  A checker
        # called per instance, afresh, makes as many and writes the same rows
        from unittest import mock

        from nlsob import quadrature
        from nlsob.inequalities import check_euclidean_family, check_small_set_bound
        field = {"shape": "sum", "dim": 3, "terms": [
            {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.0, 0.3, 0.0]},
            {"shape": "bump", "dim": 3, "radius": 1.7, "amplitude": 0.5,
             "center": [0.0, -0.3, 0.1]}]}
        cfg = base_config(fields=[field], kernel={"deltas": [0.2, 0.1, 0.05]},
                          a_values=[0.5, 1.0, 2.0], checks=[check], output={"csv": "out.csv"})
        spy = mock.patch.object(quadrature, "mc_volume_value", wraps=quadrature.mc_volume_value)
        with spy as shared:
            assert cli.main(["check", "--config", write_config(tmp_path, cfg),
                             "--out-dir", str(tmp_path)]) == 0
        b = cli._build(cfg, cfg["seed"])
        fn._MEMO.clear()
        with spy as alone:
            if check == "euclidean_family":
                reports = [check_euclidean_family(u, a) for u in b.fields for a in b.a_values]
            else:
                reports = [check_small_set_bound(u, d, b.lam) for u in b.fields for d in b.deltas]
        assert (shared.call_count, alone.call_count) == (passes, passes)
        expect = [{k: str(v) for k, v in r.csv_row().items()} for r in reports]
        assert read_rows(tmp_path / "out.csv") == expect

    def test_euclidean_parameter_checked_before_volume(self, tmp_path, capsys):
        # a nonpositive a is a config error, raised before the field's volume passes
        from unittest import mock

        from nlsob import quadrature
        field = {"shape": "sum", "dim": 3, "terms": [
            {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.0, 0.3, 0.0]},
            {"shape": "bump", "dim": 3, "radius": 1.7, "amplitude": 0.5,
             "center": [0.0, -0.3, 0.1]}]}
        cfg = base_config(fields=[field], a_values=[1.0, -1.0], checks=["euclidean_family"])
        with mock.patch.object(quadrature, "mc_volume_value",
                               wraps=quadrature.mc_volume_value) as spy:
            rc = cli.main(["check", "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path)])
        assert (rc, spy.call_count) == (2, 0)
        assert "parameter a must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command,check", [
        ("check", "logsobolev_main"), ("constants", "logsobolev_main"),
        ("check", "envelope_lsi"), ("check", "magnetic_lsi")])
    def test_log_sobolev_dimension_checked_before_volume(self, tmp_path, capsys, command, check):
        # N = 2 admits no log-Sobolev check: a config error, raised before
        # the volume pair (whose L² mass diverges on a constant field)
        cfg = base_config(dim=2, fields=[{"shape": "constant", "dim": 2, "value": 0.5}],
                          kernel={"deltas": [0.2, 0.1]}, checks=[check])
        rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "N >= 3" in capsys.readouterr().err

    def test_constants_needs_free_constant_check(self, tmp_path, capsys):
        # gauss_lsi has no free constant; next to one that has, it used to
        # be dropped silently
        for checks in (["gauss_lsi"], ["logsobolev_main", "gauss_lsi"]):
            cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0}],
                              kernel={"deltas": [0.1]}, checks=checks)
            rc = cli.main(["constants", "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path)])
            assert rc == 2
            err = capsys.readouterr().err
            assert "FREE_CONSTANT_CHECKS" in err and "gauss_lsi" in err
            assert not (tmp_path / "out.csv").exists()


class TestQn:
    def test_estimate_close_to_candidate(self, tmp_path):
        cfg = base_config(
            fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0},
                    {"shape": "gaussian", "dim": 3, "rate": 0.5}],
            kernel={"deltas": [0.2 * 2.0 ** (-k) for k in range(6)]})
        rc = cli.main(["qn", "--config", write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        row = read_rows(tmp_path / "out.csv")[0]
        assert rel_err(float(row["estimate"]), 2.0 * math.pi / 3.0) < 0.02
        assert "derived" in row["candidate_label"]

    @pytest.mark.parametrize("kernel", [{"deltas": [0.2, 0.1]}, {"delta": 0.1}])
    def test_short_explicit_grid_is_config_error(self, tmp_path, capsys, kernel):
        # qn used to drop a grid of fewer than three deltas and run its
        # default one instead, exit 0
        from unittest import mock

        from nlsob import limits
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0},
                                  {"shape": "gaussian", "dim": 3, "rate": 0.5}],
                          kernel=kernel)
        with mock.patch.object(limits, "i_delta", wraps=limits.i_delta) as spy:
            rc = cli.main(["qn", "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path / "out")])
        assert (rc, spy.call_count) == (2, 0)
        assert "at least three deltas" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_grid_runs_the_default(self, tmp_path):
        from unittest import mock

        from nlsob import limits
        cfg = base_config(fields=[{"shape": "gaussian", "dim": 3, "rate": 1.0},
                                  {"shape": "gaussian", "dim": 3, "rate": 0.5}],
                          engine={"radial": {"n_r": 12, "n_s": 16}})
        del cfg["kernel"]
        with mock.patch.object(limits, "i_delta", wraps=limits.i_delta) as spy:
            assert cli.main(["qn", "--config", write_config(tmp_path, cfg),
                             "--out-dir", str(tmp_path)]) == 0
        grid = [0.2 * 2.0 ** (-k) for k in range(6)]
        assert [c.args[1].delta for c in spy.call_args_list] == grid + grid


_TWO_SUMS = [
    {"shape": "sum", "dim": 3, "terms": [
        {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.3, 0.0, 0.0]},
        {"shape": "gaussian", "dim": 3, "rate": 1.6, "amplitude": 0.65,
         "center": [-0.3, 0.2, 0.0]}]},
    {"shape": "sum", "dim": 3, "terms": [
        {"shape": "gaussian", "dim": 3, "rate": 1.0, "center": [0.0, 0.3, 0.0]},
        {"shape": "bump", "dim": 3, "radius": 1.7, "amplitude": 0.5,
         "center": [0.0, -0.3, 0.1]}]},
]
_TWO_GAUSSIAN_SUMS = _TWO_SUMS[:1] + [
    {"shape": "sum", "dim": 3, "terms": [
        {"shape": "gaussian", "dim": 3, "rate": 1.2, "center": [0.0, 0.3, 0.0]},
        {"shape": "gaussian", "dim": 3, "rate": 0.8, "amplitude": 0.5,
         "center": [0.0, -0.3, 0.1]}]},
]
_JUMP_FIELDS = [
    {"shape": "indicator", "dim": 3, "radius": 1.0, "amplitude": 1.0, "center": [0.1, 0.0, 0.0]},
    {"shape": "sum", "dim": 3, "terms": [
        {"shape": "indicator", "dim": 3, "radius": 0.9, "amplitude": 1.0,
         "center": [-0.1, 0.1, 0.0]},
        {"shape": "gaussian", "dim": 3, "rate": 1.0, "amplitude": 1.0,
         "center": [0.2, -0.1, 0.0]}]},
]


class TestOnePassPerCommand:
    """The MC pair estimates of one command share one engine pass, and the
    command writes the bytes it wrote when each estimate ran a pass of its
    own (the SHA-256 digests were recorded then)."""

    CASES = {
        # two non-radial fields x three deltas: six passes before
        "constants": ({"kernel": {"deltas": [0.2, 0.1, 0.05]}, "checks": ["logsobolev_main"]},
                      "080217c6f114676ca3026529bd2f47bbe394a4fc80a5459d3421ba6f985fdb66"),
        # two two-Gaussian sums at three deltas: six passes before
        "sweep": ({"fields": _TWO_GAUSSIAN_SUMS, "kernel": {"deltas": [0.2, 0.1, 0.05]}},
                  "0a290888711a6653bfd9c25a2d75b3e070f5e3b215b6ad43c5803d81ef48d701"),
        "qn": ({"fields": _TWO_GAUSSIAN_SUMS, "kernel": {"deltas": [0.2, 0.1, 0.05]}},
               "c8fa5edc8eca222c6bfaaaabc62bb1aa5678b75e9ab3fa21dce3cedb6328c33d"),
        # two magnetic pairs: two passes before
        "check": ({"kernel": {"delta": 0.1}, "checks": ["diamagnetic"],
                   "potential": {"kind": "linear_b", "matrix": [
                       [0.0, 0.4, -0.3], [-0.4, 0.0, 0.2], [0.3, -0.2, 0.0]]},
                   "phase": {"kind": "linear", "wave": [0.3, 0.0, -0.2]}},
                  "b328b61fa869e7a06504c5b487f6037fcef54fa0a7feeeecb1f7a72636ae83d6"),
        # the benchmark's p-sweep shape: a unit indicator, whose finite
        # estimates draw no stratum, and an indicator lifted by a Gaussian;
        # four passes before, the deltas below the jump decided exactly
        "eval": ({"fields": _JUMP_FIELDS, "functionals": ["i_delta_p"],
                  "kernel": {"deltas": [0.25, 0.5, 1.25, 1.5], "p": 1.5},
                  "engine": {"mc": {"n_samples": 9600}, "radial": {"n_r": 12, "n_s": 16}}},
                 "0021c2972fb6ad73e91954a0a72cf0e73f85e7bac2f7c751989dd2d1383e8083"),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_one_pass_writes_the_same_bytes(self, tmp_path, command):
        import hashlib
        from collections import Counter
        from unittest import mock

        class CountedReads(dict):
            def __init__(self):
                super().__init__()
                self.reads = Counter()

            def __getitem__(self, key):
                self.reads[key] += 1
                return super().__getitem__(key)

        extra, digest = self.CASES[command]
        cfg = dict({"dim": 3, "seed": 5, "fields": _TWO_SUMS,
                    "engine": {"mc": {"n_samples": 9600}}, "output": {"csv": "out.csv"}},
                   **extra)
        memo = CountedReads()
        with mock.patch.object(fn, "_MEMO", memo), \
                mock.patch.object(fn, "mc_pair_integrate_many",
                                  wraps=fn.mc_pair_integrate_many) as spy:
            rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path)])
        assert rc == (3 if command == "eval" else 0)
        assert spy.call_count == 1
        assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest
        # every pair estimate kept, prefetched or not, was read by its call
        pairs = [k for k in memo if k[0] in ("f_functional", "i_delta_magnetic_paired")]
        assert len(pairs) == {"constants": 6, "check": 2, "eval": 8, "sweep": 6, "qn": 6}[command]
        assert all(memo.reads[k] >= 1 for k in pairs)

    @pytest.mark.parametrize("table,name", [("check", c) for c in sorted(inequalities.REPORTS)]
                             + [("eval", f) for f in sorted(cli._EVAL)])
    def test_request_table_names_every_pair_estimate(self, table, name):
        # after the prefetch of an entry's requests the entry runs no MC
        # pass of its own; only eval's envelope functional, one row per
        # field with no delta to tie a request to, still runs its own
        from types import SimpleNamespace
        from unittest import mock

        from nlsob.functionals import MonotoneEnvelope
        cfg = base_config(fields=_TWO_SUMS, kernel={"deltas": [0.2, 0.1]}, checks=[],
                          potential={"kind": "constant", "vector": [0.5, -0.3, 0.2]},
                          phase={"kind": "linear", "offset": 0.1, "wave": [0.3, 0.0, -0.2]},
                          engine={"mc": {"n_samples": 4800}})
        b = cli._build(cfg, cfg["seed"])
        b.envelope = MonotoneEnvelope.power_law(3.0)
        if table == "check":
            request, reports = inequalities.REPORTS[name]
            prefetch = lambda: inequalities.prefetch_reports([name], b.fields, b)
            run = lambda: [reports(u, b) for u in b.fields]
        else:
            request, evaluate = cli._EVAL[name]
            prefetch = lambda: fn.prefetch_pairs(
                lambda u=u, d=d: request(u, d, b) for u in b.fields
                for d in (b.deltas if request else []))
            run = lambda: [evaluate(u, d, b) for u in b.fields
                           for d in (b.deltas if request else [None])]
        spy = mock.patch.object(fn, "mc_pair_integrate_many", wraps=fn.mc_pair_integrate_many)
        with spy as before:
            prefetch()
        with spy as after:
            run()
        requested = request is not None
        assert before.call_count == int(requested)
        unmemoized = {"f_functional"}
        assert (after.call_count > 0) == (name in unmemoized)
        assert not (requested and name in unmemoized)

    # two two-Gaussian sums at deltas 0.2 and 0.1: envelope_lsi without an
    # envelope reads the i_delta estimates logsobolev_main requests, and with
    # a power envelope requests its own.  5 and 2 passes before; the digests
    # were recorded then
    ENVELOPE_CASES = {
        ("check", "threshold"): "f5aeeedaa887f50823f235c36e5db5fc8503b9c43f1ee9d866495cb91a67629e",
        ("constants", "threshold"):
            "ac7c4fdf547c6f775169ea1f9d73b50715e4336c757e84eee59129ed8eff711e",
        ("check", "power"): "6cd43b251fdee1d6551bc85fe7ca748d8998bcd82ba04dc2547ef5c5800330d0",
        ("constants", "power"): "14113d98dfa4718153a73826ddd620887237108239549ffaf30d7e9524e99a85",
    }

    @pytest.mark.parametrize("command,envelope", sorted(ENVELOPE_CASES))
    def test_envelope_lsi_shares_the_pass(self, tmp_path, command, envelope):
        import hashlib
        from unittest import mock
        kernel, checks = {"deltas": [0.2, 0.1]}, ["logsobolev_main", "envelope_lsi"]
        if envelope == "power":
            kernel, checks = dict(kernel, envelope={"kind": "power", "q": 3.0}), ["envelope_lsi"]
        cfg = {"dim": 3, "seed": 5, "fields": _TWO_GAUSSIAN_SUMS, "kernel": kernel,
               "checks": checks, "engine": {"mc": {"n_samples": 4800}},
               "output": {"csv": "out.csv"}}
        with mock.patch.object(fn, "mc_pair_integrate_many",
                               wraps=fn.mc_pair_integrate_many) as spy:
            rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path)])
        assert (rc, spy.call_count) == (0, 1)
        assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == \
            self.ENVELOPE_CASES[command, envelope]

    def test_request_of_no_memoized_pair_functional_raises(self):
        # a request named "i_delta", a function with no memo entry of its
        # own, used to run no pass and keep nothing, silently; a request
        # that raises, as a checker precondition does, is still left to its
        # own call
        u = field_from_dict(_TWO_SUMS[0])
        e = fn.default_engine(3, n_samples=4800)

        def failing():
            raise PreconditionError("checker precondition")

        for name in ("i_delta", "i_delta_p", "l2_norm_sq_estimate"):
            with pytest.raises(ValueError, match="names no memoized pair functional"):
                fn.prefetch_pairs([lambda name=name: (name, (u, fn.KernelSpec(0.1), e))])
        fn.prefetch_pairs([failing])
        assert not fn._MEMO

    @pytest.mark.parametrize("command,check,extra", [
        ("check", "nonlocal_sobolev", {"lambda": -1.0}),
        ("constants", "nonlocal_sobolev", {"lambda": 0.0}),
        ("check", "logsobolev_main", {"dim": 2}),
        ("check", "magnetic_lsi", {"dim": 2})])
    def test_checker_preconditions_run_no_pass(self, tmp_path, capsys, command, check, extra):
        # a check that fails before its first estimate is a config error
        # (exit 2) with no Monte Carlo pass run for it
        from unittest import mock
        dim = extra.get("dim", 3)
        field = {"shape": "sum", "dim": dim, "terms": [
            {"shape": "gaussian", "dim": dim, "rate": 1.0, "center": [0.3] + [0.0] * (dim - 1)},
            {"shape": "gaussian", "dim": dim, "rate": 1.6, "center": [-0.3] + [0.2] * (dim - 1)}]}
        cfg = base_config(fields=[field], checks=[check], engine={"mc": {"n_samples": 4800}},
                          **extra)
        with mock.patch.object(fn, "mc_pair_integrate_many",
                               wraps=fn.mc_pair_integrate_many) as spy:
            rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path)])
        assert (rc, spy.call_count) == (2, 0)
        err = capsys.readouterr().err
        assert ("N >= 3" if dim == 2 else "lambda must be positive") in err

    @pytest.mark.parametrize("command", ["sweep", "qn"])
    def test_sweep_preconditions_of_every_field_run_no_pass(self, tmp_path, capsys, command):
        # a field the sweep rejects (a jump field) fails the command before
        # the Monte Carlo pass of the fields before it
        from unittest import mock
        cfg = base_config(fields=_TWO_SUMS[:1] + _JUMP_FIELDS[:1],
                          kernel={"deltas": [0.2, 0.1, 0.05]}, engine={"mc": {"n_samples": 4800}})
        with mock.patch.object(fn, "mc_pair_integrate_many",
                               wraps=fn.mc_pair_integrate_many) as spy:
            rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                           "--out-dir", str(tmp_path / "out")])
        assert (rc, spy.call_count) == (2, 0)
        assert "differentiable" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_contexts_of_other_dimensions_or_specs_get_their_own_pass(self):
        # one command reads i_delta of N=3 and N=4 fields on two seeds:
        # one pass per (McSpec, dimension), each of one dimension and spec
        from unittest import mock
        fields = [field_from_dict(d) for d in _TWO_SUMS] + [field_from_dict(
            {"shape": "sum", "dim": 4, "terms": [
                {"shape": "gaussian", "dim": 4, "rate": 1.0, "center": [0.3, 0.0, 0.0, 0.0]},
                {"shape": "gaussian", "dim": 4, "rate": 1.6, "center": [-0.3, 0.2, 0.0, 0.1]}]})]
        engines = [fn.default_engine(seed, n_samples=4800) for seed in (3, 4)]
        calls = [(u, fn.KernelSpec(d), e) for e in engines for u in fields for d in (0.2, 0.1)]
        passes = []
        real = fn.mc_pair_integrate_many

        def spy(contexts, spec):
            passes.append(({c.dim for c in contexts}, spec, len(contexts)))
            return real(contexts, spec)

        with mock.patch.object(fn, "mc_pair_integrate_many", spy):
            fn.prefetch_pairs(partial(fn.i_delta_request, *c) for c in calls)
            got = [fn.i_delta(*c) for c in calls]
        assert sorted((min(dims), spec.master_seed, k) for dims, spec, k in passes) == \
            [(3, 3, 4), (3, 4, 4), (4, 3, 2), (4, 4, 2)]
        assert all(len(dims) == 1 for dims, _, _ in passes)
        fn._MEMO.clear()
        assert got == [fn.i_delta(*c) for c in calls]


def test_import_loads_no_scipy():
    # scipy is a test-only reference; the package and its CLI run without it
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, nlsob, nlsob.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_radial_profile_eval_imports_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, which the study would pay
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    cfg = base_config(dim=4, functionals=["i_delta"], kernel={"delta": 0.2},
                      engine={"radial": {"n_r": 12, "n_s": 16}},
                      fields=[{"shape": "radial_profile", "dim": 4,
                               "knots": [0.0, 0.5, 1.0, 1.5, 2.0],
                               "values": [0.2, 0.7, 1.0, 0.4, 0.0]}])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, nlsob.cli; rc = nlsob.cli.main(sys.argv[1:]); "
         "print(rc, 'numpy.ma' in sys.modules)",
         "eval", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False"]
    assert len(read_rows(tmp_path / "out.csv")) == 1
