import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import sensecourt.auction as auction_mod
import sensecourt.benchmark as benchmark_mod
import sensecourt.cli as cli_mod
import sensecourt.engine as engine_mod
from sensecourt.benchmark import BenchmarkCapacityError
from sensecourt.cli import (
    _worker_count,
    cmd_benchmark,
    cmd_simulate,
    cmd_truthcheck,
    main,
)
from sensecourt.engine import TraceMetrics
from sensecourt.solver import TIE_TOL

from oracle_writers import write_per_cell, write_run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE_CONFIG = {
    "scenario": {
        "width_grids": 8,
        "height_grids": 8,
        "grid_edge_m": 200.0,
        "n_users": 5,
        "radius_min_m": 300.0,
        "radius_max_m": 600.0,
        "cost_to_weight_ratio": 0.4,
        "seed": 21,
    },
    "policies": [
        {"kind": "lyapunov", "phi": 10},
        {"kind": "greedy"},
    ],
    "t_slots": 25,
    "warmup_slots": 5,
    "thresholds": 0.5,
    "replications": 1,
    "output_dir": "out",
}


def write_config(tmp_path, overrides=None, **top_level):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        for key, value in overrides.items():
            section, _, sub = key.partition(".")
            if sub:
                cfg[section][sub] = value
            else:
                cfg[section] = value
    cfg.update(top_level)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfigErrors:
    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config not found" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario.radius_typo_m": 3})
        assert main(["simulate", "--config", str(path)]) == 1
        assert "scenario.radius_typo_m" in capsys.readouterr().err

    def test_missing_required_key_named(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        del cfg["scenario"]["n_users"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 1
        assert "scenario.n_users" in capsys.readouterr().err

    def test_bad_threshold_list_length(self, tmp_path, capsys):
        path = write_config(tmp_path, thresholds=[0.5, 0.5])
        assert main(["simulate", "--config", str(path)]) == 1
        assert "thresholds" in capsys.readouterr().err

    @staticmethod
    def assert_one_error_line(capsys, *words):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(word in err for word in words), err

    @pytest.fixture
    def no_slots(self, monkeypatch):
        """Each case must fail before a slot is built."""

        def refuse(*args, **kwargs):
            raise AssertionError("a slot was built")

        monkeypatch.setattr(engine_mod, "realization_stream", refuse)
        monkeypatch.setattr(cli_mod, "realization_stream", refuse)

    def test_config_directory_exit_2(self, tmp_path, capsys, no_slots):
        assert main(["simulate", "--config", str(tmp_path)]) == 2
        self.assert_one_error_line(capsys, "cannot read config", str(tmp_path))

    def test_config_not_utf8(self, tmp_path, capsys, no_slots):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"output_dir": "café"}'.encode("latin-1"))
        assert main(["benchmark", "--config", str(path)]) == 1
        self.assert_one_error_line(capsys, "UTF-8")

    def test_out_is_a_file(self, tmp_path, capsys, no_slots):
        out = tmp_path / "taken"
        out.write_text("")
        path = write_config(tmp_path)
        assert main(["benchmark", "--config", str(path), "--out", str(out)]) == 1
        self.assert_one_error_line(capsys, "output directory", str(out))
        assert out.read_text() == ""

    def test_out_under_a_file(self, tmp_path, capsys, no_slots):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "out"
        path = write_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        self.assert_one_error_line(capsys, "output directory", str(out))


class TestConfigDefaults:
    """A config with only the required keys takes these values, copied from
    the per-section default tables the parser had before the dataclasses
    held the defaults; a default that drifts fails here."""

    SCENARIO = {
        "radius_min_m": 400.0,
        "radius_max_m": 800.0,
        "weight_mode": "uniform_iid",
        "hotspot_sigma_fraction": 0.25,
        "mean_weight": 0.5,
        "temporal_noise": False,
        "cost_to_weight_ratio": 0.2,
        "cost_jitter": (0.8, 1.2),
        "step_max_m": 1000.0,
    }
    TOP = {"policies": (), "warmup_slots": 0, "replications": 1, "output_dir": "out"}
    SOLVER = {"mode": "greedy", "exact_limit": 20, "node_budget": 20000}
    BENCHMARK = {"iterations": 150, "bruteforce": "auto", "step": None}
    TRUTHCHECK = {"instances": 100, "bid_points": 201, "bid_span": 3.0}
    POLICY = {"phi": 10.0, "alpha": 1.0}
    SCHEDULE = {"kind": "harmonic", "coeff": 1.0}
    REQUIRED = {
        "scenario": {
            "width_grids": 8, "height_grids": 6, "grid_edge_m": 200, "n_users": 4, "seed": 5
        },
        "t_slots": 12,
    }

    @staticmethod
    def assert_fields(obj, expected, given=()):
        names = {f.name for f in dataclasses.fields(obj)}
        assert names == set(expected) | set(given)
        for key, want in expected.items():
            got = getattr(obj, key)
            assert type(got) is type(want) and got == want, key

    @pytest.mark.parametrize("form", ["absent", "null", "empty"])
    def test_required_keys_only(self, tmp_path, form):
        cfg = json.loads(json.dumps(self.REQUIRED))
        if form != "absent":
            empty = None if form == "null" else {}
            cfg.update(solver=empty, benchmark=empty, truthcheck=empty)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        loaded = cli_mod.load_config(path)
        sections = ("scenario", "t_slots", "thresholds", "solver", "benchmark", "truthcheck")
        self.assert_fields(loaded, self.TOP, sections)
        assert loaded.t_slots == 12
        assert loaded.thresholds.dtype == np.float64
        assert loaded.thresholds.tolist() == [0.5] * 4
        self.assert_fields(loaded.scenario, self.SCENARIO, ("map", "n_users", "seed"))
        assert (loaded.scenario.n_users, loaded.scenario.seed) == (4, 5)
        grid = loaded.scenario.map
        assert (grid.width_grids, grid.height_grids, grid.grid_edge_m) == (8, 6, 200.0)
        assert type(grid.grid_edge_m) is float
        self.assert_fields(loaded.solver, self.SOLVER)
        self.assert_fields(loaded.benchmark, self.BENCHMARK)
        self.assert_fields(loaded.truthcheck, self.TRUTHCHECK)

    @pytest.mark.parametrize("schedule", ["absent", None, {}])
    def test_policy_and_step_defaults(self, tmp_path, schedule):
        policy = {"kind": "dual"}
        if schedule != "absent":
            policy["schedule"] = schedule
        cfg = dict(self.REQUIRED, policies=[policy], benchmark={"step": {}})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        loaded = cli_mod.load_config(path)
        (spec,) = loaded.policies
        assert spec.kind == "dual"
        self.assert_fields(spec, self.POLICY, ("kind", "schedule"))
        self.assert_fields(spec.schedule, self.SCHEDULE)
        self.assert_fields(loaded.benchmark.step, self.SCHEDULE)

    def test_seed_defaults_to_zero(self, tmp_path):
        cfg = json.loads(json.dumps(self.REQUIRED))
        del cfg["scenario"]["seed"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli_mod.load_config(path).scenario.seed == 0

    def test_map_is_not_a_scenario_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario.map": {"width_grids": 8}})
        assert main(["simulate", "--config", str(path)]) == 1
        assert "unknown key scenario.map" in capsys.readouterr().err


class TestSimulate:
    def test_outputs_and_schema(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cmd_simulate(str(path), out=str(out)) == 0
        trace = out / "lyapunov_phi10_rep0" / "trace.csv"
        lines = trace.read_text().splitlines()
        assert lines[0] == (
            "slot,policy,replication,user,selected,regulation,payment,active,welfare_slot"
        )
        assert len(lines) == 1 + 25 * 5
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "lyapunov_phi10" and first[3] == "0"
        assert (out / "summary.json").exists()
        for name in ("plotdata_welfare.csv", "plotdata_alloc_prob.csv", "plotdata_dropping.csv"):
            assert (out / "greedy_rep0" / name).exists()

    def test_summary_json_roundtrips(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        cmd_simulate(str(path), out=str(out))
        raw = (out / "summary.json").read_text()
        assert json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n" == raw

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cmd_simulate(str(path), out=str(out_a))
        cmd_simulate(str(path), out=str(out_b))
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_replications_use_consecutive_seeds(self, tmp_path):
        path = write_config(tmp_path, replications=2)
        out = tmp_path / "out"
        cmd_simulate(str(path), out=str(out))
        summary = json.loads((out / "summary.json").read_text())
        runs = summary["runs"]
        assert runs["greedy_rep0"]["seed"] == 21
        assert runs["greedy_rep1"]["seed"] == 22
        a = (out / "greedy_rep0" / "trace.csv").read_bytes()
        b = (out / "greedy_rep1" / "trace.csv").read_bytes()
        assert a != b

    def test_phi_and_alpha_sweep_runs_all_variants(self, tmp_path):
        policies = [{"kind": "lyapunov", "phi": p} for p in (20, 10, 5)]
        policies += [{"kind": "radp_vpc", "alpha": a} for a in (1, 0.5, 0.2)]
        path = write_config(tmp_path, policies=policies, t_slots=10, warmup_slots=2)
        out = tmp_path / "out"
        cmd_simulate(str(path), out=str(out))
        dirs = {p.name for p in out.iterdir() if p.is_dir()}
        assert dirs == {
            "lyapunov_phi20_rep0",
            "lyapunov_phi10_rep0",
            "lyapunov_phi5_rep0",
            "radp_vpc_alpha1_rep0",
            "radp_vpc_alpha0.5_rep0",
            "radp_vpc_alpha0.2_rep0",
        }

    def test_tiny_phi_with_a_finite_inverse_runs(self, tmp_path):
        # 1e-306 is above 2 n (T + 1) max D / float max = 7.2e-307, so no
        # bonus can overflow; 1e-320 is refused
        policies = [{"kind": "lyapunov", "phi": 1e-306}, {"kind": "auction", "phi": 1e-306}]
        path = write_config(tmp_path, policies=policies)
        out = tmp_path / "out"
        assert cmd_simulate(str(path), out=str(out)) == 0
        for run in ("lyapunov_phi1e-306_rep0", "auction_phi1e-306_rep0"):
            rows = (out / run / "trace.csv").read_text().splitlines()[1:]
            cells = [float(v) for row in rows for v in row.split(",")[5:7]]
            assert len(cells) == 2 * 25 * 5 and all(math.isfinite(v) for v in cells)

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cmd_simulate(str(path), out=str(out_a))
        cmd_simulate(str(path), seed=99, out=str(out_b))
        assert (out_a / "greedy_rep0" / "trace.csv").read_bytes() != (
            out_b / "greedy_rep0" / "trace.csv"
        ).read_bytes()

    def test_no_policies_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, policies=[])
        assert main(["simulate", "--config", str(path)]) == 1
        assert "policies" in capsys.readouterr().err

    def test_auction_beyond_exact_limit_surfaces_error(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"scenario.n_users": 30},
            policies=[{"kind": "auction", "phi": 10}],
        )
        assert main(["simulate", "--config", str(path)]) == 1
        assert "exact pivots" in capsys.readouterr().err

    def test_parallel_workers_byte_identical(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, replications=2)
        out_serial, out_parallel = tmp_path / "s", tmp_path / "p"
        cmd_simulate(str(path), out=str(out_serial))
        monkeypatch.setenv("SENSECOURT_THREADS", "4")
        cmd_simulate(str(path), out=str(out_parallel))
        for rel in sorted(p.relative_to(out_serial) for p in out_serial.rglob("*") if p.is_file()):
            assert (out_serial / rel).read_bytes() == (out_parallel / rel).read_bytes()


def tree_digest(root):
    """sha256 over sorted relative paths plus each file's length and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


class TestShippedConfigDigests:
    """The shipped simulate configs, shrunk to 30 slots, write fixed bytes.

    The digests were recorded from the per-(policy, replication) engine that
    built each policy's stream separately; lockstep stepping and the
    vectorized region build must not change a byte.
    """

    GOLDEN = {
        "dropping_desk": (
            {},
            "35afeefddeedf4d53c2098aa83bd33f71ab2be9d355c65596d843e3493bfdfb9",
        ),
        "welfare_desk": (
            {"replications": 2},
            "bb1c239613e5b288dd464ce8863e9ffbea877c994ee67320ba4c0db0d9b300a0",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_output_tree_digest(self, tmp_path, name):
        extra, digest = self.GOLDEN[name]
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        cfg.update(t_slots=30, warmup_slots=10, **extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cmd_simulate(str(path), out=str(out)) == 0
        assert tree_digest(out) == digest

    def test_dropping_welfare_desk_digest(self, tmp_path):
        """welfare_desk at 200 slots, thresholds 0.6 and C/W 0.7: every lane
        drops 37.5-75% of its users, so the dropping rule, the selection
        counts and the eligibility masks reach the written bytes. A dropped
        user's frozen regulation is not written (its row reads 0); the
        freeze tests in test_engine.py cover it."""
        cfg = json.loads((CONFIGS / "welfare_desk.json").read_text())
        cfg.update(t_slots=200, thresholds=0.6)
        cfg["scenario"]["cost_to_weight_ratio"] = 0.7
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cmd_simulate(str(path), out=str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(run["dropping_fraction"] > 0 for run in summary["runs"].values())
        assert (
            tree_digest(out)
            == "f9698e85b99c75c63db694a9c854fb419eda68f1e16bc84776593af0d1d2e818"
        )


class TestTruthcheckDigest:
    """The shipped truthcheck config at 16 users and 4 instances writes fixed bytes.

    The digest was recorded from the dense bids x 2^m sweep; the sweeps
    that replaced it, sorted-threshold and then tie-band, must not change
    a byte.
    """

    GOLDEN = "0020e5f36d728a817aa3aaec7c47f7b34258058816cce7ce4b81619899182475"

    def test_output_tree_digest(self, tmp_path):
        cfg = json.loads((CONFIGS / "truthcheck.json").read_text())
        cfg["scenario"]["n_users"] = 16
        cfg["truthcheck"]["instances"] = 4
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cmd_truthcheck(str(path), out=str(out)) == 0
        assert tree_digest(out) == self.GOLDEN


class TestBenchmarkDigest:
    """The shipped welfare config's benchmark at 200 slots writes fixed bytes.

    The digest was recorded from the dense per-chunk dual sweep and the
    per-row tie-break loop of the unconstrained optimum; the fast sweep
    must not change a byte.
    """

    GOLDEN = "5ab3a3a677927bc5cfce1365e360e55f9e277004192b71cc03611e18729e8b0f"

    def test_output_tree_digest(self, tmp_path):
        cfg = json.loads((CONFIGS / "welfare_desk.json").read_text())
        cfg["t_slots"] = 200
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cmd_benchmark(str(path), out=str(out)) == 0
        assert tree_digest(out) == self.GOLDEN


class TestFailBeforeWork:
    """Settings no run can use are refused before any slot or output exists."""

    @pytest.mark.parametrize(
        "command, section, value, key",
        [
            ("benchmark", "benchmark", {"iterations": 0}, "benchmark.iterations"),
            ("benchmark", "benchmark", {"iterations": -3}, "benchmark.iterations"),
            ("benchmark", "benchmark", {"iterations": float("inf")}, "benchmark.iterations"),
            ("truthcheck", "truthcheck", {"bid_points": "many"}, "truthcheck.bid_points"),
            ("truthcheck", "truthcheck", {"bid_points": 0}, "truthcheck.bid_points"),
            ("truthcheck", "truthcheck", {"phi": 10}, "unknown key truthcheck.phi"),
            ("truthcheck", "truthcheck", {"bid_span": -1.0}, "truthcheck.bid_span"),
            ("truthcheck", "truthcheck", {"bid_span": float("nan")}, "truthcheck.bid_span"),
            ("truthcheck", "truthcheck", {"bid_span": float("inf")}, "truthcheck.bid_span"),
            ("truthcheck", "truthcheck", {"instances": -1}, "truthcheck.instances"),
            ("benchmark", "benchmark", {"step": {"kind": "cubic"}}, "benchmark.step"),
            ("benchmark", "benchmark", {"step": {"coeff": 0}}, "benchmark.step"),
            ("benchmark", "benchmark", {"step": {"coeff": math.inf}}, "benchmark.step"),
            ("simulate", "policies", [{"kind": "lyapunov", "phi": 0}], "phi must be"),
            ("simulate", "policies", [{"kind": "lyapunov", "phi": math.inf}], "phi must be"),
            ("simulate", "policies", [{"kind": "auction", "phi": math.nan}], "phi must be"),
            ("simulate", "policies", [{"kind": "lyapunov", "phi": 1e-320}], "phi must be"),
            ("simulate", "policies", [{"kind": "auction", "phi": 1e-320}], "phi must be"),
            ("simulate", "policies", [{"kind": "radp_vpc", "alpha": -1}], "alpha must be"),
            ("simulate", "policies", [{"kind": "radp_vpc", "alpha": math.inf}], "alpha must be"),
            ("simulate", "policies", [{"kind": "radp_vpc", "alpha": math.nan}], "alpha must be"),
            (
                "simulate",
                "policies",
                [{"kind": "dual", "schedule": {"coeff": math.inf}}],
                "policies[0].schedule",
            ),
            ("benchmark", "benchmark", {"bruteforce": "yes"}, "benchmark.bruteforce"),
            ("benchmark", "benchmark", "x", "benchmark must be an object"),
            ("simulate", "thresholds", float("nan"), "thresholds"),
            ("simulate", "thresholds", ["low"] * 5, "thresholds"),
            ("simulate", "t_slots", "abc", "t_slots"),
            ("simulate", "t_slots", 20.9, "t_slots"),
            ("simulate", "solver", "fast", "solver must be an object"),
            ("simulate", "solver", {"mode": "bnb", "node_budget": 0}, "node_budget"),
            ("simulate", "solver", {"exact_limit": -1}, "exact_limit"),
            (
                "simulate",
                "policies",
                [{"kind": "lyapunov", "phi": 20, "alpha": -5}],
                "policy lyapunov does not read alpha",
            ),
            ("simulate", "policies", [{"kind": "greedy", "phi": 3}], "does not read phi"),
            ("simulate", "policies", [{"kind": "dual", "phi": 3}], "does not read phi"),
            # 25 slots of 5 users at D = 0.5 take phi >= 7.2e-307
            ("simulate", "policies", [{"kind": "lyapunov", "phi": 1e-308}], "phi = 1e-308"),
            ("simulate", "policies", [{"kind": "auction", "phi": 1e-308}], "phi = 1e-308"),
            # and alpha <= 7.2e305
            ("simulate", "policies", [{"kind": "radp_vpc", "alpha": 1e308}], "alpha = 1e+308"),
            # 150 iterations of 5 users over 25 slots at D = 0.5 take a step coeff <= 8e303
            (
                "benchmark",
                "benchmark",
                {"step": {"kind": "constant", "coeff": 1e308}},
                "benchmark.step coeff = 1e+308",
            ),
            # a slot here costs at most 0.4 * 0.5 * 64 * 1.2 = 15.36
            ("truthcheck", "truthcheck", {"bid_span": 1e308}, "truthcheck.bid_span = 1e+308"),
            # a null step defaults to at most harmonic(2 max_cost), here 1.92e307:
            # past the 2e305 that 150 iterations of 3 users at D = 0.5 allow
            (
                "benchmark",
                "scenario",
                {
                    "width_grids": 4, "height_grids": 4, "grid_edge_m": 200.0, "n_users": 3,
                    "cost_to_weight_ratio": 1e306, "seed": 1,
                },
                "the default benchmark step, coeff 2 * scenario.max_cost = 1.92e+307,",
            ),
        ],
    )
    def test_refused_with_error_line(
        self, tmp_path, monkeypatch, capsys, command, section, value, key
    ):
        built = []
        original = cli_mod.realization_stream

        def counting(scenario, t_slots):
            for realization in original(scenario, t_slots):
                built.append(1)
                yield realization

        monkeypatch.setattr(cli_mod, "realization_stream", counting)
        path = write_config(tmp_path, **{section: value})
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert built == []
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["constant", "harmonic"])
    def test_largest_accepted_benchmark_step_runs_without_overflow(self, tmp_path, kind):
        # 150 iterations of 5 users over 25 slots at D = 0.5: float max over
        # 2 max(150, 5 * 25) terms, over max D times the steps' sum
        steps = 150 if kind == "constant" else 1.0 + math.log(150)
        coeff = np.finfo(float).max / (2 * 150) / (0.5 * steps)
        step = {"kind": kind, "coeff": coeff}
        path = write_config(tmp_path, benchmark={"bruteforce": False, "step": step})
        assert cmd_benchmark(str(path), out=str(tmp_path / "out")) == 0
        step["coeff"] = np.nextafter(coeff, np.inf)
        path = write_config(tmp_path, benchmark={"bruteforce": False, "step": step})
        with pytest.raises(cli_mod.ConfigError, match=re.escape(f"at most {coeff:.17g}")):
            cli_mod.load_config(path)

    def test_largest_accepted_default_benchmark_step_runs_without_warnings(self, tmp_path):
        # a null step is harmonic(2 mean_cost), at most harmonic(2 max_cost); the
        # bound is that of a given step, and max_cost = ratio * 0.5 * 64 * 1.2
        coeff_max = np.finfo(float).max / (2 * 150) / (0.5 * (1.0 + math.log(150)))
        path = lambda ratio: write_config(  # noqa: E731
            tmp_path, {"scenario.cost_to_weight_ratio": ratio}, benchmark={"bruteforce": False}
        )

        def accepted(ratio):
            try:
                cli_mod.load_config(path(ratio))
            except cli_mod.ConfigError:
                return False
            return True

        ratio = coeff_max / (2 * 0.5 * 64 * 1.2)
        for _ in range(64):  # the largest accepted ratio is a few ulps from this one
            if not accepted(ratio):
                ratio = np.nextafter(ratio, 0.0)
            elif accepted(np.nextafter(ratio, np.inf)):
                ratio = np.nextafter(ratio, np.inf)
        assert accepted(ratio)
        with pytest.raises(cli_mod.ConfigError, match="the default benchmark step"):
            cli_mod.load_config(path(np.nextafter(ratio, np.inf)))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cmd_benchmark(str(path(ratio)), out=str(out)) == 0
        bound = json.loads((out / "benchmark.json").read_text())["dual_upper_bound"]
        assert math.isfinite(bound)

    @pytest.mark.parametrize("command", ["simulate", "benchmark", "truthcheck"])
    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"scenario.step_max_m": math.nan}, "step_max_m"),
            ({"scenario.step_max_m": math.inf}, "step_max_m"),
            ({"scenario.radius_max_m": math.inf}, "radius"),
            ({"scenario.cost_jitter": [0.5, math.inf]}, "cost_jitter"),
            ({"scenario.mean_weight": math.inf}, "mean_weight"),
            ({"scenario.cost_to_weight_ratio": math.nan}, "cost_to_weight_ratio"),
            ({"scenario.cost_to_weight_ratio": math.inf}, "cost_to_weight_ratio"),
            (
                {"scenario.weight_mode": "hotspot", "scenario.hotspot_sigma_fraction": 0},
                "hotspot_sigma_fraction",
            ),
            ({"scenario.hotspot_sigma_fraction": -0.5}, "hotspot_sigma_fraction"),
            ({"scenario.grid_edge_m": math.inf}, "grid_edge_m"),
            ({"scenario.width_grids": math.inf}, "invalid scenario value"),
            ({"scenario.width_grids": 10.9}, "width_grids"),
            ({"scenario.temporal_noise": "false"}, "temporal_noise"),
            ({"scenario.cost_jitter": [0.5, 1.0, 1.5]}, "cost_jitter"),
            ({"scenario.seed": -1}, "seed"),
        ],
    )
    def test_scenario_value_refused_with_error_line(
        self, tmp_path, monkeypatch, capsys, command, overrides, key
    ):
        built = []

        def counting(original):
            def stream(scenario, t_slots):
                for realization in original(scenario, t_slots):
                    built.append(1)
                    yield realization

            return stream

        for module in (cli_mod, engine_mod):
            monkeypatch.setattr(
                module, "realization_stream", counting(module.realization_stream)
            )
        path = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario value: ") and key in err
        assert err.count("\n") == 1
        assert built == []
        assert not out.exists()

    def test_auction_beyond_exact_limit_refused_before_warmup(
        self, tmp_path, monkeypatch, capsys
    ):
        built = []
        original = engine_mod.realization_stream

        def counting(scenario, t_slots):
            for realization in original(scenario, t_slots):
                built.append(1)
                yield realization

        monkeypatch.setattr(engine_mod, "realization_stream", counting)
        path = write_config(
            tmp_path,
            {"scenario.n_users": 22},
            policies=[{"kind": "greedy"}, {"kind": "auction", "phi": 10}],
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: auction requires exact pivots") and err.count("\n") == 1
        assert "22 eligible users exceed 20" in err
        assert built == []
        assert not out.exists()

    def test_exact_mode_beyond_exact_limit_refused_before_warmup(
        self, tmp_path, monkeypatch, capsys
    ):
        # the shipped dropping desk, 100 users, in exact mode
        built = []
        original = engine_mod.realization_stream

        def counting(scenario, t_slots):
            for realization in original(scenario, t_slots):
                built.append(1)
                yield realization

        monkeypatch.setattr(engine_mod, "realization_stream", counting)
        cfg = json.loads((CONFIGS / "dropping_desk.json").read_text())
        cfg["solver"] = {"mode": "exact"}
        path = tmp_path / "desk_exact.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: 100 eligible users exceed exact_limit=20\n"
        assert built == []
        assert not out.exists()

    def test_auction_beyond_exact_limit_runs_when_every_slot_is_warmup(self, tmp_path):
        path = write_config(
            tmp_path,
            {"scenario.n_users": 22},
            policies=[{"kind": "greedy"}, {"kind": "auction", "phi": 10}],
            warmup_slots=25,
        )
        assert cmd_simulate(str(path), out=str(tmp_path / "out")) == 0

    @pytest.mark.parametrize("command", ["simulate", "benchmark", "truthcheck"])
    def test_negative_seed_override_refused(self, tmp_path, capsys, command):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        argv = [command, "--config", str(path), "--out", str(out), "--seed", "-1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario value: seed") and err.count("\n") == 1
        assert not out.exists()

    def test_zero_instances_still_valid(self, tmp_path):
        path = write_config(tmp_path, truthcheck={"instances": 0, "bid_span": 0.0})
        out = tmp_path / "out"
        assert cmd_truthcheck(str(path), out=str(out)) == 0
        assert json.loads((out / "truthfulness.json").read_text())["vacuous"] is True


# values whose text is easy to get wrong when formatting by distinct value
AWKWARD = np.array(
    [
        0.0,
        -0.0,  # prints "-0": a float-keyed unique would merge it into 0.0
        np.nan,
        -np.nan,
        np.frombuffer(np.int64(0x7FF8000000000001).tobytes(), dtype=np.float64)[0],
        np.inf,
        -np.inf,
        5e-324,  # smallest subnormal
        -2.5e-310,
        np.nextafter(2.2250738585072014e-308, 0.0),  # largest subnormal
        1e16,
        1e16 + 2.0,
        0.1 + 0.2,
        0.3,
        1.0 / 3.0,
        123456789.123456789,
        -1e-300,
        1.7976931348623157e308,
    ]
)


def running_average(welfare: np.ndarray) -> np.ndarray:
    """What a run records as running_avg_welfare, and write_run writes."""
    with np.errstate(invalid="ignore"):
        return np.cumsum(welfare) / np.arange(1, welfare.size + 1)


def awkward_metrics(payments: bool) -> TraceMetrics:
    rng = np.random.default_rng(5)
    t, n = 6, AWKWARD.size
    grid = lambda: rng.permutation(np.tile(AWKWARD, t)).reshape(t, n)  # noqa: E731
    welfare = AWKWARD[:t][::-1].copy()
    return TraceMetrics(
        policy_label="probe",
        replication=3,
        seed=0,
        t_slots=t,
        warmup_slots=0,
        thresholds=np.full(n, 0.5),
        welfare_series=welfare,
        running_avg_welfare=running_average(welfare),
        alloc_prob_series=grid(),
        selected=rng.random((t, n)) < 0.5,
        active=rng.random((t, n)) < 0.5,
        regulation=grid(),
        payments_series=grid() if payments else None,
        drop_events=((2, 3), (7, 5)),
        final_level=np.zeros(n),
    )


def cycled_metrics(t: int, n: int, pool: np.ndarray, payments: bool) -> TraceMetrics:
    """A run of t slots and n users whose float series each hold the first
    t * n values of pool, repeated as needed, in a shuffled order."""
    rng = np.random.default_rng(7)
    grid = lambda: rng.permutation(np.resize(pool, t * n)).reshape(t, n)  # noqa: E731
    welfare = rng.permutation(np.resize(pool, t))
    return TraceMetrics(
        policy_label="cycled",
        replication=0,
        seed=0,
        t_slots=t,
        warmup_slots=0,
        thresholds=np.full(n, 0.5),
        welfare_series=welfare,
        running_avg_welfare=running_average(welfare),
        alloc_prob_series=grid(),
        selected=rng.random((t, n)) < 0.5,
        active=rng.random((t, n)) < 0.5,
        regulation=grid(),
        payments_series=grid() if payments else None,
        drop_events=((0, 1), (n - 1, t)),
        final_level=np.zeros(n),
    )


def assert_writers_match_oracle(tmp_path, metrics: TraceMetrics) -> None:
    fast, ref = tmp_path / "fast", tmp_path / "ref"
    fast.mkdir()
    ref.mkdir()
    write_run(fast, metrics)
    write_per_cell(ref, metrics)
    assert tree_digest(fast) == tree_digest(ref)


class TestWriters:
    @pytest.mark.parametrize("payments", [True, False])
    def test_same_bytes_as_formatting_each_cell(self, tmp_path, payments):
        assert_writers_match_oracle(tmp_path, awkward_metrics(payments))
        text = (tmp_path / "fast" / "trace.csv").read_text()
        for token in (",-0,", ",0,", ",nan,", ",inf,", ",-inf,", ",4.94065646e-324,", ",1e+16,"):
            assert token in text

    # one user: each row is one cell, so the row joins have nothing between
    # cells; one slot: one row per file; and with 100 users the plotdata
    # blocks of 40 rows end in a part block. Each shape runs on the awkward
    # values and on series whose every value is distinct, where 5,000
    # distinct cells fill the trace's cell cache past its 1,024 more than once.
    @pytest.mark.parametrize("t, n", [(AWKWARD.size, 1), (1, AWKWARD.size), (50, 100)])
    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("payments", [True, False])
    def test_edge_shapes_match_oracle(self, tmp_path, t, n, distinct, payments):
        pool = np.random.default_rng(11).standard_normal(t * n) if distinct else AWKWARD
        if distinct:
            assert np.unique(pool).size == t * n
        assert_writers_match_oracle(tmp_path, cycled_metrics(t, n, pool, payments))

    @pytest.mark.parametrize("payments", [True, False])
    def test_peak_below_one_series(self, tmp_path, payments):
        # a few distinct values, as most cells of a long run: the writers
        # hold a slot or a block of rows, never a (T, n) temporary
        pool = np.array([0.0, -0.0, 0.25, 0.5, 1.0, 1.0 / 3.0])
        metrics = cycled_metrics(2_000, 100, pool, payments)
        tracemalloc.start()
        try:
            write_run(tmp_path, metrics)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < metrics.alloc_prob_series.nbytes


class TestWorkerCount:
    @pytest.mark.parametrize("raw", ["two", "", "0", "-3", "1.5"])
    def test_invalid_value_warns_and_uses_one(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("SENSECOURT_THREADS", raw)
        assert _worker_count(4) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "SENSECOURT_THREADS" in err and "warning" in err

    def test_valid_value_is_silent_and_capped_by_jobs(self, monkeypatch, capsys):
        monkeypatch.setenv("SENSECOURT_THREADS", "8")
        assert _worker_count(3) == 3
        monkeypatch.delenv("SENSECOURT_THREADS")
        assert _worker_count(3) == 1
        assert capsys.readouterr().err == ""


class TestBenchmarkCommand:
    def test_emits_benchmark_json(self, tmp_path):
        path = write_config(
            tmp_path,
            {"scenario.n_users": 3},
            t_slots=6,
            benchmark={"iterations": 40, "bruteforce": False},
        )
        out = tmp_path / "out"
        assert cmd_benchmark(str(path), out=str(out)) == 0
        report = json.loads((out / "benchmark.json").read_text())
        assert report["bruteforce"] is None and report["bruteforce_feasible"] is None
        assert report["dual_upper_bound"] <= report["unconstrained"] + 1e-9
        assert report["incentive_cost"] >= 0.0

    def test_bruteforce_auto_within_limits(self, tmp_path):
        path = write_config(
            tmp_path, {"scenario.n_users": 3}, t_slots=4, warmup_slots=0,
            benchmark={"iterations": 40},
        )
        out = tmp_path / "out"
        cmd_benchmark(str(path), out=str(out))
        report = json.loads((out / "benchmark.json").read_text())
        assert report["bruteforce"] is not None and report["bruteforce_feasible"] is True
        assert report["dual_upper_bound"] >= report["bruteforce"] - 1e-9

    def test_bruteforce_auto_above_limits_skipped(self, tmp_path):
        # N*T = 25 is one past the joint enumeration limit
        path = write_config(
            tmp_path, t_slots=5, warmup_slots=0, benchmark={"iterations": 10, "bruteforce": "auto"}
        )
        out = tmp_path / "out"
        assert cmd_benchmark(str(path), out=str(out)) == 0
        report = json.loads((out / "benchmark.json").read_text())
        assert report["bruteforce"] is None and report["bruteforce_feasible"] is None

    def test_capacity_guidance(self, tmp_path, capsys):
        path = write_config(
            tmp_path, t_slots=30, benchmark={"iterations": 10, "bruteforce": True}
        )
        assert main(["benchmark", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "N*T" in err and "shrink" in err

    @pytest.mark.parametrize(
        "overrides, top_level, match",
        [
            ({"scenario.n_users": 16}, {"t_slots": 300}, "welfare table cap"),
            ({}, {"t_slots": 30, "benchmark": {"bruteforce": True}}, "N\\*T"),
        ],
    )
    def test_capacity_refused_before_first_slot(
        self, tmp_path, monkeypatch, overrides, top_level, match
    ):
        built = []
        original = cli_mod.realization_stream

        def counting(scenario, t_slots):
            for realization in original(scenario, t_slots):
                built.append(1)
                yield realization

        monkeypatch.setattr(cli_mod, "realization_stream", counting)
        path = write_config(tmp_path, overrides, **top_level)
        out = tmp_path / "out"
        with pytest.raises(BenchmarkCapacityError, match=match):
            cmd_benchmark(str(path), out=str(out))
        assert built == []
        assert not out.exists()

    def test_incentive_cost_null_without_positive_welfare(self, tmp_path):
        # at 50 times the weight in cost no subset pays for itself
        cfg = json.loads((CONFIGS / "welfare_desk.json").read_text())
        cfg["scenario"]["cost_to_weight_ratio"] = 50
        cfg.update(t_slots=50, warmup_slots=0)
        cfg["benchmark"]["iterations"] = 10
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "benchmark.json").read_text())
        assert report["unconstrained"] <= 0
        assert report["incentive_cost"] is None

    def test_one_table_per_slot_shared_by_all_references(self, tmp_path, monkeypatch):
        built = []
        original = benchmark_mod.subset_value_rows

        def counting(slots):
            built.extend((id(slot), slot.n_users) for slot in slots)
            return original(slots)

        def refused(*args):
            raise AssertionError("the references read the welfare table, not per-slot tables")

        monkeypatch.setattr(benchmark_mod, "subset_value_rows", counting)
        monkeypatch.setattr(benchmark_mod, "subset_value_table", refused)
        path = write_config(
            tmp_path, {"scenario.n_users": 3}, t_slots=4, warmup_slots=0,
            benchmark={"iterations": 40},
        )
        out = tmp_path / "out"
        assert cmd_benchmark(str(path), out=str(out)) == 0
        assert json.loads((out / "benchmark.json").read_text())["bruteforce"] is not None
        # four distinct slots, each built once, all with their three users
        assert len({slot for slot, _ in built}) == len(built) == 4
        assert [n for _, n in built] == [3] * 4


class TestTruthcheckCommand:
    def test_clean_run_exit_zero(self, tmp_path):
        path = write_config(
            tmp_path, truthcheck={"instances": 12, "bid_points": 61, "bid_span": 3.0}
        )
        out = tmp_path / "out"
        assert cmd_truthcheck(str(path), out=str(out)) == 0
        report = json.loads((out / "truthfulness.json").read_text())
        assert report["max_regret"] <= 1e-9
        assert report["counterexample"] is None
        assert report["swept"] > 0
        assert report["vacuous"] is False

    def test_zero_instances_vacuous(self, tmp_path):
        path = write_config(tmp_path, truthcheck={"instances": 0})
        out = tmp_path / "out"
        assert cmd_truthcheck(str(path), out=str(out)) == 0
        report = json.loads((out / "truthfulness.json").read_text())
        assert report["vacuous"] is True

    def test_corrupted_payment_rule_detected(self, tmp_path, monkeypatch):
        # sensitivity check: a broken pivot must trip the harness
        original = auction_mod.pivot_payment

        def corrupted(value_term, others_cost, welfare_without, regulation):
            return original(value_term, others_cost, welfare_without, regulation) * 0.7

        monkeypatch.setattr(auction_mod, "pivot_payment", corrupted)
        path = write_config(
            tmp_path, truthcheck={"instances": 12, "bid_points": 61, "bid_span": 3.0}
        )
        out = tmp_path / "out"
        assert cmd_truthcheck(str(path), out=str(out)) == 1
        report = json.loads((out / "truthfulness.json").read_text())
        assert report["counterexample"] is not None
        assert report["max_regret"] > 1e-9

    def test_counterexample_is_the_sweeps_own_verdict(self, tmp_path, monkeypatch):
        # the command keeps no tolerance of its own: a sweep that reports
        # untruthful is a counterexample whatever its regret reads
        original = auction_mod.truthfulness_sweep

        def untruthful(*args, **kwargs):
            return dataclasses.replace(original(*args, **kwargs), truthful=False)

        monkeypatch.setattr(auction_mod, "truthfulness_sweep", untruthful)
        path = write_config(tmp_path, truthcheck={"instances": 2, "bid_points": 11})
        out = tmp_path / "out"
        assert cmd_truthcheck(str(path), out=str(out)) == 1
        report = json.loads((out / "truthfulness.json").read_text())
        assert report["counterexample"]["instance"] == 1
        assert report["max_regret"] <= report["regret_tolerance"] == TIE_TOL

    def test_configured_exact_limit_reaches_the_sweep(self, tmp_path):
        # 21 users pass a limit of 21, above the sweep's default of 20
        cfg = json.loads((CONFIGS / "truthcheck.json").read_text())
        cfg["scenario"]["n_users"] = 21
        cfg["solver"] = {"exact_limit": 21}
        cfg["truthcheck"]["instances"] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["truthcheck", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "truthfulness.json").read_text())["swept"] == 1

    def test_oversized_instances_rejected(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"scenario.n_users": 25}, truthcheck={"instances": 2}
        )
        assert main(["truthcheck", "--config", str(path)]) == 1
        assert "exact" in capsys.readouterr().err
