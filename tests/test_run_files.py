"""simulate writes each replication's run files as its slots are recorded.

Every file must equal what the one-format()-a-cell writer in
tests/oracle_writers.py makes of the TraceMetrics that run_simulation
collects for the same config: all six policy kinds, blocks that end part
way, end full or hold one slot, one user, one slot, two auction lanes
apart, and two replications run in one process or in worker processes.
What a run holds must not grow with T by as much as the series it no
longer keeps, a run that raises leaves no run file, and no command imports
numpy.ma (about 12 ms and 1.5 MB on first use).
"""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import sensecourt
import sensecourt.cli as cli_mod
import sensecourt.engine as engine_mod
import sensecourt.runfiles as runfiles_mod
from sensecourt.cli import cmd_simulate, load_config
from sensecourt.engine import run_simulation

from oracle_writers import write_per_cell
from test_cli import CONFIGS, write_config

SIX_KINDS = [
    {"kind": "dual"},
    {"kind": "lyapunov", "phi": 10},
    {"kind": "auction", "phi": 10},
    {"kind": "radp_vpc", "alpha": 1.0},
    {"kind": "greedy"},
    {"kind": "random"},
]


def write_oracle_tree(config: Path, out: Path) -> None:
    """The run directories and summary.json of `simulate` on config, from
    the collected series through the per-cell writer."""
    cfg = load_config(str(config))
    runs = {}
    for rep in range(cfg.replications):
        scenario = dataclasses.replace(cfg.scenario, seed=cfg.scenario.seed + rep)
        lanes = run_simulation(
            scenario, cfg.policies, cfg.t_slots, cfg.warmup_slots, cfg.thresholds, cfg.solver,
            replication=rep,
        )
        for metrics in lanes:
            run = f"{metrics.policy_label}_rep{rep}"
            (out / run).mkdir(parents=True)
            write_per_cell(out / run, metrics)
            runs[run] = metrics.summary
    (out / "summary.json").write_text(json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n")


def assert_same_tree(got: Path, want: Path) -> None:
    def files(root: Path) -> list[Path]:
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

    assert files(got) == files(want)
    for rel in files(want):
        assert (got / rel).read_bytes() == (want / rel).read_bytes(), rel


def assert_simulate_matches_oracle(tmp_path, config: Path) -> dict:
    got, want = tmp_path / "got", tmp_path / "want"
    assert cmd_simulate(str(config), out=str(got)) == 0
    write_oracle_tree(config, want)
    assert_same_tree(got, want)
    return json.loads((got / "summary.json").read_text())["runs"]


class TestStreamedMatchesCollected:
    # block_cells 64 over 6 lanes of 5 users is 2 slots a block, so 25 slots
    # end in a part block and 24 in a full one; 1 makes every slot its own
    # block; one user at 64 is 10 slots a block, 25 slots again ending part way
    @pytest.mark.parametrize(
        "block_cells, overrides, top",
        [
            (4096, {}, {}),
            (64, {}, {}),
            (64, {}, {"t_slots": 24}),
            (1, {}, {}),
            (64, {"scenario.n_users": 1}, {}),
            (4096, {}, {"t_slots": 1, "warmup_slots": 0}),
            (4096, {"scenario.n_users": 1}, {"t_slots": 1, "warmup_slots": 0}),
        ],
    )
    def test_six_kinds(self, tmp_path, monkeypatch, block_cells, overrides, top):
        monkeypatch.setattr(runfiles_mod, "_BLOCK_CELLS", block_cells)
        config = write_config(tmp_path, overrides, policies=SIX_KINDS, **top)
        runs = assert_simulate_matches_oracle(tmp_path, config)
        assert len(runs) == 6

    def test_drops_and_payments_reach_the_files(self, tmp_path, monkeypatch):
        # thresholds 0.8 drop users in every lane but greedy's; the auction pays
        monkeypatch.setattr(runfiles_mod, "_BLOCK_CELLS", 64)
        config = write_config(tmp_path, policies=SIX_KINDS, thresholds=0.8)
        runs = assert_simulate_matches_oracle(tmp_path, config)
        assert sum(run["dropping_fraction"] > 0 for run in runs.values()) >= 4
        rows = (tmp_path / "got" / "auction_phi10_rep0" / "trace.csv").read_text().splitlines()
        assert any(row.split(",")[6] not in ("0", "-0") for row in rows[1:])

    def test_two_auction_lanes_apart(self, tmp_path, monkeypatch):
        """Auctions at lanes 1 and 4, at different phi: each lane's trace.csv,
        payments included, is what that auction writes alone."""
        monkeypatch.setattr(runfiles_mod, "_BLOCK_CELLS", 64)
        policies = [
            {"kind": "greedy"}, {"kind": "auction", "phi": 10}, {"kind": "dual"},
            {"kind": "lyapunov", "phi": 10}, {"kind": "auction", "phi": 2},
        ]
        config = write_config(tmp_path, policies=policies, thresholds=0.8)
        assert_simulate_matches_oracle(tmp_path, config)
        cfg, paid = load_config(str(config)), []
        for lane in (1, 4):
            alone = run_simulation(
                cfg.scenario, cfg.policies[lane], cfg.t_slots, cfg.warmup_slots, cfg.thresholds,
                cfg.solver,
            )
            (tmp_path / "alone").mkdir(exist_ok=True)
            write_per_cell(tmp_path / "alone", alone)
            name = f"{alone.policy_label}_rep0/trace.csv"
            got = (tmp_path / "got" / name).read_bytes()
            assert got == (tmp_path / "alone" / "trace.csv").read_bytes(), name
            paid.append([row.split(",")[6] for row in got.decode().splitlines()[1:]])
        assert paid[0] != paid[1]
        assert all(set(column) - {"0", "-0"} for column in paid)

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_two_replications(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("SENSECOURT_THREADS", threads)
        config = write_config(tmp_path, policies=SIX_KINDS, replications=2)
        runs = assert_simulate_matches_oracle(tmp_path, config)
        labels = [spec.label for spec in load_config(str(config)).policies]
        assert sorted(runs) == sorted(f"{label}_rep{rep}" for label in labels for rep in (0, 1))

    def test_shipped_config_shrunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runfiles_mod, "_BLOCK_CELLS", 1000)
        cfg = json.loads((CONFIGS / "dropping_desk.json").read_text())
        cfg.update(t_slots=60, warmup_slots=10)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert_simulate_matches_oracle(tmp_path, config)


class TestRunMemory:
    def test_peak_does_not_grow_with_slots(self, tmp_path):
        """From 400 to 2,000 slots a run's tracemalloc peak grows by less than
        one (L, 400, n) float series: only the (L, T) welfare series and
        the welfare plotdata's arrays grow with T."""
        n, policies = 40, [{"kind": "lyapunov", "phi": 10}, {"kind": "greedy"}]

        def peak(t: int) -> int:
            config = write_config(
                tmp_path, {"scenario.n_users": n}, policies=policies, t_slots=t, warmup_slots=5
            )
            tracemalloc.start()
            try:
                cmd_simulate(str(config), out=str(tmp_path / f"out{t}"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20)  # one-time allocations of the first run in a process
        grown = peak(2_000) - peak(400)
        assert grown < len(policies) * 400 * n * 8


class TestNoPartialFiles:
    def test_a_run_that_raises_leaves_no_run_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runfiles_mod, "_BLOCK_CELLS", 20)
        original = engine_mod.realization_stream

        def failing(scenario, t_slots):
            for k, realization in enumerate(original(scenario, t_slots)):
                if k == 17:
                    raise RuntimeError("stream failed")
                yield realization

        monkeypatch.setattr(engine_mod, "realization_stream", failing)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="stream failed"):
            cmd_simulate(str(write_config(tmp_path)), out=str(out))
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_a_failed_rerun_keeps_the_earlier_files(self, tmp_path, monkeypatch):
        config, out = write_config(tmp_path), tmp_path / "out"
        cmd_simulate(str(config), out=str(out))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        monkeypatch.setattr(runfiles_mod, "_BLOCK_CELLS", 20)
        monkeypatch.setattr(cli_mod, "write_plotdata", lambda run: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            cmd_simulate(str(config), out=str(out))
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_no_command_imports_numpy_ma(tmp_path):
    """np.unique without return_* imports numpy.ma on numpy 2.4; no command
    may reach it. Each command runs on a tiny config in a fresh process."""
    welfare = json.loads((CONFIGS / "welfare_desk.json").read_text())
    welfare.update(t_slots=30, warmup_slots=10)
    welfare["benchmark"] = {"iterations": 5}
    truth = json.loads((CONFIGS / "truthcheck.json").read_text())
    truth["truthcheck"]["instances"] = 2
    (tmp_path / "welfare.json").write_text(json.dumps(welfare))
    (tmp_path / "truth.json").write_text(json.dumps(truth))
    script = textwrap.dedent(
        f"""
        import sys
        from sensecourt.cli import main
        for command, config in [("simulate", "welfare"), ("benchmark", "welfare"),
                                ("truthcheck", "truth")]:
            out = {str(tmp_path)!r} + "/" + command
            code = main([command, "--config", {str(tmp_path)!r} + f"/{{config}}.json",
                         "--out", out])
            print(command, code, "numpy.ma" in sys.modules)
        """
    )
    src = str(Path(sensecourt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env=os.environ | {"PYTHONPATH": path, "SENSECOURT_THREADS": "1"}, check=True,
    )
    assert done.stdout.split("\n")[:3] == [
        "simulate 0 False", "benchmark 0 False", "truthcheck 0 False"
    ]
