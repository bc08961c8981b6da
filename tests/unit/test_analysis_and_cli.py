"""Analysis (figures, reports) and CLI units."""

import pytest

from repro.analysis.figures import (
    FigurePanel,
    midtown_network_factory,
    midtown_scenario,
    render_speedup_comparison,
    seed_speedup_series,
)
from repro.analysis.report import correctness_summary, describe_run, describe_sweep
from repro.cli import build_parser, main
from repro.roadnet.builders import grid_network
from repro.sim.results import RunResult, SweepCell, SweepResult
from repro.sim.runner import ExperimentRunner, SweepSpec
from repro.units import SPEED_LIMIT_25_MPH


def make_run(constitution=120.0, collection=240.0, volume=0.5, seeds=1, count=40, truth=40, open_system=False):
    return RunResult(
        scenario_name="r",
        rng_seed=0,
        volume_fraction=volume,
        num_seeds=seeds,
        open_system=open_system,
        constitution_time_s=constitution,
        constitution_min_s=None if constitution is None else constitution / 4,
        constitution_avg_s=None if constitution is None else constitution / 2,
        collection_time_s=collection,
        simulated_s=collection + 10,
        ground_truth=truth,
        protocol_count=count,
        collected_count=count,
        adjustments=0,
        inside_at_end=truth,
        converged=True,
        collection_converged=True,
    )


def make_sweep(times):
    """times: {(volume, seeds): constitution_time_s}"""
    cells = []
    for (vol, seeds), t in times.items():
        cells.append(
            SweepCell(volume_fraction=vol, num_seeds=seeds, runs=(make_run(constitution=t, volume=vol, seeds=seeds),))
        )
    return SweepResult(name="synthetic", cells=cells)


class TestFigureHelpers:
    def test_midtown_factory_builds_expected_network(self):
        net = midtown_network_factory(scale=0.3, open_border=True)()
        assert net.is_open_system
        net25 = midtown_network_factory(scale=0.3, speed_limit_mps=SPEED_LIMIT_25_MPH)()
        assert next(iter(net25.segments())).speed_limit_mps == pytest.approx(SPEED_LIMIT_25_MPH)

    def test_midtown_scenario_defaults_match_paper(self):
        cfg = midtown_scenario(name="x")
        assert cfg.wireless.loss_probability == pytest.approx(0.3)
        assert cfg.mobility.allow_overtaking
        assert cfg.protocol.collection_enabled

    def test_figure_panel_render(self):
        sweep = make_sweep({(0.5, 1): 120.0, (1.0, 1): 60.0, (0.5, 4): 100.0, (1.0, 4): 50.0})
        panel = FigurePanel("test panel", "constitution_time_s", "mean", sweep)
        text = panel.render()
        assert "test panel" in text and "seeds= 1" in text and "seeds= 4" in text
        assert panel.value_minutes(0.5, 1) == pytest.approx(2.0)
        rows = panel.rows()
        assert rows[0][0] == 0.5 and len(rows[0][1]) == 2

    def test_seed_speedup_series(self):
        sweep = make_sweep({(0.5, 1): 100.0, (0.5, 2): 50.0})
        speedups = seed_speedup_series(sweep)
        assert speedups[1] == pytest.approx(1.0)
        assert speedups[2] == pytest.approx(0.5)

    def test_render_speedup_comparison(self):
        slow = FigurePanel("slow", "constitution_time_s", "mean", make_sweep({(0.5, 1): 100.0}))
        fast = FigurePanel("fast", "constitution_time_s", "mean", make_sweep({(0.5, 1): 60.0}))
        text = render_speedup_comparison(slow, fast, label="test")
        assert "40%" in text


class TestReports:
    def test_describe_run_closed(self):
        text = describe_run(make_run())
        assert "closed" in text and "error +0" in text

    def test_describe_run_open_hides_collection_error(self):
        text = describe_run(make_run(open_system=True))
        assert "non-interaction snapshot" in text

    def test_describe_run_not_converged(self):
        text = describe_run(make_run(constitution=None))
        assert "not within the horizon" in text

    def test_describe_sweep_table(self):
        sweep = make_sweep({(0.5, 1): 120.0, (1.0, 1): 60.0})
        text = describe_sweep(sweep)
        assert "50%" in text and "100%" in text

    def test_correctness_summary(self):
        text = correctness_summary([make_run(), make_run(count=41)])
        assert "1/2 runs exact" in text and "worst absolute miscount 1" in text


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--volume", "0.4", "--seeds", "2"])
        assert args.command == "run" and args.volume == 0.4
        args = parser.parse_args(["figure", "3", "--quick"])
        assert args.number == 3 and args.quick
        args = parser.parse_args(["validate"])
        assert args.command == "validate"

    def test_parser_scenario_flags(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--scenario", "rush-hour"])
        assert args.scenario == "rush-hour"
        assert args.volume is None and args.seeds is None and args.rng_seed is None
        args = parser.parse_args(["list-scenarios"])
        assert args.command == "list-scenarios"
        args = parser.parse_args(["validate", "--registry-only"])
        assert args.registry_only

    def test_volume_help_matches_accepted_range(self):
        """Regression: the help string claimed (0-1] while DemandConfig
        accepts (0, 1.5]."""
        import argparse as ap

        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, ap._SubParsersAction))
        run_parser = sub.choices["run"]
        volume_action = next(a for a in run_parser._actions if "--volume" in a.option_strings)
        assert "(0, 1.5]" in volume_action.help

    def test_list_scenarios_prints_registry(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["run", "--scenario", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_scenario_rejects_midtown_flags(self, capsys):
        assert main(["run", "--scenario", "lossy-grid", "--patrol", "5"]) == 2
        err = capsys.readouterr().err
        assert "--patrol" in err and "incompatible" in err
        assert main(["run", "--scenario", "lossy-grid", "--open", "--scale", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "--open" in err and "--scale" in err

    def test_run_named_scenario_end_to_end(self, capsys):
        exit_code = main(["run", "--scenario", "lossy-grid"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "lossy-grid" in out and "error +0" in out
        # the summary names the step path that ran, and why when not cc
        from repro.mobility.kernels import available_backends

        kernel = [line for line in out.splitlines() if line.startswith("kernel ")]
        assert len(kernel) == 1
        if available_backends():
            assert kernel[0] == "kernel                : cc"
        else:
            assert kernel[0].startswith("kernel                : numpy (")
        # under it, where the crossings were decided
        lines = out.splitlines()
        decisions = lines[lines.index(kernel[0]) + 1]
        assert decisions.startswith("decisions             : pass ")
        assert "exit 0, other_router " in decisions and "route_miss " in decisions
        assert decisions.split(", ")[-1].startswith("install ")

    def test_parser_rejects_bad_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_main_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestNetworkCliVerbs:
    def test_gen_city_then_import(self, tmp_path, capsys):
        out = tmp_path / "city.json"
        assert main([
            "gen-city", "--districts", "1", "--district-size", "5",
            "--seed", "3", "--out", str(out),
        ]) == 0
        assert out.exists()
        assert main(["import-network", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "intersections" in printed and "directed segments" in printed

    def test_export_network_csv_pair(self, tmp_path, capsys):
        prefix = tmp_path / "g"
        assert main([
            "export-network", "grid", "--arg", "3", "--arg", "3",
            "--out", str(prefix), "--format", "csv",
        ]) == 0
        assert (tmp_path / "g.nodes.csv").exists()
        assert (tmp_path / "g.links.csv").exists()
        assert main(["import-network", str(prefix), "--json"]) == 0
        import json as _json

        summary = _json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["nodes"] == 9 and summary["segments"] == 24

    def test_export_network_kwarg_json(self, tmp_path):
        assert main([
            "export-network", "grid", "--arg", "2", "--arg", "2",
            "--kwarg", "gates_on_border=true", "--out", str(tmp_path / "open.json"),
        ]) == 0
        from repro.roadnet.tabular import load_network

        assert load_network(str(tmp_path / "open.json")).is_open_system

    def test_import_invalid_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "repro-roadnet/1", "nodes": [], "links": []}')
        assert main(["import-network", str(bad)]) == 2
        assert "nodes" in capsys.readouterr().err

    def test_export_unknown_builder_exits_2(self, tmp_path, capsys):
        assert main([
            "export-network", "no-such-builder", "--out", str(tmp_path / "x.json"),
        ]) == 2
        assert "known builders" in capsys.readouterr().err

    def test_bad_kwarg_syntax_exits_2(self, tmp_path, capsys):
        assert main([
            "export-network", "grid", "--arg", "2", "--arg", "2",
            "--kwarg", "gates_on_border", "--out", str(tmp_path / "x.json"),
        ]) == 2
        assert capsys.readouterr().err
