"""Tests for the command-line interface."""

import pytest

from repro.cli import main, make_parser


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["evaluate", "resnet"])

    def test_policy_choices(self):
        args = make_parser().parse_args(
            ["evaluate", "alexnet", "--policy", "conv", "--algo", "m"]
        )
        assert args.policy == "conv" and args.algo == "m"


class TestParseBytes:
    """A size is a positive byte count; non-positive inputs are bugs.

    ``-4GiB`` used to parse to ``-4294967296`` and flow into
    ``--budget``/``--window``, corrupting allocator math downstream.
    """

    @pytest.mark.parametrize("text,expected", [
        ("4GiB", 4 * (1 << 30)),
        ("512MiB", 512 * (1 << 20)),
        ("512MB", 512 * (1 << 20)),
        ("64k", 64 * (1 << 10)),
        ("65536", 65536),
        ("  1.5 GiB ", int(1.5 * (1 << 30))),
    ])
    def test_accepts_positive_sizes(self, text, expected):
        from repro.cli import _parse_bytes

        assert _parse_bytes(text) == expected

    @pytest.mark.parametrize("text", [
        "-4GiB", "-1", "0", "0GiB", "0.0MiB", "-0.5MB",
        "garbage", "GiB", "",
    ])
    def test_rejects_non_positive_and_garbage(self, text):
        from repro.cli import _parse_bytes

        with pytest.raises(ValueError, match="cannot parse size"):
            _parse_bytes(text)

    def test_negative_budget_rejected_at_the_cli(self, capsys):
        assert main(["serve", "--arrivals", "poisson:rate=50,seed=1",
                     "--models", "alexnet", "--requests", "5",
                     "--budget=-4GiB"]) == 2
        assert "bad size" in capsys.readouterr().err


class TestBadSizesFailAtTheBoundary:
    """A non-positive batch, epoch count, dataset size, capacity limit or
    request count is a usage error (exit 2) from argparse, not a
    traceback from the zoo or an all-zero report."""

    @pytest.mark.parametrize("argv", [
        [command, "alexnet", "--batch", batch]
        for command in ("evaluate", "sweep", "capacity", "plan", "verify")
        for batch in ("0", "-8")
    ] + [
        ["plan", "alexnet", "--epochs", "0"],
        ["plan", "alexnet", "--dataset-size", "-1"],
        ["evaluate", "alexnet", "--batch", "eight"],
        ["train-demo", "--batch", "0"],
        ["capacity", "alexnet", "--limit", "0"],
        ["serve", "--requests", "0"],
    ], ids=" ".join)
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err


class TestCommands:
    def test_networks(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        assert "alexnet" in out and "vgg416" in out

    def test_evaluate_trainable_exits_zero(self, capsys):
        assert main(["evaluate", "alexnet", "--batch", "8",
                     "--policy", "base", "--algo", "m"]) == 0
        assert "trainable" in capsys.readouterr().out

    def test_evaluate_untrainable_exits_nonzero(self, capsys):
        assert main(["evaluate", "vgg16", "--batch", "256",
                     "--policy", "base", "--algo", "p"]) == 1
        assert "NO" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "alexnet", "--batch", "8"]) == 0
        out = capsys.readouterr().out
        for config in ("all(m)", "conv(p)", "dyn", "base(p)"):
            assert config in out

    def test_capacity(self, capsys):
        assert main(["capacity", "alexnet", "--limit", "4"]) == 0
        assert "max trainable batch" in capsys.readouterr().out

    def test_figures_single(self, capsys):
        assert main(["figures", "headline"]) == 0
        assert "Headline" in capsys.readouterr().out

    @pytest.mark.parametrize("figure,marker", [
        ("fig05", "Figure 5"), ("fig06", "Figure 6"), ("fig13", "Figure 13"),
    ])
    def test_figures_each(self, figure, marker, capsys):
        assert main(["figures", figure]) == 0
        assert marker in capsys.readouterr().out

    def test_figures_out_writes_files(self, capsys, tmp_path):
        assert main(["figures", "headline", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "headline.txt").exists()
        assert "Headline" in (tmp_path / "headline.txt").read_text()

    def test_train_demo(self, capsys):
        assert main(["train-demo", "--steps", "2", "--batch", "2",
                     "--policy", "all"]) == 0
        out = capsys.readouterr().out
        assert "loss" in out and "offloads" in out
        # cDMA: every offloaded layer's measured zeros beside the model.
        assert "measured zeros  cDMA model" in out
        assert "conv_04" in out

    def test_train_demo_policy_none_has_no_offloads(self, capsys):
        assert main(["train-demo", "--steps", "1", "--batch", "2",
                     "--policy", "none"]) == 0
        out = capsys.readouterr().out
        assert "offloads 0" in out and "cDMA model" not in out

    def test_schedule_default_workload(self, capsys):
        assert main(["schedule"]) == 0
        out = capsys.readouterr().out
        for fragment in ("Fleet metrics", "JCT", "queue delay",
                         "pool high-water", "vgg16#1"):
            assert fragment in out

    def test_schedule_policies_and_budget(self, capsys):
        for policy in ("fifo", "sjf", "best_fit"):
            assert main(["schedule", "--policy", policy,
                         "--jobs", "alexnet:16:5,alexnet:16:5",
                         "--budget", "4GiB"]) == 0
            assert policy in capsys.readouterr().out

    def test_schedule_writes_job_lane_trace(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert main(["schedule", "--jobs", "alexnet:16:5,alexnet:16:5",
                     "--trace", str(path)]) == 0
        trace = json.loads(path.read_text())
        lanes = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["name"] == "process_name" and e["pid"] > 0}
        assert lanes == {"alexnet#0", "alexnet#1"}

    def test_schedule_rejected_job_exits_nonzero(self, capsys):
        # 1/4 GB cannot hold vgg16:64 at any rung.
        assert main(["schedule", "--jobs", "vgg16:64:5",
                     "--budget", "256MiB"]) == 1
        assert "rejected" in capsys.readouterr().out

    def test_schedule_empty_jobs_is_usage_error(self, capsys):
        assert main(["schedule", "--jobs", " "]) == 2

    @pytest.mark.parametrize("jobs", [
        "nosuchnet:8:5",        # unknown network
        "alexnet:abc",          # non-integer batch
        "alexnet:8:-3",         # non-positive iterations
    ])
    def test_schedule_bad_job_spec_is_usage_error(self, jobs, capsys):
        assert main(["schedule", "--jobs", jobs]) == 2
        assert "bad job spec" in capsys.readouterr().err

    def test_schedule_nonpositive_budget_is_usage_error(self, capsys):
        assert main(["schedule", "--jobs", "alexnet:8:5",
                     "--budget", "0"]) == 2
        assert "cannot parse size" in capsys.readouterr().err

    def test_verify_one_point_text(self, capsys):
        assert main(["verify", "alexnet", "--policy", "all"]) == 0
        out = capsys.readouterr().out
        assert "all(p): ok" in out
        assert "0 error(s)" in out

    def test_verify_network_grid_covers_all_policies(self, capsys):
        assert main(["verify", "alexnet"]) == 0
        out = capsys.readouterr().out
        for point in ("base(m)", "conv(p)", "all(m)", "comp(p)", "dyn",
                      "joint"):
            assert point in out
        assert "10 schedule(s) verified" in out

    def test_verify_format_json(self, capsys):
        import json

        assert main(["verify", "alexnet", "--policy", "base",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["errors"] == 0
        report = payload["reports"][0]
        assert report["subject"].endswith("base(p)")
        assert report["diagnostics"] == []

    def test_verify_without_target_is_usage_error(self, capsys):
        assert main(["verify"]) == 2
        assert "--all-zoo" in capsys.readouterr().err

    def test_verify_static_point(self, capsys):
        assert main(["verify", "alexnet", "--static",
                     "--policy", "all"]) == 0
        out = capsys.readouterr().out
        assert "all(p): ok" in out and "0 error(s)" in out

    def test_verify_static_grid(self, capsys):
        assert main(["verify", "alexnet", "--static"]) == 0
        out = capsys.readouterr().out
        for point in ("base(m)", "conv(p)", "all(m)", "comp(p)", "dyn",
                      "joint"):
            assert point in out
        assert "10 schedule(s) verified" in out

    def test_verify_hybrid_point(self, capsys):
        assert main(["verify", "alexnet", "--hybrid",
                     "--policy", "conv", "--algo", "m"]) == 0
        assert "conv(m): ok" in capsys.readouterr().out

    def test_verify_static_and_hybrid_are_mutually_exclusive(self):
        import pytest

        with pytest.raises(SystemExit):
            make_parser().parse_args(["verify", "alexnet",
                                      "--static", "--hybrid"])

    def test_verify_static_json_counts_warnings_but_exits_zero(
            self, capsys):
        # ResNet-152's baseline does not fit the paper GPU: SP401 is a
        # warning (untrainable, not unsafe), so the gate still passes.
        import json

        assert main(["verify", "resnet152", "--static", "--policy",
                     "base", "--algo", "m", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["rule_counts"] == {"SP401": 1}

    def test_verify_json_exits_nonzero_on_error_findings(
            self, capsys, monkeypatch):
        import json

        from repro.analysis import static_plan
        from repro.analysis.diagnostics import Report

        def dirty(network, policy="all", algo="p", system=None):
            report = Report(subject=f"{network.name} {policy}({algo})")
            report.add("SP404", "planted leak for the exit-code test")
            return report

        monkeypatch.setattr(static_plan, "verify_point_static", dirty)
        assert main(["verify", "alexnet", "--static", "--policy", "all",
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["rule_counts"] == {"SP404": 1}

    def test_faults_reports_recovery(self, capsys):
        assert main(["evaluate", "alexnet", "--batch", "8", "--policy",
                     "all", "--faults", "dma=0.2", "--fault-seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "recovery rate" in out and "faults injected" in out
        assert "goodput vs fault-free" in out

    def test_faults_json_is_deterministic(self, capsys):
        import json

        argv = ["evaluate", "alexnet", "--batch", "8", "--policy", "all",
                "--faults", "dma=0.2,jitter=0.1", "--fault-seed", "3",
                "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["faults"]["spec"] == "dma=0.2,jitter=0.1"
        assert payload["faults"]["seed"] == 3

    def test_faults_bad_spec_is_usage_error(self, capsys):
        assert main(["evaluate", "alexnet", "--policy", "all",
                     "--faults", "dma=1.5"]) == 2
        assert "bad fault spec" in capsys.readouterr().err

    def test_faults_verify_prints_sanitizer_block(self, capsys, tmp_path):
        import json

        trace = tmp_path / "faulted.json"
        assert main(["evaluate", "alexnet", "--batch", "8", "--policy",
                     "all", "--faults", "dma=0.2", "--fault-seed", "7",
                     "--verify", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "\nAlexNet(8) vDNN_all(p): ok\n" in out
        assert json.loads(trace.read_text())["traceEvents"]

    def test_metrics_out_writes_export_alone(self, capsys, tmp_path):
        path = tmp_path / "m.prom"
        assert main(["evaluate", "alexnet", "--batch", "8",
                     "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "iteration time" in out and f"wrote {path}" in out
        assert "repro_pcie_bytes_total" not in out
        assert path.read_text().startswith("# HELP")

    def test_evaluate_bad_fault_spec_is_usage_error(self, capsys):
        assert main(["evaluate", "alexnet", "--batch", "8",
                     "--faults", "nosuchkey=1"]) == 2
        assert "bad fault spec" in capsys.readouterr().err

    def test_evaluate_base_with_faults_is_usage_error(self, capsys):
        assert main(["evaluate", "alexnet", "--batch", "8",
                     "--policy", "base", "--faults", "dma=0.1"]) == 2
        assert "baseline policy" in capsys.readouterr().err

    def test_schedule_with_shrink_fault_prints_fault_table(self, capsys):
        assert main(["schedule", "--jobs", "alexnet:16:5,alexnet:16:5",
                     "--budget", "4GiB",
                     "--faults", "shrink@0.5=0.5"]) == 0
        out = capsys.readouterr().out
        assert "budget-shrink" in out and "Faults" in out


class TestClusterCommand:
    def test_bad_job_spec_exits_two(self, capsys):
        assert main(["cluster", "--jobs", "nosuchnet:8:5"]) == 2
        assert "bad job spec" in capsys.readouterr().err

    def test_bad_gang_spec_exits_two(self, capsys):
        assert main(["cluster", "--jobs", "alexnet:8:5:x"]) == 2
        assert "bad job spec" in capsys.readouterr().err

    def test_negative_budget_exits_two(self, capsys):
        assert main(["cluster", "--jobs", "alexnet:8:5",
                     "--budget=-1"]) == 2
        assert "cannot parse size" in capsys.readouterr().err

    def test_gang_run_with_verify_and_contention(self, capsys):
        assert main(["cluster", "--jobs", "alexnet:8:5:2",
                     "--gpus", "2", "--verify", "--contention"]) == 0
        out = capsys.readouterr().out
        assert "Cluster schedule" in out
        assert "Data-parallel contention" in out
        assert "worker trace(s) verified: clean" in out

    def test_metrics_export_includes_fleet_gauges(self, capsys):
        assert main(["cluster", "--jobs", "alexnet:8:5",
                     "--gpus", "2", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "repro_fleet_utilization" in out
        assert "repro_fleet_fairness_jain" in out


class TestSmokeEverySubcommand:
    """Every subcommand exits 0 and prints something (cheap args)."""

    @pytest.mark.parametrize("argv", [
        ["networks"],
        ["evaluate", "alexnet", "--batch", "8", "--policy", "base",
         "--algo", "m"],
        ["sweep", "alexnet", "--batch", "8"],
        ["capacity", "alexnet", "--limit", "4"],
        ["plan", "alexnet", "--batch", "8", "--dataset-size", "1024",
         "--epochs", "1"],
        ["figures", "headline"],
        ["train-demo", "--steps", "1", "--batch", "2"],
        ["schedule", "--jobs", "alexnet:8:5"],
        ["verify", "alexnet", "--policy", "all"],
        # Replacements for the retired ``faults`` and ``metrics``
        # commands: evaluate under faults, and the metrics export alone.
        ["evaluate", "alexnet", "--batch", "8", "--policy", "all",
         "--faults", "dma=0.1", "--fault-seed", "7", "--verify"],
        ["evaluate", "alexnet", "--batch", "8", "--policy", "all",
         "--metrics", "json"],
        ["schedule", "--jobs", "alexnet:8:5", "--policy", "sjf",
         "--budget", "6GiB", "--metrics"],
        ["serve", "--arrivals", "poisson:rate=50,seed=1",
         "--models", "googlenet,alexnet", "--requests", "20",
         "--budget", "1GiB"],
        ["cluster", "--jobs", "alexnet:8:5:2,alexnet:8:5", "--gpus", "2",
         "--topology", "nvlink-ring"],
        ["profile", "--top", "5", "networks"],
    ], ids=lambda argv: " ".join(argv[:1] + [a for a in argv if a in (
        "--faults", "--metrics")]))
    def test_subcommand_smoke(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.strip()

    def test_every_registered_subcommand_is_smoked(self):
        """Adding a subcommand without a smoke test fails here."""
        from repro.cli import _COMMANDS

        smoked = {
            "networks", "evaluate", "sweep", "capacity", "plan",
            "figures", "train-demo", "schedule", "verify", "serve",
            "cluster", "profile",
        }
        assert smoked == set(_COMMANDS)


class TestProfile:
    def test_wraps_nested_command(self, capsys):
        assert main(["profile", "--top", "20", "evaluate", "alexnet",
                     "--batch", "8", "--policy", "all"]) == 0
        out = capsys.readouterr().out
        # Nested command's own report, then the hotspot table.
        assert "iteration time" in out
        assert "Ordered by: cumulative time" in out
        assert "_cmd_evaluate" in out

    def test_nested_exit_status_propagates(self, capsys):
        status = main(["profile", "evaluate", "vgg416", "--policy",
                       "base"])  # very-deep VGG is untrainable baseline
        assert status != 0

    def test_requires_nested_command(self, capsys):
        assert main(["profile"]) == 2

    def test_cannot_profile_itself(self, capsys):
        assert main(["profile", "profile", "networks"]) == 2

    def test_double_dash_separator(self, capsys):
        assert main(["profile", "--sort", "tottime", "--",
                     "networks"]) == 0
        assert "Ordered by: internal time" in capsys.readouterr().out
