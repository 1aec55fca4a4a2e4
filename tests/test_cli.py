"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestPlacement:
    def test_placement_output(self, capsys):
        assert main(["placement", "8", "8"]) == 0
        out = capsys.readouterr().out
        assert "21 static bubbles" in out
        assert out.count("B") == 21

    def test_small_mesh(self, capsys):
        assert main(["placement", "2", "2"]) == 0
        assert "1 static bubbles" in capsys.readouterr().out


class TestSchemes:
    def test_lists_all(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in (
            "minimal-unprotected",
            "xy",
            "spanning-tree",
            "escape-vc",
            "static-bubble",
            "adaptive",
            "adaptive-escape",
        ):
            assert name in out


class TestSimulate:
    def test_basic_run(self, capsys):
        code = main(
            [
                "simulate",
                "--width", "4", "--height", "4",
                "--rate", "0.05",
                "--warmup", "100", "--cycles", "300",
                "--scheme", "static-bubble",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg latency" in out
        assert "recoveries completed" in out

    def test_with_faults_and_monitor(self, capsys):
        code = main(
            [
                "simulate",
                "--width", "4", "--height", "4",
                "--link-faults", "2",
                "--rate", "0.05",
                "--warmup", "100", "--cycles", "300",
                "--scheme", "spanning-tree",
                "--monitor",
            ]
        )
        assert code == 0
        assert "deadlocks observed" in capsys.readouterr().out

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--scheme", "nope"])

    def test_topology_flag_runs_non_mesh(self, capsys):
        argv = [
            "simulate",
            "--topology", "circulant:11,2,5",
            "--rate", "0.05",
            "--warmup", "50", "--cycles", "200",
            "--verify-first",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "circulant(n=11,s1=2,s2=5)" in out
        assert "OK" in out  # the cycle-cover certificate

    def test_bad_topology_flag_exits_2(self, capsys):
        assert main(["simulate", "--topology", "klein-bottle:3"]) == 2

    def test_profile_flag(self, capsys, tmp_path):
        pstats_path = tmp_path / "run.pstats"
        code = main(
            [
                "simulate",
                "--width", "3", "--height", "3",
                "--rate", "0.05",
                "--warmup", "20", "--cycles", "100",
                "--profile",
                "--profile-out", str(pstats_path),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "cumulative" in captured.err
        assert "run_with_window" in captured.err
        assert pstats_path.exists()
        import pstats

        assert pstats.Stats(str(pstats_path)).total_calls > 0


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "21" in out and "320" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nope"]) == 2

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSpecConsolidation:
    """Every CLI simulation derives from ``SimSpec``: the topology, the
    network and the payload equal what the service path builds for the
    same flags."""

    @pytest.mark.parametrize(
        "flags, spec_kwargs",
        [
            (
                ["--width", "5", "--height", "5", "--link-faults", "3",
                 "--router-faults", "1", "--rate", "0.1", "--seed", "4",
                 "--monitor"],
                dict(width=5, height=5, link_faults=3, router_faults=1,
                     rate=0.1, seed=4, monitor=True),
            ),
            (
                ["--topology", "circulant:11,2,5", "--scheme", "adaptive",
                 "--rate", "0.08", "--seed", "2"],
                dict(topology="circulant:11,2,5", scheme="adaptive",
                     rate=0.08, seed=2),
            ),
        ],
    )
    def test_simulate_json_equals_run_sim_spec(self, capsys, flags, spec_kwargs):
        import json

        from repro.service.spec import SimSpec, run_sim_spec

        window = ["--warmup", "60", "--cycles", "150", "--json"]
        assert main(["simulate", *flags, *window]) == 0
        payload = json.loads(capsys.readouterr().out)
        spec = SimSpec(**spec_kwargs, warmup=60, measure=150)
        assert payload == run_sim_spec(spec.to_dict())

    @pytest.mark.parametrize(
        "flags, spec_kwargs",
        [
            (["--mesh", "6x5", "--link-faults", "4", "--router-faults", "2",
              "--seed", "9"],
             dict(width=6, height=5, link_faults=4, router_faults=2, seed=9)),
            (["--topology", "fullmesh:6", "--link-faults", "1", "--seed", "3"],
             dict(topology="fullmesh:6", link_faults=1, seed=3)),
        ],
    )
    def test_verify_topology_equals_spec(self, capsys, monkeypatch, flags, spec_kwargs):
        from repro.protocols import make_scheme
        from repro.service.spec import SimSpec

        seen = []
        cls = type(make_scheme("static-bubble"))
        real_verify = cls.verify

        def recording_verify(self, topo, config):
            seen.append(topo.to_spec())
            return real_verify(self, topo, config)

        monkeypatch.setattr(cls, "verify", recording_verify)
        main(["verify", *flags])
        capsys.readouterr()
        assert seen == [SimSpec(**spec_kwargs).build_topology().to_spec()]

    def test_trace_topology_equals_spec(self, capsys, monkeypatch):
        from repro.service.spec import SimSpec
        from repro.sim.network import Network

        seen = []
        real_attach = Network.attach_obs

        def recording_attach(self, obs):
            seen.append(self.topo.to_spec())
            return real_attach(self, obs)

        monkeypatch.setattr(Network, "attach_obs", recording_attach)
        flags = ["--width", "5", "--height", "4", "--link-faults", "3",
                 "--seed", "6", "--cycles", "20"]
        assert main(["trace", *flags]) == 0
        capsys.readouterr()
        spec = SimSpec(width=5, height=4, link_faults=3, seed=6)
        assert seen == [spec.build_topology().to_spec()]

    def test_spec_commands_share_flags(self):
        import argparse

        parser = build_parser()
        sub = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )

        def spec_flags(command):
            return {
                (action.dest, repr(action.default))
                for action in sub.choices[command]._actions
                if action.dest in (
                    "width", "height", "topology", "link_faults",
                    "router_faults", "scheme", "pattern", "rate", "warmup",
                    "cycles", "vcs", "t_dd", "seed",
                )
            }

        assert len(spec_flags("simulate")) == 13
        assert spec_flags("simulate") == spec_flags("submit") == spec_flags("predict")
