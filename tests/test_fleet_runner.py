"""Fleet execution: identity, shard invariance, resume, CLI, fallbacks."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.policies import aas_policy, origin_policy, rr_policy
from repro.errors import ConfigurationError, FleetError
from repro.fleet import CohortSpec, FleetRunner
from repro.fleet.aggregate import FleetAggregate
import repro.fleet.runner as runner_mod
from repro.fleet.runner import (
    _MaterialMemo,
    _ReferenceMemo,
    default_metric_bounds,
    shard_aggregate,
    shard_cell,
    simulate_users,
    user_metrics,
)
from repro.obs import Observability
from repro.obs.summarize import _kernel_line


@pytest.fixture(scope="module")
def fleet_spec(tiny_experiment):
    return CohortSpec(size=12, seed=9, base=tiny_experiment.config, n_timelines=2)


def _bounds(experiment, spec):
    return default_metric_bounds(
        spec.base.n_windows, len(experiment.dataset.spec.locations)
    )


class TestSimulateUsers:
    def test_mega_batch_equals_per_user_runs(self, tiny_experiment, fleet_spec):
        policies = [origin_policy(12), aas_policy(6)]
        users = list(fleet_spec.users(0, 4))
        memo = _MaterialMemo(tiny_experiment)
        mega = simulate_users(
            tiny_experiment, users, policies, mega=True, materials=memo
        )
        solo = simulate_users(
            tiny_experiment, users, policies, mega=False, materials=memo
        )
        assert mega == solo

    def test_per_user_config_actually_applied(self, tiny_experiment, fleet_spec):
        # Two users on the same timeline but different energy knobs must
        # not collapse to the same result row.
        policies = [rr_policy(3)]
        users = [fleet_spec.user(0), fleet_spec.user(2)]  # same timeline slot
        assert users[0].seed == users[1].seed
        assert users[0].config != users[1].config
        rows = simulate_users(tiny_experiment, users, policies)
        harvested = [
            sum(s.harvested_j for s in row[0].node_stats.values()) for row in rows
        ]
        assert harvested[0] != harvested[1]

    def test_empty_users(self, tiny_experiment):
        assert simulate_users(tiny_experiment, [], [origin_policy(12)]) == []


class TestFoldedReferences:
    """Base-config twins run inside the users' kernel batch."""

    #: ``stats_json`` of the cohort below, captured while each twin was
    #: still a kernel batch of its own.
    FROZEN_STATS_SHA256 = "f22dcfcf003fbfb0afdc66f80be473c212bf8fb9891490a59b9ac2c3f1d23159"

    def test_stats_json_unchanged(self, tiny_experiment):
        spec = CohortSpec(
            size=24, seed=9, base=replace(tiny_experiment.config, n_windows=40), n_timelines=2
        )
        fleet = FleetRunner(
            tiny_experiment, spec, policies=[origin_policy(12), origin_policy(3)], shard_size=12
        ).run()
        assert fleet.shards == 2
        stats = fleet.aggregate.stats_json().encode()
        assert hashlib.sha256(stats).hexdigest() == self.FROZEN_STATS_SHA256

    def test_one_batch_per_shard_and_user_rows_only(
        self, tiny_experiment, fleet_spec, monkeypatch
    ):
        policies = [origin_policy(12), rr_policy(3)]
        batches = []
        real = runner_mod.run_group_batch

        def counting(experiment, groups):
            batches.append(len(groups))
            return real(experiment, groups)

        monkeypatch.setattr(runner_mod, "run_group_batch", counting)
        users = list(fleet_spec.users(0, 6))
        references = _ReferenceMemo(tiny_experiment, fleet_spec, policies)
        memo = _MaterialMemo(tiny_experiment)
        rows = simulate_users(
            tiny_experiment, users, policies, materials=memo, references=references
        )
        twins = {user.material_key for user in users}
        assert batches == [len(users) + len(twins)]
        assert len(rows) == len(users)
        plain = simulate_users(tiny_experiment, users, policies, materials=memo)
        for row, alone in zip(rows, plain):
            for result, expected in zip(row, alone):
                assert result.records == expected.records
                assert result.node_stats == expected.node_stats

        # Every twin equals the one its own batch computes, and a second
        # call finds them all in the memo.
        alone = _ReferenceMemo(tiny_experiment, fleet_spec, policies)
        for user in users:
            folded = references.results(user, memo.material(user))
            solo = alone.results(user, memo.material(user))
            assert [r.records for r in folded] == [r.records for r in solo]
            assert [r.node_stats for r in folded] == [r.node_stats for r in solo]
        batches.clear()
        simulate_users(tiny_experiment, users, policies, materials=memo, references=references)
        assert batches == [len(users)]


class TestShardInvariance:
    def test_1_3_n_shards_byte_identical(self, tiny_experiment, fleet_spec):
        policies = [origin_policy(12)]

        def total_for(sizes):
            total = FleetAggregate(bounds=_bounds(tiny_experiment, fleet_spec))
            lo = 0
            for size in sizes:
                shard = shard_aggregate(
                    tiny_experiment, fleet_spec, policies, lo, lo + size
                )
                total.merge(FleetAggregate.from_dict(shard.to_dict()))
                lo += size
            return total

        one = total_for([12])
        three = total_for([4, 4, 4])
        many = total_for([1] * 12)
        assert one.stats_json() == three.stats_json() == many.stats_json()
        assert one.users == 12

    def test_metrics_match_direct_runs(self, tiny_experiment, fleet_spec):
        policies = [origin_policy(12)]
        aggregate = shard_aggregate(tiny_experiment, fleet_spec, policies, 0, 3)
        rows = simulate_users(
            tiny_experiment, list(fleet_spec.users(0, 3)), policies
        )
        dist = aggregate.distribution(policies[0].name, "event_accuracy")
        expected = sorted(row[0].event_accuracy for row in rows)
        assert dist.count == 3
        assert dist.min_value == expected[0]
        assert dist.max_value == expected[-1]
        assert "accuracy_drop" in aggregate.policies[policies[0].name]


class TestFleetRunner:
    def test_run_covers_cohort(self, tiny_experiment, fleet_spec):
        runner = FleetRunner(tiny_experiment, fleet_spec, shard_size=5)
        result = runner.run()
        assert result.users == 12
        assert result.users_simulated == 12
        assert result.shards == 3
        assert result.lost_users == 0
        assert result.users_per_second > 0
        assert "users/s" in result.summary()

    def test_sequential_equals_parallel(self, tiny_experiment, fleet_spec):
        runner = FleetRunner(tiny_experiment, fleet_spec, shard_size=4)
        seq = runner.run()
        par = runner.run(workers=2)
        assert seq.aggregate.stats_json() == par.aggregate.stats_json()

    def test_journal_resume_after_interrupt(
        self, tiny_experiment, fleet_spec, tmp_path
    ):
        runner = FleetRunner(tiny_experiment, fleet_spec, shard_size=4)
        path = str(tmp_path / "fleet.journal")
        baseline = runner.run()
        first = runner.run(journal=path)
        assert first.journal_hits == 0
        # Interrupt: drop everything after the header and first cell, as
        # a crash mid-run would leave it.
        lines = open(path).readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:2])
        resumed = runner.run(journal=path)
        assert resumed.journal_hits == 1
        assert resumed.users_simulated == 8
        assert resumed.aggregate.stats_json() == baseline.aggregate.stats_json()
        # Fully journaled: nothing left to simulate.
        replay = runner.run(journal=path)
        assert replay.journal_hits == 3
        assert replay.users_simulated == 0
        assert replay.aggregate.stats_json() == baseline.aggregate.stats_json()

    def test_journal_rejects_other_cohort(
        self, tiny_experiment, fleet_spec, tmp_path
    ):
        path = str(tmp_path / "fleet.journal")
        FleetRunner(tiny_experiment, fleet_spec, shard_size=4).run(journal=path)
        other = CohortSpec(
            size=12, seed=99, base=tiny_experiment.config, n_timelines=2
        )
        with pytest.raises(FleetError):
            FleetRunner(tiny_experiment, other, shard_size=4).run(journal=path)

    def test_obs_counters(self, tiny_experiment, fleet_spec):
        obs = Observability()
        runner = FleetRunner(tiny_experiment, fleet_spec, shard_size=6)
        runner.run(obs=obs)
        exported = obs.metrics.to_dict()
        assert exported["counters"]["fleet.users"] == 12
        assert exported["counters"]["fleet.shards"] == 2
        assert exported["timers"]["fleet.run"]["calls"] == 1

    def test_validation(self, tiny_experiment, fleet_spec):
        with pytest.raises(ConfigurationError):
            FleetRunner(tiny_experiment, fleet_spec, shard_size=0)
        with pytest.raises(ConfigurationError):
            FleetRunner(tiny_experiment, fleet_spec, policies=[])
        with pytest.raises(ConfigurationError):
            FleetRunner(tiny_experiment, fleet_spec).run(on_failure="ignore")

    def test_shard_cells_and_layout(self, tiny_experiment, fleet_spec):
        runner = FleetRunner(tiny_experiment, fleet_spec, shard_size=5)
        assert runner.shards() == [(0, 5), (5, 10), (10, 12)]
        assert shard_cell(0, 5) == "shard:0-5"
        assert runner.fingerprint() != FleetRunner(
            tiny_experiment, fleet_spec, shard_size=4
        ).fingerprint()


class TestUserMetrics:
    def test_fields_and_reference_drop(self, tiny_experiment):
        result = tiny_experiment.run(origin_policy(12), seed=5)
        metrics = user_metrics(result, reference=result)
        assert metrics["event_accuracy"] == result.event_accuracy
        assert metrics["completions"] == float(result.total_completions)
        assert metrics["accuracy_drop"] == 0.0
        without = user_metrics(result)
        assert "accuracy_drop" not in without

    def test_bounds_cover_metrics(self):
        bounds = default_metric_bounds(60, 3)
        for name in (
            "event_accuracy",
            "overall_accuracy",
            "completion_rate",
            "completions",
            "harvested_j",
            "consumed_j",
            "comm_energy_j",
            "accuracy_drop",
        ):
            lo, hi = bounds[name]
            assert lo < hi


class TestKernelFallbackObservability:
    def test_fallback_counter_tagged_with_reason(self, tiny_experiment):
        obs = Observability()
        # A window transform forces the scalar path even before tracing.
        tiny_experiment.run(
            rr_policy(3), seed=1, window_transform=lambda w: w, obs=obs
        )
        counters = obs.metrics.to_dict()["counters"]
        assert counters["kernel.fallback"] == 1
        assert counters["kernel.fallback.window_transform"] == 1

    def test_tracing_reason_when_only_obs_blocks(self, tiny_experiment):
        from repro.sim.predcache import PredictionCache

        obs = Observability()
        material = PredictionCache(tiny_experiment).material(1)
        tiny_experiment.run(rr_policy(3), seed=1, material=material, obs=obs)
        counters = obs.metrics.to_dict()["counters"]
        assert counters["kernel.fallback.tracing"] == 1

    def test_summarize_renders_kernel_line(self):
        exported = {
            "counters": {
                "kernel.fallback": 3,
                "kernel.fallback.tracing": 2,
                "kernel.fallback.fault_plan": 1,
            }
        }
        line = _kernel_line(exported)
        assert line == "kernel: 3 scalar fallback(s) (1 fault_plan, 2 tracing)"
        assert _kernel_line({"counters": {}}) is None


class TestCli:
    def test_summarize_round_trip(self, tiny_experiment, fleet_spec, tmp_path, capsys):
        from repro.fleet.__main__ import main

        result = FleetRunner(tiny_experiment, fleet_spec, shard_size=6).run()
        payload = {
            "kind": "fleet-run",
            "schema_version": 1,
            "users": result.users,
            "shards": result.shards,
            "elapsed_s": round(result.elapsed_s, 3),
            "users_per_second": round(result.users_per_second, 1),
            "aggregate": result.aggregate.to_dict(),
        }
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(payload))
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "users/s" in out and "event_accuracy" in out

    def test_summarize_rejects_foreign_payload(self, tmp_path):
        from repro.errors import ReproError
        from repro.fleet.__main__ import main

        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ReproError):
            main(["summarize", str(path)])

    def test_run_parser_surface(self):
        from repro.fleet.__main__ import _build_parser

        args = _build_parser().parse_args(
            ["run", "--users", "100", "--workers", "2", "--shard-size", "32"]
        )
        assert args.users == 100 and args.workers == 2
        assert args.policy == "origin" and args.dataset == "mhealth"
