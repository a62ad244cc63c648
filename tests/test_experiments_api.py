"""The declarative experiment API: registry, typed params, artifacts, CLI.

The contract: every paper harness is a registered
:class:`repro.api.Experiment`; running one produces an
:class:`repro.api.Artifact` whose numbers are identical to the experiment's
raw ``runner`` body (parity-pinned below, at reduced parameters); artifacts
round-trip through disk; and the CLI has one grammar (``list``/``describe``/
``run``, plus the ``run-scenarios`` sweep flags).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.experiments  # noqa: F401 -- registers the builtin experiments
from repro.api import EXPERIMENTS, Artifact, Param, ResultSet, experiment
from repro.api.experiment import parse_overrides
from repro.experiments.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[1]

ALL_IDS = (
    "figure-02",
    "figure-03",
    "figure-04",
    "figure-05-06",
    "figure-07",
    "figure-09",
    "table-1",
    "table-2",
    "section-3.4",
    "figures-10-11",
    "figures-12-13",
    "section-5",
    "figure-14",
    "ablation-noise-floor",
    "ablation-fixed-bitrate",
    "run-scenarios",
    "saturated-network",
    "bianchi-vs-sim",
)

#: Reduced parameters per experiment so the full parity sweep stays fast.
REDUCED = {
    "figure-02": dict(resolution=41),
    "figure-03": dict(rmax_values=(50.0,)),
    "figure-04": dict(rmax_values=(40.0,), d_values=[float(d) for d in np.linspace(10, 200, 8)]),
    "figure-05-06": dict(n_d_points=20),
    "figure-07": dict(alphas=(3.0,), rmax_values=(10.0, 40.0), n_samples=4000),
    "figure-09": dict(rmax_values=(120.0,), n_samples=4000, n_d_points=6),
    "table-1": dict(n_samples=4000),
    "table-2": dict(n_samples=4000),
    "section-3.4": dict(n_samples=20_000),
    "figures-10-11": dict(n_combinations=2, run_duration_s=0.2, rates_mbps=(6.0, 12.0)),
    "figures-12-13": dict(n_combinations=2, run_duration_s=0.2, rates_mbps=(6.0, 12.0)),
    "section-5": dict(n_combinations=2, run_duration_s=0.2, rates_mbps=(6.0, 12.0)),
    "figure-14": dict(),
    "ablation-noise-floor": dict(rmax_values=(120.0,)),
    "ablation-fixed-bitrate": dict(rmax_values=(40.0,), d_values=(55.0,), n_samples=4000),
    "run-scenarios": dict(topology="exposed_terminal", nodes=4, duration=0.2, no_cache=True),
    "saturated-network": dict(nodes=(4,), duration=0.2, no_cache=True),
    "bianchi-vs-sim": dict(n_senders=(2,), duration=0.5, no_cache=True),
}


class TestDiscovery:
    def test_every_harness_is_registered(self):
        for name in ALL_IDS:
            assert name in EXPERIMENTS
        assert set(REDUCED) == set(ALL_IDS)

    def test_every_experiment_is_tagged(self):
        for name in EXPERIMENTS:
            exp = EXPERIMENTS[name]
            assert exp.tags, f"{name} has no tags"
            assert exp.title
            assert exp.id == name

    def test_slow_tag_matches_historical_slow_tuple(self):
        slow = {name for name in EXPERIMENTS if "slow" in EXPERIMENTS[name].tags}
        assert slow == {"figures-10-11", "figures-12-13", "section-5"}

    def test_plugin_experiment_registers_like_builtins(self):
        def body(x: float = 1.0):
            from repro.experiments.base import ExperimentResult

            result = ExperimentResult("plugin-exp", "plugin")
            result.data["doubled"] = 2.0 * x
            return result

        exp = experiment("plugin-exp", "A plugin experiment", body, tags=("analytical",))
        try:
            assert "plugin-exp" in EXPERIMENTS
            artifact = EXPERIMENTS["plugin-exp"].run(x="2.5")
            assert artifact.scalars["doubled"] == 5.0
        finally:
            EXPERIMENTS.unregister("plugin-exp")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            experiment("table-1", "dup", lambda: None)


class TestParamSpec:
    def test_kinds_inferred_from_defaults(self):
        exp = EXPERIMENTS["table-1"]
        kinds = {p.name: p.resolved_kind() for p in exp.params}
        assert kinds["n_samples"] == "int"
        assert kinds["sigma_db"] == "float"
        assert kinds["rmax_values"] == "list"

    def test_optional_inferred_from_annotation_or_default(self):
        params = {p.name: p for p in EXPERIMENTS["run-scenarios"].params}
        assert params["prune_margin"].optional     # Optional[float] annotation
        assert params["cache_dir"].optional        # default None
        assert not params["duration"].optional     # plain float
        assert params["prune_margin"].coerce("off") is None

    def test_coercion_per_kind(self):
        assert Param("n", 5).coerce("12") == 12
        assert Param("x", 1.0).coerce("2.5") == 2.5
        assert Param("b", True).coerce("false") is False
        assert Param("b", True).coerce("off") is False  # bool, not None
        assert Param("b", False).coerce("yes") is True
        assert Param("s", "csma").coerce("tdma") == "tdma"
        # "none"/"off" map to None only for optional params; elsewhere they
        # are ordinary values (or coercion errors).
        assert Param("s", "csma").coerce("none") == "none"
        assert Param("dir", None).coerce("none") is None
        assert Param("margin", 16.0, optional=True).coerce("off") is None
        with pytest.raises(ValueError):
            Param("duration", 0.5).coerce("off")
        assert Param("v", (1.0, 2.0)).coerce("3,4.5") == [3, 4.5]
        assert Param("v", (1.0,)).coerce("[1, 2]") == [1, 2]
        # Per-element off/none inside list values (a CCA axis point).
        assert Param("cca", (-82.0,)).coerce("-82,off") == [-82, None]
        assert Param("j", None).coerce('{"a": 1}') == {"a": 1}

    def test_coercion_errors_name_the_parameter(self):
        with pytest.raises(ValueError, match="n_samples"):
            Param("n_samples", 5).coerce("many")

    def test_parse_overrides(self):
        assert parse_overrides(["a=1", "b=x=y"]) == {"a": "1", "b": "x=y"}
        with pytest.raises(ValueError):
            parse_overrides(["novalue"])

    def test_unknown_override_raises_with_known_names(self):
        with pytest.raises(KeyError, match="n_samples"):
            EXPERIMENTS["table-1"].run(bogus=1)


def _assert_same(a, b, where):
    """Exact recursive equality that tolerates numpy arrays in containers."""
    if isinstance(a, ResultSet) or isinstance(b, ResultSet):
        assert a == b, where
    elif isinstance(a, dict) and isinstance(b, dict):
        assert set(a) == set(b), where
        for key in a:
            _assert_same(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, (list, tuple, np.ndarray)) or isinstance(b, (list, tuple, np.ndarray)):
        arr_a, arr_b = np.asarray(a), np.asarray(b)
        equal_nan = arr_a.dtype.kind == "f" and arr_b.dtype.kind == "f"
        assert np.array_equal(arr_a, arr_b, equal_nan=equal_nan), where
    elif isinstance(a, float) and isinstance(b, float) and np.isnan(a) and np.isnan(b):
        pass
    else:
        assert a == b, where


@pytest.mark.parametrize("name", ALL_IDS)
def test_parity_new_path_matches_legacy(name):
    """Every registered experiment's numbers are identical through the
    Experiment/Artifact path and its raw run() body."""
    exp = EXPERIMENTS[name]
    kwargs = REDUCED[name]
    artifact = exp.run(**kwargs)
    legacy = exp.runner(**{**exp.defaults, **kwargs})

    merged = artifact.data()
    for key, value in legacy.data.items():
        assert key in merged, f"{name}: {key!r} missing from artifact"
        if key in artifact.extras:
            continue  # non-persistable attachments (campaign/study objects)
        _assert_same(merged[key], value, f"{name}:{key}")
    assert len(artifact.notes) == len(legacy.notes)
    # The declared params all appear resolved in the artifact.
    for param in exp.params:
        assert param.name in artifact.params


class TestArtifactRoundTrip:
    def test_series_and_tables_round_trip(self, tmp_path):
        artifact = EXPERIMENTS["figure-04"].run(**REDUCED["figure-04"])
        assert "curves" in artifact.series
        artifact.save(tmp_path / "fig04")
        loaded = Artifact.load(tmp_path / "fig04")
        assert loaded.manifest() == artifact.manifest()
        assert loaded.scalars == artifact.scalars
        assert json.dumps(loaded.series, sort_keys=True) == json.dumps(
            json.loads(json.dumps(artifact.series)), sort_keys=True
        )

    def test_result_set_sidecar_round_trips(self, tmp_path):
        artifact = EXPERIMENTS["run-scenarios"].run(**REDUCED["run-scenarios"])
        rs = artifact.result_sets["results"]
        assert isinstance(rs, ResultSet) and rs.n_scenarios == 1
        manifest_path = artifact.save(tmp_path / "sweep")
        assert manifest_path.name == "manifest.json"
        assert (tmp_path / "sweep" / "results.npz").exists()
        loaded = Artifact.load(manifest_path)
        assert loaded.result_sets["results"] == rs
        assert loaded == artifact

    def test_extras_are_not_persisted_but_recorded(self, tmp_path):
        artifact = EXPERIMENTS["section-5"].run(**REDUCED["section-5"])
        assert "study" in artifact.extras
        artifact.save(tmp_path / "s5")
        manifest = json.loads((tmp_path / "s5" / "manifest.json").read_text())
        assert manifest["extras"] == ["study"]
        loaded = Artifact.load(tmp_path / "s5")
        assert loaded.extras == {}
        assert loaded.extra_names == ["study"]
        assert loaded.scalars == artifact.scalars
        # Round-trip equality and save-stability hold despite the dropped
        # extras: the loaded artifact remembers their names.
        assert loaded == artifact
        loaded.save(tmp_path / "s5b")
        assert (tmp_path / "s5b" / "manifest.json").read_text() == (
            tmp_path / "s5" / "manifest.json"
        ).read_text()


class TestNewCli:
    def test_list_text_and_tag_filter(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_IDS:
            assert name in out

        assert main(["list", "--tag", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "ablation-noise-floor" in out and "ablation-fixed-bitrate" in out
        assert "figure-02" not in out

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        by_id = {entry["id"]: entry for entry in listing}
        assert set(ALL_IDS) <= set(by_id)
        table1 = by_id["table-1"]
        assert "analytical" in table1["tags"]
        assert any(p["name"] == "n_samples" for p in table1["params"])

    def test_describe(self, capsys):
        assert main(["describe", "table-1"]) == 0
        out = capsys.readouterr().out
        assert "n_samples" in out and "tags: analytical" in out

        assert main(["describe", "table-1", "--json"]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["id"] == "table-1"

    def test_run_with_set_json_and_out(self, tmp_path, capsys):
        assert main([
            "run", "figure-03", "--set", "rmax_values=50",
            "--json", "--out", str(tmp_path),
        ]) == 0
        manifests = json.loads(capsys.readouterr().out)
        assert isinstance(manifests, list) and len(manifests) == 1  # stable shape
        manifest = manifests[0]
        assert manifest["experiment_id"] == "figure-03"
        assert manifest["params"]["rmax_values"] == [50]
        loaded = Artifact.load(tmp_path / "figure-03")
        assert loaded.manifest() == manifest

    def test_run_rejects_unknown_set_key(self, capsys):
        assert main(["run", "figure-03", "--set", "bogus=1"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_multi_run_rejects_key_unknown_everywhere(self, capsys):
        # A typo must not silently run every selected experiment at defaults.
        assert main(["run", "--tag", "ablation", "--set", "n_smaples=10"]) == 1
        err = capsys.readouterr().err
        assert "n_smaples" in err and "no selected experiment" in err

    def test_run_by_tag(self, capsys):
        assert main(["run", "--tag", "ablation", "--set", "rmax_values=40",
                     "--set", "n_samples=2000"]) == 0
        out = capsys.readouterr().out
        assert "ablation-noise-floor" in out and "ablation-fixed-bitrate" in out


class TestLegacyCliGrammar:
    """The retired grammar (bare ids, the no-argument listing) is a usage
    error: one experiment runs as ``run <id>``, and ``run-scenarios`` still
    delegates to its sweep flags."""

    @staticmethod
    def _usage_error(capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code != 0
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "list|describe|run" in err
        return err

    def test_no_args_is_a_usage_error(self, capsys):
        self._usage_error(capsys, [])

    def test_bare_id_is_a_usage_error(self, capsys):
        err = self._usage_error(capsys, ["table-1"])
        assert "table-1" in err

    def test_single_experiment_runs_and_prints_summary(self, capsys):
        assert main(["run", "figure-03"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== figure-03:")
        assert "notes:" in out

    def test_module_entry_point_rejects_no_args(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode != 0
        assert "list|describe|run" in proc.stderr

    def test_unknown_experiment_fails(self, capsys):
        with pytest.raises(SystemExit, match="unknown experiment 'not-an-experiment'"):
            main(["run", "not-an-experiment"])

    def test_run_scenarios_delegates(self, tmp_path, capsys):
        argv = [
            "run-scenarios", "--topology", "exposed_terminal", "--nodes", "4",
            "--duration", "0.2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "n_scenarios: 1" in out
