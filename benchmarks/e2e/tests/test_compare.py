"""``compare.py`` verdicts on synthetic result pairs."""

import copy
import json

import compare


def _document(seed=0, scale="gate", **metrics):
    return {
        "environment": {"seed": seed, "scale": scale},
        "workloads": {
            "viking_systems": {
                "end_to_end": {
                    name: {"value": sorted(samples)[len(samples) // 2], "samples": samples}
                    for name, samples in metrics.items()
                }
            }
        },
    }


def _verdicts(a, b):
    return {row[1]: row[5] for row in compare.compare(a, b)}


def test_host_metric_within_bound_is_ok_and_beyond_is_regressed():
    base = _document(cold_wall_s=[10.0], warm_player_s_per_wall_s=[20.0])
    assert _verdicts(base, _document(cold_wall_s=[10.9], warm_player_s_per_wall_s=[18.5])) == {
        "cold_wall_s": "ok", "warm_player_s_per_wall_s": "ok"}
    assert _verdicts(base, _document(cold_wall_s=[11.2], warm_player_s_per_wall_s=[17.0])) == {
        "cold_wall_s": "regressed", "warm_player_s_per_wall_s": "regressed"}
    # better is never a regression, in either direction
    assert _verdicts(base, _document(cold_wall_s=[2.0], warm_player_s_per_wall_s=[90.0])) == {
        "cold_wall_s": "ok", "warm_player_s_per_wall_s": "ok"}


def test_setup_bound_has_an_absolute_floor():
    base = _document(setup_s=[1.0])
    assert _verdicts(base, _document(setup_s=[1.14]))["setup_s"] == "ok"
    assert _verdicts(base, _document(setup_s=[1.16]))["setup_s"] == "regressed"
    slow = _document(setup_s=[20.0])
    assert _verdicts(slow, _document(setup_s=[21.9]))["setup_s"] == "ok"
    assert _verdicts(slow, _document(setup_s=[22.1]))["setup_s"] == "regressed"


def test_simulated_metrics_compare_exactly_but_may_improve():
    base = _document(sim_hit_ratio=[0.8], sim_m2p_ms=[13.0])
    assert _verdicts(base, copy.deepcopy(base)) == {"sim_hit_ratio": "ok", "sim_m2p_ms": "ok"}
    assert _verdicts(base, _document(sim_hit_ratio=[0.8 - 1e-6], sim_m2p_ms=[13.0 + 1e-6])) == {
        "sim_hit_ratio": "regressed", "sim_m2p_ms": "regressed"}
    assert _verdicts(base, _document(sim_hit_ratio=[0.85], sim_m2p_ms=[12.0])) == {
        "sim_hit_ratio": "ok", "sim_m2p_ms": "ok"}


def test_wide_spread_is_unresolved_unless_every_new_run_wins():
    noisy = _document(cold_wall_s=[8.0, 10.0, 12.0, 9.0])
    assert _verdicts(noisy, _document(cold_wall_s=[12.5, 9.0, 13.0, 12.0]))["cold_wall_s"] == "unresolved"
    assert _verdicts(noisy, _document(cold_wall_s=[5.0, 7.0, 6.0, 7.9]))["cold_wall_s"] == "ok"
    steady = _document(cold_wall_s=[10.0, 10.1, 9.9, 10.05])
    assert _verdicts(steady, _document(cold_wall_s=[11.5, 11.6, 11.4, 11.5]))["cold_wall_s"] == "regressed"


def test_a_metric_missing_from_the_new_file_is_a_regression():
    base = _document(cold_wall_s=[10.0], sim_fps=[60.0])
    assert _verdicts(base, _document(cold_wall_s=[10.0]))["sim_fps"] == "regressed"


def test_refuses_different_seed_scale_or_workloads():
    base = _document(cold_wall_s=[10.0])
    assert "seed" in compare.refusal(base, _document(seed=1, cold_wall_s=[10.0]))
    assert "scale" in compare.refusal(base, _document(scale="smoke", cold_wall_s=[10.0]))
    other = copy.deepcopy(base)
    other["workloads"]["racing_cold"] = other["workloads"].pop("viking_systems")
    assert "workload" in compare.refusal(base, other)
    assert compare.refusal(base, copy.deepcopy(base)) is None


def test_exit_codes(tmp_path, capsys):
    def write(name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    a = write("a.json", _document(cold_wall_s=[10.0], sim_fps=[60.0]))
    same = write("b.json", _document(cold_wall_s=[10.2], sim_fps=[60.0]))
    worse = write("c.json", _document(cold_wall_s=[13.0], sim_fps=[60.0]))
    seed = write("d.json", _document(seed=3, cold_wall_s=[10.0], sim_fps=[60.0]))
    assert compare.main([a, same]) == 0
    assert "0 regressed, 0 unresolved" in capsys.readouterr().out
    assert compare.main([a, worse]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([a, seed]) == 2
    assert compare.main([a]) == 2
