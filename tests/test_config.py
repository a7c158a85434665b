import json
import math
import re
from pathlib import Path

import pytest

from fedkit import ConfigError
from fedkit.cli import main
from fedkit.config import load_config, parse_config
from fedkit.params import to_json
from fedkit.server import config_hash

README = Path(__file__).resolve().parent.parent / "README.md"


def minimal_config(**overrides):
    doc = {
        "sites": [{"name": "a"}, {"name": "b"}, {"name": "c"}],
        "rounds": 3,
        "heterogeneity": {"base_optimum": [1.0, -1.0], "samples_per_site": 8},
    }
    doc.update(overrides)
    return doc


def parse(doc, source="cfg.json"):
    return parse_config(json.dumps(doc, indent=2), source=source)


def schema_key_id(value):
    """Name a case by the schema key it breaks: its key path without indices."""
    return re.sub(r"\[\d+\]", "", value) if isinstance(value, str) else None


class TestParseConfig:
    def test_minimal_document(self):
        parsed = parse(minimal_config())
        cfg = parsed.federation
        assert cfg.site_names == ["a", "b", "c"]
        assert cfg.rounds == 3
        assert cfg.algorithm.kind == "fedavg"
        assert parsed.scenario is None

    def test_unknown_top_level_key_named_and_anchored(self):
        with pytest.raises(ConfigError, match=r"cfg\.json:\d+.*frobnicate.*unknown key"):
            parse(minimal_config(frobnicate=1))

    def test_unknown_nested_key(self):
        doc = minimal_config()
        doc["algorithm"] = {"kind": "fedavg", "bogus": 2}
        with pytest.raises(ConfigError, match="algorithm.bogus"):
            parse(doc)

    def test_missing_required_key(self):
        doc = minimal_config()
        del doc["rounds"]
        with pytest.raises(ConfigError, match="rounds"):
            parse(doc)

    def test_invalid_json_reports_line(self):
        with pytest.raises(ConfigError, match=r"cfg\.json:\d+: invalid JSON"):
            parse_config('{"sites": [,]}', source="cfg.json")

    def test_module_invariants_rechecked(self):
        doc = minimal_config()
        doc["trainer"] = {"lr": -0.1}
        with pytest.raises(ConfigError, match="lr"):
            parse(doc)

    def test_continue_without_needs_quorum(self):
        doc = minimal_config(on_client_loss="continue_without")
        with pytest.raises(ConfigError, match="min_clients_per_round"):
            parse(doc)

    def test_site_fraction_override(self):
        doc = minimal_config()
        doc["sites"][0]["fraction"] = 0.2
        cfg = parse(doc).federation
        assert cfg.sites[0].fraction == 0.2
        assert cfg.site_heterogeneity(0).fraction == 0.2
        assert cfg.site_heterogeneity(1).fraction == 1.0

    def test_simulator_block(self):
        doc = minimal_config()
        doc["simulator"] = {
            "site_multipliers": {"a": 2.0},
            "base_round_cost_seconds": 5.0,
            "aggregation_cost_seconds": 0.5,
            "faults": [
                {"at_round": 1, "target": "server", "kind": "crash", "downtime_seconds": 3.0}
            ],
        }
        parsed = parse(doc)
        assert parsed.scenario is not None
        assert parsed.scenario.multiplier("a") == 2.0
        assert parsed.scenario.faults[0].target == "server"

    def test_simulator_fault_validation(self):
        doc = minimal_config()
        doc["simulator"] = {"faults": [{"at_round": 99, "target": "server"}]}
        with pytest.raises(ConfigError, match="at_round"):
            parse(doc)

    def test_unknown_simulator_key(self):
        doc = minimal_config()
        doc["simulator"] = {"bandwidth_model": "lte"}
        with pytest.raises(ConfigError, match="bandwidth_model"):
            parse(doc)

    def test_missing_base_optimum_named(self):
        doc = minimal_config()
        del doc["heterogeneity"]["base_optimum"]
        with pytest.raises(ConfigError, match=r"heterogeneity\.base_optimum: missing required key"):
            parse(doc)

    @pytest.mark.parametrize(
        "doc, key",
        [
            (minimal_config(simulator={"faults": [{"at_round": 1}]}), "simulator.faults[0].target"),
            (minimal_config(sites=[{"name": "a"}, {"expected": False}]), "sites[1].name"),
        ],
        ids=schema_key_id,
    )
    def test_missing_nested_key_anchored_once(self, doc, key):
        with pytest.raises(ConfigError) as info:
            parse(doc)
        message = str(info.value)
        assert re.fullmatch(r"cfg\.json:\d+: " + re.escape(key) + ": missing required key", message)

    @pytest.mark.parametrize(
        "overrides, why",
        [
            ({"round_timeout_seconds": "10"}, "invalid value"),
            ({"simulator": {"site_multipliers": {"a": "2"}}}, "invalid value"),
            # A mapping's values are typed; the mapping itself is a container.
            ({"simulator": {"site_multipliers": [1]}}, "must be an object, got array"),
            ({"simulator": {"faults": [{"at_round": "1", "target": "a"}]}}, "invalid value"),
            ({"simulator": {"base_round_cost_seconds": "1"}}, "invalid value"),
        ],
        ids=[f"overrides{index}" for index in range(5)],
    )
    def test_wrong_json_type_is_config_error(self, overrides, why):
        with pytest.raises(ConfigError, match=why):
            parse(minimal_config(**overrides))

    @pytest.mark.parametrize(
        "overrides, key, expected, got",
        [
            ({"round_timeout_seconds": "10"}, "round_timeout_seconds", "number or null", "string"),
            ({"trainer": {"local_steps": 1.5}}, "trainer.local_steps", "integer", "number"),
            ({"trainer": {"seed": 1.5}}, "trainer.seed", "integer", "number"),
            ({"heterogeneity": {"base_optimum": [1.0, -1.0], "samples_per_site": 2.5}},
             "heterogeneity.samples_per_site", "integer", "number"),
            ({"sites": [{"name": "a", "expected": "no"}]}, "sites[0].expected", "boolean", "string"),
            ({"sites": [{"name": 7}]}, "sites[0].name", "string", "integer"),
        ],
        ids=schema_key_id,
    )
    def test_wrong_json_type_names_key_and_types(self, overrides, key, expected, got):
        with pytest.raises(ConfigError) as info:
            parse(minimal_config(**overrides))
        pattern = rf"cfg\.json:\d+: {re.escape(key)}: invalid value: expected {expected}, got {got}"
        assert re.fullmatch(pattern, str(info.value))

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"round_timeout_seconds": math.nan}, "round_timeout_seconds"),
            ({"round_timeout_seconds": math.inf}, "round_timeout_seconds"),
            ({"simulator": {"aggregation_cost_seconds": math.inf}}, "aggregation_cost_seconds"),
            ({"simulator": {"aggregation_cost_seconds": math.nan}}, "aggregation_cost_seconds"),
            ({"simulator": {"base_round_cost_seconds": math.inf}}, "base_round_cost_seconds"),
        ],
    )
    def test_non_finite_float_rejected_naming_key(self, overrides, key):
        with pytest.raises(ConfigError, match=key):
            parse(minimal_config(**overrides))

    def test_huge_integer_in_float_field_loads(self):
        doc = parse(minimal_config(trainer={"lr": 2**64},
                                   algorithm={"kind": "fedprox", "prox_mu": 2**64}))
        assert doc.federation.trainer.lr == 2**64
        assert doc.federation.algorithm.prox_mu == 2**64

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"trainer": {"lr": 10**400}}, "trainer"),
            ({"algorithm": {"kind": "fedprox", "prox_mu": 10**400}}, "algorithm"),
            ({"heterogeneity": {"base_optimum": [10**400, 1.0]}}, "heterogeneity"),
            ({"simulator": {"aggregation_cost_seconds": 10**400}}, "simulator"),
        ],
    )
    def test_integer_beyond_float_range_is_config_error(self, overrides, key):
        with pytest.raises(ConfigError, match=key) as info:
            parse(minimal_config(**overrides))
        assert "ufunc" not in str(info.value)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"trainer": {"lr": 10**400}}, "trainer.lr"),
            ({"algorithm": {"kind": "fedprox", "prox_mu": 10**400}}, "algorithm.prox_mu"),
            ({"heterogeneity": {"base_optimum": [10**400, 1.0]}}, "heterogeneity.base_optimum[0]"),
            ({"simulator": {"site_multipliers": {"a": -(10**400)}}}, "simulator.site_multipliers.a"),
        ],
        ids=["lr", "prox_mu", "base_optimum", "site_multiplier"],
    )
    def test_integer_beyond_float_range_names_its_key_and_line(self, overrides, key):
        text = json.dumps(minimal_config(**overrides), indent=2)
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg.json")
        anchor, path, why = re.match(r"cfg\.json:(\d+): ([\w.\[\]]+): (.*)",
                                     str(info.value)).groups()
        assert (path, why) == (key, "invalid value: int too large to convert to float")
        assert "0" * 400 in text.splitlines()[int(anchor) - 1]

    def test_infinite_downtime_still_loads(self):
        fault = {"at_round": 1, "target": "a", "downtime_seconds": math.inf}
        scenario = parse(minimal_config(simulator={"faults": [fault]})).scenario
        assert scenario.faults[0].downtime_seconds == math.inf

    def test_clock_overflow_fails_at_parse_naming_its_key(self):
        simulator = {"site_multipliers": {"a": 1e300}, "base_round_cost_seconds": 1e10}
        with pytest.raises(ConfigError, match=r"^cfg\.json:\d+: simulator\.site_multipliers: "
                                              r"overflows the virtual clock"):
            parse(minimal_config(simulator=simulator))
        simulator["base_round_cost_seconds"] = 1e5
        assert parse(minimal_config(simulator=simulator)).scenario.multiplier("a") == 1e300


def fault(**fields):
    return {"simulator": {"faults": [{"at_round": 0, "target": "a", **fields}]}}


def heterogeneity(**fields):
    return {"heterogeneity": {"base_optimum": [1.0, -1.0], **fields}}


# One case per value check in the config dataclasses: the overrides, and
# the key the error must name.
INVALID_VALUES = {
    "site_name": ({"sites": [{"name": ""}, {"name": "b"}]}, "name"),
    "site_fraction": ({"sites": [{"name": "a", "fraction": 0}]}, "fraction"),
    "no_sites": ({"sites": []}, "sites"),
    "duplicate_sites": ({"sites": [{"name": "a"}, {"name": "a"}]}, "sites"),
    "no_expected_site": ({"sites": [{"name": "a", "expected": False}]}, "sites"),
    "rounds": ({"rounds": 0}, "rounds"),
    "on_client_loss": ({"on_client_loss": "retry"}, "on_client_loss"),
    "checkpoint_path": ({"checkpoint_path": ""}, "checkpoint_path"),
    "round_timeout_zero": ({"round_timeout_seconds": 0}, "round_timeout_seconds"),
    "trainer": ({"trainer": {"trainer": "cnn"}}, "trainer"),
    "batch": ({"trainer": {"batch": "mini"}}, "batch"),
    "seed": ({"trainer": {"seed": -1}}, "seed"),
    "base_optimum_empty": (heterogeneity(base_optimum=[]), "base_optimum"),
    "base_optimum_nan": (heterogeneity(base_optimum=[1.0, math.nan]), "base_optimum"),
    "shift_scale": (heterogeneity(shift_scale=-1.0), "shift_scale"),
    "noise_std": (heterogeneity(noise_std=-1.0), "noise_std"),
    "samples_per_site": (heterogeneity(samples_per_site=0), "samples_per_site"),
    "fault_at_round": (fault(at_round=-1), "at_round"),
    "fault_kind": (fault(kind="explode"), "kind"),
    "fault_downtime": (fault(downtime_seconds=-1.0), "downtime_seconds"),
    "server_disconnect": (fault(target="server", kind="disconnect"), "kind"),
    "site_multipliers": ({"simulator": {"site_multipliers": {"a": 0}}}, "site_multipliers"),
    "base_round_cost": ({"simulator": {"base_round_cost_seconds": 0}}, "base_round_cost_seconds"),
    "aggregation_cost": ({"simulator": {"aggregation_cost_seconds": -1.0}},
                         "aggregation_cost_seconds"),
    "weighting": ({"algorithm": {"weighting": "bogus"}}, "weighting"),
    # Finite factors whose virtual clock would overflow.
    "clock_multiplier": ({"simulator": {"site_multipliers": {"a": 1e300},
                                        "base_round_cost_seconds": 1e10}}, "site_multipliers"),
    "clock_costs": ({"simulator": {"base_round_cost_seconds": 1e308,
                                   "aggregation_cost_seconds": 1e308}}, "base_round_cost_seconds"),
    "clock_downtimes": ({"simulator": {"faults": [
        {"at_round": 0, "target": "a", "downtime_seconds": 1e308},
        {"at_round": 1, "target": "b", "downtime_seconds": 1e308}]}}, "faults"),
}


class TestValueChecks:
    @pytest.mark.parametrize("overrides, key", INVALID_VALUES.values(), ids=list(INVALID_VALUES))
    def test_invalid_value_names_its_key(self, overrides, key):
        text = json.dumps(minimal_config(**overrides), indent=2)
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg.json")
        assert key in str(info.value)
        # The message leads with its key path, and its anchor is a line where
        # the path's last key appears in the document.
        anchor, path = re.match(r"cfg\.json:(\d+): ([\w.\[\]]+): ", str(info.value)).groups()
        assert path.split(".")[-1] == key
        assert f'"{key}":' in text.splitlines()[int(anchor) - 1]

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            ({"trainer": {"trainer": "cnn"}}, '"trainer": "cnn"'),
            ({"algorithm": {"kind": "fedavg"}, **fault(kind="explode")}, '"kind": "explode"'),
        ],
        ids=["key_named_like_its_object", "key_named_like_an_earlier_key"],
    )
    def test_anchor_is_the_nested_keys_own_line(self, overrides, needle):
        text = json.dumps(minimal_config(**overrides), indent=2)
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg.json")
        anchor = int(re.match(r"cfg\.json:(\d+): ", str(info.value)).group(1))
        assert needle in text.splitlines()[anchor - 1]

    @pytest.mark.parametrize(
        "overrides, key, needle, why",
        [
            ({"heterogeneity": {"base_optimum": [True, False]}}, "heterogeneity.base_optimum[0]",
             "true,", "expected number, got boolean"),
            ({"heterogeneity": {"base_optimum": [1, "x"]}}, "heterogeneity.base_optimum[1]",
             '"x"', "expected number, got string"),
            ({"simulator": {"site_multipliers": {"a": True}}}, "simulator.site_multipliers.a",
             '"a": true', "expected number, got boolean"),
            ({"simulator": {"site_multipliers": {"a": "2"}}}, "simulator.site_multipliers.a",
             '"a": "2"', "expected number, got string"),
        ],
        ids=["base_optimum_boolean", "base_optimum_string", "multiplier_boolean",
             "multiplier_string"],
    )
    def test_typed_element_is_named_on_its_own_line(self, overrides, key, needle, why):
        text = json.dumps(minimal_config(**overrides), indent=2)
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg.json")
        anchor, path, rest = re.match(r"cfg\.json:(\d+): ([\w.\[\]]+): (.*)",
                                      str(info.value)).groups()
        assert (path, rest) == (key, f"invalid value: {why}")
        assert text.splitlines()[int(anchor) - 1].strip() == needle

    def test_anchor_is_the_elements_own_key_line(self):
        sites = [{"name": "a", "fraction": 0.5}, {"name": "b", "fraction": 0}]
        text = json.dumps(minimal_config(sites=sites), indent=2)
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg.json")
        anchor, path = re.match(r"cfg\.json:(\d+): ([\w.\[\]]+): ", str(info.value)).groups()
        assert path == "sites[1].fraction"
        lines = text.splitlines()
        assert lines[int(anchor) - 1].strip() == '"fraction": 0'
        assert '"name": "b"' in lines[int(anchor) - 2]

    @pytest.mark.parametrize("overrides, key", INVALID_VALUES.values(), ids=list(INVALID_VALUES))
    def test_simulate_exits_2(self, tmp_path, capsys, overrides, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(**overrides)))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        # tmp_path is named after the test, so it may contain the key.
        assert key in capsys.readouterr().err.replace(str(tmp_path), "")


def readme_example():
    text = README.read_text()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


class TestConfigEcho:
    @pytest.mark.parametrize("doc", [minimal_config(), readme_example()], ids=["minimal", "readme"])
    def test_echo_parses_back_to_the_same_config(self, doc):
        cfg = parse(doc).federation
        again = parse_config(json.dumps(to_json(cfg))).federation
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    # A changed hash makes every existing checkpoint refuse --resume.
    @pytest.mark.parametrize("doc, expected", [
        (minimal_config(), "14ce00d1e0f27657bc411b771235cbd2316c2bd2ab2fb3734615630ae74b4ac0"),
        (readme_example(), "a4ad0d3e6981b5c9e96c5db84aff831d6f0766f50a1b3c9080526349536130eb"),
    ], ids=["minimal", "readme"])
    def test_config_hash_is_pinned(self, doc, expected):
        assert config_hash(parse(doc).federation) == expected


class TestLoadConfig:
    def test_round_trip_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        cfg = load_config(str(path)).federation
        assert cfg.rounds == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))
