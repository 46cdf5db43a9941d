"""The README's config block is the parser's truth: it parses to the default
config and lists exactly the keys the parser accepts.  A swept value is
checked as a set value of its key."""

import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from meqc.bench import _SETTINGS, _TOP_KEYS, _TRAIN_KINDS, ConfigError, parse_config
from meqc.device import CryostatConfig, QubitTech

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config() -> str:
    """The README's one ```yaml block."""
    blocks = re.findall(r"^```yaml\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_config_is_the_default_config():
    cfg = parse_config(readme_config())
    assert cfg.sweep_parameter is not None and cfg.checkpoint == "agents.npz"
    unswept = dataclasses.replace(cfg, sweep_parameter=None, sweep_values=(), checkpoint=None)
    assert unswept == parse_config("")


def test_readme_config_lists_every_accepted_key():
    doc = yaml.safe_load(readme_config())
    assert set(doc) == _TOP_KEYS
    for section in ("scenario", "device"):
        accepted = {key for key, (owner, _, _) in _SETTINGS.items() if owner == section}
        assert set(doc[section]) == accepted, section
    assert set(doc["train"]) == set(_TRAIN_KINDS)


def test_every_device_field_is_set_by_one_key():
    default = parse_config("")
    set_fields = []
    for key, value in yaml.safe_load(readme_config())["device"].items():
        # YAML 1.1 reads an unsigned exponent (``6.0e9``) as a string
        cfg = parse_config(yaml.safe_dump({"device": {key: float(value) * 2}}))
        changed = [
            (owner, f.name)
            for owner in ("cryostat", "qubit_tech")
            for f in dataclasses.fields(getattr(default, owner))
            if getattr(getattr(cfg, owner), f.name) != getattr(getattr(default, owner), f.name)
        ]
        assert len(changed) == 1, key
        set_fields += changed
    every = [("cryostat", f.name) for f in dataclasses.fields(CryostatConfig)]
    every += [("qubit_tech", f.name) for f in dataclasses.fields(QubitTech)]
    assert sorted(set_fields) == sorted(every)


@pytest.mark.parametrize(
    "section, key, value",
    [("scenario", "weight_latency", "1.5"), ("device", "decoherence_time", "0")],
)
def test_swept_value_fails_as_a_set_value(section, key, value):
    with pytest.raises(ConfigError) as set_error:
        parse_config(f"{section}:\n  {key}: {value}\n")
    with pytest.raises(ConfigError) as swept_error:
        parse_config(f"sweep:\n  parameter: {key}\n  values: [{value}]\n")
    where, reason = str(set_error.value).split(": ", 1)
    assert where == f"{section}.{key} (line 2)"
    assert str(swept_error.value) == f"sweep.values (line 3): {key} {reason}"
