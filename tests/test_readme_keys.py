"""The README's list of train keys must be exactly the RunConfig fields.

`survfuse train` rejects any key that is not a field, so a README that lists
a removed key, or leaves out a new one, sends users to a config that fails
or hides an option.
"""

import re
from pathlib import Path

from survfuse.training import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_train_keys() -> list[str]:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"Train keys[^:]*:(.*?)\.\s", text, flags=re.DOTALL)
    assert match, "README has no 'Train keys ...: ...' sentence"
    return re.findall(r"`([a-z_0-9]+)`", match.group(1))


def test_readme_train_keys_are_the_run_config_fields():
    keys = readme_train_keys()
    assert len(keys) == len(set(keys)), "README lists a train key twice"
    assert set(keys) == set(RunConfig.__dataclass_fields__)
