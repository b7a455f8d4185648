"""The CLI scenarios write exactly the pinned artefacts.

tests/golden/manifest.json pins every CSV byte and every `results` and
`derived` value of seven scenarios (see tests/golden.py, which also
regenerates it). The last bits depend on libm and numpy, so the pins hold
for the environment they record; on another one this test fails and says
so rather than skipping.
"""

import json

import golden


def test_scenario_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text())
    env = golden.environment()
    assert manifest["environment"] == env, (
        f"the manifest pins outputs made with {manifest['environment']}; "
        f"this environment is {env}. Regenerate it with "
        f"`python tests/golden.py --write` and record why in CHANGES.md")
    golden.run(tmp_path)
    problems = golden.compare(manifest, tmp_path)
    assert not problems, "\n".join(problems)
