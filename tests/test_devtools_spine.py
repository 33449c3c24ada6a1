"""The engine spec itself: committed, complete, deterministic, checked.

``engine-spec.json`` is the authoritative correspondence map for the
five execution modes (docs/architecture.md); these tests pin the
properties the ``lint-drift`` CI step relies on: the committed spec is
byte-identical to a regeneration, every mode's chain covers the full
funnel, and ``--check`` catches a tampered or stale copy.
"""

import json
from pathlib import Path

from repro.devtools.spine import (
    MODES,
    PHASES,
    SPEC_FILENAME,
    SpineAnalysis,
    build_project,
    main,
    render_spec,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SPEC_PATH = REPO_ROOT / SPEC_FILENAME


def fresh_analysis():
    return SpineAnalysis(build_project())


def test_committed_spec_is_current_and_deterministic():
    analysis = fresh_analysis()
    rendered = render_spec(analysis.build_spec())
    assert SPEC_PATH.read_text(encoding="utf-8") == rendered
    # A second extraction over a second project parse is byte-identical.
    assert render_spec(fresh_analysis().build_spec()) == rendered


def test_every_mode_chains_the_full_funnel():
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    phase_names = {phase.name for phase in PHASES}
    assert set(spec["modes"]) == {mode.name for mode in MODES}
    for mode_name, mode in spec["modes"].items():
        chained = {entry["phase"] for entry in mode["chain"]}
        # A registered absence (the syslog-only service has no IS-IS
        # ingest) is the one way a mode may skip a phase.
        expected = phase_names - {
            key.split("/", 1)[1]
            for key in spec["absent_phases"]
            if key.split("/", 1)[0] == mode_name
        }
        assert chained == expected, (
            f"mode {mode_name} is missing phases {expected - chained}"
        )
        for entry in mode["chain"]:
            assert entry["impls"], (
                f"{mode_name}/{entry['phase']} resolved no implementation"
            )
            assert entry["literal_args"] == [], (
                f"{mode_name}/{entry['phase']} binds a numeric literal"
            )


def test_shipped_tree_has_zero_drift_findings():
    analysis = fresh_analysis()
    assert {k: v for k, v in analysis.findings.items() if v} == {}


def test_check_mode_accepts_committed_and_rejects_tampered(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["--check"]) == 0
    capsys.readouterr()

    tampered = tmp_path / "engine-spec.json"
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    spec["modes"]["batch"]["chain"][0]["impls"] = ["repro.fake.parse"]
    tampered.write_text(
        json.dumps(spec, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    assert main(["--check", "--output", str(tampered)]) == 1
    out = capsys.readouterr()
    assert "repro.fake.parse" in out.out
    assert "stale" in out.err
