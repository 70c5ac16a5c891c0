"""The boundary around :mod:`repro.oracles`.

The reference implementations are imported only by the differential trials
and the tests.  These checks keep it that way: production imports load no
oracle, the experiment trials' cache keys hash no oracle source, every
oracle-comparing ``diff-*`` trial does hash the oracle it compares against,
and the DET004 exact-module list names only modules that exist.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import build_import_graph, load_import_tables, trial_closures
from repro.lint.rules import EXACT_MODULES

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Each oracle-comparing differential trial and the oracle module it runs.
ORACLE_OF_TRIAL = {
    "diff-fastgraph-connectivity": "repro.oracles.graphs",
    "diff-fastgraph-cut-pairs": "repro.oracles.graphs",
    "diff-fastgraph-min-cuts": "repro.oracles.graphs",
    "diff-tap-distributed": "repro.oracles.tap",
    "diff-tap-greedy": "repro.oracles.tap",
    "diff-labels-random": "repro.oracles.cycle_space",
    "diff-labels-exact": "repro.oracles.cycle_space",
    "diff-3ecss-kernel": "repro.oracles.three_ecss",
    "diff-kecss-kernel": "repro.oracles.k_ecss",
}


def _is_oracle(module: str) -> bool:
    return module == "repro.oracles" or module.startswith("repro.oracles.")


@pytest.fixture(scope="module")
def project():
    return load_import_tables(PACKAGE_DIR)


def test_production_imports_load_no_oracle():
    script = (
        "import json, sys\n"
        "import repro, repro.cli, repro.core, repro.tap, repro.graphs, "
        "repro.cycle_space\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
    ).stdout
    loaded = json.loads(out)
    assert "repro.core.k_ecss" in loaded  # the import really ran
    assert [m for m in loaded if _is_oracle(m)] == []


def test_only_the_differential_trials_import_the_oracles(project):
    graph = build_import_graph(project)
    importers = {
        module
        for module, targets in graph.edges.items()
        if not _is_oracle(module) and any(_is_oracle(t) for t in targets)
    }
    assert importers == {"repro.analysis.differential"}


def test_experiment_closures_hash_no_oracle(project):
    closures = trial_closures(project)
    for trial in (f"e{i}" for i in range(1, 11)):
        assert [m for m in closures[trial] if _is_oracle(m)] == [], trial


@pytest.mark.parametrize("trial", sorted(ORACLE_OF_TRIAL))
def test_differential_closures_hash_their_oracle(project, trial):
    assert ORACLE_OF_TRIAL[trial] in trial_closures(project)[trial]


@pytest.mark.parametrize("module", sorted(EXACT_MODULES))
def test_exact_modules_exist(module):
    assert importlib.util.find_spec(module) is not None, module
