"""Plumbing for the feature-plane acceptance suite.

The suite replays every plane's committed seeded experiment, so it takes
about two minutes and sits outside tier-1's ``testpaths``::

    PYTHONPATH=src python -m pytest acceptance
    PYTHONPATH=src python -m pytest acceptance --update-baseline
    PYTHONPATH=src python -m pytest acceptance --artifact-dir artifacts

Off-path digests are compared float-for-float against
``experiments/offpath_baseline.json``, one entry per plane;
``--update-baseline`` rewrites the entries instead.  Report JSON and
dashboards land in ``--artifact-dir``.
"""

import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "experiments" / "offpath_baseline.json"


def pytest_addoption(parser):
    parser.addoption("--update-baseline", action="store_true",
                     help="rewrite the off-path digests in "
                          "experiments/offpath_baseline.json instead of "
                          "checking against them")
    parser.addoption("--artifact-dir", default=str(REPO / "artifacts"),
                     metavar="DIR",
                     help="where the report and dashboard artifacts go "
                          "(default: %(default)s)")


def write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


class Baseline:
    """The committed off-path digests, checked or rewritten per plane."""

    def __init__(self, update: bool):
        self.update = update
        self.digests = json.loads(BASELINE.read_text(encoding="utf-8"))

    def check(self, plane: str, digests) -> None:
        if self.update:
            self.digests[plane] = digests
            write_json(BASELINE, self.digests)
            return
        assert digests == self.digests[plane], \
            f"{plane} off-path digests differ from {BASELINE.name}"


class Artifacts:
    """The artifact directory, created on first use."""

    def __init__(self, root: str):
        self.root = Path(root)

    def path(self, name: str) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        return self.root / name

    def write(self, name: str, payload) -> None:
        write_json(self.path(name), payload)


@pytest.fixture(scope="session")
def baseline(request) -> Baseline:
    return Baseline(request.config.getoption("--update-baseline"))


@pytest.fixture(scope="session")
def artifacts(request) -> Artifacts:
    return Artifacts(request.config.getoption("--artifact-dir"))
