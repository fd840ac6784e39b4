"""Guard the documented public API surface.

Every name a package advertises in ``__all__`` must actually resolve,
and the top-level conveniences the README shows must exist.  This test
fails when a refactor renames something without updating the exports.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sim",
    "repro.gossip",
    "repro.astrolabe",
    "repro.multicast",
    "repro.pubsub",
    "repro.news",
    "repro.baselines",
    "repro.workloads",
    "repro.metrics",
    "repro.experiments",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    assert exported, f"{package_name} should declare __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_readme_quickstart_surface():
    import repro

    assert callable(repro.build_newswire)
    assert callable(repro.Subscription)
    assert callable(repro.NewsWireConfig)
    assert repro.__version__ == "1.0.0"


def test_experiment_drivers_all_present():
    import repro.experiments as experiments

    for index in range(1, 12):
        assert callable(getattr(experiments, f"run_e{index}"))


def test_key_cross_package_types_are_shared():
    """The same class object must be reachable from every façade that
    re-exports it (no duplicate definitions)."""
    from repro import Subscription as top
    from repro.pubsub import Subscription as mid
    from repro.pubsub.subscription import Subscription as deep

    assert top is mid is deep

    from repro.core import ZonePath as a
    from repro.core.identifiers import ZonePath as b

    assert a is b


# -- tooling references ------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
TOOLING_FILES = [
    ROOT / "Makefile",
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "DESIGN.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
#: Where the documented commands write; these exist only after a run.
OUTPUT_DIRS = {"artifacts", "out", "profile", "fuzz-repros", "runs", "traces"}
SOURCE_DIRS = ("src", "tests", "bench", "docs", "examples")

MODULE_REF = re.compile(r"-m\s+(repro(?:\.[A-Za-z_]\w*)*)")
FILE_REF = re.compile(
    r"(?<![\w./<>{}$-])((?:[\w.-]+/)*[\w.-]+\.(?:py|md|json|yml|toml))\b(?![\w<{])"
)
DIR_REF = re.compile(r"(?:(?<=[\s`'\"])|^)((?:[\w.-]+/)+)(?=[\s`'\",;:)]|$)", re.M)
#: `make X` in backticks, at the start of a line, or with a hyphenated
#: X; prose such as "make every" is none of these.
MAKE_REF = re.compile(r"(?:`|^\s*|\b(?=make \w+-))make ([a-z][\w-]*)", re.M)
MAKE_TARGETS = set(
    re.findall(r"^([\w-]+):", (ROOT / "Makefile").read_text(encoding="utf-8"), re.M)
)
GITIGNORED = set((ROOT / ".gitignore").read_text(encoding="utf-8").split())


def _path_resolves(reference: str) -> bool:
    if reference.split("/")[0] in OUTPUT_DIRS or reference in GITIGNORED:
        return True
    if (ROOT / reference).exists() or (ROOT / "src" / reference).exists():
        return True
    # A bare file name: any source file may carry it.
    return "/" not in reference and any(
        next((ROOT / top).rglob(reference), None) for top in SOURCE_DIRS
    )


@pytest.mark.parametrize(
    "path", TOOLING_FILES, ids=lambda p: str(p.relative_to(ROOT))
)
def test_tooling_references_resolve(path):
    """Modules, paths and make targets named by the Makefile, CI and
    docs exist — a deletion that leaves a reference behind fails here."""
    text = path.read_text(encoding="utf-8")
    dangling = [
        f"python -m {module}"
        for module in MODULE_REF.findall(text)
        if importlib.util.find_spec(module) is None
    ]
    dangling += [
        reference
        for reference in FILE_REF.findall(text) + DIR_REF.findall(text)
        if not _path_resolves(reference)
    ]
    dangling += [
        f"make {target}"
        for target in MAKE_REF.findall(text)
        if target not in MAKE_TARGETS
    ]
    assert not dangling, f"{path.name} names things that do not exist: {dangling}"
