"""Documentation integrity: the docs must reference real code and files."""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

DOC_FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for path in list((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
)

_FENCE = re.compile(r"```.*?```", re.DOTALL)


def strip_fences(text):
    """Remove fenced code blocks, returning (stripped_text, fence_bodies)."""
    fences = [m.group(0) for m in _FENCE.finditer(text)]
    return _FENCE.sub("", text), fences


def inline_spans(text):
    """Backticked inline code spans (fences already stripped), with any
    hard-wrapped whitespace collapsed."""
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text)]


def resolve_dotted(dotted):
    """Import the longest module prefix of ``repro.a.b.c`` and getattr the
    rest; return False if nothing resolves."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def makefile_targets():
    targets = set()
    for line in (ROOT / "Makefile").read_text().splitlines():
        match = re.match(r"^([A-Za-z][\w-]*):", line)
        if match:
            targets.add(match.group(1))
    return targets


class TestFilesPresent:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGELOG.md", "LICENSE",
        "docs/api.md", "docs/architecture.md", "docs/datasets.md",
        "docs/reproduction-notes.md", "docs/paper-mapping.md",
        "docs/substrate.md", "docs/faq.md", "docs/fault-tolerance.md",
        "docs/performance.md", "docs/observability.md", "docs/serving.md",
        "docs/parallelism.md", "docs/resilience.md",
        "docs/online-learning.md", "docs/training-objectives.md",
        "docs/graph-workloads.md",
        "examples/README.md", "Makefile", "pyproject.toml",
        ".github/workflows/ci.yml",
    ])
    def test_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), f"{name} missing"
        assert path.stat().st_size > 100, f"{name} suspiciously small"

    def test_examples_present(self):
        examples = sorted((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 4

    def test_benchmarks_cover_every_artifact(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
        for artefact in ("table2", "table3", "table4", "table5", "table6",
                         "figure2", "figure3", "figure4", "intents"):
            assert any(artefact in name for name in benches), artefact


class TestReadmeReferences:
    def test_mentioned_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        for match in re.findall(r"examples/(\w+\.py)", text):
            assert (ROOT / "examples" / match).exists(), match

    def test_mentioned_benchmarks_exist(self):
        text = (ROOT / "README.md").read_text()
        for match in re.findall(r"`(test_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / match).exists(), match

    def test_quickstart_snippet_imports_resolve(self):
        """Every `from repro... import X` statement in README must resolve."""
        text = (ROOT / "README.md").read_text()
        statements = re.findall(
            r"from (repro[\w.]*) import (\([^)]*\)|[^\n]+)", text)
        assert statements, "README should contain import examples"
        for module_name, names in statements:
            module = importlib.import_module(module_name)
            for name in re.split(r"[,\s()]+", names.strip()):
                if name:
                    assert hasattr(module, name), f"{module_name}.{name}"


class TestAllDocsReferences:
    """Every docs/*.md file and the README must only reference code symbols,
    make targets, and repo paths that actually exist."""

    @pytest.mark.parametrize("doc", DOC_FILES)
    def test_dotted_symbols_resolve(self, doc):
        text, _ = strip_fences((ROOT / doc).read_text())
        dangling = sorted(
            dotted for dotted in set(re.findall(r"`(repro(?:\.\w+)+)", text))
            if not resolve_dotted(dotted))
        assert not dangling, f"{doc} references unresolvable: {dangling}"

    @pytest.mark.parametrize("doc", DOC_FILES)
    def test_make_targets_exist(self, doc):
        text, fences = strip_fences((ROOT / doc).read_text())
        targets = makefile_targets()
        mentioned = set()
        for span in inline_spans(text):
            if span.startswith("make ") and len(span.split()) >= 2:
                mentioned.add(span.split()[1])
        for fence in fences:
            for line in fence.splitlines():
                words = line.strip().split()
                if len(words) >= 2 and words[0] == "make":
                    mentioned.add(words[1])
        missing = sorted(m for m in mentioned if m not in targets)
        assert not missing, f"{doc} mentions unknown make targets: {missing}"

    @pytest.mark.parametrize("doc", DOC_FILES)
    def test_repo_relative_paths_exist(self, doc):
        """A backticked span that is a path under a real top-level directory
        must point at an existing file or directory.  Spans whose first
        segment is not a tracked top-level directory (output locations such
        as ``runs/...``, ratios such as ``composed/fused``) are skipped."""
        text, _ = strip_fences((ROOT / doc).read_text())
        broken = []
        for span in inline_spans(text):
            if not re.fullmatch(r"[\w.-]+(/[\w.-]+)+/?", span):
                continue
            first = span.split("/", 1)[0]
            if (ROOT / span).exists():
                continue
            if (ROOT / first).is_dir():
                broken.append(span)
        assert not broken, f"{doc} references missing paths: {broken}"


class TestPaperMappingReferences:
    def test_code_paths_resolve(self):
        """Dotted repro.* references in the mapping doc must import."""
        text = (ROOT / "docs" / "paper-mapping.md").read_text()
        seen = set()
        for dotted in set(re.findall(r"`(repro(?:\.\w+)+)", text)):
            assert resolve_dotted(dotted), (
                f"dangling reference in paper-mapping.md: {dotted}")
            seen.add(dotted)
        assert len(seen) > 20  # the mapping is substantial
