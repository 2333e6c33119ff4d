#!/usr/bin/env python3
"""Repo-invariant linter: freezes the conventions the tree maintains by hand.

Five rules, each of which was previously enforced only by review:

  layer-dag      The ARCHITECTURE.md include DAG. Every `#include "dir/..."`
                 edge between two directories under src/ must point strictly
                 downward in the layer order (util at the bottom, runtime at
                 the top). A back-edge — e.g. a util header including
                 runtime/ — is the layering violation nine PRs have avoided
                 by convention.
  env-sync       Every TCIM_* environment variable the code reads (a
                 "TCIM_FOO" string literal in src/bench/examples/tests)
                 must be documented in README.md or docs/*.md, and every
                 TCIM_* name those documents mention must exist — as a code
                 read or as a CMakeLists.txt option/variable. Names starting
                 with TCIM_TEST_ are test-internal knobs and exempt from the
                 documentation requirement.
  header-banner  Every public header under src/ carries the layer banner:
                 a `Layer: §N` line referencing ARCHITECTURE (the repo's
                 paper-to-code cross-reference convention).
  tsa-escape     TCIM_NO_THREAD_SAFETY_ANALYSIS is reserved for the
                 annotated-wrapper internals (src/util/mutex.h and the macro
                 definition in src/util/thread_annotations.h). Any other use
                 silently blinds `clang++ -Werror=thread-safety` and must
                 instead fix the lock discipline or take a reviewed
                 exemption here.
  metric-sync    The metric names the code registers by literal
                 (`Get{Counter,Gauge,Histogram}("name")` under src/) must
                 equal the first-column names of the `### Catalog` table
                 in docs/OBSERVABILITY.md. Rows whose name holds a `<…>`
                 placeholder (per-kind and per-bank families, registered
                 from built strings) are skipped.

Usage:
  lint_tcim.py [REPO_ROOT]      lint the repo (default: parent of tools/)
  lint_tcim.py --self-test      seed one violation of each rule in a
                                scratch tree and assert each is caught
                                (and that the clean fixture passes)

Exit status 0 when clean, 1 with one `rule: file: message` line per
violation otherwise. Registered as the `lint_tcim` / `lint_tcim_selftest`
ctest entries and run by the clang-analysis CI leg.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

# ---------------------------------------------------------------------------
# Rule 1: the layer include DAG (docs/ARCHITECTURE.md section numbers).
#
# An include edge dir_a -> dir_b (a file in src/dir_a including
# "dir_b/...") is legal iff RANK[dir_b] < RANK[dir_a]. Equal ranks are
# peers (obs/graph/device share an altitude) and must not include each
# other. A directory missing from this map is itself an error: adding a
# layer means placing it in the order here and in ARCHITECTURE.md.
# ---------------------------------------------------------------------------

LAYER_RANK = {
    "util": 0,        # §1  — under everything
    "obs": 1,         # §14 — beside util, above only it
    "graph": 1,       # §2
    "device": 1,      # §3
    "nvsim": 2,       # §4  — device physics consumer
    "bitmatrix": 2,   # §5 + §12 AND+popcount kernel
    "pim": 3,         # §6
    "baseline": 3,    # §9
    "arch": 4,        # §7
    "stream": 4,      # §11 — below runtime, above bitmatrix/graph
    "core": 5,        # §8
    "runtime": 6,     # §10 + §13 — the top of the library
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([a-z_0-9]+)/', re.MULTILINE)
ENV_LITERAL_RE = re.compile(r'"(TCIM_[A-Z0-9_]+)"')
ENV_NAME_RE = re.compile(r"\b(TCIM_[A-Z0-9_]+)\b")
BANNER_RE = re.compile(r"Layer: §\d+")
METRIC_LITERAL_RE = re.compile(
    r'Get(?:Counter|Gauge|Histogram)\(\s*"([^"]+)"\s*\)')
CATALOG_HEADING = "### Catalog"
CATALOG_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|", re.MULTILINE)
HEADING_RE = re.compile(r"^#{1,6} ", re.MULTILINE)
METRICS_DOC = "docs/OBSERVABILITY.md"
ESCAPE_MACRO = "TCIM_NO_THREAD_SAFETY_ANALYSIS"

# Files allowed to say TCIM_NO_THREAD_SAFETY_ANALYSIS (repo-relative).
TSA_ESCAPE_ALLOWLIST = {
    "src/util/thread_annotations.h",   # defines the macro
    "src/util/mutex.h",                # CondVar::Wait release/reacquire
    "tests/annotations_test.cpp",      # stringizes it to prove the no-op
}

# Documented names that are build-system knobs, not env reads: they
# must appear in CMakeLists.txt instead of code.
CMAKE_FILES = ("CMakeLists.txt",)


def _sources(root: Path, subdir: str, exts: tuple[str, ...]) -> list[Path]:
    base = root / subdir
    if not base.is_dir():
        return []
    return sorted(p for p in base.rglob("*") if p.suffix in exts and p.is_file())


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def check_layer_dag(root: Path) -> list[str]:
    errors = []
    for path in _sources(root, "src", (".h", ".cpp")):
        rel = path.relative_to(root)
        src_dir = rel.parts[1]
        if src_dir not in LAYER_RANK:
            errors.append(
                f"layer-dag: {rel}: directory src/{src_dir} is not in the "
                f"layer order — add it to LAYER_RANK and docs/ARCHITECTURE.md"
            )
            continue
        for dep in INCLUDE_RE.findall(_read(path)):
            if dep == src_dir:
                continue  # intra-layer includes are free
            if dep not in LAYER_RANK:
                # Not a src/ layer include (e.g. a bench-local header).
                continue
            if LAYER_RANK[dep] >= LAYER_RANK[src_dir]:
                errors.append(
                    f"layer-dag: {rel}: includes \"{dep}/...\" but "
                    f"{dep} (rank {LAYER_RANK[dep]}) is not below "
                    f"{src_dir} (rank {LAYER_RANK[src_dir]}) — back-edge "
                    f"in the §-layer DAG"
                )
    return errors


def check_env_sync(root: Path) -> list[str]:
    errors = []
    code_reads: dict[str, Path] = {}
    for subdir in ("src", "bench", "examples", "tests"):
        for path in _sources(root, subdir, (".h", ".cpp")):
            for name in ENV_LITERAL_RE.findall(_read(path)):
                code_reads.setdefault(name, path.relative_to(root))

    doc_names: set[str] = set()
    doc_files = [root / "README.md"] + _sources(root, "docs", (".md",))
    for path in doc_files:
        if path.is_file():
            doc_names.update(ENV_NAME_RE.findall(_read(path)))

    cmake_names: set[str] = set()
    for name in CMAKE_FILES:
        path = root / name
        if path.is_file():
            cmake_names.update(ENV_NAME_RE.findall(_read(path)))

    for name, where in sorted(code_reads.items()):
        if name.startswith("TCIM_TEST_"):
            continue  # test-internal knobs; not operator surface
        if name not in doc_names:
            errors.append(
                f"env-sync: {where}: reads ${name} but no README.md/docs/*.md "
                f"documents it"
            )

    for name in sorted(doc_names):
        if name in code_reads or name in cmake_names:
            continue
        # Macro vocabulary (TCIM_GUARDED_BY etc.) legitimately appears in
        # docs without being an env var; only flag names that look like
        # documented knobs nothing defines anywhere.
        if name in _macro_vocabulary(root):
            continue
        errors.append(
            f"env-sync: docs mention {name} but nothing reads it in "
            f"src/bench/examples/tests or defines it in CMakeLists.txt"
        )
    return errors


def _macro_vocabulary(root: Path) -> set[str]:
    """TCIM_* names #define'd in source (annotation macros, feature
    guards) — documented freely, never env vars."""
    names: set[str] = set()
    define_re = re.compile(r"^\s*#\s*define\s+(TCIM_[A-Z0-9_]+)", re.MULTILINE)
    for path in _sources(root, "src", (".h", ".cpp")):
        names.update(define_re.findall(_read(path)))
    return names


def check_header_banner(root: Path) -> list[str]:
    errors = []
    for path in _sources(root, "src", (".h",)):
        text = _read(path)
        rel = path.relative_to(root)
        if not BANNER_RE.search(text):
            errors.append(
                f"header-banner: {rel}: missing the `Layer: §N` banner line "
                f"(see docs/ARCHITECTURE.md layer numbers)"
            )
        elif "ARCHITECTURE" not in text:
            errors.append(
                f"header-banner: {rel}: `Layer:` banner does not reference "
                f"docs/ARCHITECTURE.md"
            )
    return errors


def check_tsa_escape(root: Path) -> list[str]:
    errors = []
    for subdir in ("src", "bench", "examples", "tests"):
        for path in _sources(root, subdir, (".h", ".cpp")):
            rel = path.relative_to(root)
            if str(rel) in TSA_ESCAPE_ALLOWLIST:
                continue
            for i, line in enumerate(_read(path).splitlines(), start=1):
                if ESCAPE_MACRO in line:
                    errors.append(
                        f"tsa-escape: {rel}:{i}: {ESCAPE_MACRO} outside the "
                        f"wrapper allowlist — fix the lock discipline or add "
                        f"a reviewed exemption in tools/lint_tcim.py"
                    )
    return errors


def _catalog_names(root: Path) -> set[str]:
    """First-column metric names of the METRICS_DOC catalog table,
    without the `<…>` placeholder families."""
    path = root / METRICS_DOC
    if not path.is_file():
        return set()
    _, found, rest = _read(path).partition(CATALOG_HEADING)
    if not found:
        return set()
    section = HEADING_RE.split(rest, maxsplit=1)[0]
    return {name for name in CATALOG_ROW_RE.findall(section) if "<" not in name}


def check_metric_sync(root: Path) -> list[str]:
    errors = []
    registered: dict[str, Path] = {}
    for path in _sources(root, "src", (".h", ".cpp")):
        for name in METRIC_LITERAL_RE.findall(_read(path)):
            registered.setdefault(name, path.relative_to(root))
    documented = _catalog_names(root)
    for name, where in sorted(registered.items()):
        if name not in documented:
            errors.append(
                f"metric-sync: {where}: registers {name} but the "
                f"{METRICS_DOC} catalog does not list it"
            )
    for name in sorted(documented - registered.keys()):
        errors.append(
            f"metric-sync: {METRICS_DOC}: the catalog lists {name} but no "
            f"Get{{Counter,Gauge,Histogram}}(\"{name}\") under src/ "
            f"registers it"
        )
    return errors


CHECKS = {
    "layer-dag": check_layer_dag,
    "env-sync": check_env_sync,
    "header-banner": check_header_banner,
    "tsa-escape": check_tsa_escape,
    "metric-sync": check_metric_sync,
}


def lint(root: Path) -> list[str]:
    errors: list[str] = []
    for check in CHECKS.values():
        errors.extend(check(root))
    return errors


# ---------------------------------------------------------------------------
# Self-test: a minimal clean fixture must pass every rule, then one
# seeded violation per rule must be caught by exactly that rule.
# ---------------------------------------------------------------------------

_CLEAN_HEADER = (
    "// Widget.\n"
    "// Layer: §1 util — see docs/ARCHITECTURE.md. Units: dimensionless.\n"
    "#pragma once\n"
)


_CLEAN_CATALOG = (
    "### Catalog\n\n"
    "| Metric | Type | Unit | Meaning |\n"
    "|---|---|---|---|\n"
    "| `svc.calls_total` | counter | calls | calls served |\n"
    "| `svc.<b>.calls_total` | counter | calls | per-bank share |\n\n"
    "### Scraping\n\n"
    "| `svc.not_a_catalog_row` | table after the catalog |\n"
)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _make_clean_fixture(root: Path) -> None:
    _write(root / "src/util/widget.h", _CLEAN_HEADER)
    _write(
        root / "src/runtime/svc.h",
        '// Svc.\n// Layer: §10 runtime — see docs/ARCHITECTURE.md.\n'
        '#pragma once\n#include "util/widget.h"\n',
    )
    _write(
        root / "src/runtime/svc.cpp",
        '#include "runtime/svc.h"\n'
        'static const char* k = "TCIM_SCALE";\n'
        'auto& calls = reg.GetCounter("svc.calls_total");\n',
    )
    _write(root / "README.md", "Set TCIM_SCALE to shrink workloads.\n")
    _write(root / METRICS_DOC, _CLEAN_CATALOG)
    _write(root / "CMakeLists.txt", "project(fixture)\n")


def self_test() -> int:
    failures = []

    def expect(name: str, errors: list[str], rule: str, needle: str) -> None:
        hits = [e for e in errors if e.startswith(rule + ":") and needle in e]
        if not hits:
            failures.append(
                f"self-test {name}: expected a `{rule}` violation mentioning "
                f"{needle!r}, got: {errors or '[]'}"
            )

    with tempfile.TemporaryDirectory(prefix="lint_tcim_selftest_") as tmp:
        root = Path(tmp)

        _make_clean_fixture(root)
        clean = lint(root)
        if clean:
            failures.append(f"self-test clean fixture: expected no errors, got {clean}")

        # layer back-edge: util including runtime.
        _make_clean_fixture(root)
        _write(
            root / "src/util/widget.h",
            _CLEAN_HEADER + '#include "runtime/svc.h"\n',
        )
        expect("layer back-edge", lint(root), "layer-dag", "src/util/widget.h")

        # undocumented env var read.
        _make_clean_fixture(root)
        _write(
            root / "src/runtime/svc.cpp",
            '#include "runtime/svc.h"\n'
            'static const char* k = "TCIM_UNDOCUMENTED_KNOB";\n',
        )
        expect("undocumented env var", lint(root), "env-sync",
               "TCIM_UNDOCUMENTED_KNOB")

        # documented-but-phantom env var.
        _make_clean_fixture(root)
        _write(root / "README.md",
               "Set TCIM_SCALE. Also TCIM_PHANTOM_KNOB does nothing.\n")
        expect("phantom documented var", lint(root), "env-sync",
               "TCIM_PHANTOM_KNOB")

        # missing header banner.
        _make_clean_fixture(root)
        _write(root / "src/util/widget.h", "// Widget, no banner.\n#pragma once\n")
        expect("missing banner", lint(root), "header-banner",
               "src/util/widget.h")

        # thread-safety-analysis escape outside the allowlist.
        _make_clean_fixture(root)
        _write(
            root / "src/runtime/svc.cpp",
            '#include "runtime/svc.h"\n'
            'static const char* k = "TCIM_SCALE";\n'
            "void F() TCIM_NO_THREAD_SAFETY_ANALYSIS {}\n",
        )
        expect("tsa escape", lint(root), "tsa-escape", "src/runtime/svc.cpp")

        # stale catalog row: documented, registered nowhere.
        _make_clean_fixture(root)
        _write(
            root / METRICS_DOC,
            _CLEAN_CATALOG.replace(
                "\n\n### Scraping",
                "\n| `svc.pairs_perpair_total` | counter | pairs | gone |"
                "\n\n### Scraping",
            ),
        )
        expect("stale catalog row", lint(root), "metric-sync",
               "svc.pairs_perpair_total")

        # registered metric missing from the catalog.
        _make_clean_fixture(root)
        _write(
            root / "src/runtime/svc.cpp",
            '#include "runtime/svc.h"\n'
            'static const char* k = "TCIM_SCALE";\n'
            'auto& calls = reg.GetCounter("svc.calls_total");\n'
            'auto& depth = reg.GetGauge(\n    "svc.queue_depth");\n',
        )
        expect("undocumented metric", lint(root), "metric-sync",
               "svc.queue_depth")

    if failures:
        print("\n".join(failures))
        return 1
    print("lint_tcim self-test: all seeded violations caught; clean fixture passes")
    return 0


def main(argv: list[str]) -> int:
    if "--self-test" in argv:
        return self_test()
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    errors = lint(root)
    if errors:
        print("\n".join(errors))
        print(f"lint_tcim: {len(errors)} violation(s)")
        return 1
    print("lint_tcim: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
