#!/usr/bin/env python3
"""Project-specific lint pass, enforced in CI and registered under ctest.

Rules (see `--list-rules`; docs/CORRECTNESS.md mirrors this list and
scripts/check_docs.py fails if the two drift):

  header-pragma-once          every src/**/*.hpp starts its include guard
                              with #pragma once
  no-using-namespace-headers  no `using namespace` in any src/**/*.hpp
  umbrella-complete-sorted    src/busytime.hpp includes every src header,
                              exactly once, in sorted order
  no-stdio-in-library         no std::cout / printf( / rand( / time( in
                              library code (src/; CLI, bench and examples
                              live outside src/ and may print)
  metric-catalog-sorted       obs::kMetricCatalog rows stay sorted by metric
                              name
  cmake-sources-complete      the explicit BUSYTIME_SOURCES list in
                              CMakeLists.txt matches src/**/*.cpp exactly
  no-test-only-headers        every src/**/*.hpp but the umbrella is
                              included by some file outside tests/ (not
                              counting the umbrella and its own .cpp); a
                              module only tests reach belongs in
                              tests/support/

Header *self-containment* is enforced by the build itself: CMake generates
one TU per header into the `busytime_header_check` target, so it is not a
rule here.

Modes:
  lint_project.py               lint the repository tree (exit 1 on findings)
  lint_project.py --root=DIR    lint another tree (used by the self-test)
  lint_project.py --list-rules  print `id<TAB>description` lines
  lint_project.py --self-test   seed violations into a temp tree and assert
                                every rule fires and the exit is nonzero
"""

import re
import sys
import tempfile
from pathlib import Path

RULES = [
    ("header-pragma-once",
     "every src/**/*.hpp contains #pragma once"),
    ("no-using-namespace-headers",
     "no `using namespace` in any src/**/*.hpp"),
    ("umbrella-complete-sorted",
     "src/busytime.hpp includes every src header, exactly once, sorted"),
    ("no-stdio-in-library",
     "no std::cout / printf( / rand( / time( in library code under src/"),
    ("metric-catalog-sorted",
     "obs::kMetricCatalog rows are sorted by metric name"),
    ("cmake-sources-complete",
     "the BUSYTIME_SOURCES list in CMakeLists.txt matches src/**/*.cpp"),
    ("no-test-only-headers",
     "every src header but busytime.hpp is included outside tests/, "
     "not counting busytime.hpp and its own .cpp"),
]

STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"')
BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.S)
LINE_COMMENT_RE = re.compile(r"//[^\n]*")
# Word-boundary keeps fprintf/snprintf, srand, busy_time() etc. legal.
STDIO_RE = re.compile(r"std::cout\b|\bprintf\s*\(|\brand\s*\(|\btime\s*\(")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
METRIC_CONST_RE = re.compile(r"inline constexpr char (k\w+)\[\]\s*=\s*\"([^\"]+)\"")
METRIC_USE_RE = re.compile(r"\{metric::(k\w+),")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)
# Every top-level source directory except tests/.
NON_TEST_DIRS = ("src", "bench", "examples", "fuzz", "perfbench")


def strip_code(text):
    """Removes string literals and comments so lint patterns only ever match
    real code tokens (doc comments legitimately mention std::cout)."""
    text = STRING_RE.sub('""', text)
    text = BLOCK_COMMENT_RE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    return LINE_COMMENT_RE.sub("", text)


def src_headers(root):
    return sorted((root / "src").rglob("*.hpp"))


def check_pragma_once(root):
    failures = []
    for hpp in src_headers(root):
        if "#pragma once" not in hpp.read_text():
            failures.append(f"header-pragma-once: {hpp.relative_to(root)}: "
                            f"missing #pragma once")
    return failures


def check_using_namespace(root):
    failures = []
    for hpp in src_headers(root):
        for line_no, line in enumerate(strip_code(hpp.read_text()).splitlines(), 1):
            if USING_NAMESPACE_RE.match(line):
                failures.append(
                    f"no-using-namespace-headers: {hpp.relative_to(root)}:"
                    f"{line_no}: `using namespace` leaks into every includer")
    return failures


def check_umbrella(root):
    umbrella = root / "src" / "busytime.hpp"
    if not umbrella.exists():
        return ["umbrella-complete-sorted: src/busytime.hpp is missing"]
    included = re.findall(r'#include "([^"]+)"', umbrella.read_text())
    expected = sorted(
        str(h.relative_to(root / "src")) for h in src_headers(root)
        if h != umbrella)
    failures = []
    for name in sorted(set(expected) - set(included)):
        failures.append(f"umbrella-complete-sorted: src/busytime.hpp: "
                        f"missing #include \"{name}\"")
    for name in sorted(set(included) - set(expected)):
        failures.append(f"umbrella-complete-sorted: src/busytime.hpp: "
                        f"includes nonexistent \"{name}\"")
    if not failures and included != expected:
        failures.append("umbrella-complete-sorted: src/busytime.hpp: "
                        "includes are complete but not sorted")
    return failures


def check_stdio(root):
    failures = []
    for ext in ("*.hpp", "*.cpp"):
        for path in sorted((root / "src").rglob(ext)):
            for line_no, line in enumerate(strip_code(path.read_text()).splitlines(), 1):
                match = STDIO_RE.search(line)
                if match:
                    failures.append(
                        f"no-stdio-in-library: {path.relative_to(root)}:"
                        f"{line_no}: library code must not call "
                        f"'{match.group(0).strip()}' (use obs/ or return data)")
    return failures


def check_metric_catalog(root):
    hpp = root / "src" / "obs" / "metrics.hpp"
    if not hpp.exists():
        return []  # tree has no obs layer; nothing to check
    text = hpp.read_text()
    names = dict(METRIC_CONST_RE.findall(text))
    start = text.find("kMetricCatalog[] = {")
    end = text.find("};", start)
    if start < 0 or end < 0:
        return ["metric-catalog-sorted: src/obs/metrics.hpp: cannot locate "
                "kMetricCatalog"]
    order = [names.get(k, k) for k in METRIC_USE_RE.findall(text[start:end])]
    failures = []
    for prev, cur in zip(order, order[1:]):
        if cur <= prev:
            failures.append(f"metric-catalog-sorted: src/obs/metrics.hpp: "
                            f"'{cur}' listed after '{prev}' (catalog must be "
                            f"sorted and duplicate-free)")
    return failures


def check_cmake_sources(root):
    cmake = root / "CMakeLists.txt"
    if not cmake.exists():
        return ["cmake-sources-complete: CMakeLists.txt is missing"]
    text = cmake.read_text()
    match = re.search(r"set\(BUSYTIME_SOURCES\b(.*?)\)", text, re.S)
    if not match:
        return ["cmake-sources-complete: CMakeLists.txt: no explicit "
                "set(BUSYTIME_SOURCES ...) block"]
    listed = set(re.findall(r"src/[\w/.-]+\.cpp", match.group(1)))
    actual = {str(p.relative_to(root)).replace("\\", "/")
              for p in (root / "src").rglob("*.cpp")}
    failures = []
    for name in sorted(actual - listed):
        failures.append(f"cmake-sources-complete: CMakeLists.txt: {name} "
                        f"exists but is not in BUSYTIME_SOURCES")
    for name in sorted(listed - actual):
        failures.append(f"cmake-sources-complete: CMakeLists.txt: {name} "
                        f"is listed but does not exist")
    return failures


def check_test_only_headers(root):
    umbrella = root / "src" / "busytime.hpp"
    used = set()
    for top in NON_TEST_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in (".hpp", ".cpp") or path == umbrella:
                continue
            for name in INCLUDE_RE.findall(path.read_text()):
                header = root / "src" / name
                if header.with_suffix(".cpp") != path:  # not its own .cpp
                    used.add(header)
    failures = []
    for hpp in src_headers(root):
        if hpp != umbrella and hpp not in used:
            failures.append(
                f"no-test-only-headers: {hpp.relative_to(root)}: no file "
                f"outside tests/ includes it (move a test-only module to "
                f"tests/support/, or include it where it is used)")
    return failures


CHECKS = [check_pragma_once, check_using_namespace, check_umbrella,
          check_stdio, check_metric_catalog, check_cmake_sources,
          check_test_only_headers]


def run_checks(root):
    failures = []
    for check in CHECKS:
        failures += check(root)
    return failures


# ------------------------------------------------------------- self-test --

def seed_violation_tree(root):
    """Writes a miniature repo violating every rule at least once."""
    (root / "src" / "core").mkdir(parents=True)
    (root / "src" / "obs").mkdir(parents=True)
    # header-pragma-once + no-using-namespace-headers
    (root / "src" / "core" / "naughty.hpp").write_text(
        "#ifndef NAUGHTY_HPP\n#define NAUGHTY_HPP\n"
        "using namespace std;\n#endif\n")
    # no-stdio-in-library (each banned call on its own line; the comment and
    # string mentions must NOT fire)
    (root / "src" / "core" / "good.cpp").write_text(
        '#include <cstdio>\n'
        '// a comment saying std::cout is fine\n'
        'const char* kMsg = "printf( in a string is fine";\n'
        'void f() { std::cout << 1; }\n'
        'void g() { printf("x"); }\n'
        'int h() { return rand(); }\n'
        'long t() { return time(nullptr); }\n')
    (root / "src" / "core" / "missing.cpp").write_text("int unused;\n")
    # no-test-only-headers: oracle.hpp is included by its own .cpp, the
    # umbrella and a test only; used.hpp by a bench, so it must not fire
    (root / "src" / "core" / "oracle.hpp").write_text("#pragma once\n")
    (root / "src" / "core" / "oracle.cpp").write_text(
        '#include "core/oracle.hpp"\n')
    (root / "src" / "core" / "used.hpp").write_text("#pragma once\n")
    (root / "bench").mkdir()
    (root / "bench" / "tbl.cpp").write_text('#include "core/used.hpp"\n')
    (root / "tests").mkdir()
    (root / "tests" / "oracle_test.cpp").write_text(
        '#include "core/oracle.hpp"\n')
    # umbrella-complete-sorted: missing naughty.hpp, includes a ghost header
    (root / "src" / "busytime.hpp").write_text(
        '#pragma once\n#include "core/ghost.hpp"\n#include "core/oracle.hpp"\n')
    # metric-catalog-sorted: catalog rows out of order
    (root / "src" / "obs" / "metrics.hpp").write_text(
        '#pragma once\n'
        'inline constexpr char kBbb[] = "b.b";\n'
        'inline constexpr char kAaa[] = "a.a";\n'
        'inline constexpr MetricDef kMetricCatalog[] = {\n'
        '    {metric::kBbb, MetricKind::kCounter, "b"},\n'
        '    {metric::kAaa, MetricKind::kCounter, "a"},\n'
        '};\n')
    # cmake-sources-complete: missing.cpp absent, phantom.cpp listed
    (root / "CMakeLists.txt").write_text(
        "set(BUSYTIME_SOURCES\n"
        "    src/core/good.cpp\n"
        "    src/core/phantom.cpp)\n")


def self_test():
    with tempfile.TemporaryDirectory(prefix="busytime_lint_selftest_") as tmp:
        root = Path(tmp)
        seed_violation_tree(root)
        failures = run_checks(root)
        fired = {f.split(":", 1)[0] for f in failures}
        missing = [rule for rule, _ in RULES if rule not in fired]
        for f in failures:
            print(f"  seeded: {f}")
        if missing:
            print(f"self-test FAILED: rules never fired: {missing}",
                  file=sys.stderr)
            return 1
        # False-positive guards: the comment/string mentions must not fire...
        stdio = [f for f in failures if f.startswith("no-stdio-in-library")]
        if len(stdio) != 4:
            print(f"self-test FAILED: expected exactly 4 stdio findings "
                  f"(cout/printf/rand/time), got {len(stdio)}", file=sys.stderr)
            return 1
        # ...nor does a header a bench includes, while the one that only its
        # own .cpp, the umbrella and a test include does.
        test_only = {f.split(":")[1].strip() for f in failures
                     if f.startswith("no-test-only-headers")}
        if ("src/core/oracle.hpp" not in test_only
                or "src/core/used.hpp" in test_only):
            print(f"self-test FAILED: expected oracle.hpp and not used.hpp "
                  f"among the test-only findings, got {sorted(test_only)}",
                  file=sys.stderr)
            return 1
        print(f"self-test ok: all {len(RULES)} rules fired "
              f"({len(failures)} seeded findings)")
        return 0


def main():
    root = Path(__file__).resolve().parent.parent
    mode = "lint"
    for arg in sys.argv[1:]:
        if arg == "--self-test":
            mode = "self-test"
        elif arg == "--list-rules":
            mode = "list-rules"
        elif arg.startswith("--root="):
            root = Path(arg[len("--root="):])
        else:
            sys.exit(f"unknown argument: {arg}")

    if mode == "list-rules":
        for rule, description in RULES:
            print(f"{rule}\t{description}")
        return
    if mode == "self-test":
        sys.exit(self_test())

    failures = run_checks(root)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    if not failures:
        print(f"lint ok: {len(RULES)} rules over "
              f"{len(src_headers(root))} headers")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
